"""Data model and ingestion for court sentencing decisions.

A corpus is a directory of UTF-8 ``.txt`` files (one decision each) plus a
``metadata.json`` sidecar: an array of ``{filename, case_id, year, court}``
objects. Annotations are line-delimited JSON records with keys ``case_id``,
``sentence_index``, ``is_punishment`` and (for positives) ``months``. A
malformed metadata entry, file or annotation line becomes a ``LoadError``
for that record and loading goes on. Every field must have its JSON type:
``case_id`` and ``court`` are strings (``null`` is no case id, ``12`` no
court), ``"false"`` is not false and ``1.9`` is not a month count.

Every loader checks its input here, without numpy: ``read_input`` reads a
UTF-8 (JSON) file and ``field`` checks one field against its JSON kind.
``write_atomic`` is the one writer of an output file, model files included:
it writes a temp file beside the target and renames it over the target.
They raise ``InputError``, the one exception meaning bad input: the CLI
exits 1 on it or an ``OSError``, and 2 on anything else, a bug.

``segment_sentences`` jumps with a compiled regular expression from one run
of terminal punctuation followed by whitespace (or the end of the text) to
the next, so its cost grows with the number of such runs rather than the
number of characters. Before a lone period it checks for an abbreviation
with one ``str.endswith`` over all of them, and takes the word before the
period (``rsplit``) only when some abbreviation ends there; the word is
never walked back one character at a time.

A ``Decision`` holds the stripped sentence texts the splitter produces, not
``Sentence``s: nine in ten sentences hold no filter keyword, and selection
reads nothing of those but their text. ``Decision.sentence(i)`` is the one
place a ``Sentence`` (with its token count and relative position) is built;
the keyword filter builds one per candidate only, and ``.sentences`` builds
them all on each use for ``segment``, the reader of every sentence. No
``Sentence`` and no raw text is kept on a decision.
``token_count`` is the one token-count rule: ``Decision.sentence``, ``stats``
and ``pipeline.max_token_count`` (a model's token scale) all read it, the
last two from the texts alone.
"""

from __future__ import annotations

import io
import json
import logging
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

logger = logging.getLogger(__name__)

# Legal abbreviations whose trailing period must not end a sentence.
# Entries are compared against the whole whitespace-delimited word that
# precedes the period, after stripping opening brackets/quotes. An entry may
# be written with its own trailing period ("עמ." works like "עמ").
DEFAULT_ABBREVIATIONS = frozenset(
    ["ת.פ", "ע.פ", "ת.א", "בג.ץ", "מ.י", "ד.נ", "פרופ", "עמ", "מס", "טל"]
)

# A maximal run of terminals that ends a sentence unless an abbreviation
# precedes it; runs followed by anything else (31.5.12, 3.5) never split.
# Spelled [.?!][.?!]* rather than [.?!]+ because the regex engine skips
# ahead to a match's first character only when the pattern starts with a
# plain character class, which halves the scan.
_SPLIT_RUN = re.compile(r"[.?!][.?!]*(?=\s|\Z)")
_OPENERS = "([{\"'"


def token_count(text: str) -> int:
    """The number of whitespace-delimited tokens of a sentence text."""
    return len(text.split())


class Sentence(NamedTuple):
    """One segmented sentence with its position inside the decision."""

    index: int
    text: str
    token_count: int
    relative_position: float


@dataclass(frozen=True)
class Decision:
    """A single sentencing decision: its metadata and its sentence texts."""

    case_id: str
    year: int
    court: str
    texts: tuple[str, ...]

    @classmethod
    def from_text(
        cls,
        case_id: str,
        raw_text: str,
        year: int = 0,
        court: str = "",
    ) -> "Decision":
        return cls(
            case_id=case_id,
            year=year,
            court=court,
            texts=sentence_texts(raw_text),
        )

    def sentence(self, index: int) -> Sentence:
        """Sentence ``index``, with its token count and relative position."""
        text = self.texts[index]
        position = index / max(len(self.texts) - 1, 1)
        # tuple.__new__ is how Sentence._make builds one; it skips the keyword
        # binding of Sentence(...)
        return tuple.__new__(Sentence, (index, text, token_count(text), position))

    @property
    def sentences(self) -> tuple[Sentence, ...]:
        """Every sentence, built anew on each use."""
        return tuple(map(self.sentence, range(len(self.texts))))


@dataclass(frozen=True)
class AnnotationRecord:
    """Gold label for one sentence: punishment flag and months when positive."""

    case_id: str
    sentence_index: int
    is_punishment: bool
    months: int | None = None

    MONTHS_CAP = 1200

    def validate(self) -> None:
        if self.sentence_index < 0:
            # a negative index names no sentence
            raise ValueError(f"sentence_index {self.sentence_index} is negative")
        if self.is_punishment:
            if self.months is None:
                raise ValueError("punishment record must carry months")
            if not 0 <= self.months <= self.MONTHS_CAP:
                raise ValueError(f"months {self.months} outside [0, {self.MONTHS_CAP}]")
        elif self.months is not None:
            raise ValueError("non-punishment record must not carry months")


@dataclass(frozen=True)
class CorpusStats:
    num_cases: int
    num_sentences: int
    num_words: int
    sentence_length_mean: float
    sentence_length_std: float
    sentence_length_min: int
    sentence_length_max: int


class InputError(ValueError):
    """A file or value given to the program that it refuses: bad input, not a bug."""


def _is_number(value: object) -> bool:
    # bool is an int subclass, but true is not a number; NaN compares false, so
    # a NaN weight or threshold would silently select nothing; and an integer
    # past the float range is not finite as a float
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return -sys.float_info.max <= value <= sys.float_info.max


# A JSON "\ud800" escape loads as a lone surrogate, which is not text: no
# UTF-8 output can hold it.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _is_text(value: object) -> bool:
    return isinstance(value, str) and not _SURROGATE.search(value)


def _list_of(test: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda v: isinstance(v, list) and all(map(test, v))


def _is_int(value: object) -> bool:
    # bool is an int subclass, but true is not 1
    return isinstance(value, int) and not isinstance(value, bool)


_texts = _list_of(_is_text)

# The values a field accepts: (test, description).
Kind = tuple[Callable[[object], bool], str]

# The JSON kinds ``field`` checks by name.
_KINDS: dict[str, Kind] = {
    "object": (lambda v: isinstance(v, dict), "an object"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "string": (_is_text, "a Unicode string"),
    "strings": (_texts, "a list of Unicode strings"),
    "nonempty_strings": (lambda v: _texts(v) and v != [], "a non-empty list of Unicode strings"),
    "int": (_is_int, "an integer"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "number": (_is_number, "a finite number"),
    "numbers": (_list_of(_is_number), "a list of finite numbers"),
}


def field(doc: dict, name: str, kind: str | Kind, where: str, error: type = InputError):
    """``doc[name]``, refused with ``error`` (an ``InputError``) when it is
    missing or not of ``kind``: a key of ``_KINDS``, or the ``Kind`` of the
    values this one field accepts.

    ``where`` is the dotted path of ``doc``, starting with the label of its
    document ("model file", "lexicon.numerals.tens"); the error names the
    field by the rest of that path and ``name`` ("'numerals.tens.20'").
    """
    test, described = _KINDS[kind] if isinstance(kind, str) else kind
    if name in doc and test(doc[name]):
        return doc[name]
    label, _, parent = where.partition(".")
    path = f"{parent}.{name}" if parent else name
    if name not in doc:
        raise error(f"{label} is missing the {path!r} field")
    raise error(f"{label} field {path!r} must be {described}, got {doc[name]!r}")


def read_input(path: str | Path, parse: Callable[[str], object] = json.loads):
    """``parse`` of the text of the UTF-8 file at ``path`` (``str`` for the
    text itself). A file that is not UTF-8, or not JSON when ``parse`` is
    ``json.loads``, is refused with an InputError naming it."""
    try:
        return parse(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 at byte offset {exc.start}") from None
    except (ValueError, RecursionError) as exc:
        # json.loads raises a ValueError on an integer of over 4300 digits
        # too, and a RecursionError on nesting too deep for it
        raise InputError(f"{path}: not valid JSON: {exc}") from None


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 through a temp file renamed over
    it, so a failed write leaves any existing file as it was."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class LoadError(NamedTuple):
    """One recoverable ingestion problem, attributed to its source."""

    source: str
    message: str


class CorpusLoadResult(NamedTuple):
    decisions: list[Decision]
    errors: list[LoadError]


class AnnotationLoadResult(NamedTuple):
    records: list[AnnotationRecord]
    errors: list[LoadError]


def _word_before(text: str, start: int, end: int) -> str:
    """The whitespace-delimited word of ``text[start:end]`` that ends at ``end``."""
    if end == start or text[end - 1].isspace():
        return ""
    return text[start:end].rsplit(None, 1)[-1]


def sentence_texts(
    raw_text: str, abbreviations: Iterable[str] = DEFAULT_ABBREVIATIONS
) -> tuple[str, ...]:
    """Split text into stripped, non-empty sentence texts on terminal
    punctuation (. ? !).

    A maximal run of terminals only splits when followed by whitespace or
    end of text, which keeps decimal numbers, dates (31.5.12) and docket
    tokens (1124/04) intact; a lone period never splits after a configured
    abbreviation (the word back to the previous whitespace, opening
    brackets and quotes stripped). An abbreviation listed with one trailing
    period works like the same entry without it.
    """
    # The word before a lone period never ends in a period (it would have
    # joined the terminal run), so an entry drops its one trailing period;
    # the empty entry matches no word.
    abbrev = frozenset(a.removesuffix(".") for a in abbreviations) - {""}
    # An abbreviation that the word before a period matches is a suffix of
    # the text before that period, so a period after none needs no word.
    suffixes = tuple(abbrev)
    chunks: list[str] = []
    start = 0
    for run in _SPLIT_RUN.finditer(raw_text):
        i, end = run.span()
        if (
            end - i == 1
            and raw_text[i] == "."
            and raw_text.endswith(suffixes, start, i)
            and _word_before(raw_text, start, i).lstrip(_OPENERS) in abbrev
        ):
            continue
        chunks.append(raw_text[start:end])
        start = end
    chunks.append(raw_text[start:])
    return tuple(t for t in (c.strip() for c in chunks) if t)


def segment_sentences(
    raw_text: str, abbreviations: Iterable[str] = DEFAULT_ABBREVIATIONS
) -> list[Sentence]:
    """The ``Sentence``s of ``sentence_texts(raw_text, abbreviations)``."""
    return list(Decision("", 0, "", sentence_texts(raw_text, abbreviations)).sentences)


def load_corpus(
    directory_path: str | Path,
    metadata_path: str | Path | None = None,
) -> CorpusLoadResult:
    """Load every ``.txt`` decision in a directory, sorted by case_id.

    ``metadata_path`` defaults to ``metadata.json`` inside the directory;
    without it, a directory holding no ``.txt`` file is an empty corpus,
    while a named metadata file that does not exist is an error whatever the
    directory holds. Problems are collected per file or metadata entry
    (unreadable file, bad encoding, missing or malformed metadata, duplicate
    case_id) and loading continues past them; a file listed twice loads
    nothing, and each later entry is an error. A corpus path that is not a
    directory, or a metadata file that is not a JSON array, is one error and
    loads nothing.
    """
    directory = Path(directory_path)
    named = metadata_path is not None
    metadata_path = Path(metadata_path) if named else directory / "metadata.json"
    errors: list[LoadError] = []
    if not directory.is_dir():
        return CorpusLoadResult([], [LoadError(str(directory), "corpus path is not a directory")])
    if not named and not metadata_path.exists() and not any(directory.glob("*.txt")):
        return CorpusLoadResult([], [])
    try:
        raw_meta = read_input(metadata_path)
    except (OSError, InputError) as exc:
        return CorpusLoadResult([], [LoadError(str(metadata_path), str(exc))])

    if not isinstance(raw_meta, list):
        error = LoadError(str(metadata_path), "metadata is not a JSON array")
        return CorpusLoadResult([], [error])
    by_filename: dict[str, dict] = {}
    first_at: dict[str, int] = {}  # each listed filename's first position
    for position, entry in enumerate(raw_meta):
        source = f"{metadata_path}[{position}]"
        if not isinstance(entry, dict):
            errors.append(LoadError(source, "metadata entry is not a JSON object"))
        elif not isinstance(entry.get("filename"), str):
            errors.append(LoadError(source, "metadata entry has no filename string"))
        elif (name := entry["filename"]) in first_at:
            message = f"filename {name!r} is already listed at [{first_at[name]}]"
            errors.append(LoadError(source, message))
            by_filename.pop(name, None)
        else:
            first_at[name] = position
            by_filename[name] = entry

    decisions = []
    seen_ids: set[str] = set()
    seen_files: set[str] = set()
    for path in sorted(directory.glob("*.txt")):
        seen_files.add(path.name)
        meta = by_filename.get(path.name)
        if meta is None:
            if path.name not in first_at:
                errors.append(LoadError(path.name, "file has no metadata entry"))
            continue
        try:
            text = read_input(path, str)
            case_id = field(meta, "case_id", "string", "metadata entry")
            year = field(meta, "year", "int", "metadata entry") if "year" in meta else 0
            court = field(meta, "court", "string", "metadata entry") if "court" in meta else ""
        except (OSError, InputError) as exc:
            errors.append(LoadError(path.name, str(exc)))
            continue
        if not case_id:
            errors.append(LoadError(path.name, "empty case_id"))
            continue
        if case_id in seen_ids:
            errors.append(LoadError(path.name, f"duplicate case_id {case_id!r}"))
            continue
        seen_ids.add(case_id)
        decisions.append(Decision.from_text(case_id, text, year, court))
    for filename in sorted(first_at.keys() - seen_files):
        errors.append(LoadError(filename, "listed in metadata but file not found"))

    decisions.sort(key=lambda d: d.case_id)
    return CorpusLoadResult(decisions, errors)


def load_annotations(path: str | Path) -> AnnotationLoadResult:
    """Parse line-delimited annotation records.

    Malformed records are rejected with a per-line error; duplicate
    (case_id, sentence_index) pairs resolve last-wins with a warning.
    """
    errors: list[LoadError] = []
    by_key: dict[tuple[str, int], AnnotationRecord] = {}
    # universal newlines, as a text-mode file reads its lines
    lines = io.StringIO(read_input(path, str), newline=None)
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        source = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # as in read_input
            errors.append(LoadError(source, f"bad JSON: {exc}"))
            continue
        try:
            if not isinstance(obj, dict):
                raise InputError(f"annotation must be a JSON object, got {obj!r}")
            record = AnnotationRecord(
                case_id=field(obj, "case_id", "string", "annotation"),
                sentence_index=field(obj, "sentence_index", "int", "annotation"),
                is_punishment=field(obj, "is_punishment", "bool", "annotation"),
                months=field(obj, "months", "int", "annotation") if "months" in obj else None,
            )
            record.validate()
        except ValueError as exc:
            errors.append(LoadError(source, f"rejected: {exc}"))
            continue
        key = (record.case_id, record.sentence_index)
        if key in by_key:
            logger.warning("duplicate annotation for %s; keeping the later record", key)
        by_key[key] = record
    return AnnotationLoadResult(list(by_key.values()), errors)


def annotations_in_range(
    records: list[AnnotationRecord], decisions: Iterable[Decision], source: str
) -> AnnotationLoadResult:
    """``records`` without those whose ``sentence_index`` is past the last
    sentence of their loaded decision, each of which is a ``LoadError``
    attributed to ``source``. A record of a case not in ``decisions`` is kept.
    """
    lengths = {d.case_id: len(d.texts) for d in decisions}
    kept, errors = [], []
    for record in records:
        length = lengths.get(record.case_id, math.inf)
        if record.sentence_index < length:
            kept.append(record)
        else:
            message = (
                f"rejected: case {record.case_id!r} sentence_index {record.sentence_index}"
                f" is past its decision's {length} sentences"
            )
            errors.append(LoadError(source, message))
    return AnnotationLoadResult(kept, errors)


def corpus_stats(decisions: Iterable[Decision]) -> CorpusStats:
    """Population statistics over sentence lengths (in whitespace tokens)."""
    decisions = list(decisions)
    lengths = [token_count(text) for d in decisions for text in d.texts]
    num_cases = len(decisions)
    if not lengths:
        return CorpusStats(num_cases, 0, 0, 0.0, 0.0, 0, 0)
    total = sum(lengths)
    mean = total / len(lengths)
    var = sum((x - mean) ** 2 for x in lengths) / len(lengths)
    return CorpusStats(
        num_cases=num_cases,
        num_sentences=len(lengths),
        num_words=total,
        sentence_length_mean=mean,
        sentence_length_std=math.sqrt(var),
        sentence_length_min=min(lengths),
        sentence_length_max=max(lengths),
    )


def prelabel_negatives(decision: Decision, lexicon) -> list[tuple[int, bool]]:
    """Mark sentences with no filter keyword as automatic negatives."""
    return [
        (index, not lexicon.contains_filter_keyword(text))
        for index, text in enumerate(decision.texts)
    ]
