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
it writes a temp file beside the target and renames it over the target. The
temp file is created with mode 0666 less the umask, so an output gets the
mode ``Path.write_text`` would give a new file.
They raise ``InputError``, the one exception meaning bad input: the CLI
exits 1 on it or an ``OSError``, and 2 on anything else, a bug.

``sentence_texts`` splits a text once, with ``re.split`` on a capturing
``_SPLIT_RUN`` (a run of terminal punctuation followed by whitespace or the
end of the text), into chunks and the runs between them, and spells each
sentence as chunk + run with ``map``, so no Python step runs per sentence.
``compress`` over one ``str.endswith`` per chunk less its trailing format
marks (all abbreviations at once, and the ``str.rstrip``, also in C) picks
out the chunks that end in an abbreviation; only at those
does Python code run, joining a text whose run is a lone period after an
abbreviation to the next, so that the period does not end its sentence.
The abbreviations are ``DEFAULT_ABBREVIATIONS``, the one set, made a suffix
tuple once, at import.

A ``Decision`` holds the stripped sentence texts the splitter produces, not
``Sentence``s: nine in ten sentences hold no filter keyword, and selection
reads nothing of those but their text. ``Decision.sentence(i)`` is the one
place a ``Sentence`` (with its token count and relative position) is built;
the keyword filter builds one per candidate only, and ``.sentences`` builds
them all on each use for ``segment``, the reader of every sentence. No
``Sentence`` and no raw text is kept on a decision.
``token_count`` is the one token-count rule: ``Decision.sentence`` and
``stats`` read it, the latter from the texts alone.
"""

from __future__ import annotations

import io
import json
import math
import operator
import os
import re
import sys
from dataclasses import dataclass
from itertools import compress, count, repeat
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .tokens import FORMAT_MARKS

# Legal abbreviations whose trailing period must not end a sentence.
# Entries are compared against the whole whitespace-delimited word that
# precedes the period, after stripping opening brackets/quotes and format
# marks. That word never ends in a period (it would have joined the terminal run), so an entry
# is written without its trailing period ("עמ", not "עמ.").
DEFAULT_ABBREVIATIONS = frozenset(
    ["ת.פ", "ע.פ", "ת.א", "בג.ץ", "מ.י", "ד.נ", "פרופ", "עמ", "מס", "טל"]
)

# A maximal run of terminals that ends a sentence unless an abbreviation
# precedes it; runs followed by anything else (31.5.12, 3.5) never split.
# The group makes ``re.split`` keep the runs. Spelled [.?!][.?!]* rather than
# [.?!]+ because the regex engine skips ahead to a match's first character
# only when the pattern starts with a plain character class; it looks
# through the group for it, and the skip halves the scan (``split`` over the
# 2,000 seed-1 synthetic texts: 0.076 s, against 0.169 s for ([.?!]+)).
# Format marks after the run belong to it, as they belong to its token.
_SPLIT_RUN = re.compile(rf"([.?!][.?!]*[{FORMAT_MARKS}]*)(?=\s|\Z)")
# Stripped from the left of the word before a period: openers and format marks.
_WORD_LEFT = "([{\"'" + FORMAT_MARKS

# An abbreviation that the word before a period matches is a suffix of
# its chunk, so only a chunk that ends in one can join the next.
_ABBREVIATION_SUFFIXES = tuple(DEFAULT_ABBREVIATIONS)


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

# The JSON kinds ``field`` checks, by name: (test, description).
_KINDS: dict[str, tuple[Callable[[object], bool], str]] = {
    "object": (lambda v: isinstance(v, dict), "an object"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "string": (_is_text, "a Unicode string"),
    "strings": (_texts, "a list of Unicode strings"),
    "nonempty_strings": (lambda v: _texts(v) and v != [], "a non-empty list of Unicode strings"),
    "int": (_is_int, "an integer"),
    # numpy's generators refuse a negative seed
    "nonnegative_int": (lambda v: _is_int(v) and v >= 0, "an integer of at least 0"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "number": (_is_number, "a finite number"),
    "numbers": (_list_of(_is_number), "a list of finite numbers"),
}


def field(doc: dict, name: str, kind: str, where: str):
    """``doc[name]``, refused with an ``InputError`` when it is missing or
    not of ``kind``, a key of ``_KINDS``.

    ``where`` is the dotted path of ``doc``, starting with the label of its
    document ("model file", "lexicon.numerals.tens"); the error names the
    field by the rest of that path and ``name`` ("'numerals.tens.20'").
    """
    test, described = _KINDS[kind]
    if name in doc and test(doc[name]):
        return doc[name]
    label, _, parent = where.partition(".")
    path = f"{parent}.{name}" if parent else name
    if name not in doc:
        raise InputError(f"{label} is missing the {path!r} field")
    raise InputError(f"{label} field {path!r} must be {described}, got {doc[name]!r}")


def read_input(path: str | Path, parse: Callable[[str], object] = json.loads):
    """``parse`` of the text of the UTF-8 file at ``path`` (``str`` for the
    text itself). A file that is not UTF-8, or not JSON when ``parse`` is
    ``json.loads``, is refused with an InputError naming it."""
    try:
        with open(path, "rb") as fh:
            return parse(fh.read().decode("utf-8"))
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
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    # O_EXCL opens no other writer's file; the kernel applies the umask to 0o666
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def sentence_texts(raw_text: str) -> tuple[str, ...]:
    """Split text into stripped, non-empty sentence texts on terminal
    punctuation (. ? !).

    A maximal run of terminals, with any ``tokens.FORMAT_MARKS`` after it,
    only splits when followed by whitespace or end of text, which keeps
    decimal numbers, dates (31.5.12) and docket tokens (1124/04) intact; a
    lone period never splits after one of the ``DEFAULT_ABBREVIATIONS`` (the
    word back to the previous whitespace, opening brackets, quotes and
    format marks stripped, and format marks after it).
    """
    # [chunk, run, chunk, ..., run, chunk]; the "" appended is the last
    # chunk's run, so that every text is chunk + run
    parts = _SPLIT_RUN.split(raw_text)
    parts.append("")
    chunks, runs = parts[::2], parts[1::2]
    # Format marks are looked past, as at a token's edges. A chunk that ends
    # in an abbreviation ends in the word before its run: every chunk but the
    # first starts with the whitespace after a run.
    unmarked = map(str.rstrip, chunks, repeat(FORMAT_MARKS))
    joins = [
        i
        for i in compress(count(), map(str.endswith, unmarked, repeat(_ABBREVIATION_SUFFIXES)))
        if runs[i].rstrip(FORMAT_MARKS) == "."
        and chunks[i].rsplit(None, 1)[-1].lstrip(_WORD_LEFT).rstrip(FORMAT_MARKS)
        in DEFAULT_ABBREVIATIONS
    ]
    # Joins i, i + 1, ..., j in a row make one text of chunks and runs i to
    # j + 1, kept at chunk j + 1 and joined once, so that a long row costs
    # linear time; the chunks and runs it takes become "", whose empty texts
    # the filter drops.
    held: list[str] = []
    for i, following in zip(joins, joins[1:] + [None]):
        held += chunks[i], runs[i]
        chunks[i] = runs[i] = ""
        if following != i + 1:
            held.append(chunks[i + 1])
            chunks[i + 1] = "".join(held)
            held = []
    return tuple(filter(None, map(str.strip, map(operator.add, chunks, runs))))


def _txt_files(directory: Path) -> list[tuple[str, str]]:
    """(name, path) of each ``*.txt`` entry of ``directory``, sorted by name:
    the entries of ``sorted(directory.glob("*.txt"))``, dotfiles and
    directories included, spelled as it spells them, with no ``Path`` per file
    (the directory as ``Path`` normalizes it, "" for ".", then the name)."""
    prefix = os.path.join(directory, "") if directory.parts else ""
    names = sorted(name for name in os.listdir(directory) if name.endswith(".txt"))
    return [(name, prefix + name) for name in names]


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
    directory, a directory that cannot be listed, or a metadata file that is
    not a JSON array, is one error and loads nothing.
    """
    directory = Path(directory_path)
    named = metadata_path is not None
    metadata_path = Path(metadata_path) if named else directory / "metadata.json"
    errors: list[LoadError] = []
    if not directory.is_dir():
        return CorpusLoadResult([], [LoadError(str(directory), "corpus path is not a directory")])
    try:
        files = _txt_files(directory)
    except OSError as exc:
        return CorpusLoadResult([], [LoadError(str(directory), str(exc))])
    if not named and not files and not metadata_path.exists():
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
    for name, path in files:
        seen_files.add(name)
        meta = by_filename.get(name)
        if meta is None:
            if name not in first_at:
                errors.append(LoadError(name, "file has no metadata entry"))
            continue
        try:
            text = read_input(path, str)
            case_id = field(meta, "case_id", "string", "metadata entry")
            year = field(meta, "year", "int", "metadata entry") if "year" in meta else 0
            court = field(meta, "court", "string", "metadata entry") if "court" in meta else ""
        except (OSError, InputError) as exc:
            errors.append(LoadError(name, str(exc)))
            continue
        if not case_id:
            errors.append(LoadError(name, "empty case_id"))
            continue
        if case_id in seen_ids:
            errors.append(LoadError(name, f"duplicate case_id {case_id!r}"))
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
    (case_id, sentence_index) pairs resolve last-wins, and each later record
    is an error too, attributed to its line.
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
            case, index = key
            message = f"duplicate annotation for case {case!r} sentence_index {index}"
            errors.append(LoadError(source, message + "; keeping this later record"))
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
    candidates = set(lexicon.candidate_indices(decision.texts))
    return [(index, index not in candidates) for index in range(len(decision.texts))]
