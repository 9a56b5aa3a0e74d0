"""Tiered keyword lists and the numeral lexicon.

The lexicon is data, not code: a JSON document with one array per scored
tier (each entry an object ``{"surface": ..., "weight": optional}``), the
default weight of each tier (``tier_weights``, all four required), the
rule-score ``threshold``, the ``structural`` adjustments (all three), the
``duration`` weights of the per-span duration scorer (all five), the
filter/marker lists, the time-unit surface forms, and a sibling ``numerals``
section. Every section is required. A default Hebrew lexicon ships with the
package, is meant to be edited, and is the one place these values are set:
every scoring value reaches the code through the ``Lexicon``, a tier's
default weight as that of each entry that sets none. ``load_lexicon`` checks
every field with ``corpus.field`` (numbers must be finite) and raises an
``InputError`` (exit 1 in the CLI) naming it by its dotted path, so a
mistyped file is refused, not coerced. So are a tier entry that is not such
an object (a bare string), a weight name its section lacks, in the file or
in a keyword override, a blank entry in any word list and a ``numerals`` key
that is not a plain ASCII decimal.

Each ``Lexicon`` compiles its word and phrase lists once, when it is built,
into one ``PhraseIndex`` keyed by a phrase's first word, over the four tiers
and the fine, probation and actual marker lists, each entry tagged with its
list. ``Lexicon.scan`` takes a sentence's stripped tokens, which
``analysis.scan`` computes once, and splits the hits by tag into the tier
hits and the three marker lists' positions, so a sentence costs one pass of
O(tokens) however long the lists are; this is the token-level case of
Aho-Corasick multi-pattern matching. The pass runs in C (``compress`` over
``map`` of a dict membership test), and Python code runs only at the few
tokens that begin an entry. Single-character entries of the tiers (docket
slash, brackets) are compiled into one character class, found in the raw
text by one ``finditer``. The filter keywords are compiled into one regular
expression, a single search per sentence, and ``candidate_indices`` maps
that search over a decision's texts in C.

A ``NumeralLexicon`` keeps one table, ``roles``, from each stripped token it
has seen to that token's roles in the numeral grammar (``numbers.Roles``).
``numbers.token_roles`` fills it the first time a token is seen, so it holds
the vocabulary of the sentences analysed with that lexicon (one run's, in
the CLI), and a ``dataclasses.replace`` copy starts with an empty table.
"""

from __future__ import annotations

import dataclasses
import os
import re
from dataclasses import dataclass
from importlib import resources
from itertools import compress, count
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .corpus import InputError, field, read_input
from .numbers import Roles, TimeUnit

LEXICON_ENV_VAR = "MAASAR_LEXICON"

TIER_NAMES = ("strong_positive", "moderate_positive", "moderate_negative", "strong_negative")
# The marker lists, in the order ``Lexicon.scan`` returns their positions.
MARKER_LISTS = ("fine_markers", "probation_markers", "actual_markers")


@dataclass(frozen=True)
class StructuralWeights:
    """Score adjustments applied on top of tier hits."""

    number_with_unit_bonus: float
    number_without_unit_penalty: float
    fine_marker_penalty: float


STRUCTURAL_NAMES = tuple(f.name for f in dataclasses.fields(StructuralWeights))


@dataclass(frozen=True)
class DurationScoringConfig:
    """Weights of the per-span duration scorer (``extraction.score_duration_candidates``)."""

    unit_proximity_weight: float
    actual_marker_weight: float
    probation_penalty: float
    fine_penalty: float
    position_bonus: float


DURATION_NAMES = tuple(f.name for f in dataclasses.fields(DurationScoringConfig))


@dataclass(frozen=True)
class TierHit:
    tier: str
    surface: str
    position: int  # token index for words, character offset for marker chars
    weight: float


@dataclass(frozen=True)
class TierHits:
    hits: tuple[TierHit, ...] = ()

    def counts(self) -> tuple[int, ...]:
        """The number of hits of each tier, in ``TIER_NAMES`` order, from one pass."""
        counted = dict.fromkeys(TIER_NAMES, 0)
        for hit in self.hits:
            counted[hit.tier] += 1
        return tuple(counted.values())

    def weighted_sum(self) -> float:
        return sum(map(attrgetter("weight"), self.hits))


def is_marker_entry(surface: str) -> bool:
    """Whether a tier entry is a character entry (docket slash, brackets)."""
    return len(surface) == 1 and not surface.isalnum()


def _any_of(words: Iterable[str]) -> re.Pattern:
    """One pattern matching any of ``words`` (never, with none); the regex
    parser makes an alternation of single characters one character class."""
    words = sorted(words)
    return re.compile("|".join(map(re.escape, words)) if words else "(?!)")


class PhraseIndex:
    """Whitespace-separated phrases keyed by their first word.

    ``find`` tests each stripped token for membership in C and, at a
    token that begins an entry, checks the rest of the few phrases that
    start with it.
    """

    def __init__(self, entries: Iterable[tuple[str, object]]):
        """``entries`` are (phrase, payload) pairs; payloads come back from ``find``."""
        self._by_first: dict[str, list[tuple[tuple[str, ...], object]]] = {}
        for phrase, payload in entries:
            words = tuple(phrase.split())
            if not words:
                raise InputError(f"empty keyword or marker entry {phrase!r}")
            self._by_first.setdefault(words[0], []).append((words, payload))

    def find(self, stripped: tuple[str, ...]) -> list[tuple[int, object]]:
        """(start token, payload) of every occurrence, in token order."""
        found = []
        by_first = self._by_first
        for i in compress(count(), map(by_first.__contains__, stripped)):
            for words, payload in by_first[stripped[i]]:
                if len(words) == 1 or tuple(stripped[i : i + len(words)]) == words:
                    found.append((i, payload))
        return found


@dataclass(frozen=True)
class NumeralLexicon:
    """Hebrew number words, grouped by grammatical role.

    ``vocabulary`` holds every single word that may appear inside a number
    sequence; canonical maps drive generation (first listed variant wins).
    """

    zero_words: Mapping[str, int]
    units_words: Mapping[str, int]
    teens_words: Mapping[str, int]
    tens_words: Mapping[str, int]
    hundreds_words: Mapping[str, int]
    hundreds_single: Mapping[str, int]
    hundred_plural_markers: frozenset[str]
    conjunction_forms: tuple[str, ...]
    unit_only_words: Mapping[str, TimeUnit]
    dual_unit_words: Mapping[str, TimeUnit]
    half_words: frozenset[str]
    time_unit_words: Mapping[str, TimeUnit]
    vocabulary: frozenset[str]
    canonical_zero: str
    canonical_units: Mapping[str, Mapping[int, str]]
    canonical_teens: Mapping[str, Mapping[int, str]]
    canonical_tens: Mapping[int, str]
    canonical_hundreds: Mapping[int, str]
    # The roles of every stripped token seen so far, filled by
    # ``numbers.token_roles``; per instance, so a replaced copy starts empty.
    roles: dict[str, Roles] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def canonical_conjunction(self) -> str:
        return self.conjunction_forms[0]


@dataclass(frozen=True)
class Lexicon:
    """Keyword tiers, marker lists, weights and the numeral lexicon."""

    filter_keywords: frozenset[str]
    strong_positive: Mapping[str, float]
    moderate_positive: Mapping[str, float]
    moderate_negative: Mapping[str, float]
    strong_negative: Mapping[str, float]
    fine_markers: frozenset[str]
    probation_markers: frozenset[str]
    actual_markers: frozenset[str]
    threshold: float
    structural: StructuralWeights
    duration: DurationScoringConfig
    numerals: NumeralLexicon

    def __post_init__(self):
        # Compiled per instance, so dataclasses.replace recompiles the copy.
        # One index over every list: a payload is (list, surface, weight),
        # the list being a tier name, or a marker list's position in
        # MARKER_LISTS (weight None).
        # A character entry maps to its entries, one per tier listing it.
        char_markers: dict[str, list[tuple[str, str, float]]] = {}
        phrases = []
        for tier in TIER_NAMES:
            for surface, weight in self.tier(tier).items():
                entry = (tier, surface, weight)
                if is_marker_entry(surface):
                    char_markers.setdefault(surface, []).append(entry)
                else:
                    phrases.append((surface, entry))
        for slot, name in enumerate(MARKER_LISTS):
            phrases += ((marker, (slot, marker, None)) for marker in getattr(self, name))
        object.__setattr__(self, "_tier_chars", char_markers)
        object.__setattr__(self, "_find_tier_chars", _any_of(char_markers).finditer)
        object.__setattr__(self, "_index", PhraseIndex(phrases))
        # with no keywords nothing is a candidate
        object.__setattr__(self, "_filter_search", _any_of(self.filter_keywords).search)

    def tier(self, name: str) -> Mapping[str, float]:
        return getattr(self, name)

    def candidate_indices(self, texts: Iterable[str]) -> Iterator[int]:
        """The index of each text containing a filter keyword, in order."""
        return compress(count(), map(self._filter_search, texts))

    def scan(
        self, text: str, stripped: tuple[str, ...]
    ) -> tuple[TierHits, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Tier hits and the start token of every fine, probation and actual
        marker occurrence, from one pass over the tokens.

        Tier hits are sorted by (tier, position, surface); word entries match
        whole (punctuation-stripped) tokens, phrases match consecutive tokens,
        and single-character tier entries (docket slash, brackets) match
        anywhere in the raw text. Marker positions are in token order.
        ``stripped`` is ``tokens.stripped_tokens(text)``.
        """
        hits = []
        positions: tuple[list[int], ...] = ([], [], [])  # one per MARKER_LISTS name
        for i, (tag, surface, weight) in self._index.find(stripped):
            if weight is None:
                positions[tag].append(i)
            else:
                hits.append(TierHit(tag, surface, i, weight))
        for match in self._find_tier_chars(text):
            for tier, surface, weight in self._tier_chars[match.group()]:
                hits.append(TierHit(tier, surface, match.start(), weight))
        hits.sort(key=attrgetter("tier", "position", "surface"))
        return (TierHits(tuple(hits)), *map(tuple, positions))


def default_lexicon_path() -> Path:
    env = os.environ.get(LEXICON_ENV_VAR)
    if env:
        return Path(env)
    return Path(str(resources.files("maasar").joinpath("data/default_lexicon.json")))


def _weights(
    doc: dict, where: str, names: tuple[str, ...], overrides: Mapping[str, float] | None
) -> dict[str, float]:
    """A required section of named weights, each name present, then the overrides."""
    weights: dict[str, float] = {}
    for section in (field(doc, where, "object", "lexicon"), overrides or {}):
        for name in section:
            if name not in names:
                raise InputError(f"lexicon section {where!r} has no weight named {name!r}")
            weights[name] = field(section, name, "number", f"lexicon.{where}")
        for name in names:
            if name not in weights:
                raise InputError(f"lexicon section {where!r} is missing {name!r}")
    return weights


def _weight_record(doc: dict, where: str, cls: type, overrides: Mapping[str, float] | None):
    """A ``_weights`` section as the record ``cls``, whose fields are its weight names."""
    names = tuple(f.name for f in dataclasses.fields(cls))
    return cls(**{name: float(w) for name, w in _weights(doc, where, names, overrides).items()})


def _load_tier(doc: dict, name: str, default_weight: float) -> dict[str, float]:
    tier: dict[str, float] = {}
    for position, entry in enumerate(field(doc, name, "list", "lexicon")):
        if not (isinstance(entry, dict) and isinstance(entry.get("surface"), str)):
            raise InputError(
                f"lexicon tier {name!r} entry {position} must be an object "
                f"with a 'surface' string, got {entry!r}"
            )
        surface, weight = entry["surface"], default_weight
        if "weight" in entry:
            weight = float(field(entry, "weight", "number", f"lexicon.{name}[{position}]"))
        if not surface.strip():
            raise InputError(_blank_entry(name, position))
        tier[surface] = weight
    return tier


def _blank_entry(section: str, position: int) -> str:
    return f"lexicon section {section!r} entry {position} is empty"


def _words(doc: dict, name: str, where: str, kind: str = "strings") -> list[str]:
    """``field(doc, name, kind, where)``, a list of strings, none of them
    blank: a blank filter keyword is found in (nearly) every sentence, and a
    blank word matches a token that is all punctuation."""
    words = field(doc, name, kind, where)
    parent = where.partition(".")[2]
    for position, word in enumerate(words):
        if not word.strip():
            raise InputError(_blank_entry(f"{parent}.{name}" if parent else name, position))
    return words


def _unit_map(doc: dict, key: str) -> dict[str, TimeUnit]:
    out: dict[str, TimeUnit] = {}
    section = field(doc, key, "object", "lexicon")
    for unit_name in section:
        try:
            unit = TimeUnit(unit_name)
        except ValueError:
            unknown = f"lexicon section {key!r} has unknown time unit {unit_name!r}"
            raise InputError(unknown) from None
        for surface in _words(section, unit_name, f"lexicon.{key}"):
            out[surface] = unit
    return out


def _value_map(
    numerals: dict, key: str, lo: int, hi: int, step: int = 1
) -> tuple[dict[str, int], dict[int, str]]:
    """The variant -> value map of a section keyed by plain decimal values,
    and each value's canonical (first) variant."""
    where = f"numerals.{key}"
    out: dict[str, int] = {}
    canonical: dict[int, str] = {}
    section = field(numerals, key, "object", "lexicon.numerals")
    for value_text in section:
        # int() alone also reads "2_0", " 20", "+20", "020" and non-ASCII digits
        value = int(value_text) if value_text.isascii() and value_text.isdigit() else None
        if value is None or str(value) != value_text:
            raise InputError(f"{where} key {value_text!r} is not a plain decimal integer")
        if not (lo <= value <= hi and (value - lo) % step == 0):
            raise InputError(f"{where} value {value} outside its declared range")
        variants = _words(section, value_text, f"lexicon.{where}", "nonempty_strings")
        canonical[value] = variants[0]
        for variant in variants:
            out[variant] = value
    return out, canonical


def load_numerals(
    section: dict,
    time_units: Mapping[str, TimeUnit],
    unit_only: Mapping[str, TimeUnit],
    duals: Mapping[str, TimeUnit],
) -> NumeralLexicon:
    """The numeral lexicon of a lexicon file's ``numerals`` object."""
    zero = _words(section, "zero", "lexicon.numerals", "nonempty_strings")
    units_f, canonical_units_f = _value_map(section, "units_feminine", 1, 10)
    units_m, canonical_units_m = _value_map(section, "units_masculine", 1, 10)
    teens_f, canonical_teens_f = _value_map(section, "teens_feminine", 11, 19)
    teens_m, canonical_teens_m = _value_map(section, "teens_masculine", 11, 19)
    tens, canonical_tens = _value_map(section, "tens", 20, 90, step=10)
    hundreds, canonical_hundreds = _value_map(section, "hundreds", 100, 900, step=100)
    conjunctions = _words(section, "conjunctions", "lexicon.numerals", "nonempty_strings")
    half = frozenset(_words(section, "half", "lexicon.numerals"))

    units = {**units_f, **units_m}
    teens = {**teens_f, **teens_m}
    hundreds_single = {w: v for w, v in hundreds.items() if " " not in w}
    phrases = [w.split() for w in hundreds if " " in w]  # unit word + plural marker
    if any(len(words) != 2 for words in phrases):
        raise InputError("numerals.hundreds variants with a space must be exactly two words")
    plural_markers = frozenset(words[1] for words in phrases)
    vocab = set(zero) | set(units) | set(tens) | set(hundreds_single) | plural_markers
    for phrase in teens:
        vocab.update(phrase.split())
    return NumeralLexicon(
        zero_words=dict.fromkeys(zero, 0),
        units_words=units,
        teens_words=teens,
        tens_words=tens,
        hundreds_words=hundreds,
        hundreds_single=hundreds_single,
        hundred_plural_markers=plural_markers,
        conjunction_forms=tuple(conjunctions),
        unit_only_words=unit_only,
        dual_unit_words=duals,
        half_words=half,
        time_unit_words=time_units,
        vocabulary=frozenset(vocab),
        canonical_zero=zero[0],
        canonical_units={"feminine": canonical_units_f, "masculine": canonical_units_m},
        canonical_teens={"feminine": canonical_teens_f, "masculine": canonical_teens_m},
        canonical_tens=canonical_tens,
        canonical_hundreds=canonical_hundreds,
    )


def load_lexicon(
    path: str | Path | None = None,
    *,
    threshold: float | None = None,
    tier_weights: Mapping[str, float] | None = None,
    structural: Mapping[str, float] | None = None,
    duration: Mapping[str, float] | None = None,
) -> Lexicon:
    """Load and validate a lexicon file; None loads the bundled default.

    Keyword overrides replace the file's threshold, tier default weights,
    structural adjustments or duration weights, which is how CLI flags tune
    the scorers without editing the lexicon; an override may name only
    weights the file has.
    """
    path = Path(path) if path is not None else default_lexicon_path()
    doc = read_input(path)
    if not isinstance(doc, dict):
        raise InputError(f"lexicon file must hold a JSON object, got {type(doc).__name__}")

    weights = _weights(doc, "tier_weights", TIER_NAMES, tier_weights)
    if not (
        weights["strong_positive"]
        > weights["moderate_positive"]
        > 0
        > weights["moderate_negative"]
        > weights["strong_negative"]
    ):
        raise InputError(
            "tier weights must satisfy strong_positive > moderate_positive > 0 "
            "> moderate_negative > strong_negative"
        )
    tiers = {name: _load_tier(doc, name, weights[name]) for name in TIER_NAMES}

    overlaps = []
    names = list(tiers)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            shared = set(tiers[a]) & set(tiers[b])
            if shared:
                overlaps.append(f"{a}/{b}: {sorted(shared)}")
    if overlaps:
        raise InputError("tier lists must be disjoint; overlapping entries: " + "; ".join(overlaps))

    numerals = load_numerals(
        field(doc, "numerals", "object", "lexicon"),
        _unit_map(doc, "time_units"),
        _unit_map(doc, "unit_only"),
        _unit_map(doc, "dual_units"),
    )
    structural_weights = _weight_record(doc, "structural", StructuralWeights, structural)
    duration_weights = _weight_record(doc, "duration", DurationScoringConfig, duration)
    file_threshold = field(doc, "threshold", "number", "lexicon")
    if threshold is not None:
        field({"threshold": threshold}, "threshold", "number", "lexicon")

    def markers(name: str) -> frozenset[str]:
        return frozenset(_words(doc, name, "lexicon"))

    return Lexicon(
        filter_keywords=frozenset(_words(doc, "filter_keywords", "lexicon")),
        strong_positive=tiers["strong_positive"],
        moderate_positive=tiers["moderate_positive"],
        moderate_negative=tiers["moderate_negative"],
        strong_negative=tiers["strong_negative"],
        fine_markers=markers("fine_markers"),
        probation_markers=markers("probation_markers"),
        actual_markers=markers("actual_markers"),
        threshold=float(file_threshold if threshold is None else threshold),
        structural=structural_weights,
        duration=duration_weights,
        numerals=numerals,
    )
