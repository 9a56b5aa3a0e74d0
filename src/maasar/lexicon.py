"""Tiered keyword lists and the numeral lexicon.

The lexicon is data, not code: a JSON document with one array per scored
tier (entries ``{"surface": ..., "weight": optional}``), the default
weight of each tier (``tier_weights``, all four required), the rule-score
``threshold``, the ``structural`` adjustments (all three required), the
``duration`` weights of the per-span duration scorer (all five required),
the filter/marker lists, the time-unit surface forms, and a sibling
``numerals`` section. Every section is required. A default Hebrew lexicon
ships with the package, is meant to be edited, and is the one place these
values are set: every scoring value reaches the code through the
``Lexicon``. ``load_lexicon`` checks the JSON type of every section it
reads and raises a ``LexiconError`` naming the section, so a mistyped file
is refused, not coerced; a weight name that ``tier_weights``,
``structural`` or ``duration`` does not have is refused too, in the file or
in a keyword override.

Each ``Lexicon`` compiles its word and phrase lists once, when it is built,
into one ``PhraseIndex`` keyed by a phrase's first word, over the four tiers
and the fine, probation and actual marker lists, each entry tagged with its
list. ``Lexicon.scan`` looks each stripped token up once and splits the hits
by tag into the tier hits and the three marker lists' positions, so a
sentence costs one pass of O(tokens) however long the lists are; this is
the token-level case of Aho-Corasick multi-pattern matching.
Single-character marker entries of the tiers (docket slash, brackets) are
kept in a short list and found in the raw text. The filter keywords are
compiled into one regular expression, so ``contains_filter_keyword`` is a
single search per sentence, and the numeral lexicon maps every bare and
conjunction-prefixed number word to its parts (``NumeralLexicon.word_forms``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping

from .numbers import TimeUnit
from .tokens import stripped_tokens

LEXICON_ENV_VAR = "MAASAR_LEXICON"

TIER_NAMES = ("strong_positive", "moderate_positive", "moderate_negative", "strong_negative")
# The marker lists, in the order ``Lexicon.scan`` returns their positions.
MARKER_LISTS = ("fine_markers", "probation_markers", "actual_markers")


class LexiconError(ValueError):
    """Raised when a lexicon file is missing sections or violates invariants."""


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


def _tier_count(tier: str) -> property:
    return property(
        lambda self: sum(h.tier == tier for h in self.hits), doc=f"Number of {tier} hits."
    )


@dataclass(frozen=True)
class TierHits:
    hits: tuple[TierHit, ...] = ()

    strong_positive = _tier_count("strong_positive")
    moderate_positive = _tier_count("moderate_positive")
    moderate_negative = _tier_count("moderate_negative")
    strong_negative = _tier_count("strong_negative")

    def weighted_sum(self) -> float:
        return sum(h.weight for h in self.hits)


def _is_marker_entry(surface: str) -> bool:
    return len(surface) == 1 and not surface.isalnum()


class PhraseIndex:
    """Whitespace-separated phrases keyed by their first word.

    ``find`` walks the stripped tokens once, looks each one up, and checks
    the rest of the few phrases that start with it.
    """

    def __init__(self, entries: Iterable[tuple[str, object]]):
        """``entries`` are (phrase, payload) pairs; payloads come back from ``find``."""
        self._by_first: dict[str, list[tuple[tuple[str, ...], object]]] = {}
        for phrase, payload in entries:
            words = tuple(phrase.split())
            if not words:
                raise LexiconError(f"empty keyword or marker entry {phrase!r}")
            self._by_first.setdefault(words[0], []).append((words, payload))

    def find(self, stripped: tuple[str, ...]) -> list[tuple[int, object]]:
        """(start token, payload) of every occurrence, in token order."""
        found = []
        get = self._by_first.get
        for i, token in enumerate(stripped):
            for words, payload in get(token, ()):
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
    # (has conjunction, bare word) for every number word with or without a
    # conjunction prefix; derived from the fields above, per instance.
    word_forms: Mapping[str, tuple[bool, str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        forms: dict[str, tuple[bool, str]] = {}
        # The first conjunction form that leaves a vocabulary word wins, and
        # a prefixed reading beats a bare one ("ושש" is "and six").
        for conj in self.conjunction_forms:
            for word in self.vocabulary:
                if word:
                    forms.setdefault(conj + word, (True, word))
        for word in self.vocabulary:
            forms.setdefault(word, (False, word))
        object.__setattr__(self, "word_forms", forms)

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
    tier_weights: Mapping[str, float]
    structural: StructuralWeights
    duration: DurationScoringConfig
    numerals: NumeralLexicon

    def __post_init__(self):
        # Compiled per instance, so dataclasses.replace recompiles the copy.
        # One index over every list: a payload is (list, surface, weight),
        # the list being a tier name or a MARKER_LISTS name (weight None).
        char_markers, phrases = [], []
        for tier in TIER_NAMES:
            for surface, weight in self.tier(tier).items():
                entry = (tier, surface, weight)
                if _is_marker_entry(surface):
                    char_markers.append(entry)
                else:
                    phrases.append((surface, entry))
        for name in MARKER_LISTS:
            phrases += ((marker, (name, marker, None)) for marker in getattr(self, name))
        object.__setattr__(self, "_tier_chars", tuple(char_markers))
        object.__setattr__(self, "_index", PhraseIndex(phrases))
        # with no keywords nothing is a candidate; "(?!)" never matches
        keywords = sorted(self.filter_keywords)
        pattern = "|".join(map(re.escape, keywords)) if keywords else "(?!)"
        object.__setattr__(self, "_filter_search", re.compile(pattern).search)

    def tier(self, name: str) -> Mapping[str, float]:
        return getattr(self, name)

    def contains_filter_keyword(self, text: str) -> bool:
        return self._filter_search(text) is not None

    def scan(
        self, text: str, stripped: tuple[str, ...] | None = None
    ) -> tuple[TierHits, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Tier hits and the start token of every fine, probation and actual
        marker occurrence, from one pass over the tokens.

        Tier hits are sorted by (tier, position, surface); word entries match
        whole (punctuation-stripped) tokens, phrases match consecutive tokens,
        and single-character tier entries (docket slash, brackets) match
        anywhere in the raw text. Marker positions are in token order.
        ``stripped`` is ``stripped_tokens(text)``, for callers that have it.
        """
        if stripped is None:
            stripped = stripped_tokens(text)
        hits = []
        positions: dict[str, list[int]] = {name: [] for name in MARKER_LISTS}
        for i, (tag, surface, weight) in self._index.find(stripped):
            if weight is None:
                positions[tag].append(i)
            else:
                hits.append(TierHit(tag, surface, i, weight))
        for tier, surface, weight in self._tier_chars:
            pos = text.find(surface)
            while pos >= 0:
                hits.append(TierHit(tier, surface, pos, weight))
                pos = text.find(surface, pos + 1)
        hits.sort(key=lambda h: (h.tier, h.position, h.surface))
        fine, probation, actual = (tuple(positions[name]) for name in MARKER_LISTS)
        return TierHits(tuple(hits)), fine, probation, actual

    def marker_positions(
        self, text: str, markers: Iterable[str], stripped: tuple[str, ...] | None = None
    ) -> list[int]:
        """Start token index of every occurrence of ``markers`` (phrases
        supported), for any list; ``scan`` finds the lexicon's own lists.

        ``stripped`` is ``stripped_tokens(text)``, for callers that have it.
        """
        if stripped is None:
            stripped = stripped_tokens(text)
        return [i for i, _ in PhraseIndex((marker, None) for marker in markers).find(stripped)]


def default_lexicon_path() -> Path:
    env = os.environ.get(LEXICON_ENV_VAR)
    if env:
        return Path(env)
    return Path(str(resources.files("maasar").joinpath("data/default_lexicon.json")))


def _require(doc: dict, key: str) -> object:
    if key not in doc:
        raise LexiconError(f"lexicon file is missing required section {key!r}")
    return doc[key]


def _shape_error(where: str, expected: str, value: object) -> LexiconError:
    return LexiconError(f"lexicon section {where!r} must be {expected}, got {value!r}")


def _object(value: object, where: str) -> dict:
    if not isinstance(value, dict):
        raise _shape_error(where, "an object", value)
    return value


def _strings(value: object, where: str) -> list[str]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise _shape_error(where, "a list of strings", value)
    return value


def _variants(value: object, where: str) -> list[str]:
    """A non-empty list of strings; the first is the canonical spelling."""
    if not _strings(value, where):
        raise _shape_error(where, "a non-empty list of strings", value)
    return value


def _number(value: object, where: str) -> int | float:
    # bool is an int subclass, but true is not a weight; NaN never compares
    # true, so a NaN threshold or weight would silently select nothing
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _shape_error(where, "a number", value)
    if isinstance(value, float) and not math.isfinite(value):
        raise _shape_error(where, "a finite number", value)
    return value


def _weights(
    doc: dict, where: str, names: tuple[str, ...], overrides: Mapping[str, float] | None
) -> dict[str, float]:
    """A required section of named weights, each name present, then the overrides."""
    weights: dict[str, float] = {}
    for section in (_object(_require(doc, where), where), overrides or {}):
        for name, value in section.items():
            if name not in names:
                raise LexiconError(f"lexicon section {where!r} has no weight named {name!r}")
            weights[name] = _number(value, f"{where}.{name}")
        for name in names:
            if name not in weights:
                raise LexiconError(f"lexicon section {where!r} is missing {name!r}")
    return weights


def _weight_record(doc: dict, where: str, cls: type, overrides: Mapping[str, float] | None):
    """A ``_weights`` section as the record ``cls``, whose fields are its weight names."""
    names = tuple(f.name for f in dataclasses.fields(cls))
    return cls(**{name: float(w) for name, w in _weights(doc, where, names, overrides).items()})


def _load_tier(doc: dict, name: str, default_weight: float) -> dict[str, float]:
    entries = _require(doc, name)
    if not isinstance(entries, list):
        raise LexiconError(f"lexicon tier {name!r} must be a list")
    tier: dict[str, float] = {}
    for position, entry in enumerate(entries):
        if isinstance(entry, str):
            surface, weight = entry, default_weight
        elif isinstance(entry, dict) and isinstance(entry.get("surface"), str):
            surface = entry["surface"]
            weight = entry.get("weight", default_weight)
            weight = float(_number(weight, f"{name}[{position}].weight"))
        else:
            raise LexiconError(
                f"lexicon tier {name!r} entry {position} must be a string or an object "
                f"with a 'surface' string, got {entry!r}"
            )
        tier[surface] = weight
    return tier


def _unit_map(section: object, where: str) -> dict[str, TimeUnit]:
    out: dict[str, TimeUnit] = {}
    for unit_name, surfaces in _object(section, where).items():
        try:
            unit = TimeUnit(unit_name)
        except ValueError:
            unknown = f"lexicon section {where!r} has unknown time unit {unit_name!r}"
            raise LexiconError(unknown) from None
        for surface in _strings(surfaces, f"{where}.{unit_name}"):
            out[surface] = unit
    return out


def _value_map(numerals: dict, key: str, lo: int, hi: int, step: int = 1) -> dict[str, int]:
    where = f"numerals.{key}"
    out: dict[str, int] = {}
    for value_text, variants in _object(numerals[key], where).items():
        try:
            value = int(value_text)
        except ValueError:
            raise LexiconError(f"{where} key {value_text!r} is not an integer") from None
        if not (lo <= value <= hi and (value - lo) % step == 0):
            raise LexiconError(f"{where} value {value} outside its declared range")
        for variant in _variants(variants, f"{where}.{value_text}"):
            out[variant] = value
    return out


def _canonical(section: Mapping[str, list[str]]) -> dict[int, str]:
    return {int(k): v[0] for k, v in section.items()}


def load_numerals(
    section: object,
    time_units: Mapping[str, TimeUnit],
    unit_only: Mapping[str, TimeUnit],
    duals: Mapping[str, TimeUnit],
) -> NumeralLexicon:
    section = _object(section, "numerals")
    required = (
        "zero", "units_feminine", "units_masculine", "teens_feminine",
        "teens_masculine", "tens", "hundreds", "conjunctions", "half",
    )
    for key in required:
        if key not in section:
            raise LexiconError(f"numerals section is missing {key!r}")
    zero = {w: 0 for w in _variants(section["zero"], "numerals.zero")}
    units_f = _value_map(section, "units_feminine", 1, 10)
    units_m = _value_map(section, "units_masculine", 1, 10)
    teens_f = _value_map(section, "teens_feminine", 11, 19)
    teens_m = _value_map(section, "teens_masculine", 11, 19)
    tens = _value_map(section, "tens", 20, 90, step=10)
    hundreds = _value_map(section, "hundreds", 100, 900, step=100)
    conjunctions = tuple(_variants(section["conjunctions"], "numerals.conjunctions"))
    half = frozenset(_strings(section["half"], "numerals.half"))

    units = {**units_f, **units_m}
    teens = {**teens_f, **teens_m}
    hundreds_single = {w: v for w, v in hundreds.items() if " " not in w}
    phrases = [w.split() for w in hundreds if " " in w]  # unit word + plural marker
    if any(len(words) != 2 for words in phrases):
        raise LexiconError("numerals.hundreds variants with a space must be exactly two words")
    plural_markers = frozenset(words[1] for words in phrases)
    vocab = set(zero) | set(units) | set(tens) | set(hundreds_single) | plural_markers
    for phrase in teens:
        vocab.update(phrase.split())
    return NumeralLexicon(
        zero_words=zero,
        units_words=units,
        teens_words=teens,
        tens_words=tens,
        hundreds_words=hundreds,
        hundreds_single=hundreds_single,
        hundred_plural_markers=plural_markers,
        conjunction_forms=conjunctions,
        unit_only_words=unit_only,
        dual_unit_words=duals,
        half_words=half,
        time_unit_words=time_units,
        vocabulary=frozenset(vocab),
        canonical_zero=section["zero"][0],
        canonical_units={
            "feminine": _canonical(section["units_feminine"]),
            "masculine": _canonical(section["units_masculine"]),
        },
        canonical_teens={
            "feminine": _canonical(section["teens_feminine"]),
            "masculine": _canonical(section["teens_masculine"]),
        },
        canonical_tens=_canonical(section["tens"]),
        canonical_hundreds=_canonical(section["hundreds"]),
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
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise LexiconError(f"lexicon file must hold a JSON object, got {type(doc).__name__}")

    weights = _weights(doc, "tier_weights", TIER_NAMES, tier_weights)
    if not (
        weights["strong_positive"]
        > weights["moderate_positive"]
        > 0
        > weights["moderate_negative"]
        > weights["strong_negative"]
    ):
        raise LexiconError(
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
        raise LexiconError("tier lists must be disjoint; overlapping entries: " + "; ".join(overlaps))

    time_units = _unit_map(_require(doc, "time_units"), "time_units")
    numerals = load_numerals(
        _require(doc, "numerals"),
        time_units,
        _unit_map(_require(doc, "unit_only"), "unit_only"),
        _unit_map(_require(doc, "dual_units"), "dual_units"),
    )
    structural_weights = _weight_record(doc, "structural", StructuralWeights, structural)
    duration_weights = _weight_record(doc, "duration", DurationScoringConfig, duration)
    file_threshold = _number(_require(doc, "threshold"), "threshold")

    def markers(name: str) -> frozenset[str]:
        return frozenset(_strings(_require(doc, name), name))

    filter_keywords = _strings(_require(doc, "filter_keywords"), "filter_keywords")
    for position, keyword in enumerate(filter_keywords):
        if not keyword.strip():
            # a blank keyword is found in (nearly) every sentence
            raise LexiconError(f"lexicon section 'filter_keywords' entry {position} is empty")

    return Lexicon(
        filter_keywords=frozenset(filter_keywords),
        strong_positive=tiers["strong_positive"],
        moderate_positive=tiers["moderate_positive"],
        moderate_negative=tiers["moderate_negative"],
        strong_negative=tiers["strong_negative"],
        fine_markers=markers("fine_markers"),
        probation_markers=markers("probation_markers"),
        actual_markers=markers("actual_markers"),
        threshold=float(file_threshold if threshold is None else _number(threshold, "threshold")),
        tier_weights=weights,
        structural=structural_weights,
        duration=duration_weights,
        numerals=numerals,
    )


def match_tiers(sentence, lexicon: Lexicon, stripped: tuple[str, ...] | None = None) -> TierHits:
    """Tier hits in a sentence (see ``Lexicon.scan``), sorted by (tier,
    position, surface). ``stripped`` is ``stripped_tokens`` of the text, for
    callers that have it."""
    text = sentence.text if hasattr(sentence, "text") else str(sentence)
    return lexicon.scan(text, stripped)[0]
