"""Recognition of numbers and time units in Hebrew sentences.

Hebrew numerals are gendered, admit several unpointed spellings, compose
tens and units through a conjunctive prefix (forty-and-eight), and express
one-year / one-month punishments with a bare unit word. Everything here
works over whitespace tokens against a loaded numeral lexicon; the grammar
covers 0-999 which is ample for imprisonment durations, and a half word
right after a time unit ("year and a half") always adds half of that unit
(``NumberSpan.plus_half``). The sentence-level finders take the sentence's
``tokens.stripped_tokens``, which ``analysis.analyse`` computes once per
sentence.

The numeral lexicon compiles its conjunction forms once, when it is built,
into ``NumeralLexicon.word_forms``: every number word, bare or with a
conjunction prefix ("ושמונה"), maps to whether it carries the conjunction
and its bare word. ``find_numbers`` looks each token up there once while it
extends a number run and hands the looked-up words to the composer, so no
token is split or stripped twice.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

from .tokens import strip_token

if TYPE_CHECKING:  # pragma: no cover
    from .lexicon import NumeralLexicon


class TimeUnit(str, Enum):
    MONTH = "month"
    YEAR = "year"
    DAY = "day"


_MONTHS_PER_UNIT = {TimeUnit.MONTH: 1.0, TimeUnit.YEAR: 12.0, TimeUnit.DAY: 1.0 / 30.0}

_THOUSANDS_RE = re.compile(r"^\d{1,3}(?:,\d{3})+$")
_DIGIT_RUN_RE = re.compile(r"\d+")

# How far (in tokens) a number looks ahead for its time unit.
UNIT_ATTACH_WINDOW = 3


@dataclass(frozen=True)
class NumberSpan:
    """A number found in a sentence, with the time unit it binds to (if any).

    Token indices are inclusive. ``plus_half`` marks a trailing "and a half"
    that adds half of the unit before conversion to months.
    """

    start_token: int
    end_token: int
    value: int
    source: str  # digits | words | unit_only_elimination
    attached_unit: TimeUnit | None = None
    unit_distance: int = 0
    plus_half: bool = False


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def to_months(value: int, unit: TimeUnit) -> int:
    """Normalize a duration to whole months (30-day months, round half up)."""
    if value < 0:
        raise ValueError("duration value must be non-negative")
    if unit is TimeUnit.YEAR:
        return value * 12
    if unit is TimeUnit.MONTH:
        return value
    return _round_half_up(value / 30.0)


def span_months(span: NumberSpan) -> int | None:
    """Months conveyed by a span, or None when it has no resolvable unit."""
    if span.attached_unit is None:
        return None
    value = span.value + (0.5 if span.plus_half else 0.0)
    return _round_half_up(value * _MONTHS_PER_UNIT[span.attached_unit])


def _digit_value(stripped: str) -> int | None:
    """Value of the first digit run in a token; grouped thousands supported."""
    m = _DIGIT_RUN_RE.search(stripped)
    if m is None:
        return None
    if _THOUSANDS_RE.match(stripped):
        return int(stripped.replace(",", ""))
    return int(m.group())


def compose(word_tokens: Iterable[str], numerals: "NumeralLexicon") -> int | None:
    """Compose a Hebrew number-word sequence into an integer.

    Accepts hundreds + tens + conjunction-prefixed units, atomic teens and
    bare tens; rejects ill-formed orders (e.g. units before tens) by
    returning None.
    """
    norm = []
    for token in word_tokens:
        form = numerals.word_forms.get(strip_token(token))
        if form is None:
            return None
        norm.append(form)
    return _compose_forms(norm, numerals)


def _compose_forms(norm: list[tuple[bool, str]], numerals: "NumeralLexicon") -> int | None:
    """``compose`` over ``word_forms`` entries, one per token."""
    # an empty token is never part of a number, even if "" is listed
    if not norm or any(not bare for _, bare in norm):
        return None

    n = len(norm)
    total = 0
    i = 0

    if n == 1 and norm[0][1] in numerals.zero_words:
        return 0

    # hundreds: a single-word hundred, or unit + plural-hundreds marker
    first = norm[0][1]
    if first in numerals.hundreds_single:
        total += numerals.hundreds_single[first]
        i = 1
    elif (
        n >= 2
        and norm[1][1] in numerals.hundred_plural_markers
        and not norm[1][0]
        and first in numerals.units_words
        and 2 <= numerals.units_words[first] <= 9
    ):
        total += numerals.units_words[first] * 100
        i = 2

    if i < n:
        pair = f"{norm[i][1]} {norm[i + 1][1]}" if i + 1 < n else None
        if pair is not None and pair in numerals.teens_words and not norm[i + 1][0]:
            total += numerals.teens_words[pair]
            i += 2
        elif norm[i][1] in numerals.tens_words:
            total += numerals.tens_words[norm[i][1]]
            i += 1
            if i < n:
                conj, bare = norm[i]
                if conj and bare in numerals.units_words and numerals.units_words[bare] <= 9:
                    total += numerals.units_words[bare]
                    i += 1
                else:
                    return None
        elif norm[i][1] in numerals.units_words:
            total += numerals.units_words[norm[i][1]]
            i += 1

    if i != n:
        return None
    return total


def render_number(value: int, numerals: "NumeralLexicon", gender: str = "feminine") -> str:
    """Canonical Hebrew word form of an integer in [0, 999]."""
    if not 0 <= value <= 999:
        raise ValueError("render_number covers 0-999")
    if gender not in ("feminine", "masculine"):
        raise ValueError(f"unknown gender {gender!r}")
    if value == 0:
        return numerals.canonical_zero

    conj = numerals.canonical_conjunction
    hundreds, rest = divmod(value, 100)
    parts: list[str] = []
    if hundreds:
        parts.extend(numerals.canonical_hundreds[hundreds * 100].split())
    if rest:
        if rest <= 10:
            tail = [numerals.canonical_units[gender][rest]]
        elif rest < 20:
            tail = numerals.canonical_teens[gender][rest].split()
        else:
            tens, units = divmod(rest, 10)
            tail = [numerals.canonical_tens[tens * 10]]
            if units:
                tail.append(conj + numerals.canonical_units[gender][units])
        if hundreds and (rest <= 20 or rest % 10 == 0):
            tail[0] = conj + tail[0]
        parts.extend(tail)
    return " ".join(parts)


def _attach_unit(
    stripped: tuple[str, ...], end_token: int, numerals: "NumeralLexicon"
) -> tuple[TimeUnit | None, int, bool]:
    """Nearest forward time unit within the window; stops at another number."""
    n = len(stripped)
    for dist in range(1, UNIT_ATTACH_WINDOW + 1):
        k = end_token + dist
        if k >= n:
            break
        tok = stripped[k]
        unit = numerals.time_unit_words.get(tok)
        if unit is not None:
            return unit, dist - 1, k + 1 < n and stripped[k + 1] in numerals.half_words
        if _is_numberish(tok, numerals):
            break
    return None, 0, False


def _is_numberish(stripped: str, numerals: "NumeralLexicon") -> bool:
    return (
        _DIGIT_RUN_RE.search(stripped) is not None
        or stripped in numerals.word_forms
        or stripped in numerals.dual_unit_words
    )


def find_numbers(stripped: tuple[str, ...], numerals: "NumeralLexicon") -> list[NumberSpan]:
    """All digit literals, number-word sequences and dual unit words.

    Unparseable word sequences are skipped. Each span greedily attaches to
    the nearest following time-unit token within the attachment window.
    """
    forms = numerals.word_forms
    spans: list[NumberSpan] = []
    i = 0
    n = len(stripped)
    while i < n:
        tok = stripped[i]
        value = _digit_value(tok)
        if value is not None:
            unit, dist, half = _attach_unit(stripped, i, numerals)
            spans.append(
                NumberSpan(i, i, value, "digits", unit, dist, half)
            )
            i += 1
            continue
        dual = numerals.dual_unit_words.get(tok)
        if dual is not None:
            half = i + 1 < n and stripped[i + 1] in numerals.half_words
            spans.append(NumberSpan(i, i, 2, "words", dual, 0, half))
            i += 1
            continue
        form = forms.get(tok)
        if form is not None:
            norm = [form]
            j = i
            while j + 1 < n and (form := forms.get(stripped[j + 1])) is not None:
                norm.append(form)
                j += 1
            value = _compose_forms(norm, numerals)
            if value is not None:
                unit, dist, half = _attach_unit(stripped, j, numerals)
                spans.append(NumberSpan(i, j, value, "words", unit, dist, half))
            i = j + 1
            continue
        i += 1
    return spans


def unit_only_elimination(
    stripped: tuple[str, ...], numerals: "NumeralLexicon"
) -> list[NumberSpan]:
    """Bare singular unit words with no adjoining number imply value one.

    A unit preceded by a number within the attachment window is already
    bound to it ("20 שנה" is twenty years), and a unit directly followed by
    digits is a calendar reference, not a duration; neither yields a span.
    """
    spans: list[NumberSpan] = []
    n = len(stripped)
    for i, tok in enumerate(stripped):
        unit = numerals.unit_only_words.get(tok)
        if unit is None:
            continue
        if i + 1 < n and _DIGIT_RUN_RE.search(stripped[i + 1]):
            continue
        bound = False
        for dist in range(1, UNIT_ATTACH_WINDOW + 1):
            k = i - dist
            if k < 0:
                break
            prev = stripped[k]
            if prev in numerals.time_unit_words:
                break
            if _is_numberish(prev, numerals):
                bound = True
                break
        if bound:
            continue
        half = i + 1 < n and stripped[i + 1] in numerals.half_words
        spans.append(NumberSpan(i, i, 1, "unit_only_elimination", unit, 0, half))
    return spans


def detect_spans(stripped: tuple[str, ...], numerals: "NumeralLexicon") -> list[NumberSpan]:
    """Union of number spans and unit-only eliminations, in token order."""
    spans = find_numbers(stripped, numerals)
    spans.extend(unit_only_elimination(stripped, numerals))
    spans.sort(key=lambda s: (s.start_token, s.end_token))
    return spans
