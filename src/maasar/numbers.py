"""Recognition of numbers and time units in Hebrew sentences.

Hebrew numerals are gendered, admit several unpointed spellings, compose
tens and units through a conjunctive prefix (forty-and-eight), and express
one-year / one-month punishments with a bare unit word. Everything here
works over whitespace tokens against a loaded numeral lexicon; the grammar
covers 0-999 which is ample for imprisonment durations, and a half word
right after a time unit ("year and a half") always adds half of that unit
(``NumberSpan.plus_half``). ``detect_spans`` takes the sentence's
``tokens.stripped_tokens``, which ``analysis.scan`` computes once per
sentence.

What a stripped token is here (a digit value, a number word, bare or with
a conjunction prefix as in "ושמונה", a dual, a time unit, a bare singular
unit, a half word) is decided in one place: ``token_roles`` classifies a
token the first time a ``NumeralLexicon`` sees it and keeps the ``Roles``
record in the lexicon's ``roles`` table. The scanners and ``_compose_forms``
read those records, so a token is classified once per lexicon however often it
recurs; a token with two roles ("שנים" is "years" and begins "שנים עשר")
has one classifier, and the scanners decide which role wins where.
``detect_spans`` looks a sentence's tokens up in that table once, with
``map``, for both of its scanners.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from itertools import compress, count, repeat
from operator import attrgetter, is_
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .lexicon import NumeralLexicon


class TimeUnit(str, Enum):
    MONTH = "month"
    YEAR = "year"
    DAY = "day"


_MONTHS_PER_UNIT = {TimeUnit.MONTH: 1.0, TimeUnit.YEAR: 12.0, TimeUnit.DAY: 1.0 / 30.0}

# A grouped-thousands token ("40,000") whole, else the first digit run.
_DIGITS_RE = re.compile(r"^\d{1,3}(?:,\d{3})+$|\d+")

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


def span_months(span: NumberSpan) -> int | None:
    """Months conveyed by a span (30-day months, round half up), or None
    when it has no resolvable unit."""
    if span.attached_unit is None:
        return None
    value = span.value + (0.5 if span.plus_half else 0.0)
    return _round_half_up(value * _MONTHS_PER_UNIT[span.attached_unit])


@dataclass(frozen=True, slots=True)
class Roles:
    """Every role a stripped token has in the numeral grammar."""

    digit: int | None  # its first digit run's value; grouped thousands read whole
    form: tuple[bool, str] | None  # a number word's (has conjunction, bare word)
    dual: TimeUnit | None  # the unit a dual word names ("שנתיים")
    unit: TimeUnit | None  # the unit a time-unit word names
    unit_only: TimeUnit | None  # the unit a bare singular unit word names ("שנת")
    half: bool  # an "and a half" word

    @property
    def numberish(self) -> bool:
        """Whether the token holds a number: digits, a number word or a dual."""
        return self.digit is not None or self.form is not None or self.dual is not None


def token_roles(token: str, numerals: "NumeralLexicon") -> Roles:
    """The roles of a stripped token, decided the first time ``numerals``
    sees it and kept in ``numerals.roles``."""
    roles = numerals.roles.get(token)
    if roles is None:
        run = _DIGITS_RE.search(token)
        # The first conjunction form that leaves a vocabulary word wins, and
        # a prefixed reading beats a bare one ("ושש" is "and six").
        form = (False, token) if token in numerals.vocabulary else None
        for conj in numerals.conjunction_forms:
            rest = token[len(conj) :]
            if rest and token.startswith(conj) and rest in numerals.vocabulary:
                form = (True, rest)
                break
        roles = numerals.roles[token] = Roles(
            None if run is None else int(run.group().replace(",", "")),
            form,
            numerals.dual_unit_words.get(token),
            numerals.time_unit_words.get(token),
            numerals.unit_only_words.get(token),
            token in numerals.half_words,
        )
    return roles


def _roles(stripped: tuple[str, ...], numerals: "NumeralLexicon") -> list[Roles]:
    """The roles of each token, in order; only a token the table lacks
    costs a Python step, and a token repeated in the sentence is classified
    at its first occurrence only."""
    table = numerals.roles
    roles = list(map(table.get, stripped))
    # A token missing above that recurs later in the sentence is in the
    # table by then, and reaches no second ``token_roles`` call.
    for i in compress(count(), map(is_, roles, repeat(None))):
        roles[i] = table.get(stripped[i]) or token_roles(stripped[i], numerals)
    return roles


def _compose_forms(norm: list[tuple[bool, str]], numerals: "NumeralLexicon") -> int | None:
    """Compose a Hebrew number-word sequence, given as the ``Roles.form`` of
    each of its tokens, into an integer.

    Accepts hundreds + tens + conjunction-prefixed units, atomic teens and
    bare tens; rejects ill-formed orders (e.g. units before tens) by
    returning None.
    """
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


def _attach_unit(roles: list[Roles], end_token: int) -> tuple[TimeUnit | None, int, bool]:
    """Nearest forward time unit within the window; stops at another number."""
    window = roles[end_token + 1 : end_token + 1 + UNIT_ATTACH_WINDOW]
    for dist, r in enumerate(window):
        if r.unit is not None:
            k = end_token + 1 + dist
            return r.unit, dist, k + 1 < len(roles) and roles[k + 1].half
        if r.numberish:
            break
    return None, 0, False


def _number_spans(roles: list[Roles], numerals: "NumeralLexicon") -> list[NumberSpan]:
    """All digit literals, number-word sequences and dual unit words, given
    the roles of the sentence's tokens.

    Unparseable word sequences are skipped. Each span greedily attaches to
    the nearest following time-unit token within the attachment window.
    """
    spans: list[NumberSpan] = []
    i = 0
    n = len(roles)
    while i < n:
        r = roles[i]
        if r.digit is not None:
            spans.append(NumberSpan(i, i, r.digit, "digits", *_attach_unit(roles, i)))
        elif r.dual is not None:
            half = i + 1 < n and roles[i + 1].half
            spans.append(NumberSpan(i, i, 2, "words", r.dual, 0, half))
        elif r.form is not None:
            j = i
            while j + 1 < n and roles[j + 1].form is not None:
                j += 1
            value = _compose_forms([r.form for r in roles[i : j + 1]], numerals)
            if value is not None:
                spans.append(NumberSpan(i, j, value, "words", *_attach_unit(roles, j)))
            i = j
        i += 1
    return spans


def _unit_only_spans(roles: list[Roles]) -> list[NumberSpan]:
    """Bare singular unit words with no adjoining number imply value one,
    given the roles of the sentence's tokens.

    A unit preceded by a number within the attachment window is already
    bound to it ("20 שנה" is twenty years), and a unit directly followed by
    digits is a calendar reference, not a duration; neither yields a span.
    """
    spans: list[NumberSpan] = []
    n = len(roles)
    for i, r in enumerate(roles):
        if r.unit_only is None or (i + 1 < n and roles[i + 1].digit is not None):
            continue
        # bound when the nearest number or time unit behind it (in the window) is a number
        behind = reversed(roles[max(i - UNIT_ATTACH_WINDOW, 0) : i])
        nearest = next((b for b in behind if b.unit is not None or b.numberish), None)
        if nearest is not None and nearest.unit is None:
            continue
        half = i + 1 < n and roles[i + 1].half
        spans.append(NumberSpan(i, i, 1, "unit_only_elimination", r.unit_only, 0, half))
    return spans


def detect_spans(stripped: tuple[str, ...], numerals: "NumeralLexicon") -> list[NumberSpan]:
    """Union of number spans and unit-only eliminations, in token order."""
    roles = _roles(stripped, numerals)
    spans = _number_spans(roles, numerals)
    spans.extend(_unit_only_spans(roles))
    spans.sort(key=attrgetter("start_token", "end_token"))
    return spans
