import dataclasses
import re
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from maasar import numbers
from maasar.analysis import analyse
from maasar.corpus import Decision
from maasar.detect import filter_candidates
from maasar.lexicon import load_lexicon
from maasar.numbers import (
    UNIT_ATTACH_WINDOW,
    NumberSpan,
    TimeUnit,
    detect_spans,
    render_number,
    span_months,
    token_roles,
)
from maasar.synthetic import generate_corpus
from maasar.tokens import EDGE_PUNCT, stripped_tokens
from samples import TWENTY_YEAR_SENTENCE, YEAR_AND_HALF_SENTENCE, word_run_value

# Hand-written reference table (independent of render_number): each entry
# was checked against standard Hebrew usage before being frozen here.
HAND_TABLE = {
    "אחת": 1,
    "שתיים": 2,
    "שמונה": 8,
    "עשר": 10,
    "אחת עשרה": 11,
    "שלוש עשרה": 13,
    "שמונה עשרה": 18,
    "עשרים": 20,
    "עשרים ושמונה": 28,
    "שלושים": 30,
    "ארבעים ושמונה": 48,
    "שישים ושש": 66,
    "תשעים ותשע": 99,
    "מאה": 100,
    "מאה ועשרים": 120,
    "מאה עשרים ושמונה": 128,
    "מאתיים": 200,
    "שלוש מאות ארבעים וחמש": 345,
    "תשע מאות תשעים ותשע": 999,
    # masculine forms
    "שניים": 2,
    "שלושה": 3,
    "שנים עשר": 12,
    "שמונה עשר": 18,
    "עשרים ושלושה": 23,
}


def sentence_tokens(text):
    """The stripped tokens of the first sentence of ``text``."""
    return stripped_tokens(Decision.from_text("c", text).texts[0])


def unit_only_spans(spans):
    return [span for span in spans if span.source == "unit_only_elimination"]


class TestCompose:
    """A number-word sequence composed into an integer, as ``detect_spans``
    reads it (``word_run_value``)."""

    def test_hand_table(self, numerals):
        for words, value in HAND_TABLE.items():
            assert word_run_value(words.split(), numerals) == value, words

    def test_atomic_tens(self, numerals):
        assert word_run_value(["שלושים"], numerals) == 30

    def test_tens_and_units(self, numerals):
        assert word_run_value(["עשרים", "ושמונה"], numerals) == 28

    def test_units_before_tens_rejected(self, numerals):
        assert word_run_value(["שלוש", "עשרים"], numerals) is None

    def test_tens_then_unit_without_conjunction_rejected(self, numerals):
        assert word_run_value(["עשרים", "שמונה"], numerals) is None

    def test_unknown_word_rejected(self, numerals):
        assert word_run_value(["שלומית"], numerals) is None
        assert word_run_value([], numerals) is None

    def test_zero(self, numerals):
        assert word_run_value(["אפס"], numerals) == 0

    def test_round_trip_both_genders(self, numerals):
        for n in range(1, 1000):
            for gender in ("feminine", "masculine"):
                words = render_number(n, numerals, gender)
                assert word_run_value(words.split(), numerals) == n, (n, gender, words)

    def test_every_listed_variant_parses(self, numerals):
        for word, value in {**numerals.units_words, **numerals.tens_words}.items():
            assert word_run_value([word], numerals) == value, word
        for phrase, value in {**numerals.teens_words, **numerals.hundreds_words}.items():
            assert word_run_value(phrase.split(), numerals) == value, phrase


class TestFindNumbers:
    """Digit literals, number-word sequences and dual unit words, each with
    the time unit it attaches to, as ``detect_spans`` finds them."""

    def test_digits_adjacent_to_month_word(self, numerals):
        spans = detect_spans(sentence_tokens("הוא ירצה 48 חודשים במאסר."), numerals)
        (span,) = spans
        assert span.value == 48
        assert span.attached_unit is TimeUnit.MONTH
        assert span.unit_distance == 0

    def test_word_sequence_twenty_and_eight(self, numerals):
        spans = detect_spans(sentence_tokens("עונש של עשרים ושמונה חודשים."), numerals)
        (span,) = spans
        assert span.value == 28
        assert span.attached_unit is TimeUnit.MONTH
        assert span.end_token - span.start_token == 1

    def test_tens_word_with_month(self, numerals):
        spans = detect_spans(sentence_tokens("שלושים חודשים של עבודה."), numerals)
        (span,) = spans
        assert (span.value, span.attached_unit) == (30, TimeUnit.MONTH)

    def test_thousands_separator(self, numerals):
        spans = detect_spans(sentence_tokens("סכום של 40,000 שקלים."), numerals)
        assert spans[0].value == 40000

    def test_docket_fragment_is_single_unitless_span(self, numerals):
        spans = detect_spans(sentence_tokens("ראו 1124/04 שם."), numerals)
        (span,) = spans
        assert span.attached_unit is None

    def test_unit_before_number_does_not_attach(self, numerals):
        spans = detect_spans(sentence_tokens("המאסר יחל ביום 31."), numerals)
        (span,) = spans
        assert span.value == 31
        assert span.attached_unit is None

    def test_number_stops_unit_scan(self, numerals):
        spans = detect_spans(sentence_tokens("בין 30 ל-36 חודשים."), numerals)
        assert [s.attached_unit for s in spans] == [None, TimeUnit.MONTH]

    def test_unparseable_word_run_skipped(self, numerals):
        assert detect_spans(sentence_tokens("שלוש עשרים מילים."), numerals) == []

    def test_spans_sorted_and_disjoint(self, numerals):
        spans = detect_spans(
            sentence_tokens("48 חודשי מאסר ועוד שנה אחת וגם 1124/04 ושלושים יום."),
            numerals,
        )
        for a, b in zip(spans, spans[1:]):
            assert a.end_token < b.start_token
        assert [s.start_token for s in spans] == sorted(s.start_token for s in spans)

    @given(st.lists(st.integers(0, 99), min_size=0, max_size=12), st.integers(0, 2**32))
    def test_span_invariants_on_random_token_streams(self, numerals, picks, seed):
        import random as _random

        rng = _random.Random(seed)
        pool = (
            sorted(numerals.units_words)
            + sorted(numerals.tens_words)
            + sorted(numerals.time_unit_words)
            + sorted(numerals.dual_unit_words)
            + ["מאסר", "הנאשם", "וחצי", "12", "1124/04", "5,000", "בפועל", "על", "תנאי"]
        )
        tokens = [pool[p % len(pool)] for p in picks]
        rng.shuffle(tokens)
        spans = detect_spans(sentence_tokens(" ".join(tokens) + "."), numerals)
        for a, b in zip(spans, spans[1:]):
            assert a.end_token < b.start_token
        for span in spans:
            assert span.end_token >= span.start_token >= 0
            assert span.value >= 0
            if span.attached_unit is not None:
                assert span_months(span) >= 0
            if span.source == "unit_only_elimination":
                assert span.value >= 1


class TestUnitOnlyElimination:
    def test_bare_year_of_imprisonment(self, numerals):
        spans = detect_spans(sentence_tokens("נגזרה עליו שנת מאסר בפועל."), numerals)
        (span,) = spans
        assert (span.value, span.attached_unit) == (1, TimeUnit.YEAR)
        assert span.source == "unit_only_elimination"

    def test_twenty_plus_singular_year_binds_normally(self, numerals):
        s = sentence_tokens(TWENTY_YEAR_SENTENCE)
        spans = detect_spans(s, numerals)
        assert unit_only_spans(spans) == []
        assert (spans[0].value, spans[0].attached_unit) == (20, TimeUnit.YEAR)
        assert span_months(spans[0]) == 240

    def test_plural_preceded_by_digits_no_elimination(self, numerals):
        s = sentence_tokens("נגזרו עליו 12 חודשים מאחורי סורגים.")
        assert unit_only_spans(detect_spans(s, numerals)) == []

    def test_calendar_year_reference_skipped(self, numerals):
        s = sentence_tokens("האירועים התרחשו בשנת מלחמה קשה אך שנת 2004 הוזכרה.")
        spans = unit_only_spans(detect_spans(s, numerals))
        assert all(s_.start_token != 7 for s_ in spans)

    def test_dual_year_from_find_numbers(self, numerals):
        spans = detect_spans(sentence_tokens("עליו לרצות שנתיים מאחורי סורגים."), numerals)
        (span,) = spans
        assert (span.value, span.attached_unit) == (2, TimeUnit.YEAR)
        assert span_months(span) == 24

    def test_year_and_half(self, numerals):
        spans = detect_spans(sentence_tokens(YEAR_AND_HALF_SENTENCE), numerals)
        year_spans = [s for s in spans if s.attached_unit is TimeUnit.YEAR]
        assert len(year_spans) == 1
        assert year_spans[0].plus_half
        assert span_months(year_spans[0]) == 18


class TestTokenRoles:
    def test_each_distinct_token_classified_once(self, monkeypatch):
        lexicon = load_lexicon()  # an empty table
        classified = Counter()

        def counting(token, numerals):
            classified[token] += 1
            return token_roles(token, numerals)

        monkeypatch.setattr(numbers, "token_roles", counting)
        seen = set()
        for decision in generate_corpus(lexicon.numerals, num_decisions=200, seed=3).decisions:
            for sentence in filter_candidates(decision, lexicon):
                seen.update(stripped_tokens(sentence.text))
                analyse(sentence, lexicon)
        assert len(seen) > 100
        assert classified == Counter(seen)
        assert set(lexicon.numerals.roles) == seen

    def test_homographs_carry_every_role(self, numerals):
        years = token_roles("שנים", numerals)  # "years", and the first word of "שנים עשר"
        assert years.form == (False, "שנים") and years.unit is TimeUnit.YEAR
        year = token_roles("שנה", numerals)
        assert year.unit is TimeUnit.YEAR and year.unit_only is TimeUnit.YEAR
        assert year.form is None and not year.numberish

    def test_replaced_lexicon_starts_with_an_empty_table(self, numerals):
        token_roles("", numerals)
        copy = dataclasses.replace(numerals, vocabulary=numerals.vocabulary | {""})
        assert copy.roles == {} and "" in numerals.roles
        assert token_roles("", copy).form == (False, "")
        assert token_roles("", numerals).form is None


def span_months_of(value, unit):
    """The months of a span of ``value`` attached to ``unit``."""
    return span_months(NumberSpan(0, 0, value, "digits", unit))


class TestToMonths:
    """Normalization of a duration to whole months, through ``span_months``."""

    def test_years(self):
        assert span_months_of(2, TimeUnit.YEAR) == 24

    def test_months_identity(self):
        assert span_months_of(15, TimeUnit.MONTH) == 15

    def test_thirty_days(self):
        assert span_months_of(30, TimeUnit.DAY) == 1

    def test_days_brute_force_against_formula(self):
        for days in range(1, 366):
            assert span_months_of(days, TimeUnit.DAY) == int(days / 30 + 0.5)

    @given(st.integers(0, 500), st.integers(0, 500))
    def test_monotone_in_value(self, a, b):
        lo, hi = sorted((a, b))
        for unit in TimeUnit:
            assert span_months_of(lo, unit) <= span_months_of(hi, unit)


# The numeral scanner before the token-roles table: each token is split for
# conjunctions and searched for digits wherever it is looked at, and the
# composer strips and splits its tokens again. Kept as the reference that
# detect_spans must match.
_THOUSANDS_RE = re.compile(r"^\d{1,3}(?:,\d{3})+$")
_DIGIT_RUN_RE = re.compile(r"\d+")


def reference_digit_value(stripped):
    if _THOUSANDS_RE.match(stripped):
        return int(stripped.replace(",", ""))
    m = _DIGIT_RUN_RE.search(stripped)
    return int(m.group()) if m else None


def reference_split_conjunction(word, numerals):
    for conj in numerals.conjunction_forms:
        rest = word[len(conj) :]
        if word.startswith(conj) and rest and rest in numerals.vocabulary:
            return True, rest
    return False, word


def reference_compose(word_tokens, numerals):
    words = [t.strip(EDGE_PUNCT) for t in word_tokens]
    if not words or any(not w for w in words):
        return None
    norm = []
    for w in words:
        conj, bare = reference_split_conjunction(w, numerals)
        if bare not in numerals.vocabulary:
            return None
        norm.append((conj, bare))
    n = len(norm)
    total = 0
    i = 0
    if n == 1 and norm[0][1] in numerals.zero_words:
        return 0
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


def reference_is_numberish(stripped, numerals):
    if _DIGIT_RUN_RE.search(stripped):
        return True
    if stripped in numerals.vocabulary or stripped in numerals.dual_unit_words:
        return True
    _, bare = reference_split_conjunction(stripped, numerals)
    return bare in numerals.vocabulary


def reference_attach_unit(stripped, end_token, numerals):
    n = len(stripped)
    for dist in range(1, UNIT_ATTACH_WINDOW + 1):
        k = end_token + dist
        if k >= n:
            break
        tok = stripped[k]
        unit = numerals.time_unit_words.get(tok)
        if unit is not None:
            return unit, dist - 1, k + 1 < n and stripped[k + 1] in numerals.half_words
        if reference_is_numberish(tok, numerals):
            break
    return None, 0, False


def reference_find_numbers(stripped, numerals):
    spans = []
    i = 0
    n = len(stripped)
    while i < n:
        tok = stripped[i]
        value = reference_digit_value(tok)
        if value is not None:
            unit, dist, half = reference_attach_unit(stripped, i, numerals)
            spans.append(NumberSpan(i, i, value, "digits", unit, dist, half))
            i += 1
            continue
        dual = numerals.dual_unit_words.get(tok)
        if dual is not None:
            half = i + 1 < n and stripped[i + 1] in numerals.half_words
            spans.append(NumberSpan(i, i, 2, "words", dual, 0, half))
            i += 1
            continue
        conj, bare = reference_split_conjunction(tok, numerals)
        if bare in numerals.vocabulary:
            j = i
            while j + 1 < n:
                _, nxt = reference_split_conjunction(stripped[j + 1], numerals)
                if nxt in numerals.vocabulary:
                    j += 1
                else:
                    break
            value = reference_compose(stripped[i : j + 1], numerals)
            if value is not None:
                unit, dist, half = reference_attach_unit(stripped, j, numerals)
                spans.append(NumberSpan(i, j, value, "words", unit, dist, half))
            i = j + 1
            continue
        i += 1
    return spans


def reference_unit_only_elimination(stripped, numerals):
    spans = []
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
            if reference_is_numberish(prev, numerals):
                bound = True
                break
        if bound:
            continue
        half = i + 1 < n and stripped[i + 1] in numerals.half_words
        spans.append(NumberSpan(i, i, 1, "unit_only_elimination", unit, 0, half))
    return spans


def reference_detect_spans(text, numerals):
    stripped = stripped_tokens(text)
    spans = reference_find_numbers(stripped, numerals)
    spans.extend(reference_unit_only_elimination(stripped, numerals))
    spans.sort(key=lambda s: (s.start_token, s.end_token))
    return spans


def _number_words(numerals):
    """Every number word, bare and with each conjunction prefix."""
    words = sorted(numerals.vocabulary)
    return words + [conj + word for conj in numerals.conjunction_forms for word in words]


def _scanner_pool(numerals):
    return (
        _number_words(numerals)
        + sorted(numerals.teens_words)  # two tokens each
        + sorted(numerals.time_unit_words)
        + sorted(numerals.unit_only_words)
        + sorted(numerals.dual_unit_words)
        + sorted(numerals.half_words)
        + ["12", "7", "0", "5,000", "1,200,000", "12,34", "ל-36", "1124/04", "31.5.12"]
        + ["מאסר", "בפועל", "הנאשם", "על", "-", "ו"]
    )


_POOL = _scanner_pool(load_lexicon().numerals)
_scanner_token = st.tuples(
    st.sampled_from(["", "", "", "(", '"']),
    st.sampled_from(_POOL),
    st.sampled_from(["", "", "", ".", ",", ")", ":"]),
).map("".join)
_scanner_texts = st.lists(_scanner_token, max_size=16).map(" ".join)
_number_word_token = st.tuples(
    st.sampled_from(["", "", "", "(", '"']),
    st.sampled_from(_number_words(load_lexicon().numerals)),
    st.sampled_from(["", "", "", ".", ",", ")", ":"]),
).map("".join)


@pytest.fixture(scope="module")
def numeral_variants(numerals):
    """The default numerals, one whose conjunctions include the empty form
    (every number word then reads as prefixed), and one that lists the empty
    word as a unit, as a lexicon file may (a token of bare punctuation then
    extends a number run, and the run must not compose)."""
    return [
        numerals,
        dataclasses.replace(numerals, conjunction_forms=(*numerals.conjunction_forms, "")),
        dataclasses.replace(
            numerals,
            units_words={**numerals.units_words, "": 5},
            vocabulary=numerals.vocabulary | {""},
        ),
    ]


class TestScannerEquivalence:
    @given(_scanner_texts)
    @example("עשרים ושמונה חודשים")
    @example("שלוש מאות ארבעים וחמש ימים וחצי")
    @example("שנים עשר חודשים , שנתיים וחצי")
    @example("בין 30 ל-36 חודשים ו-5,000 שנה")
    @example("שלוש . עשרה שנה")
    @example("ו שנה , ו")
    @example("5 ושלוש שנה")
    def test_detect_spans_equals_reference(self, numeral_variants, text):
        for numerals in numeral_variants:
            expected = reference_detect_spans(text, numerals)
            assert detect_spans(stripped_tokens(text), numerals) == expected

    @given(st.lists(_number_word_token, max_size=6))
    def test_compose_equals_reference(self, numeral_variants, tokens):
        for numerals in numeral_variants:
            assert word_run_value(tokens, numerals) == reference_compose(tokens, numerals)
