import random

from maasar.corpus import Decision, segment_sentences
from maasar.analysis import analyse
from maasar.extraction import (
    MARKER_WINDOW,
    extract,
    score_duration_candidates,
    try_decomposition,
)
from maasar.numbers import NumberSpan, TimeUnit, detect_spans, span_months
from samples import UNIT_ONLY_SENTENCE, WORKED_EXAMPLE, WORKED_EXAMPLE_MONTHS


def sentence(text):
    return segment_sentences(text)[0]


def month_span(start, value, unit=TimeUnit.MONTH, unit_distance=0):
    return NumberSpan(start, start, value, "digits", unit, unit_distance)


class TestDecomposition:
    def test_total_actual_conditional(self):
        spans = [month_span(0, 48), month_span(5, 30), month_span(10, 18)]
        assert try_decomposition(spans) == 30

    def test_sum_mismatch(self):
        spans = [month_span(0, 40), month_span(5, 30), month_span(10, 18)]
        assert try_decomposition(spans) is None

    def test_not_exactly_three(self):
        assert try_decomposition([month_span(0, 12)]) is None
        assert try_decomposition([]) is None
        assert (
            try_decomposition(
                [month_span(i, v) for i, v in enumerate([48, 30, 12, 6])]
            )
            is None
        )

    def test_unitless_spans_do_not_count(self):
        spans = [
            NumberSpan(0, 0, 1124, "digits", None),
            month_span(3, 48),
            month_span(7, 30),
            month_span(11, 18),
            NumberSpan(15, 15, 4, "digits", None),
        ]
        assert try_decomposition(spans) == 30

    def test_mixed_units_converted_to_months(self):
        spans = [
            NumberSpan(0, 0, 4, "digits", TimeUnit.YEAR),
            month_span(4, 36),
            NumberSpan(8, 8, 1, "digits", TimeUnit.YEAR),
        ]
        assert try_decomposition(spans) == 36

    def test_on_worked_example_sentence(self, lexicon):
        spans = detect_spans(sentence(WORKED_EXAMPLE), lexicon.numerals)
        assert try_decomposition(spans) == WORKED_EXAMPLE_MONTHS

    def test_generated_triples(self, numerals, lexicon):
        rng = random.Random(11)
        template = (
            "בית המשפט גוזר על הנאשם {total} חודשי מאסר, מהם ירצה {actual} "
            "חודשי מאסר בפועל והיתרה {conditional} חודשים על תנאי."
        )
        for _ in range(100):
            actual = rng.randint(1, 120)
            conditional = rng.randint(1, 60)
            text = template.format(
                total=actual + conditional, actual=actual, conditional=conditional
            )
            spans = detect_spans(sentence(text), numerals)
            assert try_decomposition(spans) == actual
            # perturb the total so the sum check fails
            bad = template.format(
                total=actual + conditional + rng.randint(1, 9),
                actual=actual,
                conditional=conditional,
            )
            spans = detect_spans(sentence(bad), numerals)
            assert try_decomposition(spans) is None


class TestScoring:
    def test_single_span_with_actual_marker(self, lexicon):
        s = sentence("נגזרו עליו 12 חודשי מאסר בפועל.")
        assert score_duration_candidates(analyse(s, lexicon), lexicon.duration) == 12

    def test_actual_beats_probation_adjacent(self, lexicon):
        s = sentence(
            "הנאשם ירצה 30 חודשים במאסר בפועל ועוד 18 חודשים מאסר על תנאי."
        )
        spans = detect_spans(s, lexicon.numerals)
        config = lexicon.duration
        # independent re-derivation of the two span scores
        actual_positions = lexicon.marker_positions(s.text, lexicon.actual_markers)
        probation_positions = lexicon.marker_positions(s.text, lexicon.probation_markers)

        def manual_score(span):
            def dist(positions):
                if not positions:
                    return None
                return min(
                    p - span.end_token if p > span.end_token
                    else span.start_token - p if p < span.start_token
                    else 0
                    for p in positions
                )

            value = config.unit_proximity_weight / (1 + span.unit_distance)
            d_act = dist(actual_positions)
            if d_act is not None:
                value += config.actual_marker_weight / (1 + d_act)
            d_prob = dist(probation_positions)
            if d_prob is not None and d_prob <= MARKER_WINDOW:
                value -= config.probation_penalty
            value += config.position_bonus * span.start_token / (s.token_count - 1)
            return value

        durations = [sp for sp in spans if sp.attached_unit is not None]
        expected = max(durations, key=lambda sp: (manual_score(sp), sp.start_token))
        assert span_months(expected) == 30
        assert score_duration_candidates(analyse(s, lexicon), config) == 30

    def test_all_unitless_returns_none(self, lexicon):
        s = sentence("ראו תיק 1124/04 מיום 31.5.12.")
        analysis = analyse(s, lexicon)
        assert analysis.spans
        assert score_duration_candidates(analysis, lexicon.duration) is None

    def test_tie_goes_to_later_span(self, lexicon):
        s = sentence("א ב 10 חודשים ג ד ה ו 20 חודשים.")
        analysis = analyse(s, lexicon)
        assert analysis.spans == (month_span(2, 10), month_span(8, 20))
        assert score_duration_candidates(analysis, lexicon.duration) == 20


class TestExtract:
    def make_decision(self, *texts):
        return Decision.from_text("case-1", " ".join(texts))

    def test_worked_example_decomposition(self, lexicon):
        decision = self.make_decision(WORKED_EXAMPLE)
        result = extract(decision, 0, lexicon)
        assert result.months == WORKED_EXAMPLE_MONTHS
        assert result.method == "decomposition"
        assert result.candidates

    def test_worked_example_with_docket_citation(self, lexicon):
        # a trailing docket citation adds unit-less digit spans which must
        # not disturb the three-duration decomposition
        cited = WORKED_EXAMPLE[:-1] + ' (ת"פ 1124/04).'
        decision = self.make_decision(cited)
        result = extract(decision, 0, lexicon)
        assert result.months == WORKED_EXAMPLE_MONTHS
        assert result.method == "decomposition"

    def test_unit_only_year_scored(self, lexicon):
        decision = self.make_decision(UNIT_ONLY_SENTENCE)
        result = extract(decision, 0, lexicon)
        assert result.months == 12
        assert result.method == "scored"

    def test_none_propagates(self, lexicon):
        decision = self.make_decision(WORKED_EXAMPLE)
        result = extract(decision, None, lexicon)
        assert result.sentence_index is None
        assert result.months is None
        assert result.method == "none"

    def test_no_resolvable_unit_yields_none(self, lexicon):
        decision = self.make_decision("המאסר יחל ביום 31.")
        result = extract(decision, 0, lexicon)
        assert result.months is None
        assert result.method == "none"
        assert result.candidates  # audit trail keeps the unit-less span

    def test_zero_months_is_legal(self, lexicon):
        decision = self.make_decision("אני גוזר על הנאשם 0 חודשי מאסר בפועל.")
        result = extract(decision, 0, lexicon)
        assert result.months == 0

    def test_decomposition_takes_precedence_over_scoring(self, lexicon):
        # scoring would favor the late span near the actual marker; the
        # decomposition rule must still return the middle term
        text = "סך הכל 48 חודשים, מהם 30 חודשים לריצוי ועוד 18 חודשים בפועל."
        decision = self.make_decision(text)
        result = extract(decision, 0, lexicon)
        assert result.method == "decomposition"
        assert result.months == 30

    def test_rest_marker_never_flips_decomposition(self, lexicon):
        with_marker = self.make_decision(
            "הוטלו 48 חודשים, מהם 30 חודשים בפועל והיתרה 18 חודשים על תנאי."
        )
        without_marker = self.make_decision(
            "הוטלו 48 חודשים, מהם 30 חודשים בפועל ועוד 18 חודשים על תנאי."
        )
        assert extract(with_marker, 0, lexicon).months == 30
        assert extract(without_marker, 0, lexicon).months == 30

    def test_result_months_always_from_a_span(self, lexicon, synthetic):
        from maasar.detect import select_sentence_rule_based

        for decision in synthetic.decisions:
            chosen = select_sentence_rule_based(decision, lexicon)
            result = extract(decision, chosen, lexicon)
            if result.months is not None:
                span_values = {span_months(s) for s in result.candidates}
                assert result.months in span_values

    def test_permuting_unrelated_tokens_keeps_result(self, lexicon):
        base = "אני גוזר על הנאשם 24 חודשי מאסר בפועל לאחר שיקול דעת מעמיק וממושך."
        shuffled = "אני גוזר על הנאשם 24 חודשי מאסר בפועל לאחר דעת שיקול וממושך מעמיק."
        d1 = self.make_decision(base)
        d2 = self.make_decision(shuffled)
        assert extract(d1, 0, lexicon).months == extract(d2, 0, lexicon).months == 24
