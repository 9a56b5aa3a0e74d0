import math
from collections import Counter

import pytest

from maasar.analysis import analyse
from maasar.corpus import Decision
from maasar.detect import score_candidates
from maasar.lexicon import load_lexicon
from maasar.metrics import (
    ErrorCategory,
    assemble_report,
    detection_prf,
    error_category,
    extraction_f1_and_error,
    punishment_histogram,
    selection_f1,
)
from maasar.synthetic import generate_corpus
from samples import ERROR_EXAMPLES


def sentence(text):
    return Decision.from_text("c", text).sentence(0)


class TestDetectionPrf:
    def test_perfect(self):
        gold = {("c1", 3), ("c2", 7)}
        prf = detection_prf(gold, gold)
        assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)

    def test_two_thirds(self):
        predicted = {("c1", 1), ("c1", 2), ("c2", 5)}
        gold = {("c1", 1), ("c2", 5), ("c3", 9)}
        prf = detection_prf(predicted, gold)
        assert prf.precision == pytest.approx(2 / 3)
        assert prf.recall == pytest.approx(2 / 3)
        assert prf.f1 == pytest.approx(2 / 3)

    def test_empty_predictions_flagged(self):
        prf = detection_prf(set(), {("c1", 0)})
        assert prf.recall == 0.0
        assert prf.precision == 0.0
        assert "precision_undefined_empty_predictions" in prf.flags

    def test_empty_gold_flagged(self):
        prf = detection_prf({("c1", 0)}, set())
        assert prf.recall == 0.0
        assert "recall_undefined_empty_gold" in prf.flags

    def test_disjoint_sets(self):
        prf = detection_prf({("c1", 0)}, {("c1", 1)})
        assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)

    def test_f1_is_harmonic_mean(self):
        predicted = {("c1", 1), ("c2", 2), ("c3", 3), ("c4", 4)}
        gold = {("c1", 1), ("c2", 2), ("c5", 5)}
        prf = detection_prf(predicted, gold)
        expected = 2 * prf.precision * prf.recall / (prf.precision + prf.recall)
        assert prf.f1 == pytest.approx(expected)


class TestSelectionF1:
    def test_sixty_eight_of_hundred(self):
        predictions = {f"c{i}": (5 if i < 68 else 9) for i in range(100)}
        gold = {f"c{i}": {5} for i in range(100)}
        assert selection_f1(predictions, gold) == pytest.approx(0.68)

    def test_all_none(self):
        predictions = {f"c{i}": None for i in range(4)}
        gold = {f"c{i}": {1} for i in range(4)}
        assert selection_f1(predictions, gold) == 0.0

    def test_all_correct(self):
        predictions = {"a": 1, "b": 2}
        gold = {"a": {1, 4}, "b": {2}}
        assert selection_f1(predictions, gold) == 1.0

    def test_none_on_empty_gold_counts_as_hit(self):
        assert selection_f1({"a": None}, {}) == 1.0

    def test_precision_equals_recall_identity(self):
        # one prediction per case: every false positive is also a false
        # negative, so the hit fraction plays both roles
        predictions = {"a": 1, "b": 3, "c": None}
        gold = {"a": {1}, "b": {2}, "c": {7}}
        hits = 1
        assert selection_f1(predictions, gold) == pytest.approx(hits / 3)


class TestExtractionScore:
    def test_half_exact(self):
        score = extraction_f1_and_error({"a": 30, "b": 12}, {"a": 30, "b": 24})
        assert score.extraction_f1 == 0.5
        assert score.avg_month_error == 6.0

    def test_all_exact(self):
        score = extraction_f1_and_error({"a": 7}, {"a": 7})
        assert score.extraction_f1 == 1.0
        assert score.avg_month_error == 0.0

    def test_065_exact_with_five_month_error(self):
        # 65 exact of 100; the 35 misses are off by 14 or 16 months so the
        # absolute errors total 30*14 + 5*16 = 500, i.e. 5 months on average
        gold = {f"c{i}": 20 for i in range(100)}
        predicted = {}
        for i in range(100):
            if i < 65:
                predicted[f"c{i}"] = 20
            elif i < 95:
                predicted[f"c{i}"] = 34
            else:
                predicted[f"c{i}"] = 4
        score = extraction_f1_and_error(predicted, gold)
        assert score.extraction_f1 == pytest.approx(0.65)
        assert score.avg_month_error == pytest.approx(5.0)

    def test_none_counts_as_zero(self):
        score = extraction_f1_and_error({"a": None}, {"a": 18})
        assert score.extraction_f1 == 0.0
        assert score.avg_month_error == 18.0

    def test_zero_error_iff_perfect(self):
        score = extraction_f1_and_error({"a": 3, "b": 9}, {"a": 3, "b": 9})
        assert score.avg_month_error == 0.0 and score.extraction_f1 == 1.0
        score = extraction_f1_and_error({"a": 3, "b": 8}, {"a": 3, "b": 9})
        assert score.avg_month_error > 0.0 and score.extraction_f1 < 1.0


class TestCategorizeError:
    @pytest.mark.parametrize("expected,text", sorted(ERROR_EXAMPLES.items()))
    def test_published_examples(self, lexicon, expected, text):
        assert error_category(analyse(sentence(text), lexicon)) == ErrorCategory(expected)

    def test_precedence_probation_first(self, lexicon):
        text = "נידון ל-18 חודשי מאסר על תנאי וקנס."
        assert error_category(analyse(sentence(text), lexicon)) is ErrorCategory.PROBATION

    def test_docket_pattern_prior_case(self, lexicon):
        text = "ראו 1049/12 לעניין מאסר של 12 חודשים."
        assert (
            error_category(analyse(sentence(text), lexicon))
            is ErrorCategory.PRIOR_CASE_REFERENCE
        )

    def test_misc_fallback(self, lexicon):
        text = "המאסר הוא עניין כבד משקל."
        assert error_category(analyse(sentence(text), lexicon)) is ErrorCategory.MISC

    def test_total_over_synthetic(self, lexicon, synthetic):
        for decision in synthetic.decisions[:5]:
            for s in decision.sentences:
                assert isinstance(error_category(analyse(s, lexicon)), ErrorCategory)


class TestReportFromPerCase:
    """Each case is graded once; every pooled number of the report is read
    from its per-case results and the detected pairs, in any case order."""

    @pytest.fixture(scope="class")
    def scored(self):
        # rewarding fine markers and unitless numbers chooses wrong sentences
        structural = {
            "number_with_unit_bonus": 0.0,
            "number_without_unit_penalty": 3.0,
            "fine_marker_penalty": 5.0,
        }
        lexicon = load_lexicon(threshold=0.0, structural=structural)
        corpus = generate_corpus(lexicon.numerals, num_decisions=60, seed=1)
        cases = [(d.case_id, score_candidates(d, lexicon)) for d in corpus.decisions]
        return corpus, lexicon, cases

    @pytest.mark.parametrize("thresholds", [(0.0, 0.0), (2.0, -math.inf)])
    def test_pooled_numbers_from_per_case(self, scored, thresholds):
        corpus, lexicon, cases = scored
        detection_threshold, selection_threshold = thresholds
        report = assemble_report(corpus.decisions, corpus.annotations, lexicon, cases, *thresholds)
        per_case = report.per_case
        assert [c.case_id for c in per_case] == [d.case_id for d in corpus.decisions]
        gold = {(c.case_id, i) for c in per_case for i in c.gold_indices}
        positives = [r for r in corpus.annotations if r.is_punishment]
        assert gold == {(r.case_id, r.sentence_index) for r in positives}
        detected = {
            (case_id, s.sentence_index)
            for case_id, candidates in cases
            for s in candidates
            if s.score >= detection_threshold
        }
        assert report.detection == detection_prf(detected, gold)

        assert report.sentence_selection_f1 == selection_f1(
            {c.case_id: c.predicted_index for c in per_case},
            {c.case_id: set(c.gold_indices) for c in per_case},
        )
        score = extraction_f1_and_error(
            {c.case_id: c.predicted_months for c in per_case},
            {c.case_id: c.gold_months for c in per_case},
        )
        assert report.extraction_f1 == score.extraction_f1
        assert report.avg_month_error == score.avg_month_error

        correct = [c for c in per_case if c.predicted_index in c.gold_indices]
        exact = sum(c.predicted_months == c.gold_months for c in correct)
        assert report.duration_accuracy_given_correct_sentence == exact / len(correct)

        wrong = [c for c in per_case if c.predicted_index not in (None, *c.gold_indices)]
        assert [c for c in per_case if c.error_category is not None] == wrong
        counts = Counter(c.error_category for c in wrong)
        assert len(counts) > 1  # several categories, so the fractions are tested
        assert report.error_breakdown == {
            category.value: counts[category.value] / len(wrong) for category in ErrorCategory
        }

    def test_case_order_does_not_matter(self, scored):
        corpus, lexicon, cases = scored
        args = (corpus.decisions, corpus.annotations, lexicon)
        in_order = assemble_report(*args, cases, 0.0, 0.0)
        assert assemble_report(*args, cases[::-1], 0.0, 0.0) == in_order


class TestHistogram:
    def test_buckets(self):
        histogram = punishment_histogram([6, 6, 30], bucket_months=12)
        assert histogram.buckets == ((0, 11, 2), (24, 35, 1))

    def test_empty(self):
        histogram = punishment_histogram([None, None], bucket_months=12)
        assert histogram.buckets == ()

    def test_csv_rows(self):
        histogram = punishment_histogram([6, 30], bucket_months=12)
        assert histogram.to_csv_rows() == ["0,11,1", "24,35,1"]

    def test_invalid_bucket(self):
        with pytest.raises(ValueError):
            punishment_histogram([6], bucket_months=0)
