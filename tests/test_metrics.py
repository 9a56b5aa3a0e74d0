import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from maasar.analysis import analyse
from maasar.corpus import segment_sentences
from maasar.detect import score_candidates
from maasar.lexicon import load_lexicon
from maasar.metrics import (
    ErrorCategory,
    assemble_report,
    cohen_kappa,
    detection_prf,
    error_category,
    extraction_f1_and_error,
    fleiss_kappa,
    punishment_histogram,
    selection_f1,
)
from maasar.synthetic import generate_corpus
from samples import ERROR_EXAMPLES


def sentence(text):
    return segment_sentences(text)[0]


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


class TestCohenKappa:
    def test_identical_vectors(self):
        assert cohen_kappa(["A", "B", "A"], ["A", "B", "A"]) == 1.0

    def test_hand_computed_zero(self):
        # p_o = 0.5, p_e = 0.5 -> kappa 0
        assert cohen_kappa(list("AABB"), list("ABAB")) == pytest.approx(0.0)

    def test_reconstructed_pairwise_fixture(self):
        # 37 audited sentences: 9 both-yes, 3 yes/no, 3 no/yes, 22 both-no.
        # po = 31/37, pe = 769/1369, kappa = 378/600 = 0.63 exactly.
        ann4 = ["yes"] * 9 + ["yes"] * 3 + ["no"] * 3 + ["no"] * 22
        ann5 = ["yes"] * 9 + ["no"] * 3 + ["yes"] * 3 + ["no"] * 22
        assert cohen_kappa(ann4, ann5) == pytest.approx(0.63, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cohen_kappa(["A"], ["A", "B"])

    def test_degenerate_uniform(self):
        with pytest.warns(UserWarning):
            assert cohen_kappa(["A", "A"], ["A", "A"]) == 1.0
        # constant raters on different labels: p_e = 0, kappa is plainly 0
        assert cohen_kappa(["A", "A"], ["B", "B"]) == 0.0

    @pytest.mark.filterwarnings("ignore:degenerate")
    @given(st.lists(st.sampled_from("ABC"), min_size=2, max_size=30))
    def test_symmetric(self, labels_a):
        import random

        labels_b = list(labels_a)
        random.Random(0).shuffle(labels_b)
        assert cohen_kappa(labels_a, labels_b) == pytest.approx(
            cohen_kappa(labels_b, labels_a)
        )

    @pytest.mark.filterwarnings("ignore:degenerate")
    @given(st.lists(st.tuples(st.sampled_from("AB"), st.sampled_from("AB")), min_size=2, max_size=40))
    def test_relabeling_invariance(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        swap = {"A": "X", "B": "Y"}
        a2 = [swap[x] for x in a]
        b2 = [swap[x] for x in b]
        pe_degenerate = len(set(a)) == 1 and len(set(b)) == 1 and a[0] == b[0]
        if not pe_degenerate:
            try:
                k1 = cohen_kappa(a, b)
                k2 = cohen_kappa(a2, b2)
            except ValueError:
                return
            assert k1 == pytest.approx(k2)


class TestFleissKappa:
    def test_unanimous_two_categories(self):
        ratings = [["A", "A", "A"], ["B", "B", "B"]]
        assert fleiss_kappa(ratings, num_classes=2) == pytest.approx(1.0)

    def test_hand_computed_quarter(self):
        # items x raters: [[A,A,B],[B,B,B]]
        # P1 = 1/3, P2 = 1, observed = 2/3; pA = 1/3, pB = 2/3,
        # expected = 5/9; kappa = (2/3 - 5/9) / (4/9) = 1/4
        ratings = [["A", "A", "B"], ["B", "B", "B"]]
        assert fleiss_kappa(ratings, num_classes=2) == pytest.approx(0.25, abs=1e-12)

    def test_manual_evaluation_three_classes(self):
        ratings = [
            ["ind", "ind", "not", "cant", "ind"],
            ["not", "not", "not", "not", "ind"],
            ["cant", "ind", "ind", "ind", "ind"],
            ["not", "not", "cant", "not", "not"],
            ["ind", "ind", "ind", "ind", "ind"],
            ["cant", "cant", "not", "cant", "cant"],
        ]
        n_items, n_raters, classes = 6, 5, ("ind", "not", "cant")
        counts = [
            [sum(1 for label in row if label == c) for c in classes] for row in ratings
        ]
        p_j = [
            sum(counts[i][j] for i in range(n_items)) / (n_items * n_raters)
            for j in range(3)
        ]
        p_e = sum(p * p for p in p_j)
        p_i = [
            (sum(c * c for c in counts[i]) - n_raters) / (n_raters * (n_raters - 1))
            for i in range(n_items)
        ]
        p_bar = sum(p_i) / n_items
        manual = (p_bar - p_e) / (1 - p_e)
        assert abs(fleiss_kappa(ratings, num_classes=3) - manual) < 1e-9

    def test_missing_rating_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            fleiss_kappa([["A", None, "B"]], num_classes=2)

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError, match="all raters"):
            fleiss_kappa([["A", "B"], ["A"]], num_classes=2)

    def test_degenerate_unanimity(self):
        with pytest.warns(UserWarning):
            assert fleiss_kappa([["A", "A"], ["A", "A"]], num_classes=2) == 1.0

    def test_two_rater_observed_matches_cohen_observed(self):
        a = ["A", "B", "A", "B", "A", "A"]
        b = ["A", "B", "B", "B", "A", "B"]
        ratings = list(map(list, zip(a, b)))
        # with 2 raters, per-item agreement is 1 when they agree else 0
        n = len(a)
        observed = sum(x == y for x, y in zip(a, b)) / n
        p_i = [1.0 if x == y else 0.0 for x, y in zip(a, b)]
        assert sum(p_i) / n == observed
        k = fleiss_kappa(ratings, num_classes=2)
        assert -1.0 <= k <= 1.0


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
