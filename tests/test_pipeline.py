import math

import numpy as np
import pytest

from maasar import pipeline
from maasar.analysis import analyse
from maasar.corpus import Decision, InputError
from maasar.detect import at_or_above, filter_candidates, rule_based_choices
from maasar.extraction import extract
from maasar.features import FEATURE_NAMES, featurize
from maasar.metrics import assemble_report, evaluate_rule_based
from maasar.models import TrainedModel
from maasar.pipeline import (
    SCORING_CHUNK,
    _candidate_rows,
    _model_scored,
    choose_sentences,
    cross_validate,
    make_folds,
    train_on_decisions,
)
from maasar.synthetic import generate_corpus
from samples import FINE_ROW, PRIOR_CASE_ROW, SIMPLE_VERDICT

FILLER = "בית המשפט שמע את טיעוני הצדדים."
_TOKEN_COUNT = FEATURE_NAMES.index("token_count_norm")


class StubModel:
    """predict_proba returns preset values for however many rows arrive."""

    def __init__(self, probabilities):
        self.probabilities = list(probabilities)

    def predict_proba(self, X):
        return np.asarray(self.probabilities[: len(X)], dtype=float)


def detected_indices(model, decision, lexicon, threshold):
    """Candidate indices whose probability is at or above ``threshold``."""
    [scored] = _model_scored(model, [_candidate_rows(decision, lexicon)])
    return [candidate.sentence_index for candidate in at_or_above(scored, threshold)]


def chosen_index(model, decision, lexicon):
    """Index of the sentence ``choose_sentences`` chooses, or None."""
    [chosen] = choose_sentences([decision], lexicon, model)
    return None if chosen is None else chosen.sentence.index


def three_candidate_decision():
    texts = [
        SIMPLE_VERDICT.format(months=10),
        FILLER,
        PRIOR_CASE_ROW,
        FILLER,
        FINE_ROW,
    ]
    return Decision.from_text("c", " ".join(texts))


class TestThresholdStage:
    def test_keeps_indices_above_threshold(self, lexicon):
        decision = three_candidate_decision()
        model = StubModel([0.9, 0.6, 0.2])
        kept = detected_indices(model, decision, lexicon, 0.5)
        assert kept == [0, 2]

    def test_all_below_threshold(self, lexicon):
        decision = three_candidate_decision()
        model = StubModel([0.1, 0.2, 0.3])
        assert detected_indices(model, decision, lexicon, 0.5) == []

    def test_threshold_zero_keeps_all_candidates(self, lexicon):
        decision = three_candidate_decision()
        model = StubModel([0.1, 0.2, 0.3])
        assert detected_indices(model, decision, lexicon, 0.0) == [0, 2, 4]


class TestArgmaxStage:
    def test_tie_breaks_toward_document_end(self, lexicon):
        decision = three_candidate_decision()
        model = StubModel([0.3, 0.7, 0.7])
        assert chosen_index(model, decision, lexicon) == 4

    def test_singleton_wins_regardless_of_probability(self, lexicon):
        decision = Decision.from_text("c", " ".join([FILLER, FINE_ROW, FILLER]))
        model = StubModel([0.001])
        assert chosen_index(model, decision, lexicon) == 1

    def test_no_candidates_returns_none(self, lexicon):
        decision = Decision.from_text("c", " ".join([FILLER, FILLER]))
        model = StubModel([])
        assert chosen_index(model, decision, lexicon) is None

    def test_invariant_under_monotone_transforms(self, lexicon):
        decision = three_candidate_decision()
        rng = np.random.default_rng(17)
        for _ in range(50):
            probs = rng.random(3)
            baseline = chosen_index(StubModel(probs), decision, lexicon)
            scale, shift = rng.uniform(0.1, 5.0), rng.uniform(-3, 3)
            for transformed in (
                probs * scale + shift,
                probs**3,
                np.tanh(probs * scale),
            ):
                assert (
                    chosen_index(StubModel(transformed), decision, lexicon)
                    == baseline
                )


class TestFolds:
    def test_partition(self):
        ids = [f"c{i}" for i in range(10)]
        folds = make_folds(ids, 5, seed=1)
        assert len(folds) == 5
        flattened = [i for fold in folds for i in fold]
        assert sorted(flattened) == sorted(ids)
        assert len(set(flattened)) == len(ids)

    def test_deterministic(self):
        ids = [f"c{i}" for i in range(13)]
        assert make_folds(ids, 4, seed=9) == make_folds(ids, 4, seed=9)
        assert make_folds(ids, 4, seed=9) != make_folds(ids, 4, seed=10)

    def test_ids_kept_as_given(self):
        """A trailing NUL is part of a case id: a numpy string array drops it."""
        ids = ["c0\u0000", "c1", "c2\u0000\u0000", "c3", "c4"]
        folds = make_folds(ids, 3, seed=1)
        assert sorted(i for fold in folds for i in fold) == sorted(ids)
        assert {type(i) for fold in folds for i in fold} == {str}
        assert [len(fold) for fold in folds] == [2, 2, 1]


class TestCrossValidate:
    def test_fewer_decisions_than_folds(self, lexicon, synthetic):
        with pytest.raises(ValueError, match="fewer decisions than folds"):
            cross_validate(
                synthetic.decisions[:3],
                synthetic.annotations,
                lexicon,
                "rf",
                num_folds=5,
            )

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"num_folds": 1}, "num_folds must be >= 2"),
            ({"detection_threshold": 1.0}, r"detection_threshold must be in \[0, 1\)"),
            ({"detection_threshold": -0.1}, r"detection_threshold must be in \[0, 1\)"),
        ],
    )
    def test_settings_refused(self, lexicon, synthetic, options, message):
        with pytest.raises(InputError, match=message):
            cross_validate(synthetic.decisions, synthetic.annotations, lexicon, "rf", **options)

    def test_every_decision_evaluated_once(self, lexicon, synthetic):
        decisions = synthetic.decisions[:10]
        ids = {d.case_id for d in decisions}
        annotations = [a for a in synthetic.annotations if a.case_id in ids]
        report = cross_validate(decisions, annotations, lexicon, "rf", num_folds=5, seed=2)
        assert {c.case_id for c in report.per_case} == ids
        assert len(report.per_case) == len(ids)

    def test_no_leakage(self, lexicon, synthetic):
        ids = [d.case_id for d in synthetic.decisions]
        folds = make_folds(ids, 5, seed=0)
        for i, fold in enumerate(folds):
            train_ids = {x for j, f in enumerate(folds) if j != i for x in f}
            assert train_ids.isdisjoint(fold)

    def test_deterministic_report(self, lexicon, synthetic):
        decisions = synthetic.decisions[:10]
        ids = {d.case_id for d in decisions}
        annotations = [a for a in synthetic.annotations if a.case_id in ids]
        r1 = cross_validate(decisions, annotations, lexicon, "svm", num_folds=5, seed=4)
        r2 = cross_validate(decisions, annotations, lexicon, "svm", num_folds=5, seed=4)
        assert r1 == r2

    def test_separable_corpus_full_recall(self, lexicon, synthetic):
        report = cross_validate(
            synthetic.decisions,
            synthetic.annotations,
            lexicon,
            "rf",
            num_folds=5,
            seed=0,
        )
        assert report.detection.recall == 1.0


def per_fold_report(
    decisions, annotations, lexicon, kind, *, num_folds, seed, detection_threshold=0.5
):
    """cross_validate assembled fold by fold from the public per-decision
    path, which featurizes every fold's decisions again."""
    by_id = {d.case_id: d for d in decisions}
    scored_cases = []
    for fold in make_folds(list(by_id), num_folds, seed):
        test_ids = set(fold)
        model = train_on_decisions(
            [d for d in decisions if d.case_id not in test_ids],
            [r for r in annotations if r.case_id not in test_ids],
            lexicon,
            kind,
            seed=seed,
        )
        for case_id in fold:
            [scored] = _model_scored(model, [_candidate_rows(by_id[case_id], lexicon)])
            scored_cases.append((case_id, scored))
    return assemble_report(
        decisions, annotations, lexicon, scored_cases, detection_threshold, -math.inf
    )


class TestFeaturizeOnceCrossValidation:
    @pytest.fixture(scope="class")
    def corpus(self, lexicon):
        """Synthetic sentences are at most 20 tokens long, so a few decisions
        get a longer closing sentence, whose token count the rows read."""
        corpus = generate_corpus(lexicon.numerals, num_decisions=60, seed=23)
        decisions = list(corpus.decisions)
        for i, length in ((0, 31), (17, 44), (40, 26)):
            d = decisions[i]
            tail = " ".join(["הדיון"] * length) + "."
            text = " ".join(d.texts)  # the generated text
            decisions[i] = Decision.from_text(d.case_id, f"{text} {tail}", d.year, d.court)
        return decisions, corpus.annotations

    @pytest.mark.parametrize("kind", ["rf", "svm"])
    def test_report_equals_per_fold_path(self, lexicon, corpus, kind):
        decisions, annotations = corpus
        config = dict(num_folds=5, seed=3, detection_threshold=0.4)
        report = cross_validate(decisions, annotations, lexicon, kind, **config)
        assert report == per_fold_report(decisions, annotations, lexicon, kind, **config)

    @pytest.mark.parametrize("kind", ["rf", "svm"])
    def test_learner_sees_the_per_fold_rows(self, lexicon, corpus, kind, monkeypatch):
        """Byte-equal training matrices, labels and scoring inputs, fold by
        fold, so a row that differs from the per-fold path shows even where
        it flips no prediction. Each fold scores its test decisions in
        one call, on the per-decision rows of the per-fold path concatenated
        in fold order."""
        decisions, annotations = corpus
        config = dict(num_folds=5, seed=3)
        seen = []
        original_train = pipeline.train
        original_predict = TrainedModel.predict_proba

        def recording_train(X, y, *args, **kwargs):
            seen.append(("fit", (X.tobytes(), y.tobytes(), args, kwargs)))
            return original_train(X, y, *args, **kwargs)

        def recording_predict(model, features):
            seen.append(("score", np.asarray(features).tobytes()))
            return original_predict(model, features)

        monkeypatch.setattr(pipeline, "train", recording_train)
        monkeypatch.setattr(TrainedModel, "predict_proba", recording_predict)
        cross_validate(decisions, annotations, lexicon, kind, **config)
        featurize_once, seen[:] = list(seen), []
        per_fold_report(decisions, annotations, lexicon, kind, **config)
        per_fold = []
        for entry in seen:
            if entry[0] == "score" and per_fold[-1][0] == "score":
                entry = ("score", per_fold.pop()[1] + entry[1])
            per_fold.append(entry)
        assert [kind for kind, _ in featurize_once] == ["fit", "score"] * config["num_folds"]
        assert featurize_once == per_fold

    def test_rescaled_rows_equal_featurized_rows(self, lexicon, corpus):
        decisions, _ = corpus
        for decision in decisions:
            analyses, rows = _candidate_rows(decision, lexicon)
            candidates = filter_candidates(decision, lexicon)
            assert analyses == [analyse(s, lexicon) for s in candidates]
            direct = [featurize(analyse(s, lexicon)) for s in candidates]
            assert rows.tobytes() == b"".join(row.tobytes() for row in direct)


class TestRowsDependOnTheirAnalysisAlone:
    def test_outlier_decision_moves_no_other_row(self, lexicon, monkeypatch):
        """A decision with a 500-token sentence changes no other decision's
        training rows: the token count is capped per row, not scaled by the
        longest sentence of the corpus."""
        corpus = generate_corpus(lexicon.numerals, num_decisions=30, seed=7)
        verdict = SIMPLE_VERDICT.format(months=4).removesuffix(".")  # 8 tokens
        padding = " ".join(["הדיון"] * 492)
        outlier = Decision.from_text("outlier", f"{FILLER} {verdict} {padding}.")
        assert max(s.token_count for s in outlier.sentences) == 500
        seen = []
        original_train = pipeline.train

        def recording_train(X, y, *args, **kwargs):
            seen.append(X)
            return original_train(X, y, *args, **kwargs)

        monkeypatch.setattr(pipeline, "train", recording_train)
        for decisions in (corpus.decisions, [*corpus.decisions, outlier]):
            train_on_decisions(decisions, corpus.annotations, lexicon, "rf", seed=1)
        without, with_outlier = seen
        assert len(with_outlier) == len(without) + 1  # the outlier's verdict is a candidate
        assert with_outlier[: len(without)].tobytes() == without.tobytes()
        assert with_outlier[-1, _TOKEN_COUNT] == 1.0


class FailingModel:
    """A model that must not be asked: any scoring call fails."""

    def predict_proba(self, X):
        raise AssertionError(f"predict_proba called on {len(X)} rows")


class TestBatchedScoring:
    @pytest.fixture(scope="class")
    def decisions(self, lexicon):
        """More than one chunk of decisions, one of them without candidates
        in the middle of the first chunk."""
        decisions = list(generate_corpus(lexicon.numerals, num_decisions=310, seed=41).decisions)
        decisions.insert(100, Decision.from_text("no-candidates", f"{FILLER} {FILLER}"))
        assert len(decisions) > SCORING_CHUNK
        return decisions

    @pytest.fixture(scope="class")
    def models(self, lexicon):
        corpus = generate_corpus(lexicon.numerals, num_decisions=60, seed=42)
        return {
            kind: train_on_decisions(corpus.decisions, corpus.annotations, lexicon, kind, seed=5)
            for kind in ("rf", "svm")
        }

    def test_batched_scores_equal_one_decision_at_a_time(self, lexicon, decisions, models):
        model = models["rf"]
        candidates = [_candidate_rows(d, lexicon) for d in decisions]
        batched = _model_scored(model, candidates)
        assert len(batched) == len(candidates)
        assert batched[100] == []
        for rows, scored in zip(candidates, batched):
            [alone] = _model_scored(model, [rows])
            assert [c.analysis for c in scored] == [c.analysis for c in alone]
            scores = np.array([c.score for c in scored], dtype=float)
            assert scores.tobytes() == np.array([c.score for c in alone], dtype=float).tobytes()

    @pytest.mark.parametrize("kind", ["rf", "svm"])
    def test_choose_sentences_equals_choose_sentence(self, lexicon, decisions, models, kind):
        model = models[kind]
        one_at_a_time = [next(choose_sentences([d], lexicon, model)) for d in decisions]
        assert one_at_a_time[100] is None
        assert list(choose_sentences(decisions, lexicon, model)) == one_at_a_time

    def test_one_call_per_chunk_with_candidates(self, lexicon, decisions, models, monkeypatch):
        calls = []
        original_predict = TrainedModel.predict_proba

        def recording_predict(model, features):
            calls.append(len(features))
            return original_predict(model, features)

        monkeypatch.setattr(TrainedModel, "predict_proba", recording_predict)
        free = [decisions[100]] * SCORING_CHUNK  # a whole chunk without candidates
        chosen = list(choose_sentences(free + decisions, lexicon, models["rf"]))
        assert chosen[:SCORING_CHUNK] == [None] * SCORING_CHUNK
        assert len(calls) == -(-len(decisions) // SCORING_CHUNK)
        assert sum(calls) == sum(len(_candidate_rows(d, lexicon)[0]) for d in decisions)

    def test_candidate_free_chunk_makes_no_call(self, lexicon, decisions):
        free = [decisions[100]] * (SCORING_CHUNK + 1)
        assert list(choose_sentences(free, lexicon, FailingModel())) == [None] * len(free)
        assert _model_scored(FailingModel(), []) == []


class TestRuleBasedEvaluation:
    def test_synthetic_report(self, lexicon, synthetic):
        report = evaluate_rule_based(synthetic.decisions, synthetic.annotations, lexicon)
        assert report.sentence_selection_f1 >= 0.9
        assert report.duration_accuracy_given_correct_sentence == 1.0
        assert report.avg_month_error == 0.0

    def test_error_breakdown_fractions(self, lexicon, synthetic):
        report = evaluate_rule_based(synthetic.decisions, synthetic.annotations, lexicon)
        total = sum(report.error_breakdown.values())
        assert total == 0.0 or abs(total - 1.0) < 1e-9


class TestEndToEnd:
    """Selection then extraction, as a library caller composes them."""

    def test_rule_based_predict(self, lexicon, synthetic):
        decisions = synthetic.decisions[:4]
        chosen = rule_based_choices(decisions, lexicon)
        results = [extract(d, c, lexicon) for d, c in zip(decisions, chosen)]
        assert [r.months for r in results] == [synthetic.gold[d.case_id].months for d in decisions]

    def test_supervised_fit_predict(self, lexicon, synthetic):
        model = train_on_decisions(
            synthetic.decisions, synthetic.annotations, lexicon, "rf", seed=1
        )
        decisions = synthetic.decisions[:4]
        chosen = choose_sentences(decisions, lexicon, model)
        results = [extract(d, c, lexicon) for d, c in zip(decisions, chosen)]
        assert [r.months for r in results] == [synthetic.gold[d.case_id].months for d in decisions]
