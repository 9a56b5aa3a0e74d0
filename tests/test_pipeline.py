import numpy as np
import pytest

from maasar import pipeline
from maasar.analysis import analyse
from maasar.corpus import Decision
from maasar.detect import filter_candidates
from maasar.features import featurize
from maasar.metrics import assemble_report, evaluate_rule_based
from maasar.models import TrainedModel
from maasar.pipeline import (
    SCORING_CHUNK,
    CrossValConfig,
    PunishmentExtractor,
    _model_scored,
    _raw_features,
    _rescale,
    choose_sentence,
    choose_sentences,
    cross_validate,
    make_folds,
    max_token_count,
    select_sentence_supervised,
    sentences_above_threshold,
    train_on_decisions,
)
from maasar.synthetic import generate_corpus
from samples import FINE_ROW, PRIOR_CASE_ROW, SIMPLE_VERDICT

FILLER = "בית המשפט שמע את טיעוני הצדדים."


class StubModel:
    """predict_proba returns preset values for however many rows arrive."""

    token_count_scale = 1

    def __init__(self, probabilities):
        self.probabilities = list(probabilities)

    def predict_proba(self, X):
        return np.asarray(self.probabilities[: len(X)], dtype=float)


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
        kept = sentences_above_threshold(model, decision, lexicon, 0.5)
        assert kept == [0, 2]

    def test_all_below_threshold(self, lexicon):
        decision = three_candidate_decision()
        model = StubModel([0.1, 0.2, 0.3])
        assert sentences_above_threshold(model, decision, lexicon, 0.5) == []

    def test_threshold_zero_keeps_all_candidates(self, lexicon):
        decision = three_candidate_decision()
        model = StubModel([0.1, 0.2, 0.3])
        assert sentences_above_threshold(model, decision, lexicon, 0.0) == [0, 2, 4]


class TestArgmaxStage:
    def test_tie_breaks_toward_document_end(self, lexicon):
        decision = three_candidate_decision()
        model = StubModel([0.3, 0.7, 0.7])
        assert select_sentence_supervised(model, decision, lexicon) == 4

    def test_singleton_wins_regardless_of_probability(self, lexicon):
        decision = Decision.from_text("c", " ".join([FILLER, FINE_ROW, FILLER]))
        model = StubModel([0.001])
        assert select_sentence_supervised(model, decision, lexicon) == 1

    def test_no_candidates_returns_none(self, lexicon):
        decision = Decision.from_text("c", " ".join([FILLER, FILLER]))
        model = StubModel([])
        assert select_sentence_supervised(model, decision, lexicon) is None

    def test_invariant_under_monotone_transforms(self, lexicon):
        decision = three_candidate_decision()
        rng = np.random.default_rng(17)
        for _ in range(50):
            probs = rng.random(3)
            baseline = select_sentence_supervised(StubModel(probs), decision, lexicon)
            scale, shift = rng.uniform(0.1, 5.0), rng.uniform(-3, 3)
            for transformed in (
                probs * scale + shift,
                probs**3,
                np.tanh(probs * scale),
            ):
                assert (
                    select_sentence_supervised(StubModel(transformed), decision, lexicon)
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


class TestCrossValidate:
    def test_fewer_decisions_than_folds(self, lexicon, synthetic):
        with pytest.raises(ValueError, match="fewer decisions than folds"):
            cross_validate(
                synthetic.decisions[:3],
                synthetic.annotations,
                lexicon,
                "rf",
                CrossValConfig(num_folds=5),
            )

    def test_every_decision_evaluated_once(self, lexicon, synthetic):
        decisions = synthetic.decisions[:10]
        ids = {d.case_id for d in decisions}
        annotations = [a for a in synthetic.annotations if a.case_id in ids]
        report = cross_validate(
            decisions, annotations, lexicon, "rf", CrossValConfig(num_folds=5, seed=2)
        )
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
        config = CrossValConfig(num_folds=5, seed=4)
        r1 = cross_validate(decisions, annotations, lexicon, "svm", config)
        r2 = cross_validate(decisions, annotations, lexicon, "svm", config)
        assert r1 == r2

    def test_separable_corpus_full_recall(self, lexicon, synthetic):
        report = cross_validate(
            synthetic.decisions,
            synthetic.annotations,
            lexicon,
            "rf",
            CrossValConfig(num_folds=5, seed=0),
        )
        assert report.detection.recall == 1.0


def per_fold_report(decisions, annotations, lexicon, kind, config):
    """cross_validate assembled fold by fold from the public per-decision
    path, which featurizes every fold's decisions again at its own scale."""
    by_id = {d.case_id: d for d in decisions}
    chosen, detected = {}, set()
    for fold in make_folds(list(by_id), config.num_folds, config.seed):
        test_ids = set(fold)
        model = train_on_decisions(
            [d for d in decisions if d.case_id not in test_ids],
            [r for r in annotations if r.case_id not in test_ids],
            lexicon,
            kind,
            seed=config.seed,
        )
        for case_id in fold:
            decision = by_id[case_id]
            threshold = config.detection_threshold
            for idx in sentences_above_threshold(model, decision, lexicon, threshold):
                detected.add((case_id, idx))
            index = select_sentence_supervised(model, decision, lexicon)
            chosen[case_id] = None if index is None else analyse(decision.sentences[index], lexicon)
    return assemble_report(decisions, annotations, lexicon, chosen, detected)


class TestFeaturizeOnceCrossValidation:
    @pytest.fixture(scope="class")
    def corpus(self, lexicon):
        """Synthetic sentences are at most 20 tokens long, so a few decisions
        get a longer closing sentence to give the folds different scales."""
        corpus = generate_corpus(lexicon.numerals, num_decisions=60, seed=23)
        decisions = list(corpus.decisions)
        for i, length in ((0, 31), (17, 44), (40, 26)):
            d = decisions[i]
            tail = " ".join(["הדיון"] * length) + "."
            decisions[i] = Decision.from_text(d.case_id, f"{d.raw_text} {tail}", d.year, d.court)
        return decisions, corpus.annotations

    @pytest.mark.parametrize("kind", ["rf", "svm"])
    def test_report_equals_per_fold_path(self, lexicon, corpus, kind):
        decisions, annotations = corpus
        config = CrossValConfig(num_folds=5, seed=3, detection_threshold=0.4)
        folds = make_folds([d.case_id for d in decisions], 5, 3)
        scales = {
            max_token_count([d for d in decisions if d.case_id not in set(fold)])
            for fold in folds
        }
        assert len(scales) > 1  # the folds really rescale differently
        report = cross_validate(decisions, annotations, lexicon, kind, config)
        assert report == per_fold_report(decisions, annotations, lexicon, kind, config)

    @pytest.mark.parametrize("kind", ["rf", "svm"])
    def test_learner_sees_the_per_fold_rows(self, lexicon, corpus, kind, monkeypatch):
        """Byte-equal training and scoring inputs, fold by fold, so a wrong
        token_count_norm scale shows even where it flips no prediction. Each
        fold scores its test decisions in one call, on the per-decision rows
        of the per-fold path concatenated in fold order."""
        decisions, annotations = corpus
        config = CrossValConfig(num_folds=5, seed=3)
        seen = []
        original_train = pipeline.train
        original_predict = TrainedModel.predict_proba

        def recording_train(records, *args, **kwargs):
            seen.append(("fit", np.vstack([row for row, _ in records]).tobytes()))
            return original_train(records, *args, **kwargs)

        def recording_predict(model, features):
            seen.append(("score", np.asarray(features).tobytes()))
            return original_predict(model, features)

        monkeypatch.setattr(pipeline, "train", recording_train)
        monkeypatch.setattr(TrainedModel, "predict_proba", recording_predict)
        cross_validate(decisions, annotations, lexicon, kind, config)
        featurize_once, seen[:] = list(seen), []
        per_fold_report(decisions, annotations, lexicon, kind, config)
        per_fold = []
        entries = iter(seen)
        for entry in entries:
            if entry[0] == "score":
                # threshold and argmax each score the test decision again
                assert next(entries) == entry
                if per_fold[-1][0] == "score":
                    entry = ("score", per_fold.pop()[1] + entry[1])
            per_fold.append(entry)
        assert [kind for kind, _ in featurize_once] == ["fit", "score"] * config.num_folds
        assert featurize_once == per_fold

    def test_rescaled_rows_equal_featurized_rows(self, lexicon, corpus):
        decisions, _ = corpus
        for decision in decisions:
            analyses, raw = _raw_features(decision, lexicon)
            candidates = filter_candidates(decision, lexicon)
            assert analyses == [analyse(s, lexicon) for s in candidates]
            # no scale below 1: TrainedModel refuses one, and _rescale no longer reads it as 1
            for scale in (1, 7, 33, max_token_count(decisions)):
                direct = [featurize(analyse(s, lexicon), scale) for s in candidates]
                assert _rescale(raw, scale).tobytes() == b"".join(r.tobytes() for r in direct)


class FailingModel:
    """A model that must not be asked: any scoring call fails."""

    token_count_scale = 1

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
        raws = [_raw_features(d, lexicon) for d in decisions]
        batched = _model_scored(model, raws)
        assert len(batched) == len(raws)
        assert batched[100] == []
        for raw, scored in zip(raws, batched):
            [alone] = _model_scored(model, [raw])
            assert [c.analysis for c in scored] == [c.analysis for c in alone]
            scores = np.array([c.score for c in scored], dtype=float)
            assert scores.tobytes() == np.array([c.score for c in alone], dtype=float).tobytes()

    @pytest.mark.parametrize("kind", ["rule_based", "rf", "svm"])
    def test_choose_sentences_equals_choose_sentence(self, lexicon, decisions, models, kind):
        model = models.get(kind)
        one_at_a_time = [choose_sentence(d, lexicon, model) for d in decisions]
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
        assert sum(calls) == sum(len(_raw_features(d, lexicon)[0]) for d in decisions)

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


class TestPunishmentExtractor:
    def test_rule_based_predict(self, lexicon, synthetic):
        extractor = PunishmentExtractor(method="rule_based", lexicon=lexicon).fit([])
        results = extractor.predict(synthetic.decisions[:4])
        expected = [synthetic.gold[d.case_id].months for d in synthetic.decisions[:4]]
        assert [r.months for r in results] == expected

    def test_supervised_fit_predict(self, lexicon, synthetic):
        extractor = PunishmentExtractor(method="rf", lexicon=lexicon, seed=1)
        extractor.fit(synthetic.decisions, synthetic.annotations)
        results = extractor.predict(synthetic.decisions[:4])
        expected = [synthetic.gold[d.case_id].months for d in synthetic.decisions[:4]]
        assert [r.months for r in results] == expected

    def test_supervised_requires_annotations(self, lexicon):
        with pytest.raises(ValueError, match="annotations"):
            PunishmentExtractor(method="rf", lexicon=lexicon).fit([])

    def test_unfitted_supervised_refuses_predictions(self, lexicon, synthetic):
        extractor = PunishmentExtractor(method="rf", lexicon=lexicon)
        with pytest.raises(ValueError, match="not fitted"):
            extractor.predict(synthetic.decisions[:1])

    def test_params_round_trip(self, lexicon):
        extractor = PunishmentExtractor(method="rule_based", lexicon=lexicon, seed=9)
        params = extractor.get_params()
        clone = PunishmentExtractor(**params)
        assert clone.get_params()["seed"] == 9
