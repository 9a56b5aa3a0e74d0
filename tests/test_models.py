import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maasar import models
from maasar.analysis import analyse
from maasar.corpus import Decision, InputError
from maasar.features import (
    FEATURE_NAMES,
    FEATURE_SCHEMA_VERSION,
    NUM_FEATURES,
    TOKEN_COUNT_CAP,
    featurize,
)
from maasar.models import (
    LinearMarginClassifier,
    TrainedModel,
    TreeEnsembleClassifier,
    _cut_impurities,
    _grow_tree,
    _rank_columns,
    load_model,
    save_model,
    train,
)

# The tier, structure and marker counts, which lead every row.
COUNT_COLUMNS = FEATURE_NAMES.index("relative_position")


def bits(probabilities: list) -> bytes:
    """A list of probabilities as the bytes of its float64 values, after
    checking that it is a list of floats."""
    assert type(probabilities) is list and all(type(p) is float for p in probabilities)
    return np.array(probabilities, dtype=float).tobytes()


def separable_data(n=60, seed=5):
    """Positives have has_number=1 and strong_positive >= 1."""
    rng = np.random.default_rng(seed)
    X = np.zeros((n, NUM_FEATURES))
    y = np.zeros(n, dtype=int)
    for i in range(n):
        positive = i % 3 == 0
        y[i] = int(positive)
        X[i, 0] = rng.integers(1, 3) if positive else 0  # strong_positive_count
        X[i, 4] = 1.0 if positive else rng.integers(0, 2)  # has_number
        X[i, FEATURE_NAMES.index("relative_position")] = rng.random()
    return X, y


class TestFeaturize:
    def test_dimension_names_fixed(self):
        assert len(FEATURE_NAMES) == NUM_FEATURES == 13
        assert FEATURE_SCHEMA_VERSION == 2
        assert FEATURE_NAMES[-4:] == (
            "actual_marker_count", "docket_marker_count", "relative_position", "token_count_norm"
        )

    def test_keyword_free_sentence_zero_counts(self, lexicon):
        decision = Decision.from_text("c", "ריק לחלוטין. עוד משפט כאן.")
        fv = featurize(analyse(decision.sentences[0], lexicon))
        assert type(fv) is tuple and len(fv) == NUM_FEATURES
        assert all(type(v) is float for v in fv)
        assert sum(fv[:COUNT_COLUMNS]) == 0
        assert all(map(math.isfinite, fv))

    def test_empty_sentence_positions_still_defined(self, lexicon):
        from maasar.corpus import Sentence

        fv = featurize(analyse(Sentence(1, "", 0, 1.0), lexicon))
        assert sum(fv[:COUNT_COLUMNS]) == 0
        assert fv[FEATURE_NAMES.index("relative_position")] == 1.0
        assert all(type(v) is float for v in fv)
        assert all(map(math.isfinite, fv))

    def test_two_strong_positive_hits(self, lexicon):
        verbs = sorted(lexicon.strong_positive)[:2]
        decision = Decision.from_text("c", f"אני {verbs[0]} וגם {verbs[1]} עונש.")
        fv = featurize(analyse(decision.sentences[0], lexicon))
        assert fv[FEATURE_NAMES.index("strong_positive_count")] == 2

    def test_last_sentence_positions(self, lexicon):
        decision = Decision.from_text("c", "ראשון כאן. שני כאן. אחרון ממש.")
        fv = featurize(analyse(decision.sentences[-1], lexicon))
        assert fv[FEATURE_NAMES.index("relative_position")] == 1.0
        assert fv[FEATURE_NAMES.index("token_count_norm")] == 2 / TOKEN_COUNT_CAP

    def test_actual_marker_count(self, lexicon):
        served = "אני גוזר על הנאשם 10 חודשי מאסר בפועל ועוד 6 חודשי מאסר בפועל."
        suspended = "אני גוזר על הנאשם 6 חודשי מאסר על תנאי."
        decision = Decision.from_text("c", f"{served} {suspended}")
        rows = [featurize(analyse(s, lexicon)) for s in decision.sentences]
        assert [row[FEATURE_NAMES.index("actual_marker_count")] for row in rows] == [2, 0]
        assert [row[FEATURE_NAMES.index("probation_marker_count")] for row in rows] == [0, 1]

    @pytest.mark.parametrize("tokens, norm", [(1, 1 / 64), (63, 63 / 64), (64, 1.0), (100, 1.0)])
    def test_token_count_norm_capped(self, lexicon, tokens, norm):
        [sentence] = Decision.from_text("c", " ".join(["מילה"] * tokens) + ".").sentences
        assert featurize(analyse(sentence, lexicon))[FEATURE_NAMES.index("token_count_norm")] == norm

    def test_docket_marker_count(self, lexicon):
        decision = Decision.from_text("c", "ראו 1049/12 וגם 33/98 לעניין מאסר.")
        fv = featurize(analyse(decision.sentences[0], lexicon))
        assert fv[FEATURE_NAMES.index("docket_marker_count")] == 2

    def test_indicators_are_binary(self, lexicon, synthetic):
        decision = synthetic.decisions[0]
        for s in decision.sentences[:10]:
            fv = featurize(analyse(s, lexicon))
            assert fv[FEATURE_NAMES.index("has_number")] in (0.0, 1.0)
            assert fv[FEATURE_NAMES.index("has_time_unit")] in (0.0, 1.0)


# The hyperparams of a model file trained with seed 3: the learners' defaults,
# whose keys and values every existing model file carries.
MODEL_FILE_HYPERPARAMS = {
    "linear_margin": {
        "class_weight": "balanced", "epochs": 800, "l2": 0.0001, "learning_rate": 0.5, "seed": 3
    },
    "tree_ensemble": {
        "max_depth": None, "max_features": "sqrt", "min_leaf": 1, "n_trees": 100, "seed": 3
    },
}


@pytest.mark.parametrize("kind", ["linear_margin", "tree_ensemble"])
class TestLearnersCommon:
    def test_separable_training_accuracy(self, kind):
        X, y = separable_data()
        model = train(X, y, kind, seed=3)
        predictions = [int(p >= 0.5) for p in model.predict_proba(X)]
        assert predictions == y.tolist()

    def test_deterministic_under_seed(self, kind):
        X, y = separable_data()
        a = train(X, y, kind, seed=11).predict_proba(X)
        b = train(X, y, kind, seed=11).predict_proba(X)
        assert bits(a) == bits(b)

    def test_single_class_rejected(self, kind):
        X, _ = separable_data()
        with pytest.raises(ValueError, match="single class"):
            train(X, np.ones(len(X), dtype=bool), kind)

    def test_nan_rejected(self, kind):
        X, y = separable_data()
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            train(X, y, kind)

    def test_save_load_round_trip(self, kind, tmp_path):
        X, y = separable_data()
        model = train(X, y, kind, seed=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == model.kind
        assert loaded.classifier.seed == model.classifier.seed == 2
        assert bits(loaded.predict_proba(X)) == bits(model.predict_proba(X))
        save_model(loaded, tmp_path / "model2.json")
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "model2.json").read_bytes()

    def test_failed_save_leaves_the_old_file(self, kind, tmp_path, monkeypatch):
        X, y = separable_data()
        model = train(X, y, kind, seed=2)
        path = tmp_path / "model.json"
        path.write_bytes(b"the old model file")

        def failing_replace(source, target):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_model(model, path)
        assert path.read_bytes() == b"the old model file"
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]  # no temp file left

    def test_model_file_hyperparams(self, kind, tmp_path):
        X, y = separable_data()
        save_model(train(X, y, kind, seed=3), tmp_path / "m")
        doc = json.loads((tmp_path / "m").read_text(encoding="utf-8"))
        assert doc["hyperparams"] == MODEL_FILE_HYPERPARAMS[kind]


class TestTreeEnsemble:
    def test_probability_is_exact_vote_fraction(self):
        X, y = separable_data()
        clf = TreeEnsembleClassifier(n_trees=100, seed=0).fit(X, y)
        trees = [{"vote": 1}] * 80 + [{"vote": 0}] * 20
        clf.load_state_dict({"trees": trees, "n_features_in": NUM_FEATURES})
        assert clf.predict_proba(X[:1]) == [80 / 100]

    def test_probabilities_are_vote_multiples(self):
        X, y = separable_data()
        clf = TreeEnsembleClassifier(n_trees=25, seed=0).fit(X, y)
        votes = np.array(clf.predict_proba(X)) * 25
        assert np.allclose(votes, np.round(votes))

    @pytest.mark.parametrize(
        "values",
        [
            # the midpoint of the last two rounds onto the upper one
            [1.0, 1.0 + math.ulp(1.0), 1.0 + 2 * math.ulp(1.0), 1.0 + 2 * math.ulp(1.0)],
            # the midpoints overflow to -inf and +inf
            [-1.7e308, -1.7e308, -1.6e308, -1.6e308],
            [1.6e308, 1.6e308, 1.7e308, 1.7e308],
        ],
        ids=["adjacent", "negative-overflow", "positive-overflow"],
    )
    def test_split_threshold_separates_its_cut(self, values):
        X = [[v] for v in values]
        clf = TreeEnsembleClassifier(n_trees=1, seed=0).fit(X, [0, 0, 1, 1])
        [tree] = clf.trees_
        assert values[1] <= tree["threshold"] < values[2]
        assert [p >= 0.5 for p in clf.predict_proba(X)] == [False, False, True, True]


@pytest.mark.parametrize(
    "learner, name, value",
    [
        (TreeEnsembleClassifier, "n_trees", 0),
        (TreeEnsembleClassifier, "n_trees", "abc"),
        (TreeEnsembleClassifier, "max_depth", -1),
        (TreeEnsembleClassifier, "max_depth", -3),
        (TreeEnsembleClassifier, "min_leaf", 0),
        (TreeEnsembleClassifier, "min_leaf", [1]),
        (TreeEnsembleClassifier, "max_features", None),
        (TreeEnsembleClassifier, "max_features", 0),
        (TreeEnsembleClassifier, "seed", "x"),
        (TreeEnsembleClassifier, "seed", -1),
        (LinearMarginClassifier, "learning_rate", math.nan),
        (LinearMarginClassifier, "learning_rate", None),
        (LinearMarginClassifier, "learning_rate", 0),
        (LinearMarginClassifier, "epochs", "abc"),
        (LinearMarginClassifier, "epochs", True),
        (LinearMarginClassifier, "l2", -1),
        (LinearMarginClassifier, "class_weight", "bal"),
        (LinearMarginClassifier, "class_weight", 5),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_unaccepted_hyperparameter_refused(learner, name, value):
    with pytest.raises(InputError, match=f"^{learner.__name__} field '{name}' must be"):
        learner(**{name: value})


class TestLinearMargin:
    def test_zero_margin_maps_to_half(self):
        clf = LinearMarginClassifier()
        clf.weights_ = np.zeros(NUM_FEATURES)
        clf.bias_ = 0.0
        clf.n_features_in_ = NUM_FEATURES
        clf.calibration_scale_ = 3.7
        clf.calibration_offset_ = 0.0
        assert clf.predict_proba(np.ones((1, NUM_FEATURES))) == [0.5]

    def test_calibration_exposed(self):
        X, y = separable_data()
        model = train(X, y, "linear_margin")
        assert model.classifier.state_dict()["calibration"]["offset"] == 0.0
        assert model.classifier.calibration_scale_ > 0

    @pytest.mark.parametrize(
        "hyperparams", [{"learning_rate": 1e6}, {"learning_rate": 1e300}, {"l2": 1e6}]
    )
    def test_diverging_fit_refused(self, hyperparams):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, NUM_FEATURES))
        y = (rng.random(40) < 0.5).astype(int)
        clf = LinearMarginClassifier(**hyperparams)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings stay inside fit
            with pytest.raises(InputError, match="learning_rate .* and l2 "):
                clf.fit(X, y)
        assert not hasattr(clf, "weights_")

    def test_tree_model_has_no_calibration(self):
        X, y = separable_data()
        model = train(X, y, "tree_ensemble")
        assert "calibration" not in model.classifier.state_dict()
        assert not hasattr(model.classifier, "calibration_scale_")


class TestSchemaGuard:
    def test_wrong_width_rejected(self):
        X, y = separable_data()
        model = train(X, y, "linear_margin")
        with pytest.raises(ValueError, match="dimensions|columns"):
            model.predict_proba(np.ones((1, NUM_FEATURES + 1)))

    @pytest.mark.parametrize(
        ("learner", "state_field"),
        [(LinearMarginClassifier, "weights"), (TreeEnsembleClassifier, "n_features_in")],
    )
    def test_classifier_of_another_width_refused(self, learner, state_field):
        X, y = separable_data()
        classifier = learner().fit(X[:, :-1], y)
        with pytest.raises(InputError, match=f"'{state_field}' describes 12 features"):
            TrainedModel(classifier)

    def test_predict_proba_checks_its_matrix_once(self, monkeypatch):
        X, y = separable_data()
        model = train(X, y, "linear_margin")
        calls = []
        original = models.check_feature_matrix
        monkeypatch.setattr(
            models, "check_feature_matrix", lambda *a: calls.append(a) or original(*a)
        )
        model.predict_proba(X)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["svm", "boosting"])
    def test_no_rows_refused(self, kind):
        with pytest.raises(InputError, match="no training records"):
            train(np.empty((0, NUM_FEATURES)), np.empty(0, dtype=int), kind)

    def test_kind_aliases(self):
        X, y = separable_data()
        assert train(X, y, "svm").kind == "linear_margin"
        assert train(X, y, "rf").kind == "tree_ensemble"
        with pytest.raises(ValueError, match="unknown model kind"):
            train(X, y, "boosting")


# Reference implementations: the per-cut splitter and the per-row, per-tree
# vote loop that the vectorised splitter and the flattened predictor replace.
def reference_gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float((p * p).sum())


def reference_grow_tree(X, y, indices, rng, max_features, min_leaf, max_depth, depth=0):
    labels = y[indices]
    positive = int(labels.sum())
    if (
        positive == 0
        or positive == len(labels)
        or len(indices) <= min_leaf
        or (max_depth is not None and depth >= max_depth)
    ):
        return {"vote": 1 if 2 * positive > len(labels) else 0}
    feature_order = rng.permutation(X.shape[1])
    evaluated = 0
    best = None
    for f in feature_order:
        if evaluated >= max_features:
            break
        column = X[indices, f]
        order = np.argsort(column, kind="stable")
        sorted_vals = column[order]
        sorted_labels = labels[order]
        distinct = np.nonzero(np.diff(sorted_vals))[0]
        if distinct.size == 0:
            continue
        evaluated += 1
        pos_prefix = np.cumsum(sorted_labels)
        total_pos = pos_prefix[-1]
        n = len(indices)
        for cut in distinct:
            left_n = cut + 1
            right_n = n - left_n
            if left_n < min_leaf or right_n < min_leaf:
                continue
            left_pos = pos_prefix[cut]
            left_counts = np.array([left_n - left_pos, left_pos], dtype=float)
            right_counts = np.array(
                [right_n - (total_pos - left_pos), total_pos - left_pos], dtype=float
            )
            impurity = (
                left_n * reference_gini(left_counts) + right_n * reference_gini(right_counts)
            ) / n
            threshold = (sorted_vals[cut] + sorted_vals[cut + 1]) / 2.0
            key = (impurity, f, threshold)
            if best is None or key < best:
                best = key
    if best is None:
        return {"vote": 1 if 2 * positive > len(labels) else 0}
    _, feature, threshold = best
    mask = X[indices, feature] <= threshold
    args = (rng, max_features, min_leaf, max_depth, depth + 1)
    left = reference_grow_tree(X, y, indices[mask], *args)
    right = reference_grow_tree(X, y, indices[~mask], *args)
    return {"feature": int(feature), "threshold": float(threshold), "left": left, "right": right}


def reference_tree_vote(tree, row):
    node = tree
    while "vote" not in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["vote"]


def reference_predict_proba(trees, X):
    return [sum(reference_tree_vote(t, row) for t in trees) / len(trees) for row in X]


def reference_fit_trees(clf, X, y):
    """The trees TreeEnsembleClassifier.fit grows, via the reference splitter."""
    max_features = clf._resolve_max_features(X.shape[1])
    tree_seeds = np.random.default_rng(clf.seed).integers(0, 2**63 - 1, size=clf.n_trees)
    trees = []
    for tree_seed in tree_seeds:
        rng = np.random.default_rng(int(tree_seed))
        sample = np.sort(rng.integers(0, len(y), size=len(y)))
        trees.append(
            reference_grow_tree(X, y, sample, rng, max_features, clf.min_leaf, clf.max_depth)
        )
    return trees


@st.composite
def tied_problems(draw):
    """Small matrices drawn from a few values, so that ties are frequent."""
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 4))
    levels = draw(
        st.sampled_from(
            [
                (0.0, 1.0),
                (0.0, 0.5, 1.0),
                (-1.0, 0.0, 0.25, 2.0, 3.5),
                # signed zeros tie; the midpoint of two adjacent floats rounds
                (-0.0, 0.0, 1.0, float(np.nextafter(1.0, 2.0))),
            ]
        )
    )
    cells = draw(st.lists(st.sampled_from(levels), min_size=n * d, max_size=n * d))
    labels = draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda v: 0 < sum(v) < n)
    )
    return np.array(cells, dtype=float).reshape(n, d), np.array(labels, dtype=int)


class TestSplitterAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(labels=st.lists(st.integers(0, 1), min_size=2, max_size=300))
    def test_cut_impurities_bitwise_equal_per_cut_formula(self, labels):
        labels = np.array(labels, dtype=int)
        n = labels.size
        cuts = np.arange(n - 1)
        pos_prefix = np.cumsum(labels)
        expected = []
        for cut in cuts:
            left_n, left_pos = cut + 1, pos_prefix[cut]
            right_n, right_pos = n - left_n, pos_prefix[-1] - left_pos
            left = np.array([left_n - left_pos, left_pos], dtype=float)
            right = np.array([right_n - right_pos, right_pos], dtype=float)
            expected.append((left_n * reference_gini(left) + right_n * reference_gini(right)) / n)
        impurities = _cut_impurities(cuts + 1, pos_prefix[cuts], n, int(pos_prefix[-1]))
        assert impurities.tobytes() == np.array(expected).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        problem=tied_problems(),
        min_leaf=st.sampled_from([1, 2, 3]),
        max_depth=st.sampled_from([None, 1, 3]),
        max_features=st.sampled_from([1, 2, "all"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_trees_and_model_bytes(
        self, problem, min_leaf, max_depth, max_features, seed
    ):
        X, y = problem
        clf = TreeEnsembleClassifier(
            n_trees=4, max_features=max_features, min_leaf=min_leaf, max_depth=max_depth, seed=seed
        ).fit(X, y)
        expected = reference_fit_trees(clf, X, y)
        assert clf.trees_ == expected

        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        indices = np.arange(len(y))
        resolved = clf._resolve_max_features(X.shape[1])
        columns = _rank_columns(X)
        assert _grow_tree(X, y, columns, indices, rng_a, resolved, min_leaf, max_depth) == (
            reference_grow_tree(X, y, indices, rng_b, resolved, min_leaf, max_depth)
        )

        reference = TreeEnsembleClassifier(
            n_trees=4, max_features=max_features, min_leaf=min_leaf, max_depth=max_depth, seed=seed
        )
        reference.load_state_dict({"trees": expected, "n_features_in": clf.n_features_in_})
        # the state a model file holds, as save_model writes it; its other
        # fields are the same by construction, and a TrainedModel takes only a
        # classifier of the feature schema's width
        fast, slow = (json.dumps(c.state_dict(), sort_keys=True) for c in (clf, reference))
        assert fast == slow

    def test_same_trees_on_a_wide_training_matrix(self):
        """Thirteen columns shaped like the feature schema, with hundreds of
        distinct positions and token counts, where the tied problems above
        have at most 4 columns and 5 levels."""
        rng = np.random.default_rng(17)
        n = 600
        X = np.zeros((n, NUM_FEATURES))
        X[:, :4] = rng.integers(0, 3, size=(n, 4))
        X[:, 4:6] = rng.integers(0, 2, size=(n, 2))
        X[:, 6:10] = rng.integers(0, 4, size=(n, 4))
        X[:, 10] = rng.integers(0, 400, size=n) / 399
        X[:, 11] = rng.integers(1, 300, size=n) / 299
        X[:, 12] = 1.0 - X[:, 10]
        y = ((X[:, 0] > 0) & (X[:, 4] == 1) & (X[:, 10] > 0.3)).astype(int)
        y[rng.random(n) < 0.05] ^= 1  # label noise grows deep trees
        assert min(np.unique(X[:, f]).size for f in (10, 11, 12)) > 200
        clf = TreeEnsembleClassifier(n_trees=6, seed=4).fit(X, y)
        assert clf.trees_ == reference_fit_trees(clf, X, y)

    @settings(max_examples=150, deadline=None)
    @given(
        problem=tied_problems(),
        max_depth=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**32 - 1),
        shift=st.sampled_from([0.0, 0.25, -0.5]),
    )
    def test_flat_predict_proba_matches_tree_walk(self, problem, max_depth, seed, shift):
        X, y = problem
        clf = TreeEnsembleClassifier(n_trees=7, max_depth=max_depth, seed=seed).fit(X, y)
        # rows on, beside and between the split thresholds
        queries = np.vstack([X, X + shift])
        expected = reference_predict_proba(clf.trees_, queries)
        assert bits(clf.predict_proba(queries)) == bits(expected)

    def test_trees_round_trip_through_flat_form(self):
        trees = [
            {"vote": 1},
            {"feature": 2, "threshold": 0.5, "left": {"vote": 0}, "right": {"vote": 1}},
            {
                "feature": 0,
                "threshold": -1.25,
                "left": {"feature": 1, "threshold": 3.0, "left": {"vote": 1}, "right": {"vote": 0}},
                "right": {"vote": 0},
            },
        ]
        clf = TreeEnsembleClassifier(n_trees=3)
        clf.load_state_dict({"trees": trees, "n_features_in": 3})
        assert clf.trees_ == trees
        X = np.array([[-2.0, 3.0, 0.5], [-1.25, 3.5, 0.75], [0.0, 0.0, 0.0]])
        assert bits(clf.predict_proba(X)) == bits(reference_predict_proba(trees, X))


class TestBinnedKernel:
    """The binned walk scores every row as the per-row walk of the nested
    trees does, whichever rows share its call."""

    # Feature 0 is cut at 0.0 and 0.5, feature 1 at -2.0; feature 2 is never
    # tested, and the last tree is a single leaf.
    TREES = [
        {"feature": 0, "threshold": 0.5, "left": {"vote": 0}, "right": {"vote": 1}},
        {"feature": 0, "threshold": 0.0, "left": {"vote": 1}, "right": {"vote": 0}},
        {
            "feature": 1,
            "threshold": -2.0,
            "left": {"vote": 1},
            "right": {
                "feature": 0, "threshold": 0.5, "left": {"vote": 1}, "right": {"vote": 0}
            },
        },
        {"vote": 1},
    ]  # fmt: skip

    # on a threshold, one float to either side of one, a signed zero against
    # the 0.0 cut, and below and above every cut
    ROWS = [
        (0.5, -2.0, 0.0),
        (math.nextafter(0.5, -math.inf), math.nextafter(-2.0, math.inf), 1.0),
        (math.nextafter(0.5, math.inf), math.nextafter(-2.0, -math.inf), -1.0),
        (-0.0, 0.0, 0.0),
        (0.0, -0.0, 0.0),
        (math.nextafter(0.0, -math.inf), math.nextafter(0.0, math.inf), 0.0),
        (-1e300, -1e300, -1e300),
        (1e300, 1e300, 1e300),
        (0.5, -2.0, 0.0),  # a key seen before in the call
    ]

    def forest(self, trees=TREES, n_features=3):
        clf = TreeEnsembleClassifier(n_trees=len(trees))
        return clf.load_state_dict({"trees": trees, "n_features_in": n_features})

    def test_edge_rows_match_tree_walk(self):
        probabilities = self.forest().predict_proba(self.ROWS)
        assert bits(probabilities) == bits(reference_predict_proba(self.TREES, self.ROWS))
        assert probabilities[:4] == [0.5, 0.5, 0.75, 0.75]

    def test_same_scores_in_any_call(self):
        clf = self.forest()
        whole = bits(clf.predict_proba(self.ROWS))
        for at in range(len(self.ROWS) + 1):
            parts = clf.predict_proba(self.ROWS[:at]) + clf.predict_proba(self.ROWS[at:])
            assert bits(parts) == whole
        assert bits([p for row in self.ROWS for p in clf.predict_proba([row])]) == whole
        matrix = np.array(self.ROWS)
        assert bits(clf.predict_proba(matrix)) == whole
        assert bits(clf.predict_proba(list(matrix))) == whole
        assert bits(clf.predict_proba([list(row) for row in self.ROWS])) == whole
        assert bits(clf.predict_proba(row for row in self.ROWS)) == whole

    def test_forest_of_single_leaves(self):
        clf = self.forest([{"vote": 1}, {"vote": 0}, {"vote": 1}])
        assert clf.predict_proba(self.ROWS) == [2 / 3] * len(self.ROWS)
        assert clf.predict_proba([]) == []

    def test_integer_threshold_from_a_model_file(self, tmp_path):
        X, y = separable_data()
        path = tmp_path / "model.json"
        save_model(train(X, y, "rf", seed=1), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        trees = [{"feature": 0, "threshold": 1, "left": {"vote": 0}, "right": {"vote": 1}}]
        doc["state"]["trees"] = trees
        path.write_text(json.dumps(doc), encoding="utf-8")
        model = load_model(path)
        assert model.classifier.trees_ == [{**trees[0], "threshold": 1.0}]
        rows = np.zeros((3, NUM_FEATURES))
        rows[:, 0] = [1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)]
        assert model.predict_proba(rows) == [0.0, 1.0, 0.0]
        assert bits(model.predict_proba(rows)) == bits(reference_predict_proba(trees, rows))

    def test_deep_forest_matches_tree_walk(self):
        """Random labels leave no split to stop at, so the trees grow deep."""
        rng = np.random.default_rng(8)
        X = np.zeros((300, NUM_FEATURES))
        X[:, :6] = rng.integers(0, 3, size=(300, 6))
        X[:, 6:] = rng.integers(0, 200, size=(300, NUM_FEATURES - 6)) / 199
        y = (rng.random(300) < 0.3).astype(int)
        clf = TreeEnsembleClassifier(n_trees=12, seed=2).fit(X, y)
        assert len(clf.flat_trees_.feature) > 12 * 40
        queries = np.vstack([X, X[::-1, ::-1], rng.random((200, NUM_FEATURES))])
        expected = reference_predict_proba(clf.trees_, queries)
        assert bits(clf.predict_proba(queries)) == bits(expected)
        assert bits(clf.predict_proba(queries.tolist())) == bits(expected)

    @pytest.mark.parametrize("kind", ["svm", "rf"])
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0.0] * (NUM_FEATURES + 1)], "feature matrix has 14 columns, expected 13"),
            ([[0.0] * (NUM_FEATURES - 1)], "feature matrix has 12 columns, expected 13"),
            ([[math.nan] * NUM_FEATURES], "feature matrix contains NaN or infinite values"),
            ([[0.0] * (NUM_FEATURES - 1) + [-math.inf]], "contains NaN or infinite"),
            # the values are checked before the widths
            ([[0.0] * (NUM_FEATURES + 1), [math.inf] * (NUM_FEATURES + 1)], "NaN or infinite"),
        ],
        ids=["wide", "narrow", "nan", "infinite", "infinite-and-wide"],
    )
    def test_bad_rows_refused_as_by_the_matrix_check(self, kind, rows, message):
        X, y = separable_data()
        with pytest.raises(ValueError, match=message):
            train(X, y, kind).predict_proba(rows)
