"""Trainable sentence classifiers and their persistence format.

Two learners, each of one configuration, its ``hyperparams`` record, which
``fit`` implements; only the seed is chosen, and a fit is deterministic
under it:

* ``LinearMarginClassifier`` -- L2-regularized hinge loss, each class's
  term weighed by ``n / (2 * class count)`` ("balanced"), minimized by
  full-batch subgradient descent at a step of ``learning_rate / (1 + 0.01 *
  epoch)``, followed by a symmetric one-parameter sigmoid calibration
  fitted on the training margins (so a zero margin always maps to
  probability 0.5).
* ``TreeEnsembleClassifier`` -- bagged decision trees grown to purity, each
  node evaluating the first ``max(1, int(sqrt(d)))`` ("sqrt") of its ``d``
  features, in a random order, that are not constant on it, with impurity
  (gini) splits; the predicted probability is exactly the fraction of trees
  voting for the positive class. ``fit`` ranks each feature once: per
  column, its sorted distinct values and every row's rank among them. A node
  sorts nothing. Per evaluated feature it counts its rows and its positive
  rows per rank, and the running sums over the ranks present give every
  cut's side sizes. All cuts of the node's evaluated features are then
  scored in one vectorised pass, with the per-cut float expression and the
  ``(impurity, feature, threshold)`` tie-break of the CART splitter (Breiman
  et al., 1984), so trees do not depend on how cuts are counted. A threshold
  is the midpoint of two adjacent present values, or the lower one where the
  midpoint rounds onto the upper (adjacent floats) or overflows, and
  children are routed by ``value <= threshold`` on the floats, not by rank.
  Ranking per fit and not presorting per tree (SLIQ, Mehta et al., EDBT
  1996) is deliberate: a forest fitted on a cross-validation fold splits
  about 4 times per tree, so a per-tree presort of all 13 columns would cost
  about what the per-node sorts it replaces did. A fitted ensemble is held
  as flat node lists (the nested-dict trees exist only in the model file and
  ``state_dict``), and it is scored in pure Python over binned rows. Per
  feature the forest tests, its cuts are the sorted distinct thresholds, and
  a row's key holds, per such feature, ``bisect_left`` of its value in the
  cuts: ``value <= cuts[i]`` exactly when ``i >= key``, so each node
  compares two ints and routes as ``value <= threshold`` does. Rows of one
  key share every route, so each distinct key of a call is walked through
  every tree once. Measured on the 11,023 candidate rows of the seed-1
  2000-decision synthetic corpus, in batches of ``pipeline.SCORING_CHUNK``
  decisions (one shared 2-core x86-64 host): the 274-split-node benchmark
  forest scores them in 0.020-0.022 s, against 0.028-0.032 s for the numpy
  partition walk this replaced; a 60,019-split-node forest fitted on random
  labels, in 0.90-1.15 s against 1.52-1.81 s. A plain per-row walk of every
  tree, with no keys, is simpler and as fast on that deep forest, but it
  takes 0.10 s on the benchmark forest, whose rows share few keys, so it
  would slow ``extract --model``. Scoring a forest imports no numpy.

Both learners check scoring rows with ``check_rows`` (no rows score as
``[]``). Scoring many rows per ``predict_proba`` call (``pipeline`` hands it
up to a chunk of decisions) cannot move a tree-ensemble probability: a pure
function of its row, made of comparisons and one vote count. The linear
margin ``X @ w`` goes through BLAS gemv, whose blocking depends on the row
count, so the same row can differ by an ulp between calls of different
sizes. Measured on the 11,023 candidate rows of the seed-1 2000-decision
synthetic corpus, with a linear model trained on a 500-decision corpus (one
x86-64 host, OpenBLAS 0.3.31): 2,050 probabilities already differed between
one-row and per-decision calls, and scoring 256 decisions per call instead
of one moved 294 margins by at most 8.9e-16 and changed no choice. The
margin stays ``X @ w`` so that linear model files do not move.

Model files are versioned JSON, written through ``corpus.write_atomic``,
carrying the kind, feature schema version, seed, hyperparameters and all
fitted state. ``load_model`` checks every field, so every number is finite,
and refuses a file that scoring could not use or that no fit writes: an
unknown format version, a ``kind`` other than ``save_model`` writes (the CLI
names of ``KIND_ALIASES`` are for ``train``), ``hyperparams`` not the learner's
record plus a ``seed`` equal to ``rng_seed`` (compared by type too: ``100.0``
trees or a ``true`` leaf size are refused), another feature schema version
(a file written before schema 2 among them) or a feature count other than
the schema's; ``TrainedModel`` itself refuses the last however it is built.
Its kind, seed and feature schema version are not stored apart: they are the
classifier's class, the classifier's seed and the library's. Each of these,
and training data with no records or a single class, raises ``InputError``
(exit 1 in the CLI); anything else is a bug.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from numbers import Real
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar

from .corpus import InputError, field, read_input, write_atomic
from .features import FEATURE_SCHEMA_VERSION, NUM_FEATURES

if TYPE_CHECKING:
    import numpy as np

MODEL_FORMAT_VERSION = 1

MODEL_KINDS = ("linear_margin", "tree_ensemble")

# CLI-facing aliases for the two learners.
KIND_ALIASES = {"svm": "linear_margin", "rf": "tree_ensemble"}


def _sigmoid(z: np.ndarray) -> np.ndarray:
    import numpy as np

    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def check_feature_matrix(X) -> np.ndarray:
    """Training rows ``X`` as a 2-d float array; reject NaN/inf."""
    import numpy as np

    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected 2-d feature matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("feature matrix contains NaN or infinite values")
    return X


def check_rows(rows, n_features: int) -> list:
    """Scoring rows as a list, refusing rows that hold NaN or an infinity or
    that are not ``n_features`` wide. A flat row of numbers (the tuple
    ``featurize`` returns) is one row."""
    rows = list(rows)  # read twice, so a generator would be spent by the check
    if rows and isinstance(rows[0], Real):
        rows = [rows]
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise ValueError("feature matrix contains NaN or infinite values")
    for row in rows:
        if len(row) != n_features:
            raise ValueError(f"feature matrix has {len(row)} columns, expected {n_features}")
    return rows


def check_binary_labels(y, n_samples: int | None = None) -> np.ndarray:
    """Coerce labels to a 0/1 int array; both classes must be present."""
    import numpy as np

    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"expected 1-d label vector, got shape {y.shape}")
    if n_samples is not None and y.shape[0] != n_samples:
        raise ValueError(f"got {y.shape[0]} labels for {n_samples} samples")
    # Counted: np.unique imports numpy.ma (about 1 MB and 10 ms) into every
    # training process, so only the refusal message calls it.
    zeros, ones = np.count_nonzero(y == 0), np.count_nonzero(y == 1)
    if zeros + ones != y.size:
        values = sorted(set(np.unique(y).tolist()))
        raise ValueError(f"labels must be binary 0/1, got values {values}")
    if not zeros or not ones:
        raise InputError("training data contains a single class")
    return y.astype(int)


@dataclass(eq=False)
class _Learner:
    """A learner of one configuration, ``hyperparams``; only ``seed`` is chosen."""

    kind: ClassVar[str]
    hyperparams: ClassVar[dict]
    seed: int = 0

    def __post_init__(self):
        field(vars(self), "seed", "nonnegative_int", type(self).__name__)


class LinearMarginClassifier(_Learner):
    """Linear max-margin classifier trained by subgradient descent."""

    kind = "linear_margin"
    hyperparams = {"learning_rate": 0.5, "epochs": 800, "l2": 1e-4, "class_weight": "balanced"}

    def fit(self, X, y):
        import numpy as np

        X = check_feature_matrix(X)
        y = check_binary_labels(y, X.shape[0])
        signs = 2.0 * y - 1.0
        n, d = X.shape
        # "balanced": weight the hinge term so rare positives are not drowned out
        sample_weight = (n / (2.0 * np.bincount(y, minlength=2)))[y]

        w = np.zeros(d)
        b = 0.0
        # huge feature values overflow; the result is refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(1, self.hyperparams["epochs"] + 1):
                margins = signs * (X @ w + b)
                violating = margins < 1.0
                lr = self.hyperparams["learning_rate"] / (1.0 + 0.01 * epoch)
                grad_w = self.hyperparams["l2"] * w
                grad_b = 0.0
                if violating.any():
                    coef = (sample_weight * signs)[violating]
                    grad_w -= (coef[:, None] * X[violating]).sum(axis=0) / n
                    grad_b -= coef.sum() / n
                w -= lr * grad_w
                b -= lr * grad_b
            scale = self._fit_calibration(X @ w + b, y)
        if not np.isfinite(np.append(w, (b, scale))).all():
            raise InputError(
                "linear margin fit diverged to non-finite weights; the feature values "
                "are too large"
            )
        self.weights_ = w
        self.bias_ = b
        self.n_features_in_ = d
        self.calibration_scale_ = scale
        return self

    @staticmethod
    def _fit_calibration(margins: np.ndarray, y: np.ndarray) -> float:
        """Fit the scale of P = sigmoid(scale * margin) on held-in margins."""
        import numpy as np

        scale = 1.0
        targets = y.astype(float)
        for _ in range(200):
            p = _sigmoid(scale * margins)
            grad = ((p - targets) * margins).mean()
            scale -= 0.5 * grad
            scale = float(np.clip(scale, 1e-3, 1e3))
        return float(scale)

    def decision_function(self, rows) -> np.ndarray:
        import numpy as np

        d = self.n_features_in_
        X = np.asarray(check_rows(rows, d), dtype=float).reshape(-1, d)
        return X @ self.weights_ + self.bias_

    def predict_proba(self, rows) -> list[float]:
        """Per row, the probability of the positive class."""
        return _sigmoid(self.calibration_scale_ * self.decision_function(rows)).tolist()

    def state_dict(self) -> dict:
        return {
            "weights": self.weights_.tolist(),
            "bias": self.bias_,
            # the sigmoid is symmetric: the file format keeps an offset field,
            # and it is always 0
            "calibration": {"scale": self.calibration_scale_, "offset": 0.0},
        }

    def load_state_dict(self, state: dict) -> "LinearMarginClassifier":
        import numpy as np

        self.weights_ = np.asarray(field(state, "weights", "numbers", "model state"), dtype=float)
        self.bias_ = float(field(state, "bias", "number", "model state"))
        calibration = field(state, "calibration", "object", "model state")
        where = "model state.calibration"
        self.calibration_scale_ = float(field(calibration, "scale", "number", where))
        offset = field(calibration, "offset", "number", where)
        if offset != 0:
            raise InputError(
                f"model state field 'calibration.offset' must be 0 (the calibration "
                f"sigmoid is symmetric), got {offset!r}"
            )
        self.n_features_in_ = self.weights_.shape[0]
        return self


def _cut_impurities(
    left_n: np.ndarray, left_pos: np.ndarray, n: int, positive: int
) -> np.ndarray:
    """Weighted gini impurity of every cut in one pass; cut ``c`` sends
    ``left_n[c]`` rows, ``left_pos[c]`` of them positive, left. Per cut and
    side this is the float expression ``1 - ((neg/n)*(neg/n) + (pos/n)*(pos/n))``,
    weighted by the side sizes."""
    right_n = n - left_n
    right_pos = positive - left_pos
    left_neg = left_n - left_pos
    right_neg = right_n - right_pos
    left_gini = 1.0 - (
        (left_neg / left_n) * (left_neg / left_n) + (left_pos / left_n) * (left_pos / left_n)
    )
    right_gini = 1.0 - (
        (right_neg / right_n) * (right_neg / right_n)
        + (right_pos / right_n) * (right_pos / right_n)
    )
    return (left_n * left_gini + right_n * right_gini) / n


# Per feature, its sorted distinct training values and the rank of every
# training row's value among them.
_RankedColumns = list[tuple["np.ndarray", "np.ndarray"]]


def _rank_columns(X: np.ndarray) -> _RankedColumns:
    import numpy as np

    return [np.unique(X[:, f], return_inverse=True) for f in range(X.shape[1])]


def _best_split(
    columns: _RankedColumns,
    indices: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
    max_features: int,
) -> tuple[np.int64, np.float64] | None:
    """The node's ``(feature, threshold)`` of least ``(impurity, feature,
    threshold)`` over the first ``max_features`` features, in a random order,
    that are not constant on it; None when every feature is constant on it.
    A cut between two present values leaves a row on each side."""
    import numpy as np

    n = len(indices)
    positives = indices[labels == 1]
    features, lower, upper, left_n, left_pos = [], [], [], [], []
    for f in rng.permutation(len(columns)):
        if len(features) >= max_features:
            break
        values, ranks = columns[f]
        counts = np.bincount(ranks[indices])
        present = np.nonzero(counts)[0]  # ranks of the values on the node
        if present.size == 1:
            # constant on this node; does not count toward the feature budget
            continue
        # cut c sends the values present[0..c] left
        features.append(np.full(present.size - 1, f))
        lower.append(values[present[:-1]])
        upper.append(values[present[1:]])
        left_n.append(np.cumsum(counts[present[:-1]]))
        positive_counts = np.bincount(ranks[positives], minlength=counts.size)
        left_pos.append(np.cumsum(positive_counts[present[:-1]]))
    if not features:
        return None
    features, lower, upper, left_n, left_pos = map(
        np.concatenate, (features, lower, upper, left_n, left_pos)
    )
    impurity = _cut_impurities(left_n, left_pos, n, len(positives))
    lowest = impurity.min()
    # least feature among the lowest impurities, then its first (lowest) cut
    ties = np.nonzero(impurity == lowest)[0]
    at = ties[np.argmin(features[ties])]
    # the midpoint of two adjacent floats can round onto the upper one, and
    # of two huge ones overflow; either would send every row to one side
    with np.errstate(over="ignore"):
        midpoint = (lower[at] + upper[at]) / 2.0
    return features[at], midpoint if lower[at] <= midpoint < upper[at] else lower[at]


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    columns: _RankedColumns,
    indices: np.ndarray,
    rng: np.random.Generator,
    max_features: int,
) -> dict:
    """A tree grown to purity on the rows ``indices``: a node splits unless
    its rows share a label or every feature is constant on them."""
    labels = y[indices]
    positive = int(labels.sum())
    n = len(indices)
    split = None
    if 0 < positive < n:
        split = _best_split(columns, indices, labels, rng, max_features)
    if split is None:
        return {"vote": 1 if 2 * positive > n else 0}

    # routed by the float threshold, which lies below the cut's upper value
    feature, threshold = split
    mask = X[indices, feature] <= threshold
    left = _grow_tree(X, y, columns, indices[mask], rng, max_features)
    right = _grow_tree(X, y, columns, indices[~mask], rng, max_features)
    return {"feature": int(feature), "threshold": float(threshold), "left": left, "right": right}


class _FlatTrees:
    """An ensemble's split nodes as parallel lists, numbered in preorder, and
    their binned form.

    A root or child reference ``r >= 0`` is split node ``r``; ``r < 0`` is a
    leaf voting ``-1 - r``. Node ``r`` sends ``value <= threshold[r]`` of
    column ``feature[r]`` left. The binned form ``tested`` pairs each feature
    the forest tests with its cuts, the sorted distinct thresholds of its
    nodes. A row's key is, per tested feature, ``bisect_left`` of the row's
    value in its cuts; node ``r`` reads slot ``slot[r]`` of the key, and its
    threshold is cut ``cut[r]`` of that slot's cuts.
    """

    def __init__(self, roots, feature, threshold, left, right):
        self.roots, self.feature, self.threshold = roots, feature, threshold
        self.left, self.right = left, right
        by_feature: dict[int, set[float]] = {}
        for f, t in zip(feature, threshold):
            by_feature.setdefault(f, set()).add(t)
        self.tested = [(f, sorted(by_feature[f])) for f in sorted(by_feature)]
        slots = {f: i for i, (f, _) in enumerate(self.tested)}
        self.slot = [slots[f] for f in feature]
        self.cut = [bisect_left(self.tested[slots[f]][1], t) for f, t in zip(feature, threshold)]

    @classmethod
    def from_trees(cls, trees: list, n_features: int) -> "_FlatTrees":
        """Flatten nested-dict trees, refusing (InputError) a node whose fields
        are missing or mistyped, a feature outside ``[0, n_features)`` or a
        vote other than 0 or 1."""
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []

        def ref(node: object) -> int:
            if not isinstance(node, dict):
                raise InputError(f"model tree node must be an object, got {node!r}")
            if "vote" in node:
                vote = field(node, "vote", "int", "model tree leaf")
                if vote not in (0, 1):
                    raise InputError(f"model tree leaf field 'vote' must be 0 or 1, got {vote}")
                return -1 - vote
            f = field(node, "feature", "int", "model tree node")
            if not 0 <= f < n_features:
                raise InputError(
                    f"model tree node field 'feature' must be in [0, {n_features}), got {f}"
                )
            i = len(feature)
            feature.append(f)
            # a float, as the file's number is compared: an integer 1 reads as 1.0
            threshold.append(float(field(node, "threshold", "number", "model tree node")))
            left.append(0)
            right.append(0)
            left[i] = ref(field(node, "left", "object", "model tree node"))
            right[i] = ref(field(node, "right", "object", "model tree node"))
            return i

        roots = [ref(tree) for tree in trees]
        return cls(roots, feature, threshold, left, right)

    def to_trees(self) -> list[dict]:
        def node(r: int) -> dict:
            if r < 0:
                return {"vote": -1 - r}
            return {
                "feature": self.feature[r],
                "threshold": self.threshold[r],
                "left": node(self.left[r]),
                "right": node(self.right[r]),
            }

        return [node(r) for r in self.roots]

    def vote_fractions(self, rows) -> list[float]:
        """Per row, the fraction of the trees voting 1. ``key[slot[r]] <=
        cut[r]`` holds exactly when the row's ``value <= threshold[r]``, so
        rows of one key share every route: each distinct key of the call is
        walked through every tree once."""
        tested, roots = self.tested, self.roots
        slot, cut, left, right = self.slot, self.cut, self.left, self.right
        fractions: dict[tuple[int, ...], float] = {}
        out = []
        for row in rows:
            key = tuple([bisect_left(cuts, row[f]) for f, cuts in tested])
            fraction = fractions.get(key)
            if fraction is None:
                votes = 0
                for r in roots:
                    while r >= 0:
                        r = left[r] if key[slot[r]] <= cut[r] else right[r]
                    votes -= 1 + r  # a leaf voting v is r = -1 - v
                fraction = fractions[key] = votes / len(roots)
            out.append(fraction)
        return out


class TreeEnsembleClassifier(_Learner):
    """Bagged gini decision trees voting on the positive class."""

    kind = "tree_ensemble"
    hyperparams = {"n_trees": 100, "max_features": "sqrt", "min_leaf": 1, "max_depth": None}

    def fit(self, X, y):
        import numpy as np

        X = check_feature_matrix(X)
        y = check_binary_labels(y, X.shape[0])
        n = X.shape[0]
        max_features = max(1, int(math.sqrt(X.shape[1])))  # "sqrt"
        root_rng = np.random.default_rng(self.seed)
        tree_seeds = root_rng.integers(0, 2**63 - 1, size=self.hyperparams["n_trees"])
        columns = _rank_columns(X)
        trees = []
        for tree_seed in tree_seeds:
            rng = np.random.default_rng(int(tree_seed))
            sample = np.sort(rng.integers(0, n, size=n))
            trees.append(_grow_tree(X, y, columns, sample, rng, max_features))
        self.n_features_in_ = X.shape[1]
        self.flat_trees_ = _FlatTrees.from_trees(trees, self.n_features_in_)
        return self

    # The fitted trees live as _FlatTrees; trees_ is their nested-dict form,
    # which fit builds and the model file stores.
    @property
    def trees_(self) -> list[dict]:
        return self.flat_trees_.to_trees()

    def predict_proba(self, rows) -> list[float]:
        """Per row, the fraction of the trees voting for the positive class."""
        return self.flat_trees_.vote_fractions(check_rows(rows, self.n_features_in_))

    def state_dict(self) -> dict:
        return {"trees": self.trees_, "n_features_in": self.n_features_in_}

    def load_state_dict(self, state: dict) -> "TreeEnsembleClassifier":
        trees = field(state, "trees", "list", "model state")
        if not trees:
            raise InputError("model state field 'trees' must not be empty")
        n_features = field(state, "n_features_in", "int", "model state")
        self.flat_trees_ = _FlatTrees.from_trees(trees, n_features)
        self.n_features_in_ = n_features
        return self


# The model-state field that fixes each learner's feature count.
_FEATURE_COUNT_FIELD = {"linear_margin": "weights", "tree_ensemble": "n_features_in"}


@dataclass
class TrainedModel:
    """A fitted classifier of the feature schema's width."""

    classifier: LinearMarginClassifier | TreeEnsembleClassifier

    def __post_init__(self):
        if self.classifier.n_features_in_ != NUM_FEATURES:
            raise InputError(
                f"model state field {_FEATURE_COUNT_FIELD[self.kind]!r} describes "
                f"{self.classifier.n_features_in_} features, the feature schema has {NUM_FEATURES}"
            )

    @property
    def kind(self) -> str:
        return self.classifier.kind

    def predict_proba(self, rows) -> list[float]:
        """Per row, the probability that its sentence is the punishment."""
        return self.classifier.predict_proba(rows)


_LEARNERS = {learner.kind: learner for learner in (LinearMarginClassifier, TreeEnsembleClassifier)}


def train(X, y, kind: str, seed: int = 0) -> TrainedModel:
    """A ``kind`` model (a ``MODEL_KINDS`` name or a ``KIND_ALIASES`` one)
    fitted on the feature rows ``X`` and their 0/1 or boolean labels ``y``."""
    if len(X) == 0:
        raise InputError("no training records")
    kind = KIND_ALIASES.get(kind, kind)
    if kind not in MODEL_KINDS:
        raise InputError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    return TrainedModel(_LEARNERS[kind](seed=seed).fit(X, y))


def save_model(model: TrainedModel, path: str | Path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "feature_schema_version": FEATURE_SCHEMA_VERSION,
        "rng_seed": model.classifier.seed,
        "hyperparams": {**model.classifier.hyperparams, "seed": model.classifier.seed},
        "state": model.classifier.state_dict(),
    }
    write_atomic(path, json.dumps(doc, ensure_ascii=False, sort_keys=True))


def load_model(path: str | Path) -> TrainedModel:
    doc = read_input(path)
    if not isinstance(doc, dict):
        raise InputError(f"model file must hold a JSON object, got {type(doc).__name__}")
    version = field(doc, "format_version", "int", "model file")
    if version != MODEL_FORMAT_VERSION:
        raise InputError(f"unsupported model format version {version}")
    schema = field(doc, "feature_schema_version", "int", "model file")
    if schema != FEATURE_SCHEMA_VERSION:
        raise InputError(
            f"model file field 'feature_schema_version' must be {FEATURE_SCHEMA_VERSION} "
            f"(the library's feature schema), got {schema}"
        )
    kind = field(doc, "kind", "string", "model file")
    if kind not in MODEL_KINDS:
        raise InputError(f"model file field 'kind' must be one of {MODEL_KINDS}, got {kind!r}")
    rng_seed = field(doc, "rng_seed", "int", "model file")
    learner = _LEARNERS[kind]
    params = field(doc, "hyperparams", "object", "model file")
    unknown = sorted(params.keys() - {*learner.hyperparams, "seed"})
    if unknown:
        raise InputError(
            f"model file field 'hyperparams' has unknown {kind} hyperparameters {unknown}"
        )
    for name, value in learner.hyperparams.items():
        if name not in params:
            raise InputError(f"model file is missing the 'hyperparams.{name}' field")
        # compared by type too: true is not 1, nor 100.0 an integer
        if type(params[name]) is not type(value) or params[name] != value:
            raise InputError(
                f"model file field 'hyperparams.{name}' must be {value!r} (the {kind} "
                f"configuration), got {params[name]!r}"
            )
    seed = field(params, "seed", "nonnegative_int", "model file.hyperparams")
    if seed != rng_seed:
        raise InputError(
            f"model file field 'hyperparams.seed' must equal 'rng_seed' ({rng_seed}), got {seed}"
        )
    classifier = learner(seed=seed)
    classifier.load_state_dict(field(doc, "state", "object", "model file"))
    return TrainedModel(classifier)
