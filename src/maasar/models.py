"""Trainable sentence classifiers and their persistence format.

Two learners, both self-contained and deterministic under a fixed seed:

* ``LinearMarginClassifier`` -- L2-regularized hinge loss minimized by
  full-batch subgradient descent, followed by a symmetric one-parameter
  sigmoid calibration fitted on the training margins (so a zero margin
  always maps to probability 0.5).
* ``TreeEnsembleClassifier`` -- bagged decision trees grown to purity with
  impurity (gini) splits; the predicted probability is exactly the fraction
  of trees voting for the positive class. ``fit`` ranks each feature once:
  per column, its sorted distinct values and every row's rank among them.
  A node sorts nothing. Per evaluated feature it counts its rows and its
  positive rows per rank, and the running sums over the ranks present give
  every cut's side sizes. All cuts of the node's evaluated features are
  then scored in one vectorised pass, with the per-cut float expression and
  the ``(impurity, feature, threshold)`` tie-break of the CART splitter
  (Breiman et al., 1984), so trees do not depend on how cuts are counted.
  A threshold is the midpoint of two adjacent present values, or the lower
  one where the midpoint rounds onto the upper (adjacent floats) or
  overflows, and children are routed by ``value <= threshold`` on the
  floats, not by rank. Ranking
  per fit and not presorting per tree (SLIQ, Mehta et al., EDBT 1996) is
  deliberate: a forest fitted on a cross-validation fold splits about 4
  times per tree, so a per-tree presort of all 13 columns would cost about
  what the per-node sorts it replaces did. A fitted ensemble is held as
  flat node lists (the nested-dict trees exist only in the model file and
  ``state_dict``), and it is scored in pure Python over binned rows. Per
  feature the forest tests, its cuts are the sorted distinct thresholds,
  and a row's key holds, per such feature, ``bisect_left`` of its value in
  the cuts: ``value <= cuts[i]`` exactly when ``i >= key``, so each node
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

Scoring many rows per ``predict_proba`` call (``pipeline`` hands it up to a
chunk of decisions) cannot move a tree-ensemble probability: it is a pure
function of its row, made of comparisons and one vote count. The linear
margin ``X @ w`` goes through BLAS gemv, whose blocking depends on the row
count, so the same row can differ by an ulp between calls of different
sizes. Measured on the 11,023 candidate rows of the seed-1 2000-decision
synthetic corpus, with a linear model trained on a 500-decision corpus (one
x86-64 host, OpenBLAS 0.3.31): 2,050 probabilities already differed between
one-row and per-decision calls, and scoring 256 decisions per call instead
of one moved 294 margins by at most 8.9e-16 and changed no choice. The
margin stays ``X @ w`` so that linear model files do not move.

Each learner is a dataclass whose fields are its hyperparameters: one
declaration gives each its name, default and accepted values, and the
constructor refuses a value outside them. ``save_model`` writes the fields
as the model file's ``hyperparams``, through ``corpus.write_atomic``.

Model files are versioned JSON carrying the kind, feature schema version,
seed, hyperparameters and all fitted state. ``load_model`` checks every
field with ``corpus.field``, so every number is finite, and refuses a file
that scoring could not use: an unknown format version, kind or
hyperparameter, a missing or unaccepted hyperparameter, a ``hyperparams``
seed other than ``rng_seed``, another feature schema version (a file
written before schema 2 among them) or a feature count other than the
schema's; ``TrainedModel`` itself refuses the last however it is built. Its
kind, seed and feature schema version are not stored apart: they are the
classifier's class, the classifier's seed and the library's. Each of these,
and training data with no records or a single class, raises ``InputError``
(exit 1 in the CLI); anything else is a bug.
"""

from __future__ import annotations

import dataclasses
import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from numbers import Real
from pathlib import Path
from typing import TYPE_CHECKING, Callable, ClassVar

from .corpus import InputError, _is_int, _is_number, field, read_input, write_atomic
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


def check_feature_matrix(X, n_features: int | None = None) -> np.ndarray:
    """Coerce X to a 2-d float array; reject NaN/inf and wrong widths."""
    import numpy as np

    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"expected 2-d feature matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("feature matrix contains NaN or infinite values")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(
            f"feature matrix has {X.shape[1]} columns, expected {n_features}"
        )
    return X


def check_rows(rows, n_features: int) -> list:
    """``rows`` as a list, refusing, as ``check_feature_matrix`` does, rows
    that hold NaN or an infinity or that are not ``n_features`` wide. A flat
    row of numbers (the tuple ``featurize`` returns) is one row, as there."""
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


def _hyperparameter(default, accepts: Callable[[object], bool], described: str):
    """A learner's hyperparameter field: its default, and the values it
    accepts as a ``corpus.field`` kind."""
    return dataclasses.field(default=default, metadata={"kind": (accepts, described)})


def _checked_hyperparams(learner: type, params: dict, where: str) -> dict:
    """``learner``'s hyperparameters, each read from ``params`` through
    ``corpus.field`` under ``where``: a missing or unaccepted one raises
    InputError naming it."""
    fields = dataclasses.fields(learner)
    return {f.name: field(params, f.name, f.metadata["kind"], where) for f in fields}


def _is_count(value: object) -> bool:
    return _is_int(value) and value >= 1


_COUNT = (_is_count, "an integer of at least 1")
# numpy's generators refuse a negative seed
_SEED = (lambda v: _is_int(v) and v >= 0, "an integer of at least 0")


@dataclass(eq=False)
class LinearMarginClassifier:
    """Linear max-margin classifier trained by subgradient descent."""

    kind: ClassVar[str] = "linear_margin"
    learning_rate: float = _hyperparameter(
        0.5, lambda v: _is_number(v) and v > 0, "a finite number above 0"
    )
    epochs: int = _hyperparameter(800, *_COUNT)
    l2: float = _hyperparameter(
        1e-4, lambda v: _is_number(v) and v >= 0, "a finite number of at least 0"
    )
    class_weight: str | None = _hyperparameter(
        "balanced", lambda v: v in ("balanced", None), "'balanced' or null"
    )
    seed: int = _hyperparameter(0, *_SEED)

    def __post_init__(self):
        _checked_hyperparams(type(self), dataclasses.asdict(self), type(self).__name__)

    def fit(self, X, y):
        import numpy as np

        X = check_feature_matrix(X)
        y = check_binary_labels(y, X.shape[0])
        signs = 2.0 * y - 1.0
        n, d = X.shape
        if self.class_weight == "balanced":
            # weight the hinge term so rare positives are not drowned out
            class_counts = np.bincount(y, minlength=2)
            sample_weight = (n / (2.0 * class_counts))[y]
        else:
            sample_weight = np.ones(n)

        w = np.zeros(d)
        b = 0.0
        # a step too large overflows; the result is refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(1, self.epochs + 1):
                margins = signs * (X @ w + b)
                violating = margins < 1.0
                lr = self.learning_rate / (1.0 + 0.01 * epoch)
                grad_w = self.l2 * w
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
                f"linear margin fit diverged to non-finite weights with learning_rate "
                f"{self.learning_rate!r} and l2 {self.l2!r}; lower them"
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

    def decision_function(self, X) -> np.ndarray:
        X = check_feature_matrix(X, self.n_features_in_)
        return X @ self.weights_ + self.bias_

    def predict_proba(self, X) -> list[float]:
        """Per row of ``X``, the probability of the positive class."""
        return _sigmoid(self.calibration_scale_ * self.decision_function(X)).tolist()

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
    min_leaf: int,
) -> tuple[np.int64, np.float64] | None:
    """The node's ``(feature, threshold)`` of least ``(impurity, feature,
    threshold)`` over the first ``max_features`` features, in a random order,
    that are not constant on it; None when no cut leaves ``min_leaf`` rows on
    both sides."""
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
    impurity[(left_n < min_leaf) | (n - left_n < min_leaf)] = np.inf
    lowest = impurity.min()
    if lowest == np.inf:
        return None
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
    min_leaf: int,
    max_depth: int | None,
    depth: int = 0,
) -> dict:
    labels = y[indices]
    positive = int(labels.sum())
    n = len(indices)
    split = None
    if 0 < positive < n and n > min_leaf and (max_depth is None or depth < max_depth):
        split = _best_split(columns, indices, labels, rng, max_features, min_leaf)
    if split is None:
        return {"vote": 1 if 2 * positive > n else 0}

    # routed by the float threshold, which lies below the cut's upper value
    feature, threshold = split
    mask = X[indices, feature] <= threshold
    args = (rng, max_features, min_leaf, max_depth, depth + 1)
    left = _grow_tree(X, y, columns, indices[mask], *args)
    right = _grow_tree(X, y, columns, indices[~mask], *args)
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


@dataclass(eq=False)
class TreeEnsembleClassifier:
    """Bagged gini decision trees voting on the positive class."""

    kind: ClassVar[str] = "tree_ensemble"
    n_trees: int = _hyperparameter(100, *_COUNT)
    max_features: int | str = _hyperparameter(
        "sqrt",
        lambda v: v in ("sqrt", "all") or _is_count(v),
        "'sqrt', 'all' or an integer of at least 1",
    )
    min_leaf: int = _hyperparameter(1, *_COUNT)
    max_depth: int | None = _hyperparameter(
        None, lambda v: v is None or _is_count(v), "null or an integer of at least 1"
    )
    seed: int = _hyperparameter(0, *_SEED)

    def __post_init__(self):
        _checked_hyperparams(type(self), dataclasses.asdict(self), type(self).__name__)

    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(n_features)))
        if self.max_features == "all":
            return n_features
        return min(self.max_features, n_features)

    def fit(self, X, y):
        import numpy as np

        X = check_feature_matrix(X)
        y = check_binary_labels(y, X.shape[0])
        n = X.shape[0]
        max_features = self._resolve_max_features(X.shape[1])
        root_rng = np.random.default_rng(self.seed)
        tree_seeds = root_rng.integers(0, 2**63 - 1, size=self.n_trees)
        columns = _rank_columns(X)
        trees = []
        for tree_seed in tree_seeds:
            rng = np.random.default_rng(int(tree_seed))
            sample = np.sort(rng.integers(0, n, size=n))
            trees.append(
                _grow_tree(
                    X, y, columns, sample, rng, max_features, self.min_leaf, self.max_depth
                )
            )
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


def _normalize_kind(kind: str) -> str:
    kind = KIND_ALIASES.get(kind, kind)
    if kind not in MODEL_KINDS:
        raise InputError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    return kind


_LEARNERS = {learner.kind: learner for learner in (LinearMarginClassifier, TreeEnsembleClassifier)}


def train(X, y, kind: str, seed: int = 0) -> TrainedModel:
    """A ``kind`` model fitted on the feature rows ``X`` and their 0/1 or
    boolean labels ``y``."""
    if len(X) == 0:
        raise InputError("no training records")
    return TrainedModel(_LEARNERS[_normalize_kind(kind)](seed=seed).fit(X, y))


def save_model(model: TrainedModel, path: str | Path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "feature_schema_version": FEATURE_SCHEMA_VERSION,
        "rng_seed": model.classifier.seed,
        "hyperparams": dataclasses.asdict(model.classifier),
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
    kind = _normalize_kind(field(doc, "kind", "string", "model file"))
    rng_seed = field(doc, "rng_seed", "int", "model file")
    learner = _LEARNERS[kind]
    params = field(doc, "hyperparams", "object", "model file")
    unknown = sorted(params.keys() - {f.name for f in dataclasses.fields(learner)})
    if unknown:
        raise InputError(
            f"model file field 'hyperparams' has unknown {kind} hyperparameters {unknown}"
        )
    classifier = learner(**_checked_hyperparams(learner, params, "model file.hyperparams"))
    if classifier.seed != rng_seed:
        raise InputError(
            f"model file field 'hyperparams.seed' must equal 'rng_seed' ({rng_seed}), "
            f"got {classifier.seed}"
        )
    classifier.load_state_dict(field(doc, "state", "object", "model file"))
    return TrainedModel(classifier)
