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
  flat node arrays (the nested-dict trees exist only in the model file and
  ``state_dict``), and prediction walks all (row, tree) pairs down one level
  at a time.

Scoring many rows per ``predict_proba`` call (``pipeline`` stacks up to a
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

Model files are versioned JSON carrying the kind, feature schema version,
seed and all fitted state. ``load_model`` refuses a file that scoring could
not use: another feature schema version, a feature count other than the
schema's, or a token-count scale below 1, which ``TrainedModel`` itself
refuses however it is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .base import ParamsMixin, check_binary_labels, check_feature_matrix
from .features import FEATURE_SCHEMA_VERSION, NUM_FEATURES

MODEL_FORMAT_VERSION = 1

MODEL_KINDS = ("linear_margin", "tree_ensemble")

# CLI-facing aliases for the two learners.
KIND_ALIASES = {"svm": "linear_margin", "rf": "tree_ensemble"}


# JSON types a model file field may hold, as (Python types, description).
_OBJECT = (dict, "an object")
_LIST = (list, "a list")
_INT = (int, "an integer")
_NUMBER = ((int, float), "a number")


def _field(doc: dict, name: str, kind: tuple, where: str):
    """``doc[name]``, refused with a ValueError naming it when absent or mistyped."""
    if name not in doc:
        raise ValueError(f"{where} is missing the {name!r} field")
    value = doc[name]
    expected, described = kind
    # JSON true/false load as bool, which Python counts as an int
    if isinstance(value, bool) or not isinstance(value, expected):
        raise ValueError(f"{where} field {name!r} must be {described}, got {value!r}")
    return value


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


class LinearMarginClassifier(ParamsMixin):
    """Linear max-margin classifier trained by subgradient descent."""

    def __init__(
        self,
        learning_rate: float = 0.5,
        epochs: int = 800,
        l2: float = 1e-4,
        class_weight: str | None = "balanced",
        seed: int = 0,
    ):
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.class_weight = class_weight
        self.seed = seed

    def fit(self, X, y):
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
        self.weights_ = w
        self.bias_ = b
        self.n_features_in_ = d
        self.calibration_scale_ = self._fit_calibration(self.decision_function(X), y)
        return self

    @staticmethod
    def _fit_calibration(margins: np.ndarray, y: np.ndarray) -> float:
        """Fit the scale of P = sigmoid(scale * margin) on held-in margins."""
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

    def predict_proba(self, X) -> np.ndarray:
        margins = self.decision_function(X)
        pos = _sigmoid(self.calibration_scale_ * margins)
        return np.column_stack([1.0 - pos, pos])

    def predict(self, X) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(int)

    def state_dict(self) -> dict:
        return {
            "weights": self.weights_.tolist(),
            "bias": self.bias_,
            # the sigmoid is symmetric: the file format keeps an offset field,
            # and it is always 0
            "calibration": {"scale": self.calibration_scale_, "offset": 0.0},
        }

    def load_state_dict(self, state: dict) -> "LinearMarginClassifier":
        weights = _field(state, "weights", _LIST, "model state")
        if not all(isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights):
            raise ValueError(f"model state field 'weights' must hold numbers, got {weights!r}")
        calibration = _field(state, "calibration", _OBJECT, "model state")
        self.weights_ = np.asarray(weights, dtype=float)
        self.bias_ = float(_field(state, "bias", _NUMBER, "model state"))
        self.calibration_scale_ = float(_field(calibration, "scale", _NUMBER, "calibration"))
        offset = _field(calibration, "offset", _NUMBER, "calibration")
        if offset != 0:
            raise ValueError(
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
_RankedColumns = list[tuple[np.ndarray, np.ndarray]]


def _rank_columns(X: np.ndarray) -> _RankedColumns:
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


@dataclass(frozen=True)
class _FlatTrees:
    """An ensemble's split nodes as parallel arrays, numbered in preorder.

    A root or child reference ``r >= 0`` is split node ``r``; ``r < 0`` is a
    leaf voting ``-1 - r``.
    """

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @classmethod
    def from_trees(cls, trees: list, n_features: int) -> "_FlatTrees":
        """Flatten nested-dict trees, refusing (ValueError) a node whose fields
        are missing or mistyped, a feature outside ``[0, n_features)`` or a
        vote other than 0 or 1."""
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []

        def ref(node: object) -> int:
            if not isinstance(node, dict):
                raise ValueError(f"model tree node must be an object, got {node!r}")
            if "vote" in node:
                vote = _field(node, "vote", _INT, "model tree leaf")
                if vote not in (0, 1):
                    raise ValueError(f"model tree leaf field 'vote' must be 0 or 1, got {vote}")
                return -1 - vote
            f = _field(node, "feature", _INT, "model tree node")
            if not 0 <= f < n_features:
                raise ValueError(
                    f"model tree node field 'feature' must be in [0, {n_features}), got {f}"
                )
            i = len(feature)
            feature.append(f)
            threshold.append(_field(node, "threshold", _NUMBER, "model tree node"))
            left.append(0)
            right.append(0)
            left[i] = ref(_field(node, "left", _OBJECT, "model tree node"))
            right[i] = ref(_field(node, "right", _OBJECT, "model tree node"))
            return i

        roots = [ref(tree) for tree in trees]
        return cls(
            roots=np.array(roots, dtype=np.int32),
            feature=np.array(feature, dtype=np.int32),
            threshold=np.array(threshold, dtype=float),
            left=np.array(left, dtype=np.int32),
            right=np.array(right, dtype=np.int32),
        )

    def to_trees(self) -> list[dict]:
        def node(r: int) -> dict:
            if r < 0:
                return {"vote": -1 - r}
            return {
                "feature": int(self.feature[r]),
                "threshold": float(self.threshold[r]),
                "left": node(int(self.left[r])),
                "right": node(int(self.right[r])),
            }

        return [node(int(r)) for r in self.roots]

    def positive_votes(self, X: np.ndarray) -> np.ndarray:
        """Per row, the number of trees voting 1; all (row, tree) pairs still
        on a split node step down one level per pass."""
        node = np.tile(self.roots, (X.shape[0], 1))
        split = node >= 0
        while split.any():
            at = node[split]
            go_left = X[np.nonzero(split)[0], self.feature[at]] <= self.threshold[at]
            node[split] = np.where(go_left, self.left[at], self.right[at])
            split = node >= 0
        return (-1 - node).sum(axis=1)


class TreeEnsembleClassifier(ParamsMixin):
    """Bagged gini decision trees voting on the positive class."""

    def __init__(
        self,
        n_trees: int = 100,
        max_features: int | str = "sqrt",
        min_leaf: int = 1,
        max_depth: int | None = None,
        seed: int = 0,
    ):
        self.n_trees = n_trees
        self.max_features = max_features
        self.min_leaf = min_leaf
        self.max_depth = max_depth
        self.seed = seed

    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "all":
            return n_features
        return max(1, min(int(self.max_features), n_features))

    def fit(self, X, y):
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

    def predict_proba(self, X) -> np.ndarray:
        X = check_feature_matrix(X, self.n_features_in_)
        flat = self.flat_trees_
        pos = flat.positive_votes(X) / flat.roots.size
        return np.column_stack([1.0 - pos, pos])

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(int)

    def state_dict(self) -> dict:
        return {"trees": self.trees_, "n_features_in": self.n_features_in_}

    def load_state_dict(self, state: dict) -> "TreeEnsembleClassifier":
        trees = _field(state, "trees", _LIST, "model state")
        if not trees:
            raise ValueError("model state field 'trees' must not be empty")
        n_features = _field(state, "n_features_in", _INT, "model state")
        self.flat_trees_ = _FlatTrees.from_trees(trees, n_features)
        self.n_features_in_ = n_features
        return self


@dataclass
class TrainedModel:
    """A fitted classifier plus everything needed to reuse it consistently."""

    kind: str
    classifier: LinearMarginClassifier | TreeEnsembleClassifier
    feature_schema_version: int
    rng_seed: int
    token_count_scale: int = 1

    def __post_init__(self):
        if self.token_count_scale < 1:
            raise ValueError(
                f"model field 'token_count_scale' must be at least 1, "
                f"got {self.token_count_scale}"
            )

    def predict_proba(self, features) -> np.ndarray:
        X = check_feature_matrix(features)
        if self.feature_schema_version != FEATURE_SCHEMA_VERSION:
            raise ValueError(
                f"model carries feature schema v{self.feature_schema_version}, "
                f"library expects v{FEATURE_SCHEMA_VERSION}"
            )
        if X.shape[1] != NUM_FEATURES:
            raise ValueError(
                f"feature vector has {X.shape[1]} dimensions, schema has {NUM_FEATURES}"
            )
        return self.classifier.predict_proba(X)[:, 1]


def _normalize_kind(kind: str) -> str:
    kind = KIND_ALIASES.get(kind, kind)
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    return kind


def make_classifier(kind: str, seed: int):
    kind = _normalize_kind(kind)
    if kind == "linear_margin":
        return LinearMarginClassifier(seed=seed)
    return TreeEnsembleClassifier(seed=seed)


def train(records, kind: str, seed: int = 0) -> TrainedModel:
    """Fit a model on (feature_vector, label) records."""
    records = list(records)
    if not records:
        raise ValueError("no training records")
    X = np.vstack([np.asarray(fv, dtype=float) for fv, _ in records])
    y = np.array([1 if label else 0 for _, label in records], dtype=int)
    classifier = make_classifier(kind, seed).fit(X, y)
    return TrainedModel(
        kind=_normalize_kind(kind),
        classifier=classifier,
        feature_schema_version=FEATURE_SCHEMA_VERSION,
        rng_seed=seed,
    )


def predict_proba(model: TrainedModel, feature_vector) -> float:
    """Probability that a single sentence carries the punishment."""
    return float(model.predict_proba(np.asarray(feature_vector, dtype=float).reshape(1, -1))[0])


def save_model(model: TrainedModel, path: str | Path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "feature_schema_version": model.feature_schema_version,
        "rng_seed": model.rng_seed,
        "token_count_scale": model.token_count_scale,
        "hyperparams": model.classifier.get_params(),
        "state": model.classifier.state_dict(),
    }
    Path(path).write_text(json.dumps(doc, ensure_ascii=False, sort_keys=True), encoding="utf-8")


# The model-state field that fixes each learner's feature count.
_FEATURE_COUNT_FIELD = {"linear_margin": "weights", "tree_ensemble": "n_features_in"}

# Required fields of a model file and the JSON type each must hold.
_MODEL_FIELDS = {
    "kind": (str, "a string"),
    "feature_schema_version": _INT,
    "rng_seed": _INT,
    "token_count_scale": _INT,
    "hyperparams": _OBJECT,
    "state": _OBJECT,
}


def load_model(path: str | Path) -> TrainedModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"model file must hold a JSON object, got {type(doc).__name__}")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('format_version')}")
    for name, kind in _MODEL_FIELDS.items():
        _field(doc, name, kind, "model file")
    if doc["feature_schema_version"] != FEATURE_SCHEMA_VERSION:
        raise ValueError(
            f"model file field 'feature_schema_version' must be {FEATURE_SCHEMA_VERSION} "
            f"(the library's feature schema), got {doc['feature_schema_version']}"
        )
    kind = _normalize_kind(doc["kind"])
    classifier = make_classifier(kind, seed=doc["rng_seed"])
    classifier.set_params(**doc["hyperparams"])
    classifier.load_state_dict(doc["state"])
    if classifier.n_features_in_ != NUM_FEATURES:
        raise ValueError(
            f"model state field {_FEATURE_COUNT_FIELD[kind]!r} describes "
            f"{classifier.n_features_in_} features, the feature schema has {NUM_FEATURES}"
        )
    return TrainedModel(
        kind=kind,
        classifier=classifier,
        feature_schema_version=doc["feature_schema_version"],
        rng_seed=doc["rng_seed"],
        token_count_scale=doc["token_count_scale"],
    )
