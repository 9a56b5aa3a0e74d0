"""Supervised sentence selection, training, cross-validation, and the
end-to-end extraction estimator.

Candidate sentences (keyword filter survivors) are scored by a trained
classifier; the detection stage keeps every candidate at or above a
probability threshold (``detect.at_or_above``), while the per-document
selection takes the argmax (``detect.best_scored``), breaking ties toward
the end of the decision. Cross-validation folds partition whole decisions
so no document's sentences straddle the train/test line.

Each candidate's ``SentenceAnalysis`` is kept beside its feature row, and
its probability is wrapped with it in a ``ScoredSentence``.
``choose_sentences`` is the selector of the model route (the rule route is
``detect.rule_based_choices``): per decision it hands back the chosen
sentence's analysis, which ``extract`` and the error report read instead of
analysing again. Feature rows hold the raw token count, and ``_rescale`` is
the one place that divides it by a model's token-count scale, so
cross-validation featurizes once and rescales per fold. Cross-validation
builds its report with ``metrics.assemble_report``, which the rule-based
evaluation shares and which, unlike this module, imports no numpy.

Training hands matrices from featurization to the learner. ``_train`` is
the one route into ``models.train``, for ``train_on_decisions`` and for
every cross-validation fold: it reads the decisions' raw rows one decision
at a time, concatenates them in decision order, rescales them once and
labels each candidate. ``cross_validate`` takes the fold count, seed and
detection threshold as keyword arguments and refuses fewer than 2 folds, a
threshold outside [0, 1) and fewer decisions than folds.

The model scores many decisions per call: ``_model_scored`` stacks their
rows, makes one ``predict_proba`` call and splits the probabilities back by
candidate count. ``choose_sentences`` does this for ``SCORING_CHUNK``
decisions at a time, so memory stays flat on a large corpus, and
cross-validation does it once per fold's test decisions.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .analysis import SentenceAnalysis, analyse
from .corpus import AnnotationRecord, Decision, InputError, token_count
from .detect import ScoredSentence, best_scored, filter_candidates, rule_based_choices
from .extraction import ExtractionResult, extract
from .features import FEATURE_NAMES, NUM_FEATURES, featurize
from .lexicon import Lexicon
from .metrics import EvaluationReport, _chosen_and_detected, assemble_report
from .models import KIND_ALIASES, MODEL_KINDS, TrainedModel, train


_TOKEN_COUNT_COLUMN = FEATURE_NAMES.index("token_count_norm")

# Candidate analyses and feature rows of one decision, whose token_count_norm
# column holds the raw count until ``_rescale`` applies a model's scale.
RawFeatures = tuple[list[SentenceAnalysis], np.ndarray]

# Decisions featurized and scored per predict_proba call on the model route
# of ``choose_sentences``: one call per chunk instead of one per decision,
# while a chunk's analyses and rows stay small beside the corpus.
SCORING_CHUNK = 256


def _raw_features(decision: Decision, lexicon: Lexicon) -> RawFeatures:
    analyses = [analyse(s, lexicon) for s in filter_candidates(decision, lexicon)]
    X = np.array([featurize(a) for a in analyses]).reshape(-1, NUM_FEATURES)
    return analyses, X


def _rescale(X: np.ndarray, token_scale: int) -> np.ndarray:
    """Raw rows with the token_count_norm column divided by ``token_scale``."""
    X = X.copy()
    X[:, _TOKEN_COUNT_COLUMN] /= token_scale
    return X


def _model_scored(model: TrainedModel, raws: list[RawFeatures]) -> list[list[ScoredSentence]]:
    """Each decision's candidates with the model's punishment probability as
    their score, from one ``predict_proba`` call over all the decisions'
    stacked rows (none when there are no rows)."""
    counts = [len(analyses) for analyses, _ in raws]
    if not any(counts):
        return [[] for _ in raws]
    X = np.concatenate([X for _, X in raws])
    probs = model.predict_proba(_rescale(X, model.token_count_scale))
    per_decision = np.split(probs, np.cumsum(counts)[:-1])
    return [
        [ScoredSentence(a, p) for a, p in zip(analyses, decision_probs)]
        for (analyses, _), decision_probs in zip(raws, per_decision)
    ]


def choose_sentences(
    decisions: Iterable[Decision], lexicon: Lexicon, model: TrainedModel
) -> Iterator[SentenceAnalysis | None]:
    """The analysis of the sentence to extract from, per decision and in
    order, as ``extract`` takes it: the model's most probable candidate,
    however low (ties go to the later sentence), scored ``SCORING_CHUNK``
    decisions per ``predict_proba`` call.
    """
    decisions = iter(decisions)
    while chunk := list(islice(decisions, SCORING_CHUNK)):
        raws = [_raw_features(decision, lexicon) for decision in chunk]
        for scored in _model_scored(model, raws):
            best = best_scored(scored, -math.inf)
            yield best and best.analysis


def max_token_count(decisions: list[Decision]) -> int:
    """The most tokens in one sentence of ``decisions`` (1 without sentences),
    read from the texts without building their ``Sentence``s."""
    return max((token_count(t) for d in decisions for t in d.texts), default=1)


def _train(
    raws: Iterable[tuple[str, RawFeatures]],
    annotations: list[AnnotationRecord],
    token_scale: int,
    kind: str,
    seed: int,
) -> TrainedModel:
    """A model fitted on the candidates of ``raws``, (case id, raw features)
    pairs read one decision at a time: their rows concatenated in order and
    divided by ``token_scale``, each labelled by its annotation record.

    A candidate without a record is an automatic negative, which is how the
    keyword pre-labeling constructs the training set.
    """
    labels = {(r.case_id, r.sentence_index): r.is_punishment for r in annotations}
    # the empty block gives concatenate a matrix to return without decisions
    rows, y = [np.empty((0, NUM_FEATURES))], []
    for case_id, (analyses, X) in raws:
        rows.append(X)
        y += [labels.get((case_id, a.sentence.index), False) for a in analyses]
    X = _rescale(np.concatenate(rows), token_scale)
    return train(X, np.array(y, dtype=int), kind, seed=seed, token_count_scale=token_scale)


def train_on_decisions(
    decisions: list[Decision],
    annotations: list[AnnotationRecord],
    lexicon: Lexicon,
    kind: str,
    seed: int = 0,
) -> TrainedModel:
    raws = ((d.case_id, _raw_features(d, lexicon)) for d in decisions)
    return _train(raws, annotations, max_token_count(decisions), kind, seed)


def make_folds(case_ids: list[str], num_folds: int, seed: int) -> list[list[str]]:
    """Seeded partition of case ids into contiguous folds.

    numpy splits the permuted positions, not the ids: a numpy string array
    would drop an id's trailing NUL characters.
    """
    ordered = sorted(case_ids)
    permutation = np.random.default_rng(seed).permutation(len(ordered))
    return [[ordered[i] for i in fold] for fold in np.array_split(permutation, num_folds)]


def cross_validate(
    decisions: list[Decision],
    annotations: list[AnnotationRecord],
    lexicon: Lexicon,
    kind: str,
    *,
    num_folds: int = 5,
    seed: int = 0,
    detection_threshold: float = 0.5,
) -> EvaluationReport:
    """Document-level k-fold evaluation; every decision is tested once.

    Each decision is filtered, analysed and featurized once, and its longest
    sentence counted once; every fold trains on its other decisions' rows at
    their own token scale and scores all its test decisions' candidates in
    one call, once for both the detection threshold and the argmax, whose
    analysis the report extracts from.
    """
    if num_folds < 2:
        raise InputError("num_folds must be >= 2")
    if not 0.0 <= detection_threshold < 1.0:
        raise InputError("detection_threshold must be in [0, 1)")
    if len(decisions) < num_folds:
        raise InputError(f"fewer decisions than folds ({len(decisions)} < {num_folds})")
    folds = make_folds([d.case_id for d in decisions], num_folds, seed)
    raw = {d.case_id: _raw_features(d, lexicon) for d in decisions}
    longest = {d.case_id: max_token_count([d]) for d in decisions}

    scored_cases: list[tuple[str, list[ScoredSentence]]] = []
    for fold in folds:
        test_ids = set(fold)
        train_ids = [case_id for case_id in raw if case_id not in test_ids]
        token_scale = max(longest[case_id] for case_id in train_ids)
        # the test decisions' records label none of the training rows
        raws = ((case_id, raw[case_id]) for case_id in train_ids)
        model = _train(raws, annotations, token_scale, kind, seed)
        scored_cases += zip(fold, _model_scored(model, [raw[case_id] for case_id in fold]))

    chosen, detected = _chosen_and_detected(scored_cases, detection_threshold, -math.inf)
    return assemble_report(decisions, annotations, lexicon, chosen, detected)


class PunishmentExtractor:
    """End-to-end estimator: select the punishment sentence, extract months.

    ``method`` is rule_based or a model kind (svm, rf, or their long names
    linear_margin, tree_ensemble); any other is refused. Supervised methods need
    ``fit`` with decisions and annotation records; the rule-based method is
    ready as soon as it is built.
    """

    METHODS = ("rule_based", *KIND_ALIASES, *MODEL_KINDS)

    def __init__(self, method: str = "rule_based", *, lexicon: Lexicon, seed: int = 0):
        if method not in self.METHODS:
            raise InputError(f"unknown method {method!r}; expected one of {self.METHODS}")
        self.method = method
        self.lexicon = lexicon
        self.seed = seed

    def fit(self, decisions: list[Decision], annotations: list[AnnotationRecord] | None = None):
        if self.method == "rule_based":
            self.model_ = None
            return self
        if annotations is None:
            raise ValueError(f"method {self.method!r} requires annotations to fit")
        self.model_ = train_on_decisions(
            decisions, annotations, self.lexicon, self.method, seed=self.seed
        )
        return self

    def predict(self, decisions: list[Decision]) -> list[ExtractionResult]:
        if self.method == "rule_based":
            chosen = rule_based_choices(decisions, self.lexicon)
        elif getattr(self, "model_", None) is None:
            raise ValueError("supervised extractor is not fitted")
        else:
            chosen = choose_sentences(decisions, self.lexicon, self.model_)
        return [extract(d, c, self.lexicon) for d, c in zip(decisions, chosen)]
