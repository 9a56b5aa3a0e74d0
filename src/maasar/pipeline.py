"""Supervised sentence selection, cross-validation, and the end-to-end
extraction estimator.

Candidate sentences (keyword filter survivors) are scored by a trained
classifier; the detection stage keeps every candidate above a probability
threshold, while the per-document selection takes the argmax, breaking
ties toward the end of the decision. Cross-validation folds partition
whole decisions so no document's sentences straddle the train/test line.

Each candidate's ``SentenceAnalysis`` is kept beside its feature row, and
its probability is wrapped with it in a ``ScoredSentence``, so both
selectors go through ``detect.at_or_above`` and ``detect.best_scored`` and
hand back the chosen sentence's analysis (``choose_sentences``); ``extract``
and the error report read it instead of analysing again. Cross-validation
builds its report with ``metrics.assemble_report``, which the rule-based
evaluation shares and which, unlike this module, imports no numpy.

The model scores many decisions per call: ``_model_scored`` stacks their
rows, makes one ``predict_proba`` call and splits the probabilities back by
candidate count. ``choose_sentences`` does this for ``SCORING_CHUNK``
decisions at a time, so memory stays flat on a large corpus, and
cross-validation does it once per fold's test decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .analysis import SentenceAnalysis, analyse
from .base import ParamsMixin
from .corpus import AnnotationRecord, Decision
from .detect import ScoredSentence, at_or_above, best_scored, filter_candidates, rule_based_choices
from .extraction import ExtractionResult, extract
from .features import FEATURE_NAMES, NUM_FEATURES, featurize
from .lexicon import Lexicon
from .metrics import EvaluationReport, _chosen_and_detected, assemble_report
from .models import TrainedModel, train


@dataclass(frozen=True)
class CrossValConfig:
    """Document-level cross-validation settings."""

    num_folds: int = 5
    seed: int = 0
    detection_threshold: float = 0.5

    def __post_init__(self):
        if self.num_folds < 2:
            raise ValueError("num_folds must be >= 2")
        if not 0.0 <= self.detection_threshold < 1.0:
            raise ValueError("detection_threshold must be in [0, 1)")


_TOKEN_COUNT_COLUMN = FEATURE_NAMES.index("token_count_norm")

# Candidate analyses and feature rows of one decision, featurized with a
# token-count scale of 1 so that the token_count_norm column holds the raw
# count; ``_rescale`` applies a model's scale, so cross-validation can
# featurize once and rescale per fold.
RawFeatures = tuple[list[SentenceAnalysis], np.ndarray]

# Decisions featurized and scored per predict_proba call on the model route
# of ``choose_sentences``: one call per chunk instead of one per decision,
# while a chunk's analyses and rows stay small beside the corpus.
SCORING_CHUNK = 256


def _raw_features(decision: Decision, lexicon: Lexicon) -> RawFeatures:
    analyses = [analyse(s, lexicon) for s in filter_candidates(decision, lexicon)]
    X = np.array([featurize(a, max_token_count=1) for a in analyses]).reshape(-1, NUM_FEATURES)
    return analyses, X


def _rescale(X: np.ndarray, token_scale: int) -> np.ndarray:
    """Raw rows as featurize gives them for ``token_scale``: the same floats."""
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


def sentences_above_threshold(
    model: TrainedModel, decision: Decision, lexicon: Lexicon, threshold: float
) -> list[int]:
    """Candidate sentence indices whose punishment probability >= threshold."""
    [scored] = _model_scored(model, [_raw_features(decision, lexicon)])
    return [candidate.sentence_index for candidate in at_or_above(scored, threshold)]


def select_sentence_supervised(
    model: TrainedModel, decision: Decision, lexicon: Lexicon
) -> int | None:
    """Most probable candidate sentence; ties go to the later sentence."""
    chosen = choose_sentence(decision, lexicon, model)
    return chosen.sentence.index if chosen else None


def choose_sentences(
    decisions: Iterable[Decision], lexicon: Lexicon, model: TrainedModel | None = None
) -> Iterator[SentenceAnalysis | None]:
    """The analysis of the sentence to extract from, per decision and in
    order, as ``extract`` takes it.

    Without a model this is the rule-based choice; with one it is the
    model's most probable candidate, however low (ties go to the later
    sentence), scored ``SCORING_CHUNK`` decisions per ``predict_proba`` call.
    """
    if model is None:
        yield from rule_based_choices(decisions, lexicon)
        return
    decisions = iter(decisions)
    while chunk := list(islice(decisions, SCORING_CHUNK)):
        raws = [_raw_features(decision, lexicon) for decision in chunk]
        for scored in _model_scored(model, raws):
            best = best_scored(scored, -math.inf)
            yield best and best.analysis


def choose_sentence(
    decision: Decision, lexicon: Lexicon, model: TrainedModel | None = None
) -> SentenceAnalysis | None:
    """``choose_sentences`` for one decision."""
    return next(choose_sentences([decision], lexicon, model))


def _label_lookup(annotations: list[AnnotationRecord]) -> dict[tuple[str, int], bool]:
    return {(r.case_id, r.sentence_index): r.is_punishment for r in annotations}


def max_token_count(decisions: list[Decision]) -> int:
    return max(
        (s.token_count for d in decisions for s in d.sentences),
        default=1,
    )


def build_training_records(
    decisions: list[Decision],
    annotations: list[AnnotationRecord],
    lexicon: Lexicon,
    token_scale: int,
    raw: dict[str, RawFeatures] | None = None,
) -> list[tuple[np.ndarray, bool]]:
    """(feature vector, label) pairs over all candidate sentences.

    Candidates without an annotation record are automatic negatives, which
    is how the keyword pre-labeling constructs the training set. ``raw``
    maps case ids to precomputed ``_raw_features``, which are rescaled
    instead of featurizing again.
    """
    labels = _label_lookup(annotations)
    records = []
    for decision in decisions:
        analyses, X = raw[decision.case_id] if raw is not None else _raw_features(decision, lexicon)
        for row, a in zip(_rescale(X, token_scale), analyses):
            records.append((row, labels.get((decision.case_id, a.sentence.index), False)))
    return records


def train_on_decisions(
    decisions: list[Decision],
    annotations: list[AnnotationRecord],
    lexicon: Lexicon,
    kind: str,
    seed: int = 0,
    raw: dict[str, RawFeatures] | None = None,
) -> TrainedModel:
    token_scale = max_token_count(decisions)
    records = build_training_records(decisions, annotations, lexicon, token_scale, raw)
    return replace(train(records, kind, seed=seed), token_count_scale=token_scale)


def make_folds(case_ids: list[str], num_folds: int, seed: int) -> list[list[str]]:
    """Seeded partition of case ids into contiguous folds."""
    ordered = sorted(case_ids)
    rng = np.random.default_rng(seed)
    permuted = [ordered[i] for i in rng.permutation(len(ordered))]
    return [list(fold) for fold in np.array_split(permuted, num_folds)]


def cross_validate(
    decisions: list[Decision],
    annotations: list[AnnotationRecord],
    lexicon: Lexicon,
    kind: str,
    config: CrossValConfig = CrossValConfig(),
) -> EvaluationReport:
    """Document-level k-fold evaluation; every decision is tested once.

    Each decision is filtered, analysed and featurized once; every fold
    rescales the token counts to its own training scale and scores all its
    test decisions' candidates in one call, once for both the detection
    threshold and the argmax, whose analysis the report extracts from.
    """
    if len(decisions) < config.num_folds:
        raise ValueError(
            f"fewer decisions than folds ({len(decisions)} < {config.num_folds})"
        )
    folds = make_folds([d.case_id for d in decisions], config.num_folds, config.seed)
    raw = {d.case_id: _raw_features(d, lexicon) for d in decisions}

    scored_cases: list[tuple[str, list[ScoredSentence]]] = []
    for fold in folds:
        test_ids = set(fold)
        train_decisions = [d for d in decisions if d.case_id not in test_ids]
        train_annotations = [
            r for r in annotations if r.case_id not in test_ids
        ]
        assert test_ids.isdisjoint(d.case_id for d in train_decisions)
        model = train_on_decisions(
            train_decisions, train_annotations, lexicon, kind, seed=config.seed, raw=raw
        )
        scored_cases += zip(fold, _model_scored(model, [raw[case_id] for case_id in fold]))

    chosen, detected = _chosen_and_detected(scored_cases, config.detection_threshold, -math.inf)
    return assemble_report(decisions, annotations, lexicon, chosen, detected)


class PunishmentExtractor(ParamsMixin):
    """End-to-end estimator: select the punishment sentence, extract months.

    ``method`` is one of rule_based / svm / rf. Supervised methods need
    ``fit`` with decisions and annotation records; the rule-based method is
    ready as soon as it has a lexicon.
    """

    def __init__(self, method: str = "rule_based", lexicon: Lexicon | None = None, seed: int = 0):
        self.method = method
        self.lexicon = lexicon
        self.seed = seed

    def _require_lexicon(self) -> Lexicon:
        if self.lexicon is None:
            raise ValueError("lexicon is required; pass one to the constructor")
        return self.lexicon

    def fit(self, decisions: list[Decision], annotations: list[AnnotationRecord] | None = None):
        lexicon = self._require_lexicon()
        if self.method == "rule_based":
            self.model_ = None
            return self
        if annotations is None:
            raise ValueError(f"method {self.method!r} requires annotations to fit")
        self.model_ = train_on_decisions(
            decisions, annotations, lexicon, self.method, seed=self.seed
        )
        return self

    def _model(self) -> TrainedModel | None:
        if self.method == "rule_based":
            return None
        model = getattr(self, "model_", None)
        if model is None:
            raise ValueError("supervised extractor is not fitted")
        return model

    def select(self, decision: Decision) -> int | None:
        chosen = choose_sentence(decision, self._require_lexicon(), self._model())
        return chosen.sentence.index if chosen else None

    def predict(self, decisions: list[Decision]) -> list[ExtractionResult]:
        lexicon = self._require_lexicon()
        chosen = choose_sentences(decisions, lexicon, self._model())
        return [extract(d, c, lexicon) for d, c in zip(decisions, chosen)]
