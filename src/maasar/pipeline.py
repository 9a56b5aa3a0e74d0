"""Supervised sentence selection, training and cross-validation.

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
analysing again. A feature row depends on its analysis alone, so
cross-validation featurizes each decision once and every fold reads the
same rows. Cross-validation hands every decision's scored candidates, in
fold order, to ``metrics.assemble_report``, which grades them as it does
the rule-based evaluation's. End to end, a library caller runs
``train_on_decisions``, then ``choose_sentences``, then ``extract`` on each
decision and its chosen analysis.

A candidate's feature row is the tuple ``featurize`` returns, and the
selection half (``_candidate_rows``, ``_model_scored``,
``choose_sentences``) builds no array, so choosing sentences with an rf
model imports no numpy. Training hands matrices to the learner: ``_train``
is the one route into ``models.train``, for ``train_on_decisions`` and for
every cross-validation fold. It reads the decisions' candidate rows one
decision at a time, makes each decision's rows a matrix, concatenates them
in decision order and labels each candidate. Cross-validation keeps each
decision's rows as such a matrix, which every fold reads, since a float
object in a tuple takes several times the 8 bytes of a matrix cell. Only
these functions and ``make_folds`` import numpy. ``cross_validate`` takes
the fold count, seed and detection threshold as keyword arguments and
refuses fewer than 2 folds, a threshold outside [0, 1) and fewer decisions
than folds.

The model scores many decisions per call: ``_model_scored`` hands their
rows, in order, to one ``predict_proba`` call and deals the probabilities
back by candidate count. ``choose_sentences`` does this for ``SCORING_CHUNK``
decisions at a time, so memory stays flat on a large corpus, and
cross-validation does it once per fold's test decisions.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .analysis import SentenceAnalysis, analyse
from .corpus import AnnotationRecord, Decision, InputError
from .detect import ScoredSentence, best_scored, filter_candidates
from .features import NUM_FEATURES, featurize
from .lexicon import Lexicon
from .metrics import EvaluationReport, assemble_report
from .models import TrainedModel, train

if TYPE_CHECKING:
    import numpy as np

# Candidate analyses and feature rows of one decision: a list of tuples, or
# (held by cross-validation) a matrix.
CandidateRows = tuple[list[SentenceAnalysis], Sequence[Sequence[float]]]

# Decisions featurized and scored per predict_proba call on the model route
# of ``choose_sentences``: one call per chunk instead of one per decision,
# while a chunk's analyses and rows stay small beside the corpus.
SCORING_CHUNK = 256


def _candidate_rows(decision: Decision, lexicon: Lexicon) -> CandidateRows:
    analyses = [analyse(s, lexicon) for s in filter_candidates(decision, lexicon)]
    return analyses, [featurize(a) for a in analyses]


def _matrix(rows: Sequence[Sequence[float]]) -> np.ndarray:
    """``rows`` as one float matrix of the feature schema's width."""
    import numpy as np

    return np.asarray(rows, dtype=float).reshape(-1, NUM_FEATURES)


def _model_scored(
    model: TrainedModel, candidates: list[CandidateRows]
) -> list[list[ScoredSentence]]:
    """Each decision's candidates with the model's punishment probability as
    their score, from one ``predict_proba`` call over all the decisions'
    rows in order (none when there are no rows), dealt back by candidate
    count."""
    rows = [row for _, X in candidates for row in X]
    probs = iter(model.predict_proba(rows) if rows else ())
    return [[ScoredSentence(a, next(probs)) for a in analyses] for analyses, _ in candidates]


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
        candidates = [_candidate_rows(decision, lexicon) for decision in chunk]
        for scored in _model_scored(model, candidates):
            best = best_scored(scored, -math.inf)
            yield best and best.analysis


def _train(
    candidates: Iterable[tuple[str, CandidateRows]],
    annotations: list[AnnotationRecord],
    kind: str,
    seed: int,
) -> TrainedModel:
    """A model fitted on ``candidates``, (case id, candidate rows) pairs read
    one decision at a time: their rows concatenated in order, each labelled
    by its annotation record.

    A candidate without a record is an automatic negative, which is how the
    keyword pre-labeling constructs the training set.
    """
    import numpy as np

    labels = {(r.case_id, r.sentence_index): r.is_punishment for r in annotations}
    # the empty block gives concatenate a matrix to return without decisions
    blocks, y = [_matrix([])], []
    for case_id, (analyses, X) in candidates:
        blocks.append(_matrix(X))
        y += [labels.get((case_id, a.sentence.index), False) for a in analyses]
    return train(np.concatenate(blocks), np.array(y, dtype=int), kind, seed=seed)


def train_on_decisions(
    decisions: list[Decision],
    annotations: list[AnnotationRecord],
    lexicon: Lexicon,
    kind: str,
    seed: int = 0,
) -> TrainedModel:
    candidates = ((d.case_id, _candidate_rows(d, lexicon)) for d in decisions)
    return _train(candidates, annotations, kind, seed)


def make_folds(case_ids: list[str], num_folds: int, seed: int) -> list[list[str]]:
    """Seeded partition of case ids into contiguous folds.

    numpy splits the permuted positions, not the ids: a numpy string array
    would drop an id's trailing NUL characters.
    """
    import numpy as np

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

    Each decision is filtered, analysed and featurized once; every fold
    trains on its other decisions' rows and scores all its test decisions'
    candidates in one call; the report grades those scores, once for both
    the detection threshold and the argmax, whose analysis it extracts from.
    """
    if num_folds < 2:
        raise InputError("num_folds must be >= 2")
    if not 0.0 <= detection_threshold < 1.0:
        raise InputError("detection_threshold must be in [0, 1)")
    if len(decisions) < num_folds:
        raise InputError(f"fewer decisions than folds ({len(decisions)} < {num_folds})")
    folds = make_folds([d.case_id for d in decisions], num_folds, seed)
    rows = {}
    for d in decisions:
        analyses, X = _candidate_rows(d, lexicon)
        rows[d.case_id] = analyses, _matrix(X)

    scored_cases: list[tuple[str, list[ScoredSentence]]] = []
    for fold in folds:
        test_ids = set(fold)
        # the test decisions' records label none of the training rows
        train_rows = (item for item in rows.items() if item[0] not in test_ids)
        model = _train(train_rows, annotations, kind, seed)
        scored_cases += zip(fold, _model_scored(model, [rows[case_id] for case_id in fold]))

    return assemble_report(
        decisions, annotations, lexicon, scored_cases, detection_threshold, -math.inf
    )

