"""Evaluation metrics: detection P/R/F1, per-case selection and duration
accuracy, error taxonomy, duration histograms, and the evaluation report
both routes share (``assemble_report``), with the rule-based evaluation
that builds it (``evaluate_rule_based``).

``assemble_report`` grades each case once, in one loop over the cases'
scored candidates: it records the detected pairs, chooses, extracts and
categorises a wrong choice, into the case's ``PerCaseResult``. Every pooled
number (detection, selection, extraction, the accuracy given a correct
sentence and the error breakdown) is then read from those results and the
detected pairs, through ``detection_prf``, ``selection_f1`` and
``extraction_f1_and_error``.

Selecting exactly one sentence per case makes every false positive pair up
with a false negative, so the per-case selection and duration scores have
precision = recall and are reported as a single F1 number.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .analysis import DOCKET_RE, SentenceAnalysis
from .corpus import AnnotationRecord, Decision
from .detect import ScoredSentence, at_or_above, best_scored, score_candidates
from .extraction import extract
from .lexicon import Lexicon, is_marker_entry


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    flags: tuple[str, ...] = ()


class ErrorCategory(str, Enum):
    PROBATION = "probation"
    PRIOR_CASE_REFERENCE = "prior_case_reference"
    FINE = "fine"
    PROCEDURAL = "procedural"
    MISC = "misc"


@dataclass(frozen=True)
class PerCaseResult:
    case_id: str
    predicted_index: int | None
    gold_indices: tuple[int, ...]
    predicted_months: int | None
    gold_months: int
    error_category: str | None = None


@dataclass(frozen=True)
class EvaluationReport:
    detection: PRF
    sentence_selection_f1: float
    extraction_f1: float
    avg_month_error: float
    duration_accuracy_given_correct_sentence: float | None
    error_breakdown: Mapping[str, float]
    per_case: tuple[PerCaseResult, ...] = ()


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def detection_prf(predicted: Iterable[tuple], gold: Iterable[tuple]) -> PRF:
    """Micro-averaged set precision/recall/F1 over (case_id, index) pairs.

    Undefined ratios (empty predictions or empty gold) are reported as 0
    with an explanatory flag.
    """
    predicted = set(predicted)
    gold = set(gold)
    tp = len(predicted & gold)
    flags = []
    if predicted:
        precision = tp / len(predicted)
    else:
        precision = 0.0
        flags.append("precision_undefined_empty_predictions")
    if gold:
        recall = tp / len(gold)
    else:
        recall = 0.0
        flags.append("recall_undefined_empty_gold")
    return PRF(precision, recall, _f1(precision, recall), tuple(flags))


def selection_f1(
    predictions: Mapping[str, int | None], gold: Mapping[str, set[int] | frozenset[int]]
) -> float:
    """Fraction of cases whose single predicted sentence is in the gold set.

    One prediction per case makes precision equal recall, so the fraction
    itself is the F1. A case with no gold sentence counts as a hit only for
    a None prediction.
    """
    if not predictions:
        return 0.0
    hits = 0
    for case_id, predicted in predictions.items():
        gold_set = gold.get(case_id, set())
        if predicted is None:
            hits += not gold_set
        else:
            hits += predicted in gold_set
    return hits / len(predictions)


@dataclass(frozen=True)
class ExtractionScore:
    extraction_f1: float
    avg_month_error: float


def extraction_f1_and_error(
    predicted_months: Mapping[str, int | None], gold_months: Mapping[str, int]
) -> ExtractionScore:
    """Exact-month-match rate and mean absolute error in months.

    A missing prediction counts as a miss and contributes |0 - gold| to the
    error; per-case data lets callers recompute other conventions.
    """
    if not gold_months:
        return ExtractionScore(0.0, 0.0)
    exact = 0
    errors = []
    for case_id, gold in gold_months.items():
        predicted = predicted_months.get(case_id)
        if predicted is not None and predicted == gold:
            exact += 1
        errors.append(abs((predicted or 0) - gold))
    n = len(gold_months)
    return ExtractionScore(exact / n, sum(errors) / n)


def error_category(analysis: SentenceAnalysis) -> ErrorCategory:
    """Why a wrongly selected sentence, given its analysis, fooled the model.

    Precedence: probation, then prior-case reference (docket pattern or a
    word entry of the moderate_negative tier, its past-tense sentencing
    verbs; a character entry, ``lexicon.is_marker_entry``, is not one), then
    fine, then procedural (number present without a time unit), else misc.
    """
    if analysis.probation_positions:
        return ErrorCategory.PROBATION
    if DOCKET_RE.search(analysis.sentence.text):
        return ErrorCategory.PRIOR_CASE_REFERENCE
    if any(
        h.tier == "moderate_negative" and not is_marker_entry(h.surface)
        for h in analysis.tier_hits.hits
    ):
        return ErrorCategory.PRIOR_CASE_REFERENCE
    if analysis.fine_positions:
        return ErrorCategory.FINE
    if analysis.has_number and not analysis.has_time_unit:
        return ErrorCategory.PROCEDURAL
    return ErrorCategory.MISC


def _gold_maps(
    annotations: list[AnnotationRecord],
) -> tuple[dict[str, set[int]], dict[str, int]]:
    gold_indices: dict[str, set[int]] = {}
    months_by_case: dict[str, dict[int, int]] = {}
    for record in annotations:
        if record.is_punishment:
            gold_indices.setdefault(record.case_id, set()).add(record.sentence_index)
            months_by_case.setdefault(record.case_id, {})[record.sentence_index] = (
                record.months or 0
            )
    gold_months = {
        case_id: months[min(months)] for case_id, months in months_by_case.items()
    }
    return gold_indices, gold_months


def assemble_report(
    decisions: list[Decision],
    annotations: list[AnnotationRecord],
    lexicon: Lexicon,
    scored_cases: Iterable[tuple[str, list[ScoredSentence]]],
    detection_threshold: float,
    selection_threshold: float,
) -> EvaluationReport:
    """Grade each case once, then pool the per-case results into the report.

    ``scored_cases`` holds each decision's (case id, scored candidates) pair
    once, in any order. Per case, the candidates at or above
    ``detection_threshold`` are detected, the best at or above
    ``selection_threshold`` is chosen, its analysis gives the months
    (``extract``) and, for a wrong choice, the error category, so no
    sentence is analysed here. Every pooled number is read from the
    per-case results and the detected pairs.
    """
    gold_indices, gold_months = _gold_maps(annotations)
    by_id = {d.case_id: d for d in decisions}
    detected: set[tuple[str, int]] = set()
    graded: dict[str, PerCaseResult] = {}
    for case_id, scored in scored_cases:
        for candidate in at_or_above(scored, detection_threshold):
            detected.add((case_id, candidate.sentence_index))
        best = best_scored(scored, selection_threshold)
        result = extract(by_id[case_id], best and best.analysis, lexicon)
        gold = tuple(sorted(gold_indices.get(case_id, ())))
        index = result.sentence_index
        wrong = index is not None and index not in gold
        graded[case_id] = PerCaseResult(
            case_id=case_id,
            predicted_index=index,
            gold_indices=gold,
            predicted_months=result.months,
            gold_months=gold_months.get(case_id, 0),
            error_category=error_category(best.analysis).value if wrong else None,
        )
    per_case = tuple(graded[d.case_id] for d in decisions)

    score = extraction_f1_and_error(
        {c.case_id: c.predicted_months for c in per_case},
        {c.case_id: c.gold_months for c in per_case},
    )
    correct = [c for c in per_case if c.predicted_index in c.gold_indices]
    if correct:
        exact = sum(c.predicted_months == c.gold_months for c in correct)
        acc_given_correct = exact / len(correct)
    else:
        acc_given_correct = None
    errors = [c.error_category for c in per_case if c.error_category is not None]
    breakdown = {k.value: errors.count(k.value) / max(len(errors), 1) for k in ErrorCategory}
    gold_pairs = {(c.case_id, i) for c in per_case for i in c.gold_indices}
    return EvaluationReport(
        detection=detection_prf(detected, gold_pairs),
        sentence_selection_f1=selection_f1(
            {c.case_id: c.predicted_index for c in per_case},
            {c.case_id: set(c.gold_indices) for c in per_case},
        ),
        extraction_f1=score.extraction_f1,
        avg_month_error=score.avg_month_error,
        duration_accuracy_given_correct_sentence=acc_given_correct,
        error_breakdown=breakdown,
        per_case=per_case,
    )


def evaluate_rule_based(
    decisions: list[Decision],
    annotations: list[AnnotationRecord],
    lexicon: Lexicon,
) -> EvaluationReport:
    """Score the rule-based pipeline; detection = candidates above threshold."""
    scored_cases = ((d.case_id, score_candidates(d, lexicon)) for d in decisions)
    return assemble_report(
        decisions, annotations, lexicon, scored_cases, lexicon.threshold, lexicon.threshold
    )


@dataclass(frozen=True)
class Histogram:
    buckets: tuple[tuple[int, int, int], ...]  # (start, end inclusive, count)

    def to_csv_rows(self) -> list[str]:
        return [f"{start},{end},{count}" for start, end, count in self.buckets]


def punishment_histogram(months: Iterable[int | None], bucket_months: int) -> Histogram:
    """Bucketed counts of extracted durations (None skipped)."""
    if bucket_months < 1:
        raise ValueError("bucket_months must be >= 1")
    counts: dict[int, int] = {}
    for m in months:
        if m is not None:
            counts[m // bucket_months] = counts.get(m // bucket_months, 0) + 1
    return Histogram(
        tuple(
            (k * bucket_months, (k + 1) * bucket_months - 1, counts[k])
            for k in sorted(counts)
        )
    )
