"""Evaluation metrics: detection P/R/F1, per-case selection and duration
accuracy, agreement coefficients, error taxonomy, duration histograms, and
the evaluation report both routes share (``assemble_report``), with the
rule-based evaluation that builds it (``evaluate_rule_based``).

Selecting exactly one sentence per case makes every false positive pair up
with a false negative, so the per-case selection and duration scores have
precision = recall and are reported as a single F1 number.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .analysis import DOCKET_RE, SentenceAnalysis
from .corpus import AnnotationRecord, Decision
from .detect import ScoredSentence, at_or_above, best_scored, score_candidates
from .extraction import extract
from .lexicon import Lexicon


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


def cohen_kappa(ratings_a: Sequence, ratings_b: Sequence) -> float:
    """Cohen's kappa between two raters: (p_o - p_e) / (1 - p_e)."""
    if len(ratings_a) != len(ratings_b):
        raise ValueError("rating vectors must have equal length")
    if not ratings_a:
        raise ValueError("rating vectors must be non-empty")
    n = len(ratings_a)
    observed = sum(a == b for a, b in zip(ratings_a, ratings_b)) / n
    labels = set(ratings_a) | set(ratings_b)
    expected = 0.0
    for label in labels:
        pa = sum(a == label for a in ratings_a) / n
        pb = sum(b == label for b in ratings_b) / n
        expected += pa * pb
    if expected == 1.0:
        warnings.warn("degenerate agreement: expected agreement is 1", stacklevel=2)
        return 1.0 if observed == 1.0 else 0.0
    return (observed - expected) / (1.0 - expected)


def fleiss_kappa(ratings: Sequence[Sequence], num_classes: int) -> float:
    """Fleiss' kappa over an item x rater matrix of categorical labels."""
    if not ratings:
        raise ValueError("rating matrix must be non-empty")
    n_raters = len(ratings[0])
    if n_raters < 2:
        raise ValueError("need at least two raters")
    for row in ratings:
        if len(row) != n_raters:
            raise ValueError("every item must be rated by all raters")
        if any(label is None for label in row):
            raise ValueError("missing ratings are not allowed")
    labels = sorted({label for row in ratings for label in row}, key=str)
    if len(labels) > num_classes:
        raise ValueError(
            f"found {len(labels)} distinct labels, more than num_classes={num_classes}"
        )
    column = {label: j for j, label in enumerate(labels)}

    n_items = len(ratings)
    counts = [[0] * num_classes for _ in range(n_items)]
    for i, row in enumerate(ratings):
        for label in row:
            counts[i][column[label]] += 1

    total = n_items * n_raters
    proportions = [sum(counts[i][j] for i in range(n_items)) / total for j in range(num_classes)]
    expected = sum(p * p for p in proportions)
    per_item = [
        (sum(c * c for c in counts[i]) - n_raters) / (n_raters * (n_raters - 1))
        for i in range(n_items)
    ]
    observed = sum(per_item) / n_items
    if expected == 1.0:
        warnings.warn("degenerate agreement: expected agreement is 1", stacklevel=2)
        return 1.0
    return (observed - expected) / (1.0 - expected)


def error_category(analysis: SentenceAnalysis) -> ErrorCategory:
    """Why a wrongly selected sentence, given its analysis, fooled the model.

    Precedence: probation, then prior-case reference (docket pattern or a
    past-tense sentencing verb), then fine, then procedural (number present
    without a time unit), else misc.
    """
    if analysis.probation_positions:
        return ErrorCategory.PROBATION
    if DOCKET_RE.search(analysis.sentence.text):
        return ErrorCategory.PRIOR_CASE_REFERENCE
    if any(
        h.tier == "moderate_negative" and len(h.surface) > 1
        for h in analysis.tier_hits.hits
    ):
        return ErrorCategory.PRIOR_CASE_REFERENCE
    if analysis.fine_positions:
        return ErrorCategory.FINE
    if analysis.has_number and not analysis.has_time_unit:
        return ErrorCategory.PROCEDURAL
    return ErrorCategory.MISC


def _chosen_and_detected(
    scored_cases: Iterable[tuple[str, list[ScoredSentence]]],
    detection_threshold: float,
    selection_threshold: float,
) -> tuple[dict[str, SentenceAnalysis | None], set[tuple[str, int]]]:
    """Each case's chosen analysis and every (case, index) detected, as
    ``assemble_report`` takes them, from each case's scored candidates."""
    chosen: dict[str, SentenceAnalysis | None] = {}
    detected: set[tuple[str, int]] = set()
    for case_id, scored in scored_cases:
        for candidate in at_or_above(scored, detection_threshold):
            detected.add((case_id, candidate.sentence_index))
        best = best_scored(scored, selection_threshold)
        chosen[case_id] = best and best.analysis
    return chosen, detected


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
    chosen: dict[str, SentenceAnalysis | None],
    detected: set[tuple[str, int]],
) -> EvaluationReport:
    """Pool per-case predictions into the full evaluation report.

    ``chosen`` maps each case to its selected sentence's analysis (or None);
    the months are extracted from it and a wrong selection is categorised
    from it (``metrics.error_category``), so no sentence is analysed here.
    """
    gold_indices, gold_months = _gold_maps(annotations)
    by_id = {d.case_id: d for d in decisions}
    selections: dict[str, int | None] = {}
    months: dict[str, int | None] = {}
    for case_id, analysis in chosen.items():
        result = extract(by_id[case_id], analysis, lexicon)
        selections[case_id], months[case_id] = result.sentence_index, result.months
    gold_pairs = {
        (case_id, idx)
        for case_id, indices in gold_indices.items()
        if case_id in by_id
        for idx in indices
    }
    detection = detection_prf(detected, gold_pairs)

    full_gold_months = {d.case_id: gold_months.get(d.case_id, 0) for d in decisions}
    sel_f1 = selection_f1(selections, gold_indices)
    score = extraction_f1_and_error(months, full_gold_months)

    correct_sel = [
        case_id
        for case_id, idx in selections.items()
        if idx is not None and idx in gold_indices.get(case_id, set())
    ]
    if correct_sel:
        acc_given_correct = sum(
            months.get(c) == full_gold_months[c] for c in correct_sel
        ) / len(correct_sel)
    else:
        acc_given_correct = None

    wrong = [
        (case_id, analysis)
        for case_id, analysis in chosen.items()
        if analysis is not None
        and analysis.sentence.index not in gold_indices.get(case_id, set())
    ]
    breakdown = {category.value: 0.0 for category in ErrorCategory}
    per_case_categories: dict[str, str] = {}
    for case_id, analysis in wrong:
        category = error_category(analysis)
        per_case_categories[case_id] = category.value
        breakdown[category.value] += 1
    if wrong:
        breakdown = {k: v / len(wrong) for k, v in breakdown.items()}

    per_case = tuple(
        PerCaseResult(
            case_id=d.case_id,
            predicted_index=selections.get(d.case_id),
            gold_indices=tuple(sorted(gold_indices.get(d.case_id, set()))),
            predicted_months=months.get(d.case_id),
            gold_months=full_gold_months[d.case_id],
            error_category=per_case_categories.get(d.case_id),
        )
        for d in decisions
    )
    return EvaluationReport(
        detection=detection,
        sentence_selection_f1=sel_f1,
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
    chosen, detected = _chosen_and_detected(scored_cases, lexicon.threshold, lexicon.threshold)
    return assemble_report(decisions, annotations, lexicon, chosen, detected)


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
