"""Duration extraction from a selected sentence.

Two routes, in fixed order of precedence: the decomposition heuristic for
verdicts phrased as a total term split into an actual part and a conditional
part (exactly three duration numbers with first = second + third, the second
being the served term); otherwise per-span scoring by unit proximity, nearby
actual-imprisonment markers, probation/fine adjacency penalties, and a mild
late-position bonus, taking the best span within the sentence. Both routes
read the chosen sentence's ``SentenceAnalysis``: its spans (with "and a
half" always part of the numeral grammar) and its marker positions. The
per-span weights are ``Lexicon.duration``, the lexicon file's ``duration``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .analysis import SentenceAnalysis, analyse
from .corpus import Decision
from .lexicon import DurationScoringConfig, Lexicon
from .numbers import NumberSpan, span_months

# How far (in tokens) a probation or fine marker reaches to penalize a span.
MARKER_WINDOW = 3


@dataclass(frozen=True)
class ExtractionResult:
    case_id: str
    sentence_index: int | None
    months: int | None
    method: str  # decomposition | scored | none
    candidates: tuple[NumberSpan, ...] = field(default_factory=tuple)
    error_category: str | None = None


def try_decomposition(spans: Iterable[NumberSpan]) -> int | None:
    """Served months via the decomposition rule, or None when it does not apply.

    The rule needs exactly three duration spans (spans with no resolvable
    unit, e.g. docket fragments or dates, do not count), total, actual and
    conditional, whose first equals the sum of the latter two once
    normalized to months; the actual one is the served term.
    """
    durations = [s for s in spans if s.attached_unit is not None]
    if len(durations) != 3:
        return None
    total, actual, conditional = map(span_months, durations)
    return actual if total == actual + conditional else None


def _distance_to_markers(span: NumberSpan, positions: tuple[int, ...]) -> int | None:
    if not positions:
        return None

    def dist(p: int) -> int:
        if p > span.end_token:
            return p - span.end_token
        if p < span.start_token:
            return span.start_token - p
        return 0

    return min(dist(p) for p in positions)


def score_duration_candidates(
    analysis: SentenceAnalysis, weights: DurationScoringConfig
) -> int | None:
    """Best-scoring duration span of the analysed sentence; no absolute threshold.

    ``weights`` is the lexicon's ``duration`` section. None when no span has
    a resolvable unit. Ties go to the later span.
    """
    candidates = [s for s in analysis.spans if s.attached_unit is not None]
    if not candidates:
        return None

    n_tokens = max(analysis.sentence.token_count, 1)

    def score(span: NumberSpan) -> float:
        value = weights.unit_proximity_weight / (1.0 + span.unit_distance)
        d_actual = _distance_to_markers(span, analysis.actual_positions)
        if d_actual is not None:
            value += weights.actual_marker_weight / (1.0 + d_actual)
        d_prob = _distance_to_markers(span, analysis.probation_positions)
        if d_prob is not None and d_prob <= MARKER_WINDOW:
            value -= weights.probation_penalty
        d_fine = _distance_to_markers(span, analysis.fine_positions)
        if d_fine is not None and d_fine <= MARKER_WINDOW:
            value -= weights.fine_penalty
        value += weights.position_bonus * (span.start_token / max(n_tokens - 1, 1))
        return value

    best = max(candidates, key=lambda s: (score(s), s.start_token))
    return span_months(best)


def extract(
    decision: Decision, chosen: int | SentenceAnalysis | None, lexicon: Lexicon
) -> ExtractionResult:
    """Full duration extraction for one decision, given the chosen sentence.

    ``chosen`` is the chosen sentence's analysis, as both selectors hand it
    back (``pipeline.choose_sentence``), or None. The index form is the
    public entry point for callers that hold only an index: the sentence is
    analysed here. The span scorer reads ``lexicon.duration``.
    """
    if chosen is None:
        return ExtractionResult(decision.case_id, None, None, "none")
    if isinstance(chosen, int):
        sentence_index, analysis = chosen, analyse(decision.sentences[chosen], lexicon)
    else:
        sentence_index, analysis = chosen.sentence.index, chosen
    spans = analysis.spans
    months = try_decomposition(spans)
    if months is not None:
        return ExtractionResult(decision.case_id, sentence_index, months, "decomposition", spans)
    months = score_duration_candidates(analysis, lexicon.duration)
    if months is not None:
        return ExtractionResult(decision.case_id, sentence_index, months, "scored", spans)
    return ExtractionResult(decision.case_id, sentence_index, None, "none", spans)
