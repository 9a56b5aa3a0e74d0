"""Rule-based identification of the actual-imprisonment sentence.

Candidates are the sentences containing a filter keyword; each is scored
from its tier hits plus structural cues (a number with a time unit is a
good sign, a bare number or a fine marker is not), and the best candidate
above the threshold wins, ties going to the sentence closest to the end
of the decision.

``score_candidates`` scores a candidate in two steps. Its scan (tier hits
and marker positions, ``analysis.scan``) gives its *ceiling*: the score with
the largest of the number terms (the bonus, the penalty or none) in place of
the one its numerals would earn. ``_score`` adds the terms of both in the
same order, and IEEE rounding is monotonic, so the ceiling is never below
the score, for any lexicon. Only a candidate whose ceiling reaches the
threshold has its numerals parsed (``analysis.complete``) and is scored; the
others are ones ``at_or_above`` would drop. ``rule_score`` scores any
sentence exactly.

Each kept candidate is analysed once (``analysis.SentenceAnalysis``) and its
``ScoredSentence`` carries that analysis, so a caller that goes on to
extract the months (``choose_rule_based`` then ``extraction.extract``) or to
report the score reuses it instead of analysing the chosen sentence again.
The supervised selector wraps each candidate's probability in a
``ScoredSentence`` too, so ``best_scored`` is the one chooser of both routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .analysis import SentenceAnalysis, SentenceScan, analyse, complete, scan
from .corpus import Decision, Sentence
from .lexicon import Lexicon, StructuralWeights


@dataclass(frozen=True)
class ScoredSentence:
    analysis: SentenceAnalysis
    score: float  # the rule score, or a model's punishment probability

    @property
    def sentence_index(self) -> int:
        return self.analysis.sentence.index


def filter_candidates(decision: Decision, lexicon: Lexicon) -> list[Sentence]:
    """Sentences containing at least one filter keyword, in document order.

    Only these are built as ``Sentence``s. A keyword is never blank, so a
    sentence holding one has a token.
    """
    contains = lexicon.contains_filter_keyword
    return [decision.sentence(i) for i, text in enumerate(decision.texts) if contains(text)]


def _score(
    facts: SentenceScan | SentenceAnalysis, number_term: float, structural: StructuralWeights
) -> float:
    """The rule score's terms, added in the one order the score and the ceiling share."""
    fine_term = structural.fine_marker_penalty * len(facts.fine_positions)
    return facts.tier_hits.weighted_sum() + number_term + fine_term


def score_ceiling(scanned: SentenceScan, structural: StructuralWeights) -> float:
    """The highest rule score the scanned sentence can have, whatever its
    numerals turn out to be."""
    bonus, penalty = structural.number_with_unit_bonus, structural.number_without_unit_penalty
    return _score(scanned, max(bonus, penalty, 0.0), structural)


def _scored(analysis: SentenceAnalysis, structural: StructuralWeights) -> ScoredSentence:
    if not analysis.has_number:
        number_term = 0.0
    elif analysis.has_time_unit:
        number_term = structural.number_with_unit_bonus
    else:
        number_term = structural.number_without_unit_penalty
    return ScoredSentence(analysis, _score(analysis, number_term, structural))


def rule_score(sentence: Sentence, lexicon: Lexicon) -> ScoredSentence:
    """Tier-weighted score with structural adjustments."""
    return _scored(analyse(sentence, lexicon), lexicon.structural)


def score_candidates(decision: Decision, lexicon: Lexicon) -> list[ScoredSentence]:
    """The candidates whose ceiling reaches ``lexicon.threshold``, each
    analysed and scored once, in document order."""
    structural, threshold = lexicon.structural, lexicon.threshold
    scored = []
    for sentence in filter_candidates(decision, lexicon):
        scanned = scan(sentence, lexicon)
        if score_ceiling(scanned, structural) >= threshold:
            scored.append(_scored(complete(scanned, lexicon), structural))
    return scored


def at_or_above(scored: Iterable[ScoredSentence], threshold: float) -> list[ScoredSentence]:
    """The candidates scoring at or above the threshold, in their order."""
    return [candidate for candidate in scored if candidate.score >= threshold]


def best_scored(scored: Iterable[ScoredSentence], threshold: float) -> ScoredSentence | None:
    """Highest-scoring candidate at or above the threshold; ties go late."""
    return max(
        at_or_above(scored, threshold),
        key=lambda candidate: (candidate.score, candidate.sentence_index),
        default=None,
    )


def choose_rule_based(decision: Decision, lexicon: Lexicon) -> ScoredSentence | None:
    """The decision's best candidate (see ``best_scored``), with its analysis."""
    return best_scored(score_candidates(decision, lexicon), lexicon.threshold)


def rule_based_choices(
    decisions: Iterable[Decision], lexicon: Lexicon
) -> Iterator[SentenceAnalysis | None]:
    """The analysis of each decision's ``choose_rule_based`` sentence (None
    when no candidate reaches the threshold), in order, as ``extract`` takes it."""
    for decision in decisions:
        best = choose_rule_based(decision, lexicon)
        yield best and best.analysis
