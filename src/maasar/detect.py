"""Rule-based identification of the actual-imprisonment sentence.

Candidates are the sentences containing a filter keyword; each is scored
from its tier hits plus structural cues (a number with a time unit is a
good sign, a bare number or a fine marker is not), and the best candidate
above the threshold wins, ties going to the sentence closest to the end
of the decision.

Each candidate is analysed once (``analysis.SentenceAnalysis``) and its
``ScoredSentence`` carries that analysis, so a caller that goes on to
extract the months (``choose_rule_based`` then ``extraction.extract``) or to
report the score reuses it instead of analysing the chosen sentence again.
The supervised selector wraps each candidate's probability in a
``ScoredSentence`` too, so ``best_scored`` is the one chooser of both routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .analysis import SentenceAnalysis, analyse
from .corpus import Decision, Sentence
from .lexicon import Lexicon


@dataclass(frozen=True)
class ScoredSentence:
    analysis: SentenceAnalysis
    score: float  # the rule score, or a model's punishment probability

    @property
    def sentence_index(self) -> int:
        return self.analysis.sentence.index


def filter_candidates(decision: Decision, lexicon: Lexicon) -> list[Sentence]:
    """Sentences containing at least one filter keyword, in document order."""
    return [
        s
        for s in decision.sentences
        if s.token_count > 0 and lexicon.contains_filter_keyword(s.text)
    ]


def rule_score(sentence: Sentence, lexicon: Lexicon) -> ScoredSentence:
    """Tier-weighted score with structural adjustments."""
    analysis = analyse(sentence, lexicon)
    score = analysis.tier_hits.weighted_sum()
    structural = lexicon.structural
    if analysis.has_number and analysis.has_time_unit:
        score += structural.number_with_unit_bonus
    elif analysis.has_number:
        score += structural.number_without_unit_penalty
    score += structural.fine_marker_penalty * len(analysis.fine_positions)
    return ScoredSentence(analysis, score)


def score_candidates(decision: Decision, lexicon: Lexicon) -> list[ScoredSentence]:
    """Each candidate analysed and scored once, in document order."""
    return [rule_score(s, lexicon) for s in filter_candidates(decision, lexicon)]


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


def select_sentence_rule_based(decision: Decision, lexicon: Lexicon) -> int | None:
    best = choose_rule_based(decision, lexicon)
    return best.sentence_index if best else None
