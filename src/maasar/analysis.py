"""One analysis per candidate sentence, shared by every consumer.

Rule scoring, featurization, duration extraction and error categorization
read the same facts about a sentence: its punctuation-stripped tokens, its
tier hits, its number spans, and where the fine, probation and
actual-imprisonment markers are. ``analyse`` strips the tokens once and
derives the rest through the public matchers (``match_tiers``,
``detect_spans``, ``Lexicon.marker_positions``). The rule scorer keeps the
analysis in its ``ScoredSentence``, and duration extraction accepts it in
place of a sentence index, so the chosen sentence is not analysed again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Sentence
from .lexicon import Lexicon, TierHits, match_tiers
from .numbers import NumberSpan, detect_spans
from .tokens import stripped_tokens


@dataclass(frozen=True)
class SentenceAnalysis:
    sentence: Sentence
    stripped: tuple[str, ...]
    tier_hits: TierHits
    spans: tuple[NumberSpan, ...]
    fine_positions: tuple[int, ...]
    probation_positions: tuple[int, ...]
    actual_positions: tuple[int, ...]

    @property
    def has_number(self) -> bool:
        return bool(self.spans)

    @property
    def has_time_unit(self) -> bool:
        return any(s.attached_unit is not None for s in self.spans)


def analyse(sentence: Sentence, lexicon: Lexicon) -> SentenceAnalysis:
    text = sentence.text
    stripped = stripped_tokens(text)
    return SentenceAnalysis(
        sentence=sentence,
        stripped=stripped,
        tier_hits=match_tiers(sentence, lexicon, stripped),
        spans=tuple(detect_spans(sentence, lexicon.numerals, stripped=stripped)),
        fine_positions=tuple(lexicon.marker_positions(text, lexicon.fine_markers, stripped)),
        probation_positions=tuple(
            lexicon.marker_positions(text, lexicon.probation_markers, stripped)
        ),
        actual_positions=tuple(lexicon.marker_positions(text, lexicon.actual_markers, stripped)),
    )
