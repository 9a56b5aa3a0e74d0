"""One analysis per candidate sentence, shared by every consumer.

Rule scoring, featurization, duration extraction and error categorization
read the same facts about a sentence: its tier hits, its number spans, and
where the fine, probation and actual-imprisonment markers are. ``analyse``
is the one place that tokenizes and analyses a sentence: it strips the
tokens once, finds the tier hits and all three marker lists in one pass over
the lexicon's one index (``Lexicon.scan``), and the number spans with
``detect_spans``, both of which take those stripped tokens. Both selectors
hand back the chosen sentence's analysis: the rule scorer keeps it in its
``ScoredSentence`` and the supervised path keeps each candidate's analysis
beside its feature row. Duration extraction and the error report take that
analysis, never a sentence or an index, so the chosen sentence is not
analysed again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .corpus import Sentence
from .lexicon import Lexicon, TierHits
from .numbers import NumberSpan, detect_spans
from .tokens import stripped_tokens

# A docket number such as 1124/04: a prior case, counted as a feature and
# read by the error taxonomy.
DOCKET_RE = re.compile(r"\d+/\d+")


@dataclass(frozen=True)
class SentenceAnalysis:
    sentence: Sentence
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
    tier_hits, fine, probation, actual = lexicon.scan(text, stripped)
    return SentenceAnalysis(
        sentence=sentence,
        tier_hits=tier_hits,
        spans=tuple(detect_spans(stripped, lexicon.numerals)),
        fine_positions=fine,
        probation_positions=probation,
        actual_positions=actual,
    )
