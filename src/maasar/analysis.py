"""One analysis per candidate sentence, shared by every consumer.

Rule scoring, featurization, duration extraction and error categorization
read the same facts about a sentence: its tier hits, its number spans, and
where the fine, probation and actual-imprisonment markers are. This module
is the one place that tokenizes and analyses a sentence, in two steps.
``scan`` strips the tokens once and finds the tier hits and all three marker
lists in one pass over the lexicon's one index (``Lexicon.scan``). That is
enough to bound the sentence's rule score from above (``detect``'s ceiling),
so the rule scorer parses numerals only for a candidate that can still reach
the threshold. ``complete`` adds the number spans, from ``detect_spans``
over the scan's stripped tokens; ``analyse`` is both steps.

Both selectors hand back the chosen sentence's analysis: the rule scorer
keeps it in its ``ScoredSentence`` and the supervised path keeps each
candidate's analysis beside its feature row. Duration extraction and the
error report take that analysis, never a sentence or an index, so the chosen
sentence is not analysed again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .corpus import Sentence
from .lexicon import Lexicon, TierHits
from .numbers import NumberSpan, detect_spans
from .tokens import stripped_tokens

# A docket number such as 1124/04: a prior case, counted as a feature and
# read by the error taxonomy.
DOCKET_RE = re.compile(r"\d+/\d+")


class SentenceScan(NamedTuple):
    """A sentence's stripped tokens and what ``Lexicon.scan`` finds in them."""

    sentence: Sentence
    stripped: tuple[str, ...]
    tier_hits: TierHits
    fine_positions: tuple[int, ...]
    probation_positions: tuple[int, ...]
    actual_positions: tuple[int, ...]


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


def scan(sentence: Sentence, lexicon: Lexicon) -> SentenceScan:
    text = sentence.text
    stripped = stripped_tokens(text)
    return SentenceScan(sentence, stripped, *lexicon.scan(text, stripped))


def complete(scanned: SentenceScan, lexicon: Lexicon) -> SentenceAnalysis:
    """The scanned sentence's analysis: the scan plus its number spans."""
    sentence, stripped, tier_hits, *markers = scanned
    spans = tuple(detect_spans(stripped, lexicon.numerals))
    return SentenceAnalysis(sentence, tier_hits, spans, *markers)


def analyse(sentence: Sentence, lexicon: Lexicon) -> SentenceAnalysis:
    return complete(scan(sentence, lexicon), lexicon)
