"""Whitespace tokenization shared by the lexicon matcher and number finder.

``stripped_tokens`` splits a sentence and strips every token with ``map``,
so no Python step runs per token.
"""

from __future__ import annotations

from itertools import repeat

# Stripped from token edges before dictionary lookups. Hyphens and inner
# quotes survive so forms like על-תנאי and ש"ח keep their surface.
EDGE_PUNCT = ".,;:!?()[]{}\"'«»“”„׳"


def stripped_tokens(text: str) -> tuple[str, ...]:
    """The whitespace tokens of ``text`` with edge punctuation removed."""
    return tuple(map(str.strip, text.split(), repeat(EDGE_PUNCT)))
