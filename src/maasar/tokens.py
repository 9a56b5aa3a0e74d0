"""Whitespace tokenization shared by the lexicon matcher and number finder.

``stripped_tokens`` splits a sentence and strips every token with ``map``,
so no Python step runs per token.
"""

from __future__ import annotations

from itertools import repeat

# Stripped from token edges before dictionary lookups. Hyphens and inner
# quotes survive so forms like על-תנאי and ש"ח keep their surface. The Unicode
# format marks (Cf) that exports put beside words go too: zero-width,
# directional and bidi marks, embeddings, overrides, isolates and the BOM.
FORMAT_MARKS = (
    "\u200b\u200c\u200d\u200e\u200f\u202a\u202b\u202c\u202d\u202e\u2066\u2067\u2068\u2069"
    "\u061c\ufeff"
)
EDGE_PUNCT = ".,;:!?()[]{}\"'«»“”„׳" + FORMAT_MARKS


def stripped_tokens(text: str) -> tuple[str, ...]:
    """The whitespace tokens of ``text`` with edge punctuation removed."""
    return tuple(map(str.strip, text.split(), repeat(EDGE_PUNCT)))
