"""Whitespace tokenization shared by the lexicon matcher and number finder."""

from __future__ import annotations

# Stripped from token edges before dictionary lookups. Hyphens and inner
# quotes survive so forms like על-תנאי and ש"ח keep their surface.
EDGE_PUNCT = ".,;:!?()[]{}\"'«»“”„׳"


def strip_token(token: str) -> str:
    return token.strip(EDGE_PUNCT)


def stripped_tokens(text: str) -> tuple[str, ...]:
    """The whitespace tokens of ``text`` with edge punctuation removed."""
    return tuple(token.strip(EDGE_PUNCT) for token in text.split())
