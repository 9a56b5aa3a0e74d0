"""Fixed-order feature vectors for candidate sentences.

The schema mirrors the signals the rule-based scorer uses (tier hit counts,
number/unit structure, marker counts, the actual-imprisonment marker among
them) plus document-position features. Its order is versioned; models refuse
vectors from a different schema version. ``featurize`` reads a candidate's
``SentenceAnalysis``, which the pipeline keeps for extraction and the error
report, so featurizing analyses nothing. A row is a function of its analysis
alone: no column depends on the other sentences of the corpus. A row is a
tuple of ``NUM_FEATURES`` floats, so featurizing imports no numpy; the
trainers make matrices of the rows, and an rf model scores the tuples.
"""

from __future__ import annotations

from .analysis import DOCKET_RE, SentenceAnalysis

FEATURE_SCHEMA_VERSION = 2

# The token count at which ``token_count_norm`` reaches 1.0; longer
# sentences read 1.0 too. A saved model was fitted on rows scaled by it, so
# changing it needs a FEATURE_SCHEMA_VERSION bump.
TOKEN_COUNT_CAP = 64

FEATURE_NAMES = (
    "strong_positive_count",
    "moderate_positive_count",
    "moderate_negative_count",
    "strong_negative_count",
    "has_number",
    "has_time_unit",
    "number_count",
    "fine_marker_count",
    "probation_marker_count",
    "actual_marker_count",
    "docket_marker_count",
    "relative_position",
    "token_count_norm",
)

NUM_FEATURES = len(FEATURE_NAMES)


def featurize(analysis: SentenceAnalysis) -> tuple[float, ...]:
    """Feature row for one analysed sentence: ``NUM_FEATURES`` floats."""
    sentence = analysis.sentence
    hits = analysis.tier_hits

    return (
        float(hits.strong_positive),
        float(hits.moderate_positive),
        float(hits.moderate_negative),
        float(hits.strong_negative),
        1.0 if analysis.has_number else 0.0,
        1.0 if analysis.has_time_unit else 0.0,
        float(len(analysis.spans)),
        float(len(analysis.fine_positions)),
        float(len(analysis.probation_positions)),
        float(len(analysis.actual_positions)),
        float(len(DOCKET_RE.findall(sentence.text))),
        float(sentence.relative_position),
        min(sentence.token_count, TOKEN_COUNT_CAP) / TOKEN_COUNT_CAP,
    )
