"""Fixed-order feature vectors for candidate sentences.

The schema mirrors the signals the rule-based scorer uses (tier hit counts,
number/unit structure, marker counts) plus document-position features. Its
order is versioned; models refuse vectors from a different schema version.
``featurize`` reads a candidate's ``SentenceAnalysis``, which the pipeline
keeps for extraction and the error report, so featurizing analyses nothing.
The ``token_count_norm`` column holds the raw token count; the pipeline
divides it by each model's token-count scale (``pipeline._rescale``).
"""

from __future__ import annotations

import numpy as np

from .analysis import DOCKET_RE, SentenceAnalysis

FEATURE_SCHEMA_VERSION = 1

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
    "docket_marker_count",
    "relative_position",
    "token_count_norm",
    "distance_to_document_end",
)

NUM_FEATURES = len(FEATURE_NAMES)


def featurize(analysis: SentenceAnalysis) -> np.ndarray:
    """Feature vector for one analysed sentence, with its raw token count."""
    sentence = analysis.sentence
    hits = analysis.tier_hits

    values = (
        float(hits.strong_positive),
        float(hits.moderate_positive),
        float(hits.moderate_negative),
        float(hits.strong_negative),
        1.0 if analysis.has_number else 0.0,
        1.0 if analysis.has_time_unit else 0.0,
        float(len(analysis.spans)),
        float(len(analysis.fine_positions)),
        float(len(analysis.probation_positions)),
        float(len(DOCKET_RE.findall(sentence.text))),
        sentence.relative_position,
        float(sentence.token_count),
        1.0 - sentence.relative_position,
    )
    return np.array(values, dtype=float)
