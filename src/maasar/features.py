"""Fixed-order feature vectors for candidate sentences.

The schema mirrors the signals the rule-based scorer uses (tier hit counts,
number/unit structure, marker counts) plus document-position features. Its
order is versioned; models refuse vectors from a different schema version.
``featurize`` reads a candidate's ``SentenceAnalysis``, which the pipeline
keeps for extraction and the error report, so featurizing analyses nothing.
Sentence length is normalized by a caller-given token-count scale: the
pipeline featurizes at scale 1 (the raw count) and rescales per model.
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


def featurize(analysis: SentenceAnalysis, max_token_count: int) -> np.ndarray:
    """Feature vector for one analysed sentence.

    ``max_token_count`` is the normalization constant for sentence length;
    below 1 it is refused, as ``TrainedModel`` refuses such a scale.
    """
    if max_token_count < 1:
        raise ValueError(f"'max_token_count' must be at least 1, got {max_token_count}")
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
        sentence.token_count / max_token_count,
        1.0 - sentence.relative_position,
    )
    return np.array(values, dtype=float)
