"""Extraction of actual-imprisonment durations from Hebrew sentencing decisions.

Two-stage pipeline: find the sentence that pronounces the punishment, then
parse and normalize its duration to months. Ships rule-based and trainable
selectors, a Hebrew numeral parser, an evaluation harness, and a CLI.
"""

from .analysis import SentenceAnalysis, analyse
from .corpus import (
    AnnotationRecord,
    CorpusStats,
    Decision,
    Sentence,
    corpus_stats,
    load_annotations,
    load_corpus,
    prelabel_negatives,
    segment_sentences,
)
from .detect import (
    ScoredSentence,
    choose_rule_based,
    filter_candidates,
    rule_score,
    select_sentence_rule_based,
)
from .extraction import (
    ExtractionResult,
    extract,
    score_duration_candidates,
    try_decomposition,
)
from .features import FEATURE_NAMES, FEATURE_SCHEMA_VERSION, featurize
from .lexicon import (
    DurationScoringConfig,
    Lexicon,
    NumeralLexicon,
    TierHits,
    load_lexicon,
    match_tiers,
)
from .metrics import (
    ErrorCategory,
    EvaluationReport,
    Histogram,
    PRF,
    categorize_error,
    cohen_kappa,
    detection_prf,
    error_category,
    extraction_f1_and_error,
    fleiss_kappa,
    punishment_histogram,
    selection_f1,
)
from .models import (
    LinearMarginClassifier,
    TrainedModel,
    TreeEnsembleClassifier,
    load_model,
    predict_proba,
    save_model,
    train,
)
from .numbers import (
    NumberSpan,
    TimeUnit,
    compose,
    detect_spans,
    find_numbers,
    render_number,
    span_months,
    to_months,
    unit_only_elimination,
)
from .pipeline import (
    CrossValConfig,
    PunishmentExtractor,
    cross_validate,
    evaluate_rule_based,
    select_sentence_supervised,
    sentences_above_threshold,
    train_on_decisions,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
