"""Extraction of actual-imprisonment durations from Hebrew sentencing decisions.

Two-stage pipeline: find the sentence that pronounces the punishment, then
parse and normalize its duration to months. Ships rule-based and trainable
selectors, a Hebrew numeral parser, an evaluation harness, and a CLI.

The rule path imports no numpy. The supervised modules (``features``,
``models`` and ``pipeline``, and the names exported from them) are exported
lazily (PEP 562): the first access imports their module. Those modules
import numpy only to fit a model, to cross-validate, and to load or score
a linear (svm) model; loading an rf model file and scoring rows with it
need no numpy.
"""

import importlib as _importlib

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
)
from .detect import (
    ScoredSentence,
    choose_rule_based,
    filter_candidates,
)
from .extraction import (
    ExtractionResult,
    extract,
    score_duration_candidates,
    try_decomposition,
)
from .lexicon import (
    DurationScoringConfig,
    Lexicon,
    NumeralLexicon,
    TierHits,
    load_lexicon,
)
from .metrics import (
    ErrorCategory,
    EvaluationReport,
    Histogram,
    PRF,
    detection_prf,
    error_category,
    evaluate_rule_based,
    extraction_f1_and_error,
    punishment_histogram,
    selection_f1,
)
from .numbers import (
    NumberSpan,
    TimeUnit,
    detect_spans,
    render_number,
    span_months,
)

# Supervised module -> the names exported from it.
_LAZY_MODULES = {
    "features": ("FEATURE_NAMES", "FEATURE_SCHEMA_VERSION", "featurize"),
    "models": (
        "LinearMarginClassifier",
        "TrainedModel",
        "TreeEnsembleClassifier",
        "load_model",
        "save_model",
        "train",
    ),
    "pipeline": ("choose_sentences", "cross_validate", "train_on_decisions"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(
    {*(name for name in globals() if not name.startswith("_")), *_LAZY_MODULES, *_LAZY_NAMES}
)


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return _importlib.import_module(f".{name}", __name__)
    if name in _LAZY_NAMES:
        return getattr(_importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
