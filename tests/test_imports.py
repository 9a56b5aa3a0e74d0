"""The rule path runs without numpy, and the package exports the same names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import maasar
from maasar.lexicon import load_lexicon
from maasar.synthetic import generate_corpus, write_corpus

SRC = Path(__file__).resolve().parents[1] / "src"

# Every name ``maasar`` exports, the lazily imported supervised names included.
EXPORTED = [
    "AnnotationRecord", "CorpusStats", "Decision", "DurationScoringConfig",
    "ErrorCategory", "EvaluationReport", "ExtractionResult", "FEATURE_NAMES",
    "FEATURE_SCHEMA_VERSION", "Histogram", "Lexicon", "LinearMarginClassifier", "NumberSpan",
    "NumeralLexicon", "PRF", "PunishmentExtractor", "ScoredSentence", "Sentence",
    "SentenceAnalysis", "TierHits", "TimeUnit", "TrainedModel", "TreeEnsembleClassifier",
    "analyse", "analysis", "choose_rule_based", "cohen_kappa", "compose", "corpus",
    "corpus_stats", "cross_validate", "detect", "detect_spans", "detection_prf",
    "error_category", "evaluate_rule_based", "extract", "extraction",
    "extraction_f1_and_error", "features", "featurize", "filter_candidates", "find_numbers",
    "fleiss_kappa", "lexicon", "load_annotations", "load_corpus", "load_lexicon", "load_model",
    "metrics", "models", "numbers", "pipeline", "prelabel_negatives", "punishment_histogram",
    "render_number", "rule_score", "save_model", "score_duration_candidates",
    "segment_sentences", "selection_f1", "span_months", "to_months", "tokens", "train",
    "train_on_decisions", "try_decomposition", "unit_only_elimination",
]  # fmt: skip

RULE_COMMANDS = {
    "segment": ["segment"],
    "stats": ["stats"],
    "prelabel": ["prelabel"],
    "detect": ["detect"],
    "extract": ["extract", "--rule-based"],
    "eval": ["eval", "--rule-based", "--annotations", "{annotations}"],
}

TRAINING_COMMANDS = {
    "train": ["train", "--model", "rf", "--annotations", "{annotations}"],
    "eval": ["eval", "--model-kind", "rf", "--folds", "3", "--annotations", "{annotations}"],
}

# Runs one cli command in a fresh interpreter, then reports whether numpy and
# numpy.ma were imported.
_RUN = """
import sys
from maasar.cli import run
code = run(sys.argv[1:])
print(code, "numpy" in sys.modules, "numpy.ma" in sys.modules)
"""


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    corpus = generate_corpus(load_lexicon().numerals, num_decisions=3, seed=1)
    return write_corpus(corpus, tmp_path_factory.mktemp("tiny"))


def imports_of(command, tiny, out):
    """Whether ``command`` imported numpy and numpy.ma, after checking that
    it succeeded and wrote ``out``."""
    argv = [str(tiny["annotations"]) if arg == "{annotations}" else arg for arg in command]
    argv += ["--corpus", str(tiny["corpus_dir"]), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _RUN, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    code, *imported = done.stdout.split()
    assert code == "0", done.stderr
    assert out.stat().st_size > 0
    return imported


@pytest.mark.parametrize("name", list(RULE_COMMANDS))
def test_rule_command_never_imports_numpy(tiny, tmp_path, name):
    assert imports_of(RULE_COMMANDS[name], tiny, tmp_path / "out") == ["False", "False"]


@pytest.mark.parametrize("name", list(TRAINING_COMMANDS))
def test_training_command_never_imports_numpy_ma(tiny, tmp_path, name):
    assert imports_of(TRAINING_COMMANDS[name], tiny, tmp_path / "out") == ["True", "False"]


def test_exported_names_unchanged():
    assert maasar.__all__ == EXPORTED


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from maasar import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    assert namespace["load_model"] is maasar.models.load_model
    assert namespace["train_on_decisions"] is maasar.pipeline.train_on_decisions
    assert namespace["featurize"] is maasar.features.featurize


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        maasar.no_such_name
