"""The rule path and scoring with an rf model file run without numpy, the
package exports the same names, every exported function is one that some
subcommand runs, and every name a package module imports is used in it."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maasar
from maasar.cli import run
from maasar.lexicon import load_lexicon
from maasar.synthetic import generate_corpus, write_corpus
from test_cli import _LOOSE_RULE

SRC = Path(__file__).resolve().parents[1] / "src"

# Every name ``maasar`` exports, the lazily imported supervised names included.
EXPORTED = [
    "AnnotationRecord", "CorpusStats", "Decision", "DurationScoringConfig",
    "ErrorCategory", "EvaluationReport", "ExtractionResult", "FEATURE_NAMES",
    "FEATURE_SCHEMA_VERSION", "Histogram", "Lexicon", "LinearMarginClassifier", "NumberSpan",
    "NumeralLexicon", "PRF", "ScoredSentence", "Sentence",
    "SentenceAnalysis", "TierHits", "TimeUnit", "TrainedModel", "TreeEnsembleClassifier",
    "analyse", "analysis", "choose_rule_based", "choose_sentences",
    "corpus",
    "corpus_stats", "cross_validate", "detect", "detect_spans", "detection_prf",
    "error_category", "evaluate_rule_based", "extract", "extraction",
    "extraction_f1_and_error", "features", "featurize", "filter_candidates",
    "lexicon", "load_annotations", "load_corpus", "load_lexicon", "load_model",
    "metrics", "models", "numbers", "pipeline", "prelabel_negatives", "punishment_histogram",
    "render_number", "save_model", "score_duration_candidates",
    "selection_f1", "span_months", "tokens", "train",
    "train_on_decisions", "try_decomposition",
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


@pytest.fixture(scope="module")
def model_files(tiny, tmp_path_factory):
    """An rf and an svm model file trained on ``tiny``."""
    directory = tmp_path_factory.mktemp("models")
    paths = {kind: directory / f"{kind}.json" for kind in ("rf", "svm")}
    for kind, path in paths.items():
        argv = ["train", "--model", kind, "--corpus", str(tiny["corpus_dir"])]
        assert run([*argv, "--annotations", str(tiny["annotations"]), "--out", str(path)]) == 0
    return paths


def fresh_interpreter(script, *argv):
    """The standard output of ``script`` run on ``argv`` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def imports_of(command, tiny, out):
    """Whether ``command`` imported numpy and numpy.ma, after checking that
    it succeeded and wrote ``out``."""
    argv = [str(tiny["annotations"]) if arg == "{annotations}" else arg for arg in command]
    argv += ["--corpus", str(tiny["corpus_dir"]), "--out", str(out)]
    code, *imported = fresh_interpreter(_RUN, *argv).split()
    assert code == "0"
    assert out.stat().st_size > 0
    return imported


@pytest.mark.parametrize("name", list(RULE_COMMANDS))
def test_rule_command_never_imports_numpy(tiny, tmp_path, name):
    assert imports_of(RULE_COMMANDS[name], tiny, tmp_path / "out") == ["False", "False"]


def test_rule_based_extract_never_imports_logging(tiny, tmp_path):
    # a duplicate annotation is a LoadError, not a logger warning
    script = (
        "import sys; from maasar.cli import run; "
        "assert run(sys.argv[1:]) == 0; print('logging' in sys.modules)"
    )
    argv = ["extract", "--rule-based", "--corpus", str(tiny["corpus_dir"])]
    assert fresh_interpreter(script, *argv, "--out", str(tmp_path / "out")).split() == ["False"]


@pytest.mark.parametrize("name", list(TRAINING_COMMANDS))
def test_training_command_never_imports_numpy_ma(tiny, tmp_path, name):
    assert imports_of(TRAINING_COMMANDS[name], tiny, tmp_path / "out") == ["True", "False"]


@pytest.mark.parametrize(
    "kind, imported", [("rf", ["False", "False"]), ("svm", ["True", "False"])]
)
def test_extract_with_a_model_file(tiny, model_files, tmp_path, kind, imported):
    """An rf file is scored without numpy; an svm margin is computed by it."""
    command = ["extract", "--model", str(model_files[kind])]
    assert imports_of(command, tiny, tmp_path / "out") == imported


# Scores every candidate of a corpus with a model file through the library.
_SCORE = """
import sys
from maasar.analysis import analyse
from maasar.corpus import load_corpus
from maasar.detect import filter_candidates
from maasar.features import featurize
from maasar.lexicon import load_lexicon
from maasar.models import load_model
lexicon = load_lexicon()
decisions = load_corpus(sys.argv[2]).decisions
rows = [featurize(analyse(s, lexicon)) for d in decisions for s in filter_candidates(d, lexicon)]
probabilities = load_model(sys.argv[1]).predict_proba(rows)
print(len(rows), len(probabilities), "numpy" in sys.modules)
"""


def test_rf_model_file_scores_featurized_rows_without_numpy(tiny, model_files):
    rows, probabilities, imported = fresh_interpreter(
        _SCORE, str(model_files["rf"]), str(tiny["corpus_dir"])
    ).split()
    assert int(rows) > 0 and probabilities == rows
    assert imported == "False"


def test_exported_names_unchanged():
    assert maasar.__all__ == EXPORTED


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from maasar import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    assert namespace["load_model"] is maasar.models.load_model
    assert namespace["train_on_decisions"] is maasar.pipeline.train_on_decisions
    assert namespace["choose_sentences"] is maasar.pipeline.choose_sentences
    assert namespace["featurize"] is maasar.features.featurize


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        maasar.no_such_name


# The exported functions that no subcommand runs, each with its reason.
NOT_RUN_BY_THE_CLI = {
    "render_number": "spells numerals for the synthetic-corpus generator; no subcommand does",
}


def test_every_exported_function_runs_in_some_subcommand(tmp_path):
    """Every subcommand and route, run in this process on a 12-decision
    corpus, calls every function ``maasar`` exports, the lazy ones included.
    The loose rule makes ``eval --rule-based`` choose wrong sentences, so
    that ``error_category`` runs."""
    corpus = generate_corpus(load_lexicon().numerals, num_decisions=12, seed=1)
    paths = write_corpus(corpus, tmp_path)
    annotations = ["--annotations", str(paths["annotations"])]
    rf, svm = str(tmp_path / "rf.json"), str(tmp_path / "svm.json")
    commands = [
        ["segment"],
        ["prelabel"],
        ["detect"],
        ["stats"],
        ["train", "--model", "rf", *annotations, "--out", rf],
        ["train", "--model", "svm", *annotations, "--out", svm],
        ["extract", "--rule-based", "--histogram-csv", str(tmp_path / "histogram.csv")],
        ["extract", "--model", rf],
        ["extract", "--model", svm],
        ["eval", "--rule-based", *annotations],
        ["eval", "--rule-based", *annotations, *_LOOSE_RULE],
        ["eval", "--model-kind", "rf", "--folds", "3", *annotations],
        ["eval", "--model-kind", "svm", "--folds", "3", *annotations],
    ]
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    for number, command in enumerate(commands):
        out = [] if "--out" in command else ["--out", str(tmp_path / f"out-{number}")]
        sys.setprofile(record)
        try:
            code = run([*command, "--corpus", str(paths["corpus_dir"]), *out])
        finally:
            sys.setprofile(None)
        assert code == 0, command

    functions = {
        name: getattr(maasar, name)
        for name in maasar.__all__
        if inspect.isfunction(getattr(maasar, name))
    }
    not_run = {name for name, function in functions.items() if function.__code__ not in called}
    assert not_run == set(NOT_RUN_BY_THE_CLI)


def _imported_names(tree):
    """(name, line) of each name bound by an import in ``tree``, ``__future__``
    features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def _used_names(tree):
    """The names ``tree`` reads, those in quoted annotations included (how a
    ``TYPE_CHECKING`` import is used)."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= _used_names(ast.parse(part.value, mode="eval"))
    return used


def test_every_imported_name_is_used():
    """A name a ``src/maasar`` module imports is read in that module;
    ``__init__`` imports names to export them."""
    unused = []
    for path in sorted((SRC / "maasar").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        imported = _imported_names(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in imported if name not in used]
    assert unused == []
