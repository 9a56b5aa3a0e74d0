import dataclasses
import hashlib
import json
import math
import os
import stat

import pytest

from maasar import cli
from maasar.cli import run
from maasar.corpus import CorpusStats, corpus_stats, load_annotations, load_corpus
from maasar.detect import rule_based_choices
from maasar.extraction import ExtractionResult, extract
from maasar.lexicon import default_lexicon_path, load_lexicon
from maasar.metrics import PRF, EvaluationReport, PerCaseResult, evaluate_rule_based
from maasar.numbers import NumberSpan
from maasar.synthetic import generate_corpus, write_corpus
from samples import tier_weight


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    lexicon = load_lexicon()
    corpus = generate_corpus(lexicon.numerals, num_decisions=10, seed=21)
    paths = write_corpus(corpus, root)
    return {"root": root, "corpus": corpus, **paths}


def corpus_args(workspace):
    return ["--corpus", str(workspace["corpus_dir"])]


def rf_state(doc, state):
    """A model file of the tree ensemble kind, with its default
    hyperparameters, carrying ``state``."""
    hyperparams = {
        "max_depth": None, "max_features": "sqrt", "min_leaf": 1, "n_trees": 100,
        "seed": doc["rng_seed"],
    }
    return {**doc, "kind": "tree_ensemble", "hyperparams": hyperparams, "state": state}


def rf_trees(doc, *trees):
    return rf_state(doc, {"trees": list(trees), "n_features_in": 13})


LEAVES = {"threshold": 0.5, "left": {"vote": 0}, "right": {"vote": 1}}


def svm_weights(doc, count):
    """A linear model file keeping only its first ``count`` weights."""
    return {**doc, "state": {**doc["state"], "weights": doc["state"]["weights"][:count]}}


def svm_state(doc, **fields):
    """A linear model file whose state has ``fields`` replaced."""
    return {**doc, "state": {**doc["state"], **fields}}


def hyperparams_with(doc, **hyperparams):
    """A model file whose hyperparams have ``hyperparams`` replaced."""
    return {**doc, "hyperparams": {**doc["hyperparams"], **hyperparams}}


def svm_offset(doc, offset):
    """A linear model file whose calibration carries ``offset``."""
    calibration = {**doc["state"]["calibration"], "offset": offset}
    return {**doc, "state": {**doc["state"], "calibration": calibration}}


def numerals_with(doc, **sections):
    return {**doc, "numerals": {**doc["numerals"], **sections}}


def weights_with(doc, section, **weights):
    return {**doc, section: {**doc[section], **weights}}


def tens_key_renamed(doc, key):
    """``doc`` with its ``numerals.tens`` key "20" written as ``key``."""
    tens = doc["numerals"]["tens"]
    return numerals_with(doc, tens={key if k == "20" else k: words for k, words in tens.items()})


def entry_added(doc, section, key, entry):
    """``doc`` with ``entry`` appended to the word list ``doc[section][key]``."""
    return {**doc, section: {**doc[section], key: [*doc[section][key], entry]}}


@pytest.fixture(scope="module")
def svm_model_doc(workspace):
    """The document of an svm model file trained on the workspace corpus."""
    path = workspace["root"] / "svm-model.json"
    annotations = ["--annotations", str(workspace["annotations"])]
    argv = ["train", *corpus_args(workspace), *annotations, "--model", "svm"]
    assert run([*argv, "--out", str(path)]) == 0
    return json.loads(path.read_text(encoding="utf-8"))


def written(path, content):
    """``path``, after writing ``content`` (bytes, or a document as JSON) to it."""
    if not isinstance(content, bytes):
        content = json.dumps(content, ensure_ascii=False).encode("utf-8")
    path.write_bytes(content)
    return str(path)


def extract_with_lexicon(ws, tmp_path, content):
    lexicon = written(tmp_path / "lexicon.json", content)
    return ["extract", *corpus_args(ws), "--rule-based", "--lexicon", lexicon]


def extract_with_model(ws, tmp_path, doc):
    model = written(tmp_path / "model.json", doc)
    return ["extract", *corpus_args(ws), "--model", model, "--out", str(tmp_path / "o")]


# --threshold and the tier and structural flags, which only the rule score reads.
RULE_SCORE_FLAGS = [
    "--threshold",
    "--weight-strong-positive",
    "--weight-moderate-positive",
    "--weight-moderate-negative",
    "--weight-strong-negative",
    "--number-with-unit-bonus",
    "--number-without-unit-penalty",
    "--fine-marker-penalty",
]


def model_route(ws, doc, tmp_path, route):
    """The argv of ``route`` ("extract --model" with the model file ``doc``,
    or "eval --model-kind rf") on the workspace corpus, writing ``o``."""
    if route == "extract --model":
        return extract_with_model(ws, tmp_path, doc)
    return [*eval_rf(ws, tmp_path, "--folds", "2"), "--out", str(tmp_path / "o")]


def eval_rf(ws, tmp_path, *flags):
    annotations = ["--annotations", str(ws["annotations"])]
    return ["eval", *corpus_args(ws), *annotations, "--model-kind", "rf", *flags]


def train_on(corpus_dir, annotations, tmp_path):
    inputs = ["--corpus", str(corpus_dir), "--annotations", annotations]
    return ["train", *inputs, "--model", "rf", "--out", str(tmp_path / "model.json")]


def corpus_with_metadata(tmp_path, metadata):
    """A one-decision corpus whose ``metadata.json`` holds the bytes ``metadata``."""
    corpus_dir = tmp_path / "one"
    corpus_dir.mkdir()
    (corpus_dir / "a.txt").write_text("נגזרו על הנאשם 8 חודשי מאסר בפועל.", encoding="utf-8")
    written(corpus_dir / "metadata.json", metadata)
    return ["--corpus", str(corpus_dir)]


def corpus_without_candidates(tmp_path):
    """A one-decision corpus in which no sentence has a filter keyword."""
    corpus_dir = tmp_path / "plain"
    corpus_dir.mkdir()
    (corpus_dir / "p1.txt").write_text("הדיון נדחה. הצדדים טענו.", encoding="utf-8")
    written(corpus_dir / "metadata.json", [{"filename": "p1.txt", "case_id": "p1"}])
    return corpus_dir


# Input that the CLI must refuse with exit 1: each builds its argv from the
# workspace, the document of an svm model file and a scratch directory.
BAD_INPUTS = {
    "lexicon-invalid-json": lambda ws, doc, tmp: extract_with_lexicon(ws, tmp, b'{"a": '),
    "lexicon-not-utf8": lambda ws, doc, tmp: extract_with_lexicon(ws, tmp, b"\xff\xfe{}"),
    "annotations-not-utf8": lambda ws, doc, tmp: [
        "eval", *corpus_args(ws), "--rule-based",
        "--annotations", written(tmp / "ann.jsonl", b'{"case_id": "\xff"}\n'),
    ],
    "model-kind-knn": lambda ws, doc, tmp: extract_with_model(ws, tmp, {**doc, "kind": "knn"}),
    "model-unknown-hyperparameter": lambda ws, doc, tmp: extract_with_model(
        ws, tmp, {**doc, "hyperparams": {**doc["hyperparams"], "bogus": 1}}
    ),
    "model-format-version-9": lambda ws, doc, tmp: extract_with_model(
        ws, tmp, {**doc, "format_version": 9}
    ),
    "eval-one-fold": lambda ws, doc, tmp: eval_rf(ws, tmp, "--folds", "1"),
    "eval-detection-threshold": lambda ws, doc, tmp: eval_rf(
        ws, tmp, "--detection-threshold", "1.5"
    ),
    "train-single-class": lambda ws, doc, tmp: train_on(
        ws["corpus_dir"], written(tmp / "ann.jsonl", b""), tmp
    ),
    "train-no-training-records": lambda ws, doc, tmp: train_on(
        corpus_without_candidates(tmp), written(tmp / "ann.jsonl", b""), tmp
    ),
    "train-negative-seed": lambda ws, doc, tmp: [
        *train_on(ws["corpus_dir"], str(ws["annotations"]), tmp), "--seed", "-1"
    ],
    "eval-negative-seed": lambda ws, doc, tmp: eval_rf(ws, tmp, "--seed", "-1"),
    "metadata-case-id-lone-surrogate": lambda ws, doc, tmp: [
        "extract", "--rule-based", "--out", str(tmp / "o"),
        *corpus_with_metadata(tmp, b'[{"filename": "a.txt", "case_id": "a\\ud800"}]'),
    ],
}


class TestSubcommands:
    def test_segment(self, workspace):
        out = workspace["root"] / "segment.jsonl"
        assert run(["segment", *corpus_args(workspace), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 10
        first = json.loads(lines[0])
        assert first["case_id"] == "c000"
        assert first["sentences"][0]["index"] == 0

    def test_prelabel(self, workspace):
        out = workspace["root"] / "prelabel.jsonl"
        assert run(["prelabel", *corpus_args(workspace), "--out", str(out)]) == 0
        rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        gold = workspace["corpus"].gold
        by_case = {}
        for row in rows:
            by_case.setdefault(row["case_id"], {})[row["sentence_index"]] = row[
                "auto_negative"
            ]
        for case_id, info in gold.items():
            assert by_case[case_id][info.sentence_index] is False

    def test_detect_matches_gold(self, workspace):
        out = workspace["root"] / "detect.jsonl"
        assert run(["detect", *corpus_args(workspace), "--out", str(out)]) == 0
        rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        gold = workspace["corpus"].gold
        hits = sum(
            row["sentence_index"] == gold[row["case_id"]].sentence_index for row in rows
        )
        assert hits >= 9

    def test_extract_rule_based(self, workspace):
        out = workspace["root"] / "extract.jsonl"
        hist = workspace["root"] / "hist.csv"
        code = run(
            [
                "extract",
                *corpus_args(workspace),
                "--rule-based",
                "--out",
                str(out),
                "--histogram-csv",
                str(hist),
            ]
        )
        assert code == 0
        rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 10
        gold = workspace["corpus"].gold
        assert all(r["months"] == gold[r["case_id"]].months for r in rows)
        header, *data = hist.read_text(encoding="utf-8").splitlines()
        assert header == "bucket_start,bucket_end,count"
        assert data

    def test_histogram_without_months_is_the_header(self, tmp_path):
        hist = tmp_path / "hist.csv"
        argv = ["extract", "--rule-based", "--corpus", str(corpus_without_candidates(tmp_path))]
        assert run([*argv, "--out", str(tmp_path / "o.jsonl"), "--histogram-csv", str(hist)]) == 0
        assert hist.read_bytes() == b"bucket_start,bucket_end,count\n"

    def test_train_then_extract_with_model(self, workspace):
        model_path = workspace["root"] / "model.json"
        code = run(
            [
                "train",
                *corpus_args(workspace),
                "--annotations",
                str(workspace["annotations"]),
                "--model",
                "rf",
                "--seed",
                "5",
                "--out",
                str(model_path),
            ]
        )
        assert code == 0
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        assert doc["kind"] == "tree_ensemble"
        out = workspace["root"] / "extract_rf.jsonl"
        code = run(
            [
                "extract",
                *corpus_args(workspace),
                "--model",
                str(model_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 10

    def test_eval_rule_based(self, workspace):
        out = workspace["root"] / "eval.json"
        code = run(
            [
                "eval",
                *corpus_args(workspace),
                "--annotations",
                str(workspace["annotations"]),
                "--rule-based",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["sentence_selection_f1"] >= 0.9
        assert "per_case" in report

    def test_stats(self, workspace, capsys):
        assert run(["stats", *corpus_args(workspace)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_cases"] == 10
        assert doc["num_words"] > 0


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
)
def test_output_mode_follows_the_umask(workspace, tmp_path, umask, mode):
    """A model file gets the mode ``Path.write_text`` would give it."""
    out = tmp_path / "model.json"
    annotations = ["--annotations", str(workspace["annotations"])]
    argv = ["train", *corpus_args(workspace), *annotations, "--model", "rf", "--out", str(out)]
    previous = os.umask(umask)
    try:
        assert run(argv) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == mode


class TestRecordFields:
    def test_written_records_hold_only_their_fields(self, workspace):
        # cli writes each record as vars(record), so its __dict__ must be
        # exactly its dataclass fields
        decisions = load_corpus(workspace["corpus_dir"]).decisions
        annotations = load_annotations(workspace["annotations"]).records
        lexicon = load_lexicon()
        chosen = rule_based_choices(decisions, lexicon)
        results = [extract(d, c, lexicon) for d, c in zip(decisions, chosen)]
        report = evaluate_rule_based(decisions, annotations, lexicon)
        records = [
            *results,
            *(span for r in results for span in r.candidates),
            report,
            report.detection,
            *report.per_case,
            corpus_stats(decisions),
        ]
        written = {ExtractionResult, NumberSpan, EvaluationReport, PRF, PerCaseResult, CorpusStats}
        assert {type(r) for r in records} == written
        for record in records:
            assert list(vars(record)) == [f.name for f in dataclasses.fields(record)]


class TestDeterminismAndJobs:
    def test_byte_identical_train_eval(self, workspace):
        root = workspace["root"]
        outputs = []
        for tag in ("one", "two"):
            model_path = root / f"model_{tag}.json"
            eval_path = root / f"eval_{tag}.json"
            assert (
                run(
                    [
                        "train",
                        *corpus_args(workspace),
                        "--annotations",
                        str(workspace["annotations"]),
                        "--model",
                        "svm",
                        "--seed",
                        "7",
                        "--out",
                        str(model_path),
                    ]
                )
                == 0
            )
            assert (
                run(
                    [
                        "eval",
                        *corpus_args(workspace),
                        "--annotations",
                        str(workspace["annotations"]),
                        "--model-kind",
                        "svm",
                        "--folds",
                        "5",
                        "--seed",
                        "7",
                        "--out",
                        str(eval_path),
                    ]
                )
                == 0
            )
            outputs.append((model_path.read_bytes(), eval_path.read_bytes()))
        assert outputs[0] == outputs[1]


class TestErrorHandling:
    def test_fewer_decisions_than_folds(self, workspace, capsys):
        code = run(
            [
                "eval",
                *corpus_args(workspace),
                "--annotations",
                str(workspace["annotations"]),
                "--model-kind",
                "rf",
                "--folds",
                "50",
            ]
        )
        assert code == 1
        assert "fewer decisions than folds" in capsys.readouterr().err

    @pytest.mark.parametrize("corpus", ["empty", "no-keyword"])
    def test_train_without_records_exits_one(self, workspace, capsys, tmp_path, corpus):
        meta = []
        if corpus == "no-keyword":
            written(tmp_path / "a.txt", "בית המשפט שמע את טיעוני הצדדים.".encode())
            meta = [{"filename": "a.txt", "case_id": "c0"}]
        written(tmp_path / "metadata.json", meta)
        out = tmp_path / "model.json"
        argv = ["train", "--model", "rf", "--corpus", str(tmp_path)]
        argv += ["--annotations", str(workspace["annotations"]), "--out", str(out)]
        assert run(argv) == 1
        assert "error: no training records" in capsys.readouterr().err
        assert not out.exists()

    def test_case_id_ending_in_nul_cross_validates(self, workspace, capsys, tmp_path):
        meta = json.loads((workspace["corpus_dir"] / "metadata.json").read_text(encoding="utf-8"))
        old = meta[0]["case_id"]
        meta[0]["case_id"] += "\u0000"
        lines = workspace["annotations"].read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        for r in records:
            r["case_id"] += "\u0000" * (r["case_id"] == old)
        annotations = b"".join(json.dumps(r).encode() + b"\n" for r in records)
        out = tmp_path / "report.json"
        argv = ["eval", "--model-kind", "rf", "--folds", "3", *corpus_args(workspace)]
        argv += ["--metadata", written(tmp_path / "metadata.json", meta)]
        argv += ["--annotations", written(tmp_path / "ann.jsonl", annotations), "--out", str(out)]
        assert run(argv) == 0, capsys.readouterr().err
        case_ids = [c["case_id"] for c in json.loads(out.read_text(encoding="utf-8"))["per_case"]]
        assert f"{old}\u0000" in case_ids and len(case_ids) == len(meta)

    @pytest.mark.parametrize(
        "command", [["eval", "--rule-based"], ["train", "--model", "rf"]], ids=["eval", "train"]
    )
    def test_annotation_past_the_last_sentence_dropped(
        self, workspace, capsys, tmp_path, command
    ):
        """The record is a warning naming it, and the output is the one
        written without it: it is not counted as gold or as a label."""
        annotations = workspace["annotations"].read_bytes()
        past = b'{"case_id": "c000", "sentence_index": 9999, "is_punishment": true, "months": 5}'
        extended = written(tmp_path / "extended.jsonl", annotations + past + b"\n")
        outputs = []
        for path in (workspace["annotations"], extended):
            out = tmp_path / f"out-{len(outputs)}"
            argv = [*command, *corpus_args(workspace), "--annotations", str(path)]
            assert run([*argv, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        err = capsys.readouterr().err
        assert f"warning: {extended}: rejected: case 'c000' sentence_index 9999" in err

    def test_unknown_flag_exits_one(self, workspace, capsys):
        assert run(["detect", *corpus_args(workspace), "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_corpus_exits_one(self, tmp_path, capsys):
        nowhere = tmp_path / "nowhere"
        assert run(["stats", "--corpus", str(nowhere)]) == 1
        assert f"{nowhere}: corpus path is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["extract", "eval"])
    def test_missing_corpus_writes_nothing(self, workspace, tmp_path, command):
        out = tmp_path / "out"
        args = [command, "--rule-based", "--corpus", str(tmp_path / "nowhere")]
        if command == "eval":
            args += ["--annotations", str(workspace["annotations"])]
        assert run([*args, "--out", str(out)]) == 1
        assert not out.exists()

    def test_extract_requires_exactly_one_selector(self, workspace):
        assert (
            run(
                [
                    "extract",
                    *corpus_args(workspace),
                    "--rule-based",
                    "--model",
                    "x.json",
                ]
            )
            == 1
        )

    @pytest.mark.parametrize("command", ["detect", "extract"])
    def test_jobs_is_an_unknown_argument(self, workspace, capsys, command):
        argv = [command, *corpus_args(workspace), "--jobs", "2"]
        if command == "extract":
            argv.append("--rule-based")
        assert run(argv) == 1
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["extract", "eval"])
    @pytest.mark.parametrize("bucket_months", ["0", "-3"])
    def test_bucket_months_below_one_writes_nothing(
        self, workspace, capsys, tmp_path, command, bucket_months
    ):
        out = tmp_path / "out"
        argv = [command, *corpus_args(workspace), "--rule-based", "--out", str(out)]
        if command == "eval":
            argv += ["--annotations", str(workspace["annotations"])]
        argv += ["--histogram-csv", str(tmp_path / "h.csv"), "--bucket-months", bucket_months]
        assert run(argv) == 1
        assert "--bucket-months: must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "kind, breakage, named",
        [
            ("model", lambda doc: [1, 2], "JSON object"),
            (
                "model",
                lambda doc: {k: v for k, v in doc.items() if k != "kind"},
                "missing the 'kind' field",
            ),
            # a file names its learner as train writes it; svm and rf are CLI names
            ("model", lambda doc: {**doc, "kind": "svm"}, "model file field 'kind' must be"),
            ("rf-model", lambda doc: {**doc, "kind": "rf"}, "model file field 'kind' must be"),
            ("lexicon", lambda doc: [1], "JSON object"),
            ("lexicon", lambda doc: {**doc, "strong_positive": [5]}, "tier 'strong_positive' entry 0"),
            (
                "lexicon",
                lambda doc: {**doc, "strong_positive": [doc["strong_positive"][0]["surface"]]},
                "tier 'strong_positive' entry 0 must be an object with a 'surface' string, "
                "got 'גוזר'",
            ),
            ("lexicon", lambda doc: {**doc, "strong_positive": [{"weight": 3}]}, "'surface' string"),
            ("model", lambda doc: {**doc, "state": {}}, "missing the 'weights' field"),
            ("model", lambda doc: rf_state(doc, {}), "missing the 'trees' field"),
            ("model", lambda doc: rf_trees(doc, {"feature": 0}), "'threshold'"),
            (
                "model",
                lambda doc: rf_trees(doc, {"feature": 99, **LEAVES}),
                "'feature' must be in [0, 13), got 99",
            ),
            ("model", lambda doc: rf_trees(doc, {"vote": 7}), "'vote' must be 0 or 1"),
            ("model", lambda doc: svm_offset(doc, 40), "'calibration.offset' must be 0"),
            ("model", lambda doc: {**doc, "feature_schema_version": 1}, "'feature_schema_version'"),
            ("model", lambda doc: svm_weights(doc, 12), "'weights' describes 12 features"),
            (
                "model",
                lambda doc: rf_state(doc, {"trees": [{"vote": 1}], "n_features_in": 12}),
                "'n_features_in' describes 12 features",
            ),
            (
                "model",
                lambda doc: svm_state(doc, weights=[math.nan, *doc["state"]["weights"][1:]]),
                "'weights' must be a list of finite numbers",
            ),
            ("model", lambda doc: svm_state(doc, bias=math.inf), "'bias' must be a finite number"),
            (
                "model",
                lambda doc: svm_state(doc, calibration={"scale": math.nan, "offset": 0.0}),
                "'calibration.scale' must be a finite number",
            ),
            (
                "model",
                lambda doc: rf_trees(doc, {"feature": 0, **LEAVES, "threshold": math.nan}),
                "'threshold' must be a finite number",
            ),
            ("rf-model", lambda doc: hyperparams_with(doc, n_trees="abc"), "'hyperparams.n_trees'"),
            ("rf-model", lambda doc: hyperparams_with(doc, max_depth=-3), "'hyperparams.max_depth'"),
            ("rf-model", lambda doc: hyperparams_with(doc, min_leaf=[1]), "'hyperparams.min_leaf'"),
            (
                "rf-model",
                lambda doc: hyperparams_with(doc, max_features=None),
                "'hyperparams.max_features'",
            ),
            ("rf-model", lambda doc: hyperparams_with(doc, seed="x"), "'hyperparams.seed'"),
            ("rf-model", lambda doc: {**doc, "hyperparams": {}}, "'hyperparams.n_trees'"),
            (
                "rf-model",
                lambda doc: {**doc, "rng_seed": doc["rng_seed"] + 1},
                "'hyperparams.seed' must equal 'rng_seed' (1), got 0",
            ),
            ("model", lambda doc: hyperparams_with(doc, epochs="abc"), "'hyperparams.epochs'"),
            ("model", lambda doc: hyperparams_with(doc, l2=-1), "'hyperparams.l2'"),
            (
                "model",
                lambda doc: hyperparams_with(doc, class_weight=5),
                "'hyperparams.class_weight'",
            ),
            (
                "model",
                lambda doc: hyperparams_with(doc, learning_rate=None),
                "'hyperparams.learning_rate'",
            ),
            ("model", lambda doc: {**doc, "hyperparams": {}}, "'hyperparams.learning_rate'"),
            (
                "model",
                lambda doc: hyperparams_with(doc, seed=7),
                "'hyperparams.seed' must equal 'rng_seed' (0), got 7",
            ),
        ],
        ids=[
            "model-not-object",
            "model-without-kind",
            "svm-kind-alias",
            "rf-kind-alias",
            "lexicon-not-object",
            "tier-entry-int",
            "tier-entry-bare-string",
            "tier-entry-without-surface",
            "svm-state-empty",
            "rf-state-empty",
            "rf-node-without-threshold",
            "rf-feature-out-of-range",
            "rf-vote-seven",
            "svm-calibration-offset",
            "feature-schema-one",
            "svm-twelve-weights",
            "rf-twelve-features",
            "svm-weight-nan",
            "svm-bias-infinity",
            "svm-calibration-scale-nan",
            "rf-threshold-nan",
            "rf-n-trees-string",
            "rf-max-depth-negative",
            "rf-min-leaf-list",
            "rf-max-features-null",
            "rf-seed-string",
            "rf-hyperparams-empty",
            "rf-seed-other-than-rng-seed",
            "svm-epochs-string",
            "svm-l2-negative",
            "svm-class-weight-int",
            "svm-learning-rate-null",
            "svm-hyperparams-empty",
            "svm-seed-other-than-rng-seed",
        ],
    )
    def test_malformed_model_or_lexicon_exits_one(
        self, workspace, capsys, tmp_path, kind, breakage, named
    ):
        broken = tmp_path / f"broken-{kind}.json"
        if kind != "lexicon":
            source = tmp_path / "model.json"
            annotations = ["--annotations", str(workspace["annotations"])]
            learner = "rf" if kind == "rf-model" else "svm"
            train = ["train", *corpus_args(workspace), *annotations, "--model", learner]
            assert run([*train, "--out", str(source)]) == 0
            selector = ["--model", str(broken)]
        else:
            source = default_lexicon_path()
            selector = ["--rule-based", "--lexicon", str(broken)]
        doc = breakage(json.loads(source.read_text(encoding="utf-8")))
        broken.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        capsys.readouterr()
        argv = ["extract", *corpus_args(workspace), *selector, "--out", str(tmp_path / "o")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize(
        "breakage, named",
        [
            (lambda doc: {**doc, "filter_keywords": "מאסר"}, "'filter_keywords'"),
            (lambda doc: {**doc, "fine_markers": "קנס"}, "'fine_markers'"),
            (
                lambda doc: {**doc, "strong_positive": [{"surface": "גוזר", "weight": True}]},
                "'strong_positive[0].weight'",
            ),
            (lambda doc: {**doc, "tier_weights": [1]}, "'tier_weights'"),
            (lambda doc: {**doc, "structural": [1]}, "'structural'"),
            (lambda doc: {**doc, "time_units": ["a"]}, "'time_units'"),
            (lambda doc: {**doc, "unit_only": ["שנה"]}, "'unit_only'"),
            (lambda doc: {**doc, "dual_units": "x"}, "'dual_units'"),
            (lambda doc: {**doc, "probation_markers": 5}, "'probation_markers'"),
            (lambda doc: numerals_with(doc, zero=5), "'numerals.zero'"),
            (lambda doc: numerals_with(doc, zero=[]), "'numerals.zero'"),
            (
                lambda doc: numerals_with(doc, tens={**doc["numerals"]["tens"], "20": []}),
                "'numerals.tens.20'",
            ),
            (lambda doc: numerals_with(doc, hundreds={"300": ["x "]}), "numerals.hundreds"),
            (
                lambda doc: {**doc, "tier_weights": {"strong_positive": "x"}},
                "'tier_weights.strong_positive'",
            ),
            (lambda doc: {**doc, "threshold": float("nan")}, "'threshold'"),
            (
                lambda doc: {**doc, "structural": {"fine_marker_penalty": float("-inf")}},
                "'structural.fine_marker_penalty'",
            ),
            (
                lambda doc: {**doc, "tier_weights": {"strong_positive": float("inf")}},
                "'tier_weights.strong_positive'",
            ),
            (lambda doc: {**doc, "filter_keywords": ["מאסר", ""]}, "'filter_keywords'"),
            (lambda doc: {**doc, "filter_keywords": [" "]}, "'filter_keywords'"),
            (
                lambda doc: {**doc, "tier_weights": {"strong_positive": 3}},
                "'tier_weights' is missing 'moderate_positive'",
            ),
            (
                lambda doc: weights_with(doc, "tier_weights", strong_postive=9.0),
                "'strong_postive'",
            ),
            (
                lambda doc: weights_with(doc, "structural", fine_marker_penaltyy=9.0),
                "'fine_marker_penaltyy'",
            ),
            (
                lambda doc: {
                    **doc,
                    "structural": {"number_with_unit_bonus": 1.0, "fine_marker_penalty": -1.0},
                },
                "'structural' is missing 'number_without_unit_penalty'",
            ),
            (
                lambda doc: weights_with(doc, "duration", probation_penaltyy=9.0),
                "'probation_penaltyy'",
            ),
            (lambda doc: tens_key_renamed(doc, "2_0"), "numerals.tens key '2_0'"),
            (lambda doc: tens_key_renamed(doc, " 20"), "numerals.tens key ' 20'"),
            (lambda doc: tens_key_renamed(doc, "+20"), "numerals.tens key '+20'"),
            (lambda doc: tens_key_renamed(doc, "٢٠"), "numerals.tens key '٢٠'"),
            (lambda doc: tens_key_renamed(doc, "020"), "numerals.tens key '020'"),
            (
                lambda doc: entry_added(doc, "time_units", "month", ""),
                "'time_units.month' entry 4 is empty",
            ),
            (lambda doc: entry_added(doc, "unit_only", "year", ""), "'unit_only.year'"),
            (lambda doc: entry_added(doc, "dual_units", "day", " "), "'dual_units.day'"),
            (lambda doc: numerals_with(doc, zero=["", "אפס"]), "'numerals.zero' entry 0"),
            (
                lambda doc: numerals_with(
                    doc, tens={**doc["numerals"]["tens"], "20": ["עשרים", ""]}
                ),
                "'numerals.tens.20' entry 1 is empty",
            ),
            (lambda doc: numerals_with(doc, conjunctions=["ו", ""]), "'numerals.conjunctions'"),
            (lambda doc: numerals_with(doc, half=[""]), "'numerals.half'"),
            (
                lambda doc: {**doc, "fine_markers": [*doc["fine_markers"], " "]},
                "'fine_markers' entry 11 is empty",
            ),
            (
                lambda doc: {**doc, "strong_positive": [*doc["strong_positive"], {"surface": ""}]},
                "'strong_positive' entry 10 is empty",
            ),
        ],
        ids=[
            "filter-keywords-string",
            "fine-markers-string",
            "tier-weight-true",
            "tier-weights-list",
            "structural-list",
            "time-units-list",
            "unit-only-list",
            "dual-units-string",
            "probation-markers-int",
            "zero-int",
            "zero-empty",
            "tens-variants-empty",
            "hundreds-variant-one-word",
            "tier-weight-string",
            "threshold-nan",
            "structural-minus-inf",
            "tier-weight-inf",
            "filter-keyword-empty",
            "filter-keyword-blank",
            "tier-weight-missing",
            "tier-weight-misspelt",
            "structural-weight-misspelt",
            "structural-weight-missing",
            "duration-weight-misspelt",
            "tens-key-underscore",
            "tens-key-space",
            "tens-key-plus",
            "tens-key-arabic-indic-digits",
            "tens-key-leading-zero",
            "time-units-blank",
            "unit-only-blank",
            "dual-units-blank",
            "zero-blank",
            "tens-variant-blank",
            "conjunction-blank",
            "half-blank",
            "fine-marker-blank",
            "tier-surface-empty",
        ],
    )
    def test_mistyped_lexicon_section_exits_one(
        self, workspace, capsys, tmp_path, breakage, named
    ):
        doc = breakage(json.loads(default_lexicon_path().read_text(encoding="utf-8")))
        broken = tmp_path / "broken-lexicon.json"
        broken.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        argv = ["extract", *corpus_args(workspace), "--rule-based", "--lexicon", str(broken)]
        assert run([*argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_key_error_is_an_internal_error(self, workspace, capsys, monkeypatch):
        def broken(args):
            raise KeyError("oops")

        monkeypatch.setattr(cli, "_cmd_stats", broken)
        assert run(["stats", *corpus_args(workspace)]) == 2
        assert capsys.readouterr().err.startswith("internal error: ")

    def test_value_error_is_an_internal_error(self, workspace, capsys, monkeypatch):
        # a ValueError from our own code is a bug, not bad input
        def broken(args):
            raise ValueError("oops")

        monkeypatch.setattr(cli, "_cmd_stats", broken)
        assert run(["stats", *corpus_args(workspace)]) == 2
        assert capsys.readouterr().err.startswith("internal error: ")

    @pytest.mark.parametrize("case", list(BAD_INPUTS), ids=list(BAD_INPUTS))
    def test_bad_input_exits_one(self, workspace, svm_model_doc, capsys, tmp_path, case):
        argv = BAD_INPUTS[case](workspace, svm_model_doc, tmp_path)
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err  # a usage error prints the usage first
        assert "error: " in err and "internal error" not in err

    @pytest.mark.parametrize(
        "flag", ["--threshold", "--weight-strong-positive", "--number-with-unit-bonus"]
    )
    @pytest.mark.parametrize("command", ["prelabel", "train"])
    def test_score_flags_unrecognized_where_no_score_is_read(
        self, workspace, capsys, tmp_path, command, flag
    ):
        argv = [command, *corpus_args(workspace), "--out", str(tmp_path / "o")]
        if command == "train":
            argv += ["--annotations", str(workspace["annotations"]), "--model", "rf"]
        capsys.readouterr()
        assert run([*argv, flag, "3"]) == 1
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", RULE_SCORE_FLAGS)
    @pytest.mark.parametrize("route", ["extract --model", "eval --model-kind"])
    def test_model_route_refuses_rule_score_flags(
        self, workspace, svm_model_doc, capsys, tmp_path, route, flag
    ):
        capsys.readouterr()
        assert run([*model_route(workspace, svm_model_doc, tmp_path, route), flag, "3"]) == 1
        assert capsys.readouterr().err == (
            f"error: {route} reads no rule score, so it refuses {flag}\n"
        )
        assert not (tmp_path / "o").exists()

    def test_model_route_names_every_rule_score_flag_given(
        self, workspace, svm_model_doc, capsys, tmp_path
    ):
        argv = model_route(workspace, svm_model_doc, tmp_path, "extract --model")
        for flag in RULE_SCORE_FLAGS:
            argv += [flag, "3"]
        capsys.readouterr()
        assert run([*argv, "--duration-position-bonus", "3"]) == 1
        assert capsys.readouterr().err == (
            "error: extract --model reads no rule score, so it refuses "
            + ", ".join(RULE_SCORE_FLAGS)
            + "\n"
        )

    @pytest.mark.parametrize("route", ["extract --model", "eval --model-kind"])
    def test_model_route_takes_duration_flags(self, workspace, svm_model_doc, tmp_path, route):
        argv = model_route(workspace, svm_model_doc, tmp_path, route)
        assert run([*argv, "--duration-position-bonus", "0.75"]) == 0
        assert (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "what, content",
        [
            ("lexicon", b'{"threshold": '),
            ("lexicon", b"\xff{}"),
            ("model", b'{"kind": '),
            ("model", b"\xff{}"),
            ("metadata", b"[{"),
            ("metadata", b"\xff[]"),
            ("annotations", b"\xff\n"),
            ("model", b"[" * 100_000),
            ("model", b"[" + b"1" * 5000 + b"]"),
        ],
        ids=[
            "lexicon-not-json",
            "lexicon-not-utf8",
            "model-not-json",
            "model-not-utf8",
            "metadata-not-json",
            "metadata-not-utf8",
            "annotations-not-utf8",
            "model-nested-too-deeply",
            "model-integer-too-long",
        ],
    )
    def test_undecodable_file_is_named(self, workspace, capsys, tmp_path, what, content):
        path = written(tmp_path / f"{what}.json", content)
        argv = {
            "lexicon": ["extract", "--rule-based", "--lexicon", path],
            "model": ["extract", "--model", path],
            "metadata": ["stats", "--metadata", path],
            "annotations": ["eval", "--rule-based", "--annotations", path],
        }[what]
        assert run([*argv, *corpus_args(workspace), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"{path}: not valid" in err and "error: " in err

    def test_lexicon_env_var(self, workspace, monkeypatch, tmp_path):
        monkeypatch.setenv("MAASAR_LEXICON", str(tmp_path / "missing.json"))
        code = run(["detect", *corpus_args(workspace), "--out", str(tmp_path / "o")])
        assert code == 1


# Each scoring flag, a value other than its default, and where it must land
# in the Lexicon that extract receives.
SCORING_FLAGS = [
    ("--weight-strong-positive", 3.5, lambda lex: tier_weight(lex, "strong_positive")),
    ("--weight-moderate-positive", 0.5, lambda lex: tier_weight(lex, "moderate_positive")),
    ("--weight-moderate-negative", -0.5, lambda lex: tier_weight(lex, "moderate_negative")),
    ("--weight-strong-negative", -3.5, lambda lex: tier_weight(lex, "strong_negative")),
    ("--number-with-unit-bonus", 1.25, lambda lex: lex.structural.number_with_unit_bonus),
    (
        "--number-without-unit-penalty",
        -1.25,
        lambda lex: lex.structural.number_without_unit_penalty,
    ),
    ("--fine-marker-penalty", -1.75, lambda lex: lex.structural.fine_marker_penalty),
    ("--duration-unit-proximity-weight", 2.25, lambda lex: lex.duration.unit_proximity_weight),
    ("--duration-actual-marker-weight", 2.75, lambda lex: lex.duration.actual_marker_weight),
    ("--duration-probation-penalty", 3.25, lambda lex: lex.duration.probation_penalty),
    ("--duration-fine-penalty", 3.75, lambda lex: lex.duration.fine_penalty),
    ("--duration-position-bonus", 0.75, lambda lex: lex.duration.position_bonus),
    ("--threshold", 2.5, lambda lex: lex.threshold),
]


class TestWeightOverrides:
    def test_threshold_flag_changes_selection(self, workspace, tmp_path):
        strict = tmp_path / "strict.jsonl"
        code = run(
            [
                "detect",
                *corpus_args(workspace),
                "--threshold",
                "100",
                "--out",
                str(strict),
            ]
        )
        assert code == 0
        rows = [json.loads(l) for l in strict.read_text(encoding="utf-8").splitlines()]
        assert all(r["sentence_index"] is None for r in rows)

    def test_invalid_tier_weights_rejected(self, workspace, capsys):
        code = run(
            [
                "detect",
                *corpus_args(workspace),
                "--weight-strong-positive",
                "-5",
            ]
        )
        assert code == 1
        assert "tier weights" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", SCORING_FLAGS, ids=[f[0] for f in SCORING_FLAGS])
    def test_scoring_flag_reaches_its_field(self, workspace, monkeypatch, flag, value, field):
        seen = {}

        def spy(decision, chosen, lexicon):
            seen.update(lexicon=lexicon)
            return extract(decision, chosen, lexicon)

        monkeypatch.setattr(cli, "extract", spy)
        assert run(["extract", *corpus_args(workspace), "--rule-based", flag, str(value)]) == 0
        assert field(seen["lexicon"]) == value
        assert field(load_lexicon()) != value

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", [f[0] for f in SCORING_FLAGS] + ["--detection-threshold"])
    def test_non_finite_flag_exits_one(self, workspace, capsys, tmp_path, flag, value):
        out = tmp_path / "report.json"
        annotations = ["--annotations", str(workspace["annotations"])]
        argv = ["eval", *corpus_args(workspace), *annotations, "--rule-based"]
        assert run([*argv, f"{flag}={value}", "--out", str(out)]) == 1
        assert f"argument {flag}: must be a finite number, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_tier_weight_flag_applies(self, workspace, tmp_path):
        # raising the score floor above the boosted verdict score still selects
        # when the strong-positive weight is raised to compensate
        out = tmp_path / "boosted.jsonl"
        code = run(
            [
                "detect",
                *corpus_args(workspace),
                "--threshold",
                "10",
                "--weight-strong-positive",
                "12",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert any(r["sentence_index"] is not None for r in rows)


# sha256 of each output on a seeded 200-decision corpus, recorded before the
# lexicon index, the shared sentence analysis and the run-based splitter
# replaced the per-entry matching loops and the per-character splitter. The
# "fine" runs reward fine markers and penalise verdict structure, so wrong
# selections, error categories and marker-adjacent spans show up in them.
_LOOSE_RULE = ["--fine-marker-penalty", "5", "--number-with-unit-bonus", "-2", "--threshold", "0"]
GOLDEN_RUNS = {
    "detect.jsonl": (["detect", "{corpus}"], "2cedd0d5b623fef95a4e4768d854ac186aaa5fcd260ac0eb6613e9071f94546b"),
    "extract-rule.jsonl": (["extract", "{corpus}", "--rule-based", "{histogram}"], "2468c4037252bdc033cfd8250e514fd0473d3f3e7de461b6edd65339c01adc25"),
    # the model files recorded at feature schema 2, whose rows read the
    # actual-imprisonment markers, cap the token count at 64 instead of
    # dividing it by the corpus's longest sentence, and drop the end distance
    "rf-model.json": (["train", "{corpus}", "{annotations}", "--model", "rf", "--seed", "3"], "a025979a66ffb6e10ffda25f26d39832b5ac93b9f656dd72bbf161c45089a83b"),
    "extract-rf.jsonl": (["extract", "{corpus}", "--model", "{model}"], "2468c4037252bdc033cfd8250e514fd0473d3f3e7de461b6edd65339c01adc25"),
    "svm-model.json": (["train", "{corpus}", "{annotations}", "--model", "svm", "--seed", "3"], "3f16525d76ba1bc26c43b5bac35b88de0757c4c99d33ac28f90fd8f22952901d"),
    "extract-svm.jsonl": (["extract", "{corpus}", "--model", "{svm_model}"], "2468c4037252bdc033cfd8250e514fd0473d3f3e7de461b6edd65339c01adc25"),
    "eval-svm.json": (["eval", "{corpus}", "{annotations}", "--model-kind", "svm", "--folds", "5", "--seed", "3"], "41b95e469974aa6382138a2ba9dca222e8949472dd3786faa5e74758876e9487"),
    "eval-rf.json": (["eval", "{corpus}", "{annotations}", "--model-kind", "rf", "--folds", "5", "--seed", "3"], "41b95e469974aa6382138a2ba9dca222e8949472dd3786faa5e74758876e9487"),
    "eval-rule-loose.json": (["eval", "{corpus}", "{annotations}", "--rule-based", "--threshold", "0", "--fine-marker-penalty", "0", "--weight-strong-positive", "1.5"], "60f3c4c54591e3fd2af45b4b2ad874fca24437a555b7299f0b6932e7d14fbba6"),
    "detect-fine.jsonl": (["detect", "{corpus}", *_LOOSE_RULE], "7069940feb2299825450bbffc7bfad65e20d49fe3a111b20d423aede9117ceb4"),
    "extract-fine.jsonl": (["extract", "{corpus}", "--rule-based", *_LOOSE_RULE, "--duration-fine-penalty", "-3", "--duration-probation-penalty", "-2", "--duration-actual-marker-weight", "-1"], "67057bbfcf61c0eef7b19761d87793fd4a8c129a1e1acb3f963ecf34b068bbb1"),
    "eval-fine.json": (["eval", "{corpus}", "{annotations}", "--rule-based", *_LOOSE_RULE, "--duration-fine-penalty", "-3"], "33e1b187934e4647cbf958d84a635c157794a068e2a4689dd7b52be0df530582"),
    # recorded before every record was serialized from its own fields
    "segment.jsonl": (["segment", "{corpus}"], "ca118766ffc7750bfe4d0d085ea8f6b2c32c84dade51b4b58be3f3b49e57a3af"),
    "prelabel.jsonl": (["prelabel", "{corpus}"], "ad305d49b1240f148411e006427d3df1a0703d499fdae94493157557d5e18db6"),
    "stats.json": (["stats", "{corpus}"], "726e3995eb3a2f9b484b7701182e465feb1578cc2d910e3b4a8df1bdfac12a53"),
}  # fmt: skip
# Files written beside --out, by the flag that names them in a run above;
# recorded with the segment, prelabel and stats outputs.
GOLDEN_SIDE_FILES = {
    "histogram.csv": "99e52b72b3de059ff8b2272c701b1b4fce7bc6ba6a20585e4c1f03e56abc7035",
}
# The files write_corpus writes for that corpus, which every run above reads;
# "corpus" hashes each decision file's name and bytes, in name order. Recorded
# while decisions still kept their raw text, which write_corpus then wrote.
GOLDEN_INPUTS = {
    "corpus": "27f8f2f07b24ac6edb27204d325fa98701499b0fd0c452b5e60e4e9650cf9e83",
    "metadata.json": "3197088ea406a26c60c413e3d2c16d5db1a28a3db6769ff564d2588ad7e88346",
    "annotations.jsonl": "a4e4404b50c958480332c3c5228f83afd0d23dc03114e62115a5528529386ab4",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenOutputs:
    @pytest.fixture(scope="class")
    def golden(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden")
        corpus = generate_corpus(load_lexicon().numerals, num_decisions=200, seed=5)
        paths = write_corpus(corpus, root)
        digests = {
            "metadata.json": sha256(paths["metadata"]),
            "annotations.jsonl": sha256(paths["annotations"]),
        }
        decision_files = hashlib.sha256()
        for path in sorted(paths["corpus_dir"].glob("*.txt")):
            decision_files.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        digests["corpus"] = decision_files.hexdigest()
        fields = {
            "{corpus}": ["--corpus", str(paths["corpus_dir"])],
            "{annotations}": ["--annotations", str(paths["annotations"])],
            "{model}": [str(root / "rf-model.json")],
            "{svm_model}": [str(root / "svm-model.json")],
            "{histogram}": ["--histogram-csv", str(root / "histogram.csv")],
        }
        for name, (template, _) in GOLDEN_RUNS.items():  # in order: train before extract
            argv = [arg for item in template for arg in fields.get(item, [item])]
            assert run(argv + ["--out", str(root / name)]) == 0, name
        for name in [*GOLDEN_RUNS, *GOLDEN_SIDE_FILES]:
            digests[name] = sha256(root / name)
        return digests

    @pytest.mark.parametrize("name", list(GOLDEN_RUNS))
    def test_output_bytes_unchanged(self, golden, name):
        assert golden[name] == GOLDEN_RUNS[name][1]

    @pytest.mark.parametrize("name", list(GOLDEN_SIDE_FILES))
    def test_side_file_bytes_unchanged(self, golden, name):
        assert golden[name] == GOLDEN_SIDE_FILES[name]

    @pytest.mark.parametrize("name", list(GOLDEN_INPUTS))
    def test_written_corpus_bytes_unchanged(self, golden, name):
        assert golden[name] == GOLDEN_INPUTS[name]
