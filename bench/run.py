#!/usr/bin/env python3
"""Layered benchmark for maasar.

    python3 bench/run.py --workload rule-2k --seed 1 --seconds 20 --trace 0

Workloads (bench/workloads.json says why each was chosen and which layers
it stresses and bypasses):

  rule-2k      maasar extract --rule-based over 2000 decisions, --jobs 1
  rf-infer-2k  maasar extract --model <rf model> over 2000 decisions, with
               --jobs 2 while the extract subcommand offers --jobs; the
               model is trained during set-up on a separate 500-decision
               corpus
  cv-rf-500    maasar eval --model-kind rf --folds 5 over 500 decisions

Inputs are generated from --seed by maasar.synthetic and written under
.bench_work/ in the checkout, so the program only sees corpus directories,
annotation files and model files. Every repetition of the job runs in a
fresh Python process (bench/child.py), one after another (one client,
closed loop), until --seconds have passed; each output is checked against
the synthetic gold.

--trace 0 reports the end_to_end metrics of BENCHMARK.json. --trace 1 runs
untraced and traced repetitions in turn and reports its per_layer metrics,
the tracing overhead among them. At --jobs 2 the spans recorded in pool workers are lost, so the
worker-side layers come from an extra traced repetition at --jobs 1.

Human-readable lines and a context record (versions, sample counts, sha256 of
every input and output) come first; the last line of stdout is the JSON
result. Exit status: 0 when every check passes, 1 when a correctness check
fails, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

TIME_LIMIT_S = 170.0  # whole run, set-up included, so that it ends within 180 s
TRAIN_SEED_OFFSET = 1_000_000  # the set-up model's corpus never equals a job corpus
SETUP_PROBES = 2  # set-up-only processes before each untraced repetition, beside its own
TINY_DECISIONS = 40
TINY_TRAIN_DECISIONS = 60


@dataclass(frozen=True)
class Workload:
    command: str  # extract | eval
    decisions: int
    train_decisions: int = 0  # size of the set-up model's corpus; 0 = rule-based
    jobs: int | None = None  # --jobs for extract, when the subcommand offers it


WORKLOADS = {
    "rule-2k": Workload("extract", 2000, jobs=1),
    "rf-infer-2k": Workload("extract", 2000, train_decisions=500, jobs=2),
    "cv-rf-500": Workload("eval", 500),
}

# Layers that run in the cli parent process, so a traced repetition at the
# workload's own --jobs records them even when a pool does the rest.
PARENT_SIDE = {
    "corpus.load_corpus_s",
    "corpus.segment_s",
    "corpus.sentences",
    "corpus.load_errors",
    "lexicon.load_lexicon_s",
    "models.load_model_s",
    "cli.run_s",
    "cli.pool_wait_s",
    "cli.write_s",
}


class BenchError(Exception):
    """The benchmark itself cannot run (not a wrong program output)."""


@dataclass
class Inputs:
    corpus: Path
    annotations: Path
    model: Path | None
    gold: dict[str, tuple[int, int]]  # case_id -> (sentence index, months)
    sentences: int
    digests: dict[str, str]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_dir(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + sha256_file(path).encode() + b"\n")
    return digest.hexdigest()


def extract_offers_jobs() -> bool:
    from maasar.cli import build_parser

    args, extra = build_parser().parse_known_args(
        ["extract", "--corpus", "c", "--rule-based", "--jobs", "2"]
    )
    return not extra and getattr(args, "jobs", None) == 2


def prepare(workload: Workload, seed: int, workdir: Path, tiny: bool) -> Inputs:
    """Generate the seeded inputs and, when needed, train the set-up model."""
    from maasar import load_lexicon
    from maasar.cli import run as cli_run
    from maasar.synthetic import generate_corpus, write_corpus

    numerals = load_lexicon().numerals
    corpus = generate_corpus(
        numerals, num_decisions=TINY_DECISIONS if tiny else workload.decisions, seed=seed
    )
    files = write_corpus(corpus, workdir / "inputs")
    digests = {
        "corpus": sha256_dir(files["corpus_dir"]),
        "annotations": sha256_file(files["annotations"]),
    }
    model = None
    if workload.train_decisions:
        train = generate_corpus(
            numerals,
            num_decisions=TINY_TRAIN_DECISIONS if tiny else workload.train_decisions,
            seed=seed + TRAIN_SEED_OFFSET,
        )
        train_files = write_corpus(train, workdir / "train")
        digests["train_corpus"] = sha256_dir(train_files["corpus_dir"])
        digests["train_annotations"] = sha256_file(train_files["annotations"])
        model = workdir / "rf-model.json"
        argv = [
            "train",
            "--corpus", str(train_files["corpus_dir"]),
            "--annotations", str(train_files["annotations"]),
            "--model", "rf",
            "--seed", "0",
            "--out", str(model),
        ]  # fmt: skip
        if cli_run(argv) != 0:
            raise BenchError("maasar train failed during set-up")
    return Inputs(
        corpus=files["corpus_dir"],
        annotations=files["annotations"],
        model=model,
        gold={c: (g.sentence_index, g.months) for c, g in corpus.gold.items()},
        sentences=sum(len(d.sentences) for d in corpus.decisions),
        digests=digests,
    )


def job_argv(workload: Workload, inputs: Inputs, out: Path, jobs: int | None) -> list[str]:
    argv = [workload.command, "--corpus", str(inputs.corpus), "--out", str(out)]
    if workload.command == "eval":
        argv += ["--annotations", str(inputs.annotations), "--model-kind", "rf", "--folds", "5"]
    elif inputs.model is not None:
        argv += ["--model", str(inputs.model)]
    else:
        argv.append("--rule-based")
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    return argv


class Spawner:
    """Starts child processes one at a time and kills any that overrun."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def run(self, argv: list[str] | None, model: Path | None, trace: bool) -> dict:
        self.count += 1
        result_path = self.workdir / f"child-{self.count}.json"
        spec = {
            "src": str(SRC),
            "model": str(model) if model else None,
            "argv": argv,
            "trace": trace,
            "result": str(result_path),
        }
        spec["spawn"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,  # so a kill also reaches pool workers
        )
        try:
            _, stderr = proc.communicate(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("a repetition ran past the benchmark's time limit")
        if proc.returncode != 0:
            raise BenchError(f"benchmark child failed:\n{stderr}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        result["stderr"] = stderr
        return result


def predictions(command: str, text: str) -> dict[str, tuple]:
    """case_id -> (sentence index, months) for every well-formed output row."""
    if command == "eval":
        try:
            rows = json.loads(text)["per_case"]
        except (ValueError, KeyError, TypeError):
            return {}
        keys = ("predicted_index", "predicted_months")
    else:
        rows = []
        for line in text.splitlines():
            try:
                rows.append(json.loads(line))
            except ValueError:
                continue
        keys = ("sentence_index", "months")
    result = {}
    for row in rows if isinstance(rows, list) else []:
        if not isinstance(row, dict) or not isinstance(row.get("case_id"), str):
            continue
        values = tuple(row.get(k) for k in keys)
        if all(v is None or (isinstance(v, int) and not isinstance(v, bool)) for v in values):
            result[row["case_id"]] = values
    return result


def _f1(hits: int, predicted: int, gold: int) -> float:
    precision = hits / predicted if predicted else 0.0
    recall = hits / gold if gold else 0.0
    return 2 * precision * recall / (precision + recall) if hits else 0.0


def score(predicted: dict[str, tuple], gold: dict[str, tuple[int, int]]) -> dict:
    """Compare one output against the synthetic gold, decision by decision."""
    failed = selected = extracted = 0
    errors = []
    for case_id, (index, months) in gold.items():
        p_index, p_months = predicted.get(case_id, (None, None))
        selected += p_index == index
        extracted += p_months == months
        failed += not (p_index == index and p_months == months)
        if p_months is not None:
            errors.append(abs(p_months - months))
    n_selected = sum(v[0] is not None for v in predicted.values())
    n_extracted = sum(v[1] is not None for v in predicted.values())
    return {
        "failed": failed,
        "selection_f1": _f1(selected, n_selected, len(gold)),
        "extraction_f1": _f1(extracted, n_extracted, len(gold)),
        "avg_month_error": statistics.fmean(errors) if errors else None,
    }


class Checker:
    """Checks every repetition's output and keeps the counts and digests."""

    def __init__(self, command: str, inputs: Inputs):
        self.command = command
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.scores: list[dict] = []
        self.output_digests: set[str] = set()

    def check(self, result: dict, out: Path) -> None:
        n = len(self.inputs.gold)
        self.attempted += n
        if result["code"] != 0 or not out.is_file():
            self.failed += n
            self.errors.append(f"maasar exited {result['code']}: {result['stderr'][-500:]}")
            return
        self.output_digests.add(sha256_file(out))
        scored = score(predictions(self.command, out.read_text(encoding="utf-8")), self.inputs.gold)
        self.failed += scored["failed"]
        self.scores.append(scored)
        out.unlink()

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors and len(self.output_digests) == 1


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile; the single value when there is only one."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer times, counts and waste ratios from one traced repetition."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    select_ms = []
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - covered[i]
        calls[name] += 1
        if name == "detect.select":
            select_ms.append((end - start) * 1000.0)
    counts = trace["counts"]
    candidates = trace["distinct_candidates"]

    def per(count: float, base: float) -> float:
        return count / base if base else 0.0

    return {
        "corpus.load_corpus_s": total["corpus.load_corpus"],
        "corpus.segment_s": total["corpus.segment"],
        "corpus.sentences": counts.get("corpus.sentences", 0),
        "corpus.load_errors": counts.get("corpus.load_errors", 0),
        "lexicon.load_lexicon_s": total["lexicon.load_lexicon"],
        "lexicon.match_tiers_calls": calls["lexicon.match_tiers"],
        "lexicon.match_tiers_s": total["lexicon.match_tiers"],
        "lexicon.marker_positions_calls": calls["lexicon.marker_positions"],
        "lexicon.marker_positions_s": total["lexicon.marker_positions"],
        "lexicon.match_tiers_per_candidate": per(calls["lexicon.match_tiers"], candidates),
        "numbers.detect_spans_calls": calls["numbers.detect_spans"],
        "numbers.detect_spans_s": total["numbers.detect_spans"],
        "numbers.detect_spans_per_candidate": per(calls["numbers.detect_spans"], candidates),
        "detect.filter_candidates_s": total["detect.filter_candidates"],
        "detect.candidates_per_decision": per(
            counts.get("detect.candidates", 0), calls["detect.filter_candidates"]
        ),
        "detect.rule_score_calls": calls["detect.rule_score"],
        "detect.rule_score_self_s": own["detect.rule_score"],
        "detect.select_ms_p50": quantile(select_ms, 50),
        "detect.select_ms_p99": quantile(select_ms, 99),
        "extraction.extract_s": total["extraction.extract"],
        "extraction.route_decomposition": counts.get("extraction.route_decomposition", 0),
        "extraction.route_scored": counts.get("extraction.route_scored", 0),
        "extraction.route_none": counts.get("extraction.route_none", 0),
        "features.featurize_calls": calls["features.featurize"],
        "features.featurize_self_s": own["features.featurize"],
        "features.featurize_per_candidate": per(calls["features.featurize"], candidates),
        "models.fit_calls": calls["models.fit"],
        "models.fit_s": total["models.fit"],
        "models.predict_proba_calls": calls["models.predict_proba"],
        "models.predict_proba_rows": counts.get("models.predict_proba_rows", 0),
        "models.predict_proba_s": total["models.predict_proba"],
        "models.load_model_s": total["models.load_model"],
        "pipeline.train_on_decisions_s": total["pipeline.train_on_decisions"],
        "pipeline.select_supervised_s": total["pipeline.select_supervised"],
        "pipeline.assemble_report_s": total["pipeline.assemble_report"],
        "pipeline.predict_proba_per_test_decision": per(
            calls["models.predict_proba"], counts.get("corpus.decisions", 0)
        ),
        "cli.run_s": total["cli.run"],
        # the parent's own time in the pool boundary: at --jobs 1 the work
        # runs in child spans, at --jobs 2 the parent only waits
        "cli.pool_wait_s": own["cli.map_jobs"],
        "cli.write_s": total["cli.write"],
    }


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (SRC / "maasar").rglob("*.py")
    )


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool, workdir: Path):
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = WORKLOADS[name]
    inputs = prepare(workload, seed, workdir, tiny)
    jobs = workload.jobs if workload.command == "extract" and extract_offers_jobs() else None
    checker = Checker(workload.command, inputs)
    spawner = Spawner(workdir, deadline)
    out = workdir / ("report.json" if workload.command == "eval" else "months.jsonl")

    def repetition(jobs_used: int | None, traced: bool) -> dict:
        result = spawner.run(job_argv(workload, inputs, out, jobs_used), inputs.model, traced)
        checker.check(result, out)
        return result

    untraced: list[dict] = []
    traced_main: list[dict] = []
    traced_layers: list[dict] = []
    setup: list[float] = []
    start = time.monotonic()
    probing = 0.0  # set-up probes are spread over the run but not counted in --seconds
    while True:
        began = time.monotonic()
        if not trace:
            setup += [spawner.run(None, inputs.model, False)["setup_s"] for _ in range(SETUP_PROBES)]
            probing += time.monotonic() - began
        untraced.append(repetition(jobs, False))
        if trace:
            traced_main.append(repetition(jobs, True))
            if jobs is not None and jobs > 1:
                traced_layers.append(repetition(1, True))
        now = time.monotonic()
        if now - start - probing >= seconds or deadline - now < 1.5 * (now - began):
            break

    decisions = len(inputs.gold)
    context = {
        "workload": name,
        "seed": seed,
        "train_seed": seed + TRAIN_SEED_OFFSET if workload.train_decisions else None,
        "decisions": decisions,
        "sentences": inputs.sentences,
        "jobs": jobs,
        "trace": int(trace),
        "tiny": tiny,
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "repetitions": len(untraced),
        "attempted": checker.attempted,
        "failed_frac": checker.failed / checker.attempted,
        "avg_month_error": max(
            (s["avg_month_error"] for s in checker.scores if s["avg_month_error"] is not None),
            default=None,
        ),
        "sha256": {
            "inputs": inputs.digests,
            "outputs": {
                out.name: sorted(checker.output_digests),
                **({"rf-model.json": sha256_file(inputs.model)} if inputs.model else {}),
            },
        },
        "errors": checker.errors,
    }

    if trace:
        layer_source = traced_layers or traced_main
        main = median_of([layer_metrics(r["trace"]) for r in traced_main])
        layers = median_of([layer_metrics(r["trace"]) for r in layer_source])
        metrics = {k: (main[k] if k in PARENT_SIDE else layers[k]) for k in layers}
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
        traced_wall = statistics.median(r["wall_s"] for r in traced_main)
        metrics["trace.overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0
        context.update(
            traced_repetitions=len(traced_main),
            worker_layers_from=(
                "a traced repetition at --jobs 1 (pool worker spans are lost)"
                if traced_layers
                else "the traced repetition itself"
            ),
            untraced_wall_s=untraced_wall,
            traced_wall_s=traced_wall,
            select_samples_per_repetition=sum(
                span[0] == "detect.select" for span in layer_source[0]["trace"]["spans"]
            ),
        )
        kind = "per_layer"
    else:
        workers = jobs if jobs is not None and jobs > 1 else 0
        setup += [r["setup_s"] for r in untraced]
        metrics = {
            "setup_s": statistics.median(setup),
            "decisions_per_s": statistics.median(decisions / r["wall_s"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            # the job's process plus each pool worker at the largest worker's peak
            "peak_rss_mb": statistics.median(
                (r["rss_self_kb"] + workers * r["rss_worker_kb"]) / 1024.0 for r in untraced
            ),
            "selection_f1": min((s["selection_f1"] for s in checker.scores), default=0.0),
            "extraction_f1": min((s["extraction_f1"] for s in checker.scores), default=0.0),
        }
        context.update(
            setup_samples=len(setup),
            job_wall_s=[round(r["wall_s"], 4) for r in untraced],
        )
        kind = "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return checker, context, {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[kind]
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help=f"{TINY_DECISIONS}-decision corpora (smoke test)"
    )
    args = parser.parse_args(argv)

    if not (SRC / "maasar" / "__init__.py").is_file():
        print(f"error: no maasar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        checker, context, metrics = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, workdir
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for key, metric in metrics.items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print("context " + json.dumps(context, sort_keys=True))
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
