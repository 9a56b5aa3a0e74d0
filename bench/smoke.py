#!/usr/bin/env python3
"""Smoke self-test of the benchmark on tiny corpora.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json once untraced and twice traced with
``--tiny`` (tens of decisions) and checks that each run exits 0 with a
correct result, that it reports exactly the metrics BENCHMARK.json names,
with their units, as finite numbers, and that every count and waste ratio
repeats exactly between the two traced runs. It also checks that the
benchmark fails, without printing a result, when the package is missing.
Exits 1 and names each failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT_UNITS = {"count", "ratio"}


def run(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--tiny"]  # fmt: skip
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(label: str, code: int, lines: list[str], expected: dict) -> list[str]:
    if code != 0 or not lines:
        return [f"{label}: exit {code}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correctness check failed")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected))}")  # fmt: skip
    for name, unit in expected.items():
        metric = metrics.get(name, {})
        if metric.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {metric.get('unit')!r}, not {unit!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r} is not a finite number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        code, lines = run(ROOT, workload, 0)
        problems += check_result(f"{workload} untraced", code, lines, end_to_end)
        traced = []
        for attempt in (1, 2):
            code, lines = run(ROOT, workload, 1)
            problems += check_result(f"{workload} traced #{attempt}", code, lines, per_layer)
            traced.append(json.loads(lines[-1])["metrics"] if code == 0 and lines else {})
        for name, unit in per_layer.items():
            values = [t.get(name, {}).get("value") for t in traced]
            if unit in EXACT_UNITS and values[0] != values[1]:
                problems.append(f"{workload}: {name} differs between traced runs: {values}")
        print(f"{workload}: checked", flush=True)

    # Without the package the benchmark must fail and print no result.
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"without src/ the benchmark exited {code} or printed a result")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
