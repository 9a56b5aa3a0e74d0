#!/usr/bin/env python3
"""Run one workload over several seeds and summarize each metric's spread.

    python3 bench/repeat.py --workload rule-2k --seeds 1-10 [--trace 0] [--out summary.json]

Runs ``bench/run.py`` once per seed, one after another, and prints for every
metric the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, i.e. the distance between the quartiles as a share of the median.
This is how a metric's steadiness is judged against its bound in
``BENCHMARK.json``, and how a parent/change pair is compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json")
    parser.add_argument("--out", default=None, help="also write the summary as JSON")
    args = parser.parse_args()
    seconds = args.seconds or json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in parse_seeds(args.seeds):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]  # fmt: skip
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        context = json.loads(lines[-2].removeprefix("context "))
        runs.append({"seed": seed, "result": result, "context": context})
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)  # fmt: skip

    summary = {}
    for name, metric in runs[0]["result"]["metrics"].items():
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": metric["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
        print(f"{name:44s} median {median:12.6g} {metric['unit']:6s} "
              f"q1 {q1:12.6g} q3 {q3:12.6g} spread {summary[name]['spread']:7.2%}")  # fmt: skip
    if args.out:
        doc = {"workload": args.workload, "trace": args.trace, "seconds": seconds,
               "seeds": [run["seed"] for run in runs], "metrics": summary,
               "runs": runs}  # fmt: skip
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
