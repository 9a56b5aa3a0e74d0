"""Command-line interface.

Subcommands: segment, prelabel, detect, train, extract, eval, stats.
All outputs are written atomically (temp file + rename) and are
byte-identical across runs given the same inputs, flags and seed.
Exit codes: 0 success, 1 input/usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .corpus import corpus_stats, load_annotations, load_corpus, prelabel_negatives
from .detect import choose_rule_based
from .extraction import DurationScoringConfig, extract
from .lexicon import Lexicon, load_lexicon
from .metrics import punishment_histogram
from .models import load_model, save_model
from .pipeline import (
    CrossValConfig,
    cross_validate,
    evaluate_rule_based,
    select_sentence_supervised,
    train_on_decisions,
)


class _UsageError(Exception):
    pass


_MonthsRow = namedtuple("_MonthsRow", "months")


def _histogram_csv(months: list, path: str, bucket_months: int) -> None:
    histogram = punishment_histogram([_MonthsRow(m) for m in months], bucket_months)
    _write_atomic(
        path,
        "bucket_start,bucket_end,count\n" + "\n".join(histogram.to_csv_rows()) + "\n",
    )


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _write_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str | None, text: str) -> None:
    if path:
        _write_atomic(path, text)
    else:
        sys.stdout.write(text)


def _jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in records)


def _load_corpus_or_fail(args) -> list:
    result = load_corpus(args.corpus, getattr(args, "metadata", None))
    for error in result.errors:
        print(f"warning: {error.source}: {error.message}", file=sys.stderr)
    if not result.decisions and result.errors:
        raise _UsageError("no decisions could be loaded")
    return result.decisions


def _load_lexicon_with_overrides(args) -> Lexicon:
    tier_weights = {
        name: value
        for name in ("strong_positive", "moderate_positive", "moderate_negative", "strong_negative")
        if (value := getattr(args, f"weight_{name}", None)) is not None
    }
    structural = {
        name: value
        for name in ("number_with_unit_bonus", "number_without_unit_penalty", "fine_marker_penalty")
        if (value := getattr(args, name, None)) is not None
    }
    return load_lexicon(
        getattr(args, "lexicon", None),
        threshold=getattr(args, "threshold", None),
        tier_weights=tier_weights or None,
        structural=structural or None,
    )


def _scoring_config(args) -> DurationScoringConfig:
    base = DurationScoringConfig()
    overrides = {}
    for name in (
        "unit_proximity_weight",
        "actual_marker_weight",
        "probation_penalty",
        "fine_penalty",
        "position_bonus",
    ):
        value = getattr(args, f"duration_{name}", None)
        if value is not None:
            overrides[name] = value
    return dataclasses.replace(base, **overrides) if overrides else base


def _annotations_or_fail(args) -> list:
    result = load_annotations(args.annotations)
    for error in result.errors:
        print(f"warning: {error.source}: {error.message}", file=sys.stderr)
    return result.records


def _detect_one(lexicon: Lexicon, decision):
    best = choose_rule_based(decision, lexicon)
    return {
        "case_id": decision.case_id,
        "sentence_index": best.sentence_index if best else None,
        "score": best.score if best else None,
        "text": best.analysis.sentence.text if best else None,
    }


def _extract_one(state, decision):
    model, lexicon, scoring = state
    if model is None:
        best = choose_rule_based(decision, lexicon)
        chosen = best and best.analysis
    else:
        chosen = select_sentence_supervised(model, decision, lexicon)
    return extract(decision, chosen, lexicon, scoring).to_dict()


# Pool workers receive the shared state (lexicon, model, scoring config) once,
# through the pool initializer; each task then carries only its decisions.
_MAX_CHUNK = 16
_worker_state = None


def _init_worker(state) -> None:
    global _worker_state
    _worker_state = state


def _call_with_worker_state(fn, item):
    return fn(_worker_state, item)


def _map_jobs(fn, state, items: list, jobs: int) -> list:
    """``[fn(state, item) for item in items]``, over ``jobs`` processes."""
    if jobs == 1:
        return [fn(state, item) for item in items]
    chunksize = max(1, min(_MAX_CHUNK, len(items) // (4 * jobs)))
    with ProcessPoolExecutor(jobs, initializer=_init_worker, initargs=(state,)) as pool:
        task = functools.partial(_call_with_worker_state, fn)
        return list(pool.map(task, items, chunksize=chunksize))


def _cmd_segment(args) -> int:
    decisions = _load_corpus_or_fail(args)
    records = [
        {
            "case_id": d.case_id,
            "sentences": [
                {
                    "index": s.index,
                    "text": s.text,
                    "token_count": s.token_count,
                    "relative_position": s.relative_position,
                }
                for s in d.sentences
            ],
        }
        for d in decisions
    ]
    _emit(args.out, _jsonl(records))
    return 0


def _cmd_prelabel(args) -> int:
    decisions = _load_corpus_or_fail(args)
    lexicon = _load_lexicon_with_overrides(args)
    records = []
    for decision in decisions:
        for index, auto_negative in prelabel_negatives(decision, lexicon):
            records.append(
                {
                    "case_id": decision.case_id,
                    "sentence_index": index,
                    "auto_negative": auto_negative,
                }
            )
    _emit(args.out, _jsonl(records))
    return 0


def _cmd_detect(args) -> int:
    decisions = _load_corpus_or_fail(args)
    lexicon = _load_lexicon_with_overrides(args)
    rows = _map_jobs(_detect_one, lexicon, decisions, args.jobs)
    rows.sort(key=lambda r: r["case_id"])
    _emit(args.out, _jsonl(rows))
    return 0


def _cmd_train(args) -> int:
    decisions = _load_corpus_or_fail(args)
    lexicon = _load_lexicon_with_overrides(args)
    annotations = _annotations_or_fail(args)
    model = train_on_decisions(decisions, annotations, lexicon, args.model, seed=args.seed)
    save_model(model, args.out)
    return 0


def _cmd_extract(args) -> int:
    decisions = _load_corpus_or_fail(args)
    lexicon = _load_lexicon_with_overrides(args)
    scoring = _scoring_config(args)
    model = load_model(args.model) if args.model else None
    rows = _map_jobs(_extract_one, (model, lexicon, scoring), decisions, args.jobs)
    rows.sort(key=lambda r: r["case_id"])
    _emit(args.out, _jsonl(rows))
    if args.histogram_csv:
        _histogram_csv([r["months"] for r in rows], args.histogram_csv, args.bucket_months)
    return 0


def _cmd_eval(args) -> int:
    decisions = _load_corpus_or_fail(args)
    lexicon = _load_lexicon_with_overrides(args)
    annotations = _annotations_or_fail(args)
    scoring = _scoring_config(args)
    if args.rule_based:
        report = evaluate_rule_based(decisions, annotations, lexicon, scoring)
    else:
        config = CrossValConfig(
            num_folds=args.folds,
            seed=args.seed,
            detection_threshold=args.detection_threshold,
        )
        try:
            report = cross_validate(
                decisions, annotations, lexicon, args.model_kind, config, scoring
            )
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    _emit(args.out, json.dumps(report.to_dict(), ensure_ascii=False, sort_keys=True, indent=2) + "\n")
    if args.histogram_csv:
        _histogram_csv(
            [c.predicted_months for c in report.per_case],
            args.histogram_csv,
            args.bucket_months,
        )
    return 0


def _cmd_stats(args) -> int:
    decisions = _load_corpus_or_fail(args)
    stats = corpus_stats(decisions)
    _emit(args.out, json.dumps(stats.to_dict(), ensure_ascii=False, sort_keys=True, indent=2) + "\n")
    return 0


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="directory of .txt decisions")
    parser.add_argument(
        "--metadata", default=None, help="metadata.json path (default: <corpus>/metadata.json)"
    )


def _add_lexicon_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lexicon",
        default=None,
        help="lexicon file (default: $MAASAR_LEXICON or the bundled lexicon)",
    )
    parser.add_argument(
        "--threshold", type=float, default=None, help="override the rule-score floor"
    )
    for tier in ("strong-positive", "moderate-positive", "moderate-negative", "strong-negative"):
        parser.add_argument(f"--weight-{tier}", type=float, default=None)
    parser.add_argument("--number-with-unit-bonus", type=float, default=None)
    parser.add_argument("--number-without-unit-penalty", type=float, default=None)
    parser.add_argument("--fine-marker-penalty", type=float, default=None)


def _add_duration_args(parser: argparse.ArgumentParser) -> None:
    for name in (
        "unit-proximity-weight",
        "actual-marker-weight",
        "probation-penalty",
        "fine-penalty",
        "position-bonus",
    ):
        parser.add_argument(f"--duration-{name}", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maasar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="segment decisions into sentences")
    _add_corpus_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("prelabel", help="mark keyword-free sentences as auto negatives")
    _add_corpus_args(p)
    _add_lexicon_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_prelabel)

    p = sub.add_parser("detect", help="rule-based punishment sentence detection")
    _add_corpus_args(p)
    _add_lexicon_args(p)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("train", help="train a sentence classifier")
    _add_corpus_args(p)
    _add_lexicon_args(p)
    p.add_argument("--annotations", required=True)
    p.add_argument("--model", choices=["svm", "rf"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("extract", help="extract imprisonment months per decision")
    _add_corpus_args(p)
    _add_lexicon_args(p)
    _add_duration_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", default=None, help="trained model file")
    group.add_argument("--rule-based", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--histogram-csv", default=None)
    p.add_argument("--bucket-months", type=int, default=12)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("eval", help="evaluate against annotations")
    _add_corpus_args(p)
    _add_lexicon_args(p)
    _add_duration_args(p)
    p.add_argument("--annotations", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rule-based", action="store_true")
    group.add_argument("--model-kind", choices=["svm", "rf"], default=None)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--detection-threshold", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.add_argument("--histogram-csv", default=None)
    p.add_argument("--bucket-months", type=int, default=12)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="corpus statistics")
    _add_corpus_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stats)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
