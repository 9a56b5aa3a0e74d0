"""Command-line interface.

Subcommands: segment, prelabel, detect, train, extract, eval, stats.
Each runs in one process, as one loop over the decisions, in case-id order
(``load_corpus`` sorts them). Every JSON output goes through one writer,
which serializes a record from its own dataclass fields with sorted keys,
so ``ExtractionResult``, ``EvaluationReport``, ``CorpusStats`` and
``Sentence`` define the output shapes. All outputs are written atomically
(temp file + rename) and are byte-identical across runs given the same
inputs, flags and seed. Every scoring value is read from the lexicon;
the scoring flags (``--threshold``, the tier, structural and, for extract
and eval, ``--duration-*`` weights) are ``load_lexicon`` overrides. prelabel
and train read no score, so they take ``--lexicon`` only, and
``extract --model`` and ``eval --model-kind`` read no rule score, so they
refuse ``--threshold`` and the tier and structural flags (exit 1).
Exit codes: 0 success; 1 bad input, which is an ``InputError`` (a usage
error, a malformed file or value) or an ``OSError``; 2 anything else, which
is a bug.

The rule-based subcommands never import numpy: ``models`` and ``pipeline``
are imported only inside ``train``, ``extract --model`` and
``eval --model-kind``. ``train`` and ``eval --model-kind`` import numpy to
fit models, and ``extract --model`` only for an svm file: an rf file is
loaded and scored without it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .corpus import (
    InputError,
    annotations_in_range,
    corpus_stats,
    load_annotations,
    load_corpus,
    prelabel_negatives,
)
from .corpus import write_atomic as _write_atomic
from .detect import choose_rule_based, rule_based_choices
from .extraction import extract
from .lexicon import DURATION_NAMES, STRUCTURAL_NAMES, TIER_NAMES, Lexicon, load_lexicon
from .metrics import evaluate_rule_based, punishment_histogram

# Scoring knobs, one float flag each: ``--{prefix}{name}`` with ``_`` as ``-``.
_TIER_KNOBS = ("weight_", TIER_NAMES)
_STRUCTURAL_KNOBS = ("", STRUCTURAL_NAMES)
_DURATION_KNOBS = ("duration_", DURATION_NAMES)


def _histogram_csv(months: list, path: str, bucket_months: int) -> None:
    rows = punishment_histogram(months, bucket_months).to_csv_rows()
    _write_atomic(path, "".join(f"{row}\n" for row in ["bucket_start,bucket_end,count", *rows]))


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _int_at_least(minimum: int):
    # numpy's generators refuse a negative seed, and a bucket must be a month
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _finite_float(text: str) -> float:
    value = float(text)
    # argparse's float takes "nan" and "inf"; no score or weight may be either
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _emit(path: str | None, text: str) -> None:
    if path:
        _write_atomic(path, text)
    else:
        sys.stdout.write(text)


def _json(record, indent: int | None = None) -> str:
    # One writer for every output. A dataclass record is written as
    # vars(record), its own __dict__, so nested records (the spans of a
    # result, the cases of a report) are never copied. That __dict__ holds
    # exactly the dataclass fields as long as the class sets no attribute
    # beside them; tests/test_cli.py checks this for every written class.
    # TimeUnit and ErrorCategory are str enums and encode as their value.
    return json.dumps(record, default=vars, ensure_ascii=False, sort_keys=True, indent=indent)


def _jsonl(records) -> str:
    return "".join(_json(r) + "\n" for r in records)


def _warn(errors) -> None:
    for error in errors:
        print(f"warning: {error.source}: {error.message}", file=sys.stderr)


def _load_corpus_or_fail(args) -> list:
    result = load_corpus(args.corpus, getattr(args, "metadata", None))
    _warn(result.errors)
    if not result.decisions and result.errors:
        raise InputError("no decisions could be loaded")
    return result.decisions


def _add_knob_args(parser: argparse.ArgumentParser, knobs) -> None:
    prefix, names = knobs
    for name in names:
        parser.add_argument(
            "--" + (prefix + name).replace("_", "-"), type=_finite_float, default=None
        )


def _knob_overrides(args, knobs) -> dict[str, float]:
    # a subcommand without a knob's flag (detect has no --duration-*) reads None
    prefix, names = knobs
    return {n: v for n in names if (v := getattr(args, prefix + n, None)) is not None}


def _load_lexicon_with_overrides(args) -> Lexicon:
    return load_lexicon(
        args.lexicon,
        threshold=args.threshold,
        tier_weights=_knob_overrides(args, _TIER_KNOBS) or None,
        structural=_knob_overrides(args, _STRUCTURAL_KNOBS) or None,
        duration=_knob_overrides(args, _DURATION_KNOBS) or None,
    )


def _refuse_rule_score_flags(args, route: str) -> None:
    dests = ["threshold", *(p + n for p, names in (_TIER_KNOBS, _STRUCTURAL_KNOBS) for n in names)]
    given = ["--" + dest.replace("_", "-") for dest in dests if getattr(args, dest) is not None]
    if given:
        raise InputError(f"{route} reads no rule score, so it refuses {', '.join(given)}")


def _annotations_or_fail(args, decisions) -> list:
    loaded = load_annotations(args.annotations)
    checked = annotations_in_range(loaded.records, decisions, str(args.annotations))
    _warn(loaded.errors + checked.errors)
    return checked.records


def _detect_one(lexicon: Lexicon, decision):
    best = choose_rule_based(decision, lexicon)
    return {
        "case_id": decision.case_id,
        "sentence_index": best.sentence_index if best else None,
        "score": best.score if best else None,
        "text": best.analysis.sentence.text if best else None,
    }


def _cmd_segment(args) -> int:
    decisions = _load_corpus_or_fail(args)
    records = [
        {"case_id": d.case_id, "sentences": [s._asdict() for s in d.sentences]}
        for d in decisions
    ]
    _emit(args.out, _jsonl(records))
    return 0


def _cmd_prelabel(args) -> int:
    decisions = _load_corpus_or_fail(args)
    lexicon = load_lexicon(args.lexicon)
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
    _emit(args.out, _jsonl(_detect_one(lexicon, d) for d in decisions))
    return 0


def _cmd_train(args) -> int:
    decisions = _load_corpus_or_fail(args)
    lexicon = load_lexicon(args.lexicon)
    annotations = _annotations_or_fail(args, decisions)
    from .models import save_model
    from .pipeline import train_on_decisions

    model = train_on_decisions(decisions, annotations, lexicon, args.model, seed=args.seed)
    save_model(model, args.out)
    return 0


def _cmd_extract(args) -> int:
    if args.model:
        _refuse_rule_score_flags(args, "extract --model")
    decisions = _load_corpus_or_fail(args)
    lexicon = _load_lexicon_with_overrides(args)
    if args.model:
        from .models import load_model
        from .pipeline import choose_sentences

        chosen = choose_sentences(decisions, lexicon, load_model(args.model))
    else:
        chosen = rule_based_choices(decisions, lexicon)
    results = [extract(d, c, lexicon) for d, c in zip(decisions, chosen)]
    _emit(args.out, _jsonl(results))
    if args.histogram_csv:
        _histogram_csv([r.months for r in results], args.histogram_csv, args.bucket_months)
    return 0


def _cmd_eval(args) -> int:
    if not args.rule_based:
        _refuse_rule_score_flags(args, "eval --model-kind")
    decisions = _load_corpus_or_fail(args)
    lexicon = _load_lexicon_with_overrides(args)
    annotations = _annotations_or_fail(args, decisions)
    if args.rule_based:
        report = evaluate_rule_based(decisions, annotations, lexicon)
    else:
        from .pipeline import cross_validate

        report = cross_validate(
            decisions,
            annotations,
            lexicon,
            args.model_kind,
            num_folds=args.folds,
            seed=args.seed,
            detection_threshold=args.detection_threshold,
        )
    _emit(args.out, _json(report, indent=2) + "\n")
    if args.histogram_csv:
        _histogram_csv(
            [c.predicted_months for c in report.per_case],
            args.histogram_csv,
            args.bucket_months,
        )
    return 0


def _cmd_stats(args) -> int:
    decisions = _load_corpus_or_fail(args)
    _emit(args.out, _json(corpus_stats(decisions), indent=2) + "\n")
    return 0


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="directory of .txt decisions")
    parser.add_argument(
        "--metadata", default=None, help="metadata.json path (default: <corpus>/metadata.json)"
    )


def _add_lexicon_args(parser: argparse.ArgumentParser, scoring: bool = True) -> None:
    parser.add_argument(
        "--lexicon",
        default=None,
        help="lexicon file (default: $MAASAR_LEXICON or the bundled lexicon)",
    )
    if scoring:
        parser.add_argument(
            "--threshold", type=_finite_float, default=None, help="override the rule-score floor"
        )
        _add_knob_args(parser, _TIER_KNOBS)
        _add_knob_args(parser, _STRUCTURAL_KNOBS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maasar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="segment decisions into sentences")
    _add_corpus_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("prelabel", help="mark keyword-free sentences as auto negatives")
    _add_corpus_args(p)
    _add_lexicon_args(p, scoring=False)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_prelabel)

    p = sub.add_parser("detect", help="rule-based punishment sentence detection")
    _add_corpus_args(p)
    _add_lexicon_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("train", help="train a sentence classifier")
    _add_corpus_args(p)
    _add_lexicon_args(p, scoring=False)
    p.add_argument("--annotations", required=True)
    p.add_argument("--model", choices=["svm", "rf"], required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("extract", help="extract imprisonment months per decision")
    _add_corpus_args(p)
    _add_lexicon_args(p)
    _add_knob_args(p, _DURATION_KNOBS)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", default=None, help="trained model file")
    group.add_argument("--rule-based", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--histogram-csv", default=None)
    p.add_argument("--bucket-months", type=_int_at_least(1), default=12)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("eval", help="evaluate against annotations")
    _add_corpus_args(p)
    _add_lexicon_args(p)
    _add_knob_args(p, _DURATION_KNOBS)
    p.add_argument("--annotations", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rule-based", action="store_true")
    group.add_argument("--model-kind", choices=["svm", "rf"], default=None)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--detection-threshold", type=_finite_float, default=0.5)
    p.add_argument("--out", default=None)
    p.add_argument("--histogram-csv", default=None)
    p.add_argument("--bucket-months", type=_int_at_least(1), default=12)
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
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
