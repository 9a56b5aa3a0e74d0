"""Span recorder that wraps maasar's public functions from outside.

Nothing in the package is edited: ``install`` replaces each target function
or method with a wrapper in every loaded ``maasar`` module that refers to it
(``from .lexicon import match_tiers`` makes a second reference in
``maasar.detect``), so calls between modules are recorded too. Spans stay in
memory as ``[name, start, end, parent, case_id]`` lists and are written out
once, by ``dump``, after the traced job has finished.

A target that no longer exists is skipped, so the layer metrics of a later,
refactored package read 0 instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (span name, module, attribute path). Private cli helpers are the only
# boundaries around the process pool and the atomic file write.
TARGETS = (
    ("cli.run", "maasar.cli", "run"),
    ("cli.map_jobs", "maasar.cli", "_map_jobs"),
    ("cli.write", "maasar.cli", "_write_atomic"),
    ("corpus.load_corpus", "maasar.corpus", "load_corpus"),
    ("corpus.segment", "maasar.corpus", "segment_sentences"),
    ("lexicon.load_lexicon", "maasar.lexicon", "load_lexicon"),
    ("lexicon.match_tiers", "maasar.lexicon", "match_tiers"),
    ("lexicon.marker_positions", "maasar.lexicon", "Lexicon.marker_positions"),
    ("numbers.detect_spans", "maasar.numbers", "detect_spans"),
    ("detect.filter_candidates", "maasar.detect", "filter_candidates"),
    ("detect.rule_score", "maasar.detect", "rule_score"),
    ("detect.select", "maasar.detect", "select_sentence_rule_based"),
    ("extraction.extract", "maasar.extraction", "extract"),
    ("features.featurize", "maasar.features", "featurize"),
    ("models.fit", "maasar.models", "TreeEnsembleClassifier.fit"),
    ("models.fit", "maasar.models", "LinearMarginClassifier.fit"),
    ("models.predict_proba", "maasar.models", "TrainedModel.predict_proba"),
    ("models.load_model", "maasar.models", "load_model"),
    ("pipeline.train_on_decisions", "maasar.pipeline", "train_on_decisions"),
    ("pipeline.select_supervised", "maasar.pipeline", "select_sentence_supervised"),
    ("pipeline.assemble_report", "maasar.pipeline", "assemble_report"),
)


def _case_id(args) -> str | None:
    for arg in args:
        case_id = getattr(arg, "case_id", None)
        if isinstance(case_id, str):
            return case_id
    return None


class Tracer:
    """In-memory spans plus the counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.candidates: set[tuple[str, int]] = set()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, _case_id(args)]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "distinct_candidates": len(self.candidates),
        }


def _count_load(tracer, args, result):
    tracer.counts["corpus.decisions"] += len(result.decisions)
    tracer.counts["corpus.sentences"] += sum(len(d.sentences) for d in result.decisions)
    tracer.counts["corpus.load_errors"] += len(result.errors)


def _count_candidates(tracer, args, result):
    case_id = args[0].case_id
    tracer.counts["detect.candidates"] += len(result)
    tracer.candidates.update((case_id, s.index) for s in result)


def _count_route(tracer, args, result):
    tracer.counts[f"extraction.route_{result.method}"] += 1


def _count_rows(tracer, args, result):
    tracer.counts["models.predict_proba_rows"] += len(result)


COUNTERS = {
    "corpus.load_corpus": _count_load,
    "detect.filter_candidates": _count_candidates,
    "extraction.extract": _count_route,
    "models.predict_proba": _count_rows,
}


def install() -> Tracer:
    """Wrap every target that exists in the imported package."""
    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "maasar" and m]
    for name, module_name, path in TARGETS:
        owner = sys.modules.get(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        original = getattr(owner, attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(name, original, COUNTERS.get(name))
        if classes:
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return tracer
