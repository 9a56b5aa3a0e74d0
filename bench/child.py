"""One repetition of a benchmark job, in a fresh Python process.

Takes one JSON argument:
  src     directory holding the ``maasar`` package to import
  spawn   ``time.monotonic()`` read by the parent just before starting us
  model   model file to load during set-up, or null
  argv    ``maasar`` command line to run, or null to measure set-up only
  trace   wrap the package's public functions and record spans
  result  file this process writes its measurements to

Set-up is the time from the parent's spawn to ``maasar`` imported, the
lexicon loaded and the model (if any) loaded. The job is ``maasar.cli.run``
from argv to output file written; its CPU time and peak memory include the
process-pool workers it waited for.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import maasar
    import maasar.cli

    if not Path(maasar.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise SystemExit(f"imported maasar from {maasar.__file__}, not from {spec['src']}")
    maasar.load_lexicon()
    if spec["model"]:
        maasar.load_model(spec["model"])
    result = {"setup_s": time.monotonic() - spec["spawn"]}

    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.install()
        before_self = resource.getrusage(resource.RUSAGE_SELF)
        before_children = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        code = maasar.cli.run(spec["argv"])
        wall = time.perf_counter() - start
        after_self = resource.getrusage(resource.RUSAGE_SELF)
        after_children = resource.getrusage(resource.RUSAGE_CHILDREN)
        result.update(
            code=code,
            wall_s=wall,
            cpu_s=sum(
                getattr(after, f) - getattr(before, f)
                for after, before in (
                    (after_self, before_self),
                    (after_children, before_children),
                )
                for f in ("ru_utime", "ru_stime")
            ),
            rss_self_kb=after_self.ru_maxrss,
            rss_worker_kb=after_children.ru_maxrss,
            trace=tracer.dump() if tracer else None,
        )
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
