"""One fresh benchmark process: set up a workload, run its timed passes, report.

    python3 bench/worker.py --workload NAME --seed N --seconds S --started T
        [--trace] [--setup-only]

run.py starts it from the checkout root with `src` on PYTHONPATH, and passes
as T its `time.monotonic()` just before it started this process (Linux's
monotonic clock is shared by all processes). Set-up runs from then to the end
of one warm-up op: interpreter start, a cold `import entcrit`, building the
seeded pool and its references, and the warm-up. The timed phase then runs
whole passes over the pool, one op at a time, until the ops have taken at
least S seconds, so every run measures the same mix. Prints one JSON document
on stdout.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from tracing import Tracer, install, self_times


def host_libraries() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        pass
    return {"numpy": np.__version__, "scipy": scipy.__version__, "numpy_blas": blas}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = Tracer()
    with tracer.span("entcrit.import"):
        import entcrit  # noqa: F401
    import workloads

    out_dir = Path("bench") / "out"
    ctx = workloads.Context(args.seed, out_dir / f"work-{args.workload}-{os.getpid()}")
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    try:
        load = workloads.WORKLOADS[args.workload](ctx)
        warm = load.warmup.execute(ctx.tracer)
        setup_s = time.monotonic() - args.started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "warmup": warm}))
            return 0

        restore = None
        if args.trace:
            ctx.tracer = tracer
            restore = install(tracer)
        records, busy, passes = [], 0.0, 0
        while busy < args.seconds:
            passes += 1
            for op in load.ops:
                ctx.tracer.op = len(records)
                records.append(op.execute(ctx.tracer))
                busy += records[-1]["latency_s"]
        if restore is not None:
            restore()
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    who = resource.RUSAGE_CHILDREN if load.rss == "children" else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "warmup": warm,
        "passes": passes,
        "ops": records,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "libraries": host_libraries(),
    }
    if args.trace:
        result["layers"] = self_times(tracer.spans)
        result["counts"] = dict(tracer.counts)
        tracer.dump(out_dir / f"trace-{args.workload}-s{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
