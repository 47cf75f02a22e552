"""Run one entcrit benchmark workload and print its metrics.

    python3 bench/run.py --workload {criteria,scale,cli} --seed N --seconds S --trace {0,1}

Run it from the root of an entcrit checkout; it imports the package from
`src`. One client runs one op at a time in a fresh worker process (plus one
CLI child at a time on the cli workload), with BLAS pinned to one thread.

--trace 0 prints the end-to-end metrics: set-up runs in SETUPS fresh
workers and reports their median; the last of them also runs the timed
phase. The final JSON line carries the metrics BENCHMARK.json bounds; the
median and tail op latency, the fail ratio and the search shortfalls are
printed above it. --trace 1 runs the timed phase once untraced and once traced and
prints the per-layer metrics, with the tracing overhead as the difference
in ops per second. Human-readable lines (host block, every op with its
checks, failures, shortfalls, the tail latency) come first; the last line
is one JSON object with the keys correct, attempted, failed and metrics.
The full result is also written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

WORKLOADS = ("criteria", "scale", "cli")
SETUPS = 3
#: Wall-clock budget for the whole run, below the 180 s a run may take.
BUDGET_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Layers whose self time is search: the optimizer calls of both criteria.
SEARCH_LAYERS = ("info.search", "bell.search", "bell.member", "werner.scan")
COUNTERS = ("info.iterations", "info.starts", "lhv.refused")


def tail(latencies) -> tuple[float, float, int] | None:
    """The highest order statistic with at least ten samples above it.

    Returns (value, percentile, sample count), the percentile being the
    share of samples at or below the value, or None below eleven samples.
    """
    n = len(latencies)
    if n < 11:
        return None
    i = n - 11
    return sorted(latencies)[i], 100.0 * (i + 1) / n, n


def ops_per_s(result: dict) -> float:
    """Ops that passed every check per second of op time."""
    ops = result["ops"]
    passed = sum(1 for op in ops if not op["failures"])
    return passed / sum(op["latency_s"] for op in ops)


def shortfall(result: dict, kind: str) -> float | None:
    """Largest reference - found over the run's searches of one kind."""
    gaps = [op["shortfall"][kind] for op in result["ops"] if kind in op["shortfall"]]
    return max(gaps) if gaps else None


def end_to_end(result: dict, setups: list[float]) -> dict:
    return {
        "ops_per_s": (ops_per_s(result), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(traced: dict, plain: dict) -> dict:
    metrics = {}
    for name in LAYERS:
        self_s, count = traced["layers"].get(name, (0.0, 0))
        metrics[f"{name}_s"] = (self_s, "s")
        metrics[f"{name}_n"] = (count, "count")
    for name in COUNTERS:
        in_ops = sum(op["counts"].get(name, 0) for op in traced["ops"])
        metrics[name] = (in_ops + traced["counts"].get(name, 0), "count")
    metrics["info.shortfall"] = (shortfall(traced, "info") or 0.0, "bit")
    metrics["bell.shortfall"] = (shortfall(traced, "bell") or 0.0, "ratio")
    op_s = sum(op["latency_s"] for op in traced["ops"])
    search_s = sum(traced["layers"].get(name, (0.0, 0))[0] for name in SEARCH_LAYERS)
    metrics["trace.search_share"] = (search_s / op_s, "ratio")
    metrics["trace.ops_per_s"] = (ops_per_s(traced), "1/s")
    metrics["trace.overhead_ops_per_s"] = (ops_per_s(plain) - ops_per_s(traced), "1/s")
    return metrics


def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_block(root: Path, result: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **result["libraries"],
        "blas_threads_env": THREAD_ENV,
        "git_commit": git_commit(root),
    }


def run_worker(args, root: Path, deadline: float, *flags: str) -> dict:
    cmd = [
        sys.executable, str(root / "bench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *flags,
    ]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
    cmd += ["--started", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {' '.join(flags)} passed the {BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def print_report(args, host: dict, result: dict, metrics: dict, setups) -> None:
    ops = result["ops"]
    failed = [op for op in ops if op["failures"]]
    print(f"entcrit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("host: " + json.dumps(host))
    print(f"{len(ops)} ops in {result['passes']} pass(es), {len(failed)} failed, "
          f"fail_ratio {len(failed) / len(ops):.4g}")
    for op in ops:
        verdict = "FAIL " + "; ".join(op["failures"]) if op["failures"] else "ok"
        print(f"  {op['latency_s']:9.4f} s  {op['label']}: {verdict}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    if setups is not None:
        print(f"{'':28s} set-up samples: {', '.join(f'{s:.4f}' for s in setups)} s")
        latencies = [op["latency_s"] for op in ops]
        print(f"{'op_p50_s':28s} {statistics.median(latencies):.6g} s")
        t = tail(latencies)
        if t is None:
            print(f"{'op_tail_s':28s} omitted: {len(ops)} samples, fewer than 11")
        else:
            print(f"{'op_tail_s':28s} {t[0]:.6g} s (p{t[1]:.1f} of {t[2]} samples, 10 beyond)")
        print(f"{'fail_ratio':28s} {len(failed) / len(ops):.6g}")
        for kind, unit in (("info", "bit"), ("bell", "ratio")):
            gap = shortfall(result, kind)
            value = "n/a: no search of this kind" if gap is None else f"{gap:.6g} {unit}"
            print(f"{kind + '_shortfall':28s} {value}")
    for op in failed:
        print(f"FAILED {op['label']}: {'; '.join(op['failures'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "entcrit" / "__init__.py").is_file():
        print("error: run from the root of an entcrit checkout; src/entcrit is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    setups = None
    try:
        if args.trace:
            plain = run_worker(args, root, deadline)
            result = run_worker(args, root, deadline, "--trace")
            metrics = per_layer(result, plain)
        else:
            setups = [
                run_worker(args, root, deadline, "--setup-only")["setup_s"]
                for _ in range(SETUPS - 1)
            ]
            result = run_worker(args, root, deadline)
            setups.append(result["setup_s"])
            metrics = end_to_end(result, setups)
    except (RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    host = host_block(root, result)
    print_report(args, host, result, metrics, setups)
    out_dir = root / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"args": vars(args), "host": host, "setups": setups, "result": result,
              "metrics": metrics}
    (out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    failed = sum(1 for op in result["ops"] if op["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result["ops"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
