"""qpolar benchmark: time public calls into the package from outside it.

Usage, from the repository root:

    python3 bench/run.py --workload {verify,mcs,oracle,search}
                         [--seed N] [--seconds S] [--trace 0|1]

Prints one ``name value unit`` line per metric, then, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from a separate traced run.
Exits 2 without a result when the package source is missing, and 1
when a worker process fails.

The run is one client in a closed loop on one thread: child processes
run one after another, never side by side.  The untraced window is
shared by ``WORKERS`` fresh processes run in turn; each gives the time
it took to ``import qpolar`` (``setup_s``), one cold first op
(``first_op_s``) and then timed ops, which are pooled.
Times are normalized by the reference loop of ``reference.py``; the raw
figures are printed too, under ``raw.``.  Metric names and units come
from ``BENCHMARK.json``, and a run that does not produce exactly the
declared metrics fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from reference import normalized

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

DEFAULT_SEED = 20260826  # the repository's fixed seed
WORKERS = 7
WORKER_TIMEOUT_S = 150

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    _DECLARED = json.load(fh)
DEFAULT_SECONDS = _DECLARED["run_seconds"]
NAMES = tuple(w["name"] for w in _DECLARED["workloads"])
UNITS = {
    kind: {m["name"]: m["unit"] for m in _DECLARED[kind]} for kind in ("end_to_end", "per_layer")
}


def git_commit() -> str | None:
    """Read HEAD from .git without running git; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(),
        "seed": seed,
    }


def _child(cmd: list[str]) -> str:
    """Run a child to completion and return its last stdout line; exit 1 on failure."""
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"error: child timed out after {WORKER_TIMEOUT_S} s: {' '.join(cmd)}")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: child exited {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout.strip().splitlines()[-1]


def _worker(workload: str, seed: int, seconds: float, trace: int, *extra: str) -> dict:
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace), *extra,
    ]
    return json.loads(_child(cmd))


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    runs = []
    for k in range(WORKERS):
        # a worker's last op overruns its window; later workers absorb that
        left = seconds - sum(r["window_s"] for r in runs)
        runs.append(_worker(workload, seed, max(left, 0.0) / (WORKERS - k), 0))
    setup = [r["setup"] for r in runs]
    firsts = [r["first_op"] for r in runs]
    ops = [op for r in runs for op in r["ops"]]
    items = runs[0]["items_per_op"] * len(ops)
    median = statistics.median
    metrics = {
        "setup_s": median(normalized(t, ref) for t, ref in setup),
        "first_op_s": median(normalized(t, ref) for t, ref in firsts),
        "op_p50_s": median(normalized(t, ref) for t, ref in ops),
        "items_per_s": items / sum(normalized(t, ref) for t, ref in ops),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in runs) / 1024,
    }
    info = {
        "timed_ops": len(ops),
        "raw.setup_s": median(t for t, _ in setup),
        "raw.first_op_s": median(t for t, _ in firsts),
        "raw.op_p50_s": median(t for t, _ in ops),
        "raw.items_per_s": items / sum(t for t, _ in ops),
        "reference_s": median(ref for _, ref in ops),
    }
    if len(ops) >= 100:
        info["op_p90_s"] = statistics.quantiles([normalized(t, ref) for t, ref in ops], n=10)[-1]
    return metrics, {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "info": info,
    }


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json.gz")
    run = _worker(workload, seed, seconds, 1, "--spans", spans)
    info = {"traced_ops": run["traced_ops"], "spans": os.path.relpath(spans, ROOT)}
    return run["metrics"], {"attempted": run["attempted"], "failed": run["failed"], "info": info}


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the contract's result object plus run details."""
    env = environment(seed)
    metrics, counts = (per_layer if trace else end_to_end)(workload, seed, seconds)
    units = UNITS["per_layer" if trace else "end_to_end"]
    if set(metrics) != set(units):
        sys.exit(f"error: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "env": env,
        "info": counts["info"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qpolar benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "qpolar", "__init__.py")):
        print(f"error: no qpolar package under {SRC_DIR}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, value in result["info"].items():
        print(f"{name} {value:.6g}" if isinstance(value, float) else f"{name} {value}")
    print(f"fail_frac {result['failed'] / result['attempted']:.6g} ratio")
    print(f"run_s {time.perf_counter() - started:.3f} s")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
