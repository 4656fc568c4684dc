"""Record a trajectory point: every workload over several seeds, plus one traced run.

Usage, from the repository root:

    python3 bench/record.py --out bench/results/BENCH_<k>.json

Every workload gets ``RUNS`` runs of ``run_seconds`` each; run ``k``
uses seed ``DEFAULT_SEED + k``, so two recordings see the same inputs.  For each end-to-end metric the file keeps every value, the
median, the quartiles and the spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles).  The traced
run uses the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import run as bench

RUNS = 10


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def record() -> dict:
    seconds = bench.DEFAULT_SECONDS
    out = {"env": bench.environment(bench.DEFAULT_SEED), "run_seconds": seconds, "workloads": {}}
    for name in bench.NAMES:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for k in range(RUNS):
            result = bench.measure(name, bench.DEFAULT_SEED + k, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} run {k}: " + ", ".join(
                f"{metric}={m['value']:.4g}" for metric, m in result["metrics"].items()),
                flush=True)
        traced = bench.measure(name, bench.DEFAULT_SEED, seconds, 1)
        out["workloads"][name] = {
            "attempted": attempted + traced["attempted"],
            "failed": failed + traced["failed"],
            "units": {metric: bench.UNITS["end_to_end"][metric] for metric in values},
            "end_to_end": {metric: summarize(v) for metric, v in values.items()},
            "per_layer": {metric: m["value"] for metric, m in traced["metrics"].items()},
            "traced_run": traced["info"] | {"env": traced["env"]},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(bench.SRC_DIR, "qpolar", "__init__.py")):
        print(f"error: no qpolar package under {bench.SRC_DIR}", file=sys.stderr)
        return 2

    result = record()
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, w in result["workloads"].items():
        print(f"{name}: attempted {w['attempted']} failed {w['failed']}")
        for metric, s in w["end_to_end"].items():
            print(f"  {metric:12} {s['median']:.5g} {w['units'][metric]:4} spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
