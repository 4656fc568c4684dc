"""One fresh interpreter running one workload; prints a JSON result line.

Untraced (``--trace 0``): a cold first op, then timed ops until the
window closes.  Traced (``--trace 1``): a cold traced op, then untraced
and traced ops alternately, so the overhead of tracing is measured on
the same machine state; then the leaf microtimings.  The reference loop
of ``reference.py`` is timed between ops, and each op is paired with the
mean of the loops just before and after it.  ``gc.collect()`` runs before
each op, so no op inherits another's garbage.  Every op passes through
its workload's gate after the clock stops.  The untraced run also
reports the time this interpreter took to ``import qpolar`` and the
memory high-water mark right after the cold op, before its gate runs.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
"""

# ``import qpolar`` is timed first, before anything else is imported, so
# everything the package pulls in is paid inside the timing.  ``os`` and
# ``sys`` are loaded by the interpreter's own start-up.
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
_start = perf_counter()
import qpolar  # noqa: E402,F401

IMPORT_S = perf_counter() - _start

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402
from reference import reference_s  # noqa: E402

_FAILED = object()
COLD_REF_REPEATS = 5


class Runner:
    """Runs and gates ops, counting attempts and failures."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0

    def run(self, i: int, op=None) -> float:
        """Run and gate op ``i``; return its seconds."""
        op = op or self.workload.op
        gc.collect()
        start = perf_counter()
        try:
            result = op(i)
        except Exception:  # a failing op is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            result = _FAILED
        elapsed = perf_counter() - start
        if not self.attempted:
            # every op does the same work, so the first one's high-water
            # mark is the op's peak; read before the gate allocates
            self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.attempted += 1
        if result is _FAILED or not self.workload.check(i, result):
            self.failed += 1
        return elapsed


def _bracketed(times: list[float], refs: list[float]) -> list[list[float]]:
    """Pair op k with the mean of the reference loops just before and after it."""
    return [[t, (refs[k] + refs[k + 1]) / 2] for k, t in enumerate(times)]


def timed(runner: Runner, seconds: float) -> dict:
    # one cold op per process, so its references are medians, not single loops
    before = reference_s(COLD_REF_REPEATS)
    cold = runner.run(0)
    refs = [reference_s(COLD_REF_REPEATS)]
    times = []
    start = perf_counter()
    i = 1
    while perf_counter() < start + seconds:
        times.append(runner.run(i))
        refs.append(reference_s())
        i += 1
    return {
        "setup": [IMPORT_S, before],
        "first_op": [cold, (before + refs[0]) / 2],
        "ops": _bracketed(times, refs),
        "window_s": perf_counter() - start,
    }


def traced(runner: Runner, seconds: float, seed: int, spans_path: str | None) -> dict:
    import micro
    import tracer as tracing
    from qpolar import pauli

    tracer = tracing.Tracer()
    op = tracer.wrap("op", runner.workload.op)
    cache_use = {}  # op id -> (pauli_matrix hits, misses) during that op

    def traced_op(i: int):
        # installed only around the op, so the gate's own calls leave no spans
        tracer.op_id = i
        before = pauli.pauli_matrix.cache_info()
        tracer.install()
        try:
            return op(i)
        finally:
            tracer.uninstall()
            after = pauli.pauli_matrix.cache_info()
            cache_use[i] = (after.hits - before.hits, after.misses - before.misses)

    runner.run(0, traced_op)
    times, refs, traced_ids = [], [reference_s()], []
    deadline = perf_counter() + seconds
    i = 1
    while True:
        times.append(runner.run(i))
        refs.append(reference_s())
        times.append(runner.run(i + 1, traced_op))
        refs.append(reference_s())
        traced_ids.append(i + 1)
        i += 2
        if perf_counter() >= deadline:
            break
    ratios = [t / ref for t, ref in _bracketed(times, refs)]

    spans = tracer.spans
    layers = tracing.layer_totals(spans, traced_ids)
    metrics = {f"{name}.{key}": value for name, row in layers.items() for key, value in row.items()}
    hits = sum(cache_use[i][0] for i in traced_ids)
    misses = sum(cache_use[i][1] for i in traced_ids)
    metrics["pauli.pauli_matrix.hits"] = hits / len(traced_ids)
    metrics["pauli.pauli_matrix.misses"] = misses / len(traced_ids)
    metrics["pauli.pauli_matrix.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["pauli.pauli_matrix.cold_misses"] = cache_use[0][1]
    ids = set(traced_ids)
    own = tracing.self_times(spans)
    op_total = sum(e - s for name, s, e, _, o in spans if name == "op" and o in ids)
    op_uncovered = sum(t for sp, t in zip(spans, own) if sp[0] == "op" and sp[4] in ids)
    metrics["trace.uncovered_frac"] = op_uncovered / op_total
    metrics["trace.overhead_frac"] = (
        statistics.median(ratios[1::2]) / statistics.median(ratios[0::2]) - 1
    )
    if spans_path:
        with gzip.open(spans_path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, fh)
    metrics.update(micro.leaf_timings(seed))
    return {"metrics": metrics, "traced_ops": len(traced_ids)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="gzip JSON file for the traced run's spans")
    args = parser.parse_args(argv)

    runner = Runner(workloads.build(args.workload, args.seed))
    if args.trace:
        result = traced(runner, args.seconds, args.seed, args.spans)
    else:
        result = timed(runner, args.seconds)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        items_per_op=runner.workload.items_per_op,
        peak_rss_kb=runner.peak_rss_kb,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
