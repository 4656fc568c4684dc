"""Tests of the benchmark itself: gates, failure counting, seeding, tracing.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import os
import shutil
import subprocess
import sys

import pytest

import run as bench
import tracer as tracing
import worker
import workloads
from qpolar import cli, geometry, gf2, pauli


@pytest.mark.parametrize("name", bench.NAMES)
def test_smoke_op_passes_its_gate(name):
    workload = workloads.build(name, bench.DEFAULT_SEED)
    assert workload.check(0, workload.op(0))


def test_wrong_golden_makes_every_op_fail():
    goldens = dict(workloads.GOLDENS, verify={"exit": 0, "sha256": "0" * 64})
    runner = worker.Runner(workloads.build("verify", bench.DEFAULT_SEED, goldens))
    result = worker.timed(runner, seconds=0.0)
    assert result["ops"] == []
    assert runner.attempted == 1
    assert runner.failed / runner.attempted == 1


def test_oracle_pairs_follow_the_seed():
    first = workloads.oracle_batches(bench.DEFAULT_SEED)
    assert first == workloads.oracle_batches(bench.DEFAULT_SEED)
    assert first != workloads.oracle_batches(bench.DEFAULT_SEED + 1)


def test_every_oracle_batch_meets_every_word():
    for batch in workloads.oracle_batches(bench.DEFAULT_SEED):
        assert sorted(p for p, _ in batch) == sorted(workloads.ORACLE_WORDS)


def test_tracer_patches_every_binding_and_restores_them():
    originals = (cli.span_points, geometry.span_points, gf2.span_points, geometry.Spread.__init__)
    tracer = tracing.Tracer()
    tracer.op_id = 7
    tracer.install()
    try:
        assert cli.span_points is geometry.span_points is gf2.span_points
        assert gf2.span_points is not originals[2]
        geometry.desarguesian_spread(2)
    finally:
        tracer.uninstall()
    assert (cli.span_points, geometry.span_points, gf2.span_points,
            geometry.Spread.__init__) == originals
    names = [span[0] for span in tracer.spans]
    assert names[0] == "geometry.desarguesian_spread"
    assert {"gf2n.dual_basis", "gf2.rref", "geometry.Spread", "gf2.span_points"} <= set(names)
    assert all(span[4] == 7 for span in tracer.spans)
    assert all(own >= 0 for own in tracing.self_times(tracer.spans))
    totals = tracing.layer_totals(tracer.spans, [7])
    assert totals["geometry.Spread"]["calls"] == 1
    assert totals["pauli.commutes"]["calls"] == 0


def test_run_refuses_without_the_package(tmp_path):
    shutil.copytree(bench.BENCH_DIR, tmp_path / "bench")
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join(tmp_path, "bench", "run.py"), "--workload", "verify"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
