"""End-to-end CLI tests: output shapes, exit codes, JSON round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpolar
from qpolar import canonical_json, run_verification
from qpolar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_n2_text(capsys):
    code, out, _ = run(capsys, "verify", "2")
    assert code == 0
    assert "overall: pass" in out
    for name, value in [
        ("eq1_point_count", 15),
        ("eq2_generator_count", 15),
        ("eq4_generator_size", 3),
        ("eq3_spread_partition", 5),
        ("eq5_non_perp_census", 8),
    ]:
        line = next(l for l in out.splitlines() if name in l)
        assert f"expected {value:>8}" in line and f"actual {value:>8}" in line and "pass" in line


def test_verify_n4(capsys):
    code, out, _ = run(capsys, "verify", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    by_name = {c["name"]: c for c in doc["data"]}
    assert by_name["eq2_generator_count"]["actual"] == 2295
    assert all(c["pass"] for c in doc["data"])


def test_verify_with_oracle(capsys):
    for n, pairs in [(3, 3969), (4, 65025)]:
        code, out, _ = run(capsys, "verify", str(n), "--oracle", "--format", "json")
        assert code == 0
        by_name = {c["name"]: c for c in json.loads(out)["data"]}
        assert by_name["oracle_pairs_checked"]["actual"] == pairs
        assert by_name["oracle_mismatches"]["actual"] == 0


def test_verify_usage_errors(capsys):
    assert run(capsys, "verify", "5")[0] == 2
    assert run(capsys, "verify", "0")[0] == 2
    assert run(capsys, "verify", "5", "--oracle")[0] == 2
    code, _, err = run(capsys, "verify", "x")
    assert code == 2 and err


def test_report_overall_is_conjunction():
    report = run_verification(2)
    assert report.overall == all(c.ok for c in report.checks)
    assert report.overall


def test_generators_n1_text(capsys):
    code, out, _ = run(capsys, "generators", "1")
    assert code == 0
    assert out.splitlines() == ["X", "Y", "Z"]


def test_generators_n2_text(capsys):
    code, out, _ = run(capsys, "generators", "2")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 15
    assert all(len(line.split(",")) == 3 for line in lines)


def test_generators_n3_line_count(capsys):
    code, out, _ = run(capsys, "generators", "3")
    assert code == 0
    assert len(out.splitlines()) == 135


def test_generators_json_round_trip(capsys):
    code, out, _ = run(capsys, "generators", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2 and doc["kind"] == "generators"
    assert len(doc["data"]) == 15
    assert all(block == sorted(block) for block in doc["data"])
    assert canonical_json(doc) + "\n" == out


def test_generators_capacity(capsys):
    assert run(capsys, "generators", "5")[0] == 2


def test_spread_desarguesian_text(capsys):
    code, out, _ = run(capsys, "spread", "2")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 5
    assert all(len(line.split(",")) == 3 for line in lines)


def test_spread_n5_desarguesian(capsys):
    code, out, _ = run(capsys, "spread", "5", "--method", "desarguesian")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 33
    ops = [op for line in lines for op in line.split(",")]
    assert len(ops) == 1023 and len(set(ops)) == 1023
    assert all(len(op) == 5 for op in ops)


def test_spread_search_all_n2(capsys):
    code, out, _ = run(capsys, "spread", "2", "--method", "search", "--all")
    assert code == 0
    paragraphs = out.strip().split("\n\n")
    assert len(paragraphs) == 6
    assert all(len(p.splitlines()) == 5 for p in paragraphs)


def test_spread_search_limit(capsys):
    code, out, _ = run(capsys, "spread", "3", "--method", "search", "--limit", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 9


def test_spread_search_default_is_one_spread(capsys):
    code, out, _ = run(capsys, "spread", "2", "--method", "search")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_spread_json_round_trip(capsys):
    code, out, _ = run(capsys, "spread", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "spreads"
    assert len(doc["data"]) == 1
    assert len(doc["data"][0]) == 5
    assert canonical_json(doc) + "\n" == out


def test_spread_usage_errors(capsys):
    assert run(capsys, "spread", "2", "--all")[0] == 2  # --all needs search
    assert run(capsys, "spread", "3", "--method", "search", "--all")[0] == 2
    assert run(capsys, "spread", "2", "--method", "search", "--all", "--limit", "2")[0] == 2
    assert run(capsys, "spread", "6")[0] == 2
    assert run(capsys, "spread", "4", "--method", "search")[0] == 2


def test_graph_n1_dot(capsys):
    code, out, _ = run(capsys, "graph", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("graph ") and lines[-1] == "}"
    assert sum(1 for l in lines if l.endswith('";')) == 3
    assert not any(" -- " in l for l in lines)


def test_graph_n2_dot_degrees(capsys):
    code, out, _ = run(capsys, "graph", "2")
    assert code == 0
    edges = [l for l in out.splitlines() if " -- " in l]
    assert len(edges) == 45  # 15 vertices of degree 6
    degree = {}
    for line in edges:
        u, v = line.strip().rstrip(";").split(" -- ")
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    assert set(degree.values()) == {6}


def test_graph_n3_json_degrees(capsys):
    code, out, _ = run(capsys, "graph", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "graph"
    assert len(doc["data"]) == 63
    assert all(len(neighbors) == 30 for _, neighbors in doc["data"])
    assert canonical_json(doc) + "\n" == out


def test_graph_usage_errors(capsys):
    assert run(capsys, "graph", "4")[0] == 2
    assert run(capsys, "graph", "2", "--format", "xml")[0] == 2


def test_commute_exit_codes(capsys):
    code, out, _ = run(capsys, "commute", "XX", "ZZ")
    assert (code, out.strip()) == (0, "commute")
    code, out, _ = run(capsys, "commute", "X", "Z")
    assert (code, out.strip()) == (1, "anticommute")
    code, out, _ = run(capsys, "commute", "XI", "XI")
    assert (code, out.strip()) == (0, "commute")


def test_commute_oracle_agreement(capsys):
    code, out, _ = run(capsys, "commute", "XX", "ZZ", "--oracle")
    assert code == 0
    assert out.splitlines() == ["commute", "matrix: commute", "agreement: yes"]
    code, out, _ = run(capsys, "commute", "X", "Y", "--oracle")
    assert code == 1
    assert out.splitlines() == ["anticommute", "matrix: anticommute", "agreement: yes"]


def test_commute_usage_errors(capsys):
    code, _, err = run(capsys, "commute", "XA", "ZI")
    assert code == 2 and "'A'" in err
    assert run(capsys, "commute", "X", "XX")[0] == 2
    assert run(capsys, "commute", "II", "XX")[0] == 2
    seven = "X" * 7
    code, out, err = run(capsys, "commute", seven, seven, "--oracle")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "capped" in err
    assert run(capsys, "commute", seven, seven)[0] == 0  # symplectic route has headroom


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate", "2")[0] == 2


def test_python_dash_m_runs_the_cli():
    src = str(Path(qpolar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def qpolar_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", "qpolar", *argv], capture_output=True, text=True, env=env, timeout=60
        )

    done = qpolar_m("commute", "XX", "ZZ", "--oracle")
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "commute\nmatrix: commute\nagreement: yes\n", ""
    )
    done = qpolar_m("commute", "XA", "ZI")
    assert (done.returncode, done.stdout) == (2, "")
    assert len(done.stderr.splitlines()) == 1 and "'A'" in done.stderr


def test_cli_module_runs_without_runpy_warning_and_loads_lazily():
    src = str(Path(qpolar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def python(*argv):
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)

    done = python("-m", "qpolar.cli", "commute", "XX", "ZZ")
    assert (done.returncode, done.stdout, done.stderr) == (0, "commute\n", "")
    done = python("-c", "from qpolar import main, run_verification; print(run_verification(1).overall)")
    assert (done.returncode, done.stdout) == (0, "True\n")
    done = python("-c", "import sys, qpolar; print('qpolar.cli' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n")
