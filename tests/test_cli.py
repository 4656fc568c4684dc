"""End-to-end CLI tests: output shapes, exit codes, JSON round-trips."""

import ast
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

import qpolar
from qpolar import all_words, canonical_json, enumerate_spreads, mcs_of_generator, pauli_to_vector, rref, run_verification
from qpolar import cli
from qpolar.cli import main
from qpolar.geometry import _field_plane_rows, _generator_bases
from qpolar.gf2 import Subspace, SymplecticVector, _span_keys


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


@pytest.fixture
def non_isotropic_generator(monkeypatch):
    """verify's N=2 generator row keys, the first replaced by a rank-2 subspace's that is not isotropic."""
    gens = _generator_bases(2)
    x1_z1 = rref([pauli_to_vector("XI"), pauli_to_vector("ZI")])  # rank 2, but X1 and Z1 anticommute
    monkeypatch.setattr("qpolar.verify._generator_bases", lambda n: [x1_z1.keys, *gens[1:]])


def test_eq4_fails_on_a_generator_that_is_not_isotropic(non_isotropic_generator):
    failed = {c.name: c.actual for c in run_verification(2).checks if not c.ok}
    assert failed == {"eq4_generator_size": -1}


def test_verify_reports_a_failing_check_end_to_end(capsys, non_isotropic_generator):
    code, out, _ = run(capsys, "verify", "2")
    assert code == 1
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "  eq4_generator_size     expected        3  actual       -1  FAIL",
        "overall: FAIL",
    ]
    code, out, _ = run(capsys, "verify", "2", "--format", "json")
    assert code == 1
    checks = json.loads(out)["data"]
    assert [c for c in checks if not c["pass"]] == [
        {"name": "eq4_generator_size", "expected": 3, "actual": -1, "pass": False}
    ]
    assert [c["pass"] for c in checks] == [True, True, False, True, True]


def test_eq1_counts_the_points_on_the_enumerated_generators(monkeypatch):
    # drop the 3 N=2 generators through key 1 (IZ): it is the only point left uncovered
    gens = [keys for keys in _generator_bases(2) if 1 not in _span_keys(keys)]
    monkeypatch.setattr("qpolar.verify._generator_bases", lambda n: gens)
    failed = {c.name: c.actual for c in run_verification(2).checks if not c.ok}
    assert failed == {"eq1_point_count": 14, "eq2_generator_count": 12}


def test_generators_stay_key_tuples_inside_the_package(capsys, monkeypatch):
    # the package makes its own Subspaces through _unchecked; generators and the
    # field-plane spread blocks are key tuples inside, so verify 4 builds neither
    # a Subspace nor a vector
    built = []
    unchecked = Subspace._unchecked.__func__

    def counting(cls, n, keys):
        built.append(keys)
        return unchecked(cls, n, keys)

    vectors = []
    vector_init = SymplecticVector.__init__

    def counting_init(self, n, x, z):
        vectors.append((x, z))
        vector_init(self, n, x, z)

    monkeypatch.setattr(Subspace, "_unchecked", classmethod(counting))
    monkeypatch.setattr(SymplecticVector, "__init__", counting_init)
    assert run_verification(4).overall
    assert (built, vectors) == ([], [])
    assert run(capsys, "generators", "4", "--format", "json")[0] == 0
    assert built == []


XI_ZI = [pauli_to_vector("XI").key, pauli_to_vector("ZI").key]  # rank 2, but X1 and Z1 anticommute


@pytest.mark.parametrize(
    "broken",
    [
        lambda rows: [rows[0], rows[0], *rows[2:]],
        lambda rows: [XI_ZI, *rows[1:]],
        lambda rows: rows[:-1],
        lambda rows: [[rows[0][0]] * 2, *rows[1:]],  # rank 1: its commutant is larger than a generator
        lambda rows: [*rows, rows[0]],  # covers every point, but not disjointly
    ],
    ids=["overlap", "not_a_generator", "no_cover", "dependent_rows", "repeated_block"],
)
def test_eq3_fails_when_the_field_plane_blocks_are_not_a_spread(capsys, monkeypatch, broken):
    rows = _field_plane_rows(2)
    monkeypatch.setattr("qpolar.verify._field_plane_rows", lambda n: broken(rows))
    failed = {c.name: c.actual for c in run_verification(2).checks if not c.ok}
    assert failed == {"eq3_spread_partition": -1}
    assert run(capsys, "verify", "2")[0] == 1


def test_eq4_fails_on_a_form_that_is_not_alternating(monkeypatch):
    # the dot product x.x' + z.z' is bilinear but not alternating: an odd-weight
    # point is not perpendicular to itself, so it falls outside its generator's
    # commutant.  eq3 reads the same table, so no field-plane block is its own
    # commutant either
    def dot_product(key, n):
        return sum(1 << (k - 1) for k in range(1, 1 << 2 * n) if not (k & key).bit_count() & 1)

    monkeypatch.setattr("qpolar.gf2._perp_mask", dot_product)
    for n in (1, 2, 3):
        failed = {c.name: c.actual for c in run_verification(n).checks if not c.ok}
        assert failed == {"eq4_generator_size": -1, "eq3_spread_partition": -1}, n


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
    # k spreads of 9 blocks and k - 1 blank separators are the first 10k - 1 lines
    code, every, _ = run(capsys, "spread", "3", "--method", "search", "--all")
    assert code == 0
    for k in (1, 7):
        code, out, _ = run(capsys, "spread", "3", "--method", "search", "--limit", str(k))
        assert code == 0
        assert every.startswith(out) and out.count("\n") == 10 * k - 1


def test_spread_search_default_is_one_spread(capsys):
    code, out, _ = run(capsys, "spread", "2", "--method", "search")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spread_search_json_matches_public_api(capsys, n):
    # the CLI renders index tuples; each spread and block must be enumerate_spreads' own
    expected = [[sorted(mcs_of_generator(b)) for b in s.blocks] for s in enumerate_spreads(n)]
    code, out, _ = run(capsys, "spread", str(n), "--method", "search", "--all", "--format", "json")
    assert code == 0
    assert json.loads(out)["data"] == expected
    for k in (1, 7):
        code, out, _ = run(capsys, "spread", str(n), "--method", "search", "--limit", str(k), "--format", "json")
        assert code == 0
        assert json.loads(out)["data"] == expected[:k]


def test_spread_json_round_trip(capsys):
    code, out, _ = run(capsys, "spread", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "spreads"
    assert len(doc["data"]) == 1
    assert len(doc["data"][0]) == 5
    assert canonical_json(doc) + "\n" == out


# lists of strings take one of two paths in canonical_json: joined whole when
# no item needs escaping, item by item otherwise; a non-str item falls back
# to encoding each item on its own.  A list of non-empty string lists or
# tuples is one nested join when no string needs escaping; a str, dict or
# empty item, an item holding a non-str, or a deeper list falls back
@pytest.mark.parametrize(
    "payload",
    [
        ["IX", "XI"],
        ["", ""],
        ["IX", 'a"b'],
        ["\u00e9"],
        ["\x00"],
        ("IX", "ZZ"),
        ["IX", 1],
        [["IX"], ["a\\b", "Y"]],
        [["IX", "XI"], ["ZZ"]],
        [("IX",), ("ZZ", "XY")],
        [["IX"], []],
        [["IX"], "XI"],
        [["IX"], {"a": 1}],
        [['a"b'], ["Y"]],
        [["\u00e9"]],
        [["IX", 1]],
        [[["IX"]], [["ZZ"]]],
    ],
    ids=[
        "plain",
        "empty-strings",
        "one-escaped",
        "non-ascii",
        "control",
        "tuple",
        "str-then-int",
        "nested",
        "nested-plain",
        "nested-tuples",
        "nested-empty-item",
        "nested-str-item",
        "nested-dict-item",
        "nested-escaped",
        "nested-non-ascii",
        "nested-int",
        "three-deep",
    ],
)
def test_canonical_json_string_lists_match_json_dumps(payload):
    assert canonical_json(payload) == json.dumps(payload, sort_keys=True, indent=2)


# spread 5: N=5 words; graph 3: tuples holding a list, encoded item by item
@pytest.mark.parametrize("argv", [
    "generators 4 --format json",
    "spread 3 --method search --all --format json",
    "spread 5 --format json",
    "graph 3 --format json",
])
def test_json_output_is_json_dumps_of_its_parse(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    dumped = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    # the first differing line, as pytest's diff of a megabyte of text takes minutes
    pairs = zip_longest(dumped.splitlines(keepends=True), out.splitlines(keepends=True))
    assert next((pair for pair in pairs if pair[0] != pair[1]), None) is None


def test_spread_usage_errors(capsys):
    for argv in [
        ["spread", "2", "--all"],  # --all needs search
        ["spread", "2", "--method", "search", "--all", "--limit", "2"],
        ["spread", "6"],
        ["spread", "4", "--method", "search"],
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    # argparse keeps a bracketed group on one line however it wraps the usage
    code, out, _ = run(capsys, "spread", "--help")
    assert code == 0 and "[--all | --limit K]" in out


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


def test_graph_usage_errors(capsys):
    assert run(capsys, "graph", "4")[0] == 2
    assert run(capsys, "graph", "0")[0] == 2
    assert run(capsys, "graph", "-1")[0] == 2
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


# argparse's refusals, then qpolar's own: two caps, and the word parser on a
# bad letter, on one past the first 4-letter chunk and on the identity
@pytest.mark.parametrize(
    "argv",
    [["verify", "x"], ["frobnicate", "2"], [], ["spread", "2", "--limit", "abc"], ["verify", "2", "--format", "xml"],
     ["spread", "6"], ["commute", "XXXXXXX", "ZZZZZZZ", "--oracle"], ["commute", "X1", "XZ"],
     ["commute", "XXXXX1", "XXXXXZ"], ["commute", "IIII", "XIII"]],
)
def test_argparse_usage_error_prints_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, ""), argv  # the ids read argv0 .. argv9: a failure names the command line
    assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_help_still_exits_zero(capsys):
    for argv in (["-h"], ["verify", "-h"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: qpolar")


def readme_block(heading, language):
    """The first fenced block under README's ``## heading``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(rf"^## {heading}\n\n```{language}\n(.*?)^```", readme, re.M | re.S).group(1)


def test_readme_cli_examples_exit_0_with_empty_stderr(capsys):
    block = readme_block("CLI", "sh")
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    examples = [argv for argv in argvs if argv[:1] == ["qpolar"]]
    assert examples
    for argv in examples:
        code, _, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), shlex.join(argv)


def test_readme_library_example_does_what_its_comments_say(capsys):
    # each top-level statement runs in turn; a commented expression's value, or an
    # assignment's, must be what its comment starts with
    block = readme_block("Library", "python")
    lines = block.splitlines()
    namespace, claims = {}, []
    for node in ast.parse(block).body:
        comment = lines[node.lineno - 1].partition("#")[2].strip()
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            value = namespace[node.targets[0].id] if isinstance(node, ast.Assign) else None
        if comment:
            assert re.match(re.escape(repr(value)) + r"(?!\w)", comment), lines[node.lineno - 1]
            claims.append(repr(value))
    assert claims == ["SymplecticVector(n=2, x=2, z=3)", "True", "True", "135", "6"]
    # the loop's comment: 5 disjoint MCSs covering all 15 operators
    mcss = [ast.literal_eval(line) for line in capsys.readouterr().out.splitlines()]
    assert len(mcss) == 5
    assert sorted(word for mcs in mcss for word in mcs) == list(all_words(2))[1:]


def _env_with_src():
    src = str(Path(qpolar.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_python_dash_m_runs_the_cli():
    def qpolar_m(*argv):
        return subprocess.run(
            # -S loads no site-packages, so a third-party import in the package fails here
            [sys.executable, "-S", "-m", "qpolar", *argv],
            capture_output=True, text=True, env=_env_with_src(), timeout=60,
        )

    done = qpolar_m("commute", "XX", "ZZ", "--oracle")
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "commute\nmatrix: commute\nagreement: yes\n", ""
    )
    done = qpolar_m("commute", "XA", "ZI")
    assert (done.returncode, done.stdout) == (2, "")
    assert len(done.stderr.splitlines()) == 1 and "'A'" in done.stderr


def test_cli_module_runs_without_runpy_warning_and_loads_lazily():
    def python(*argv):
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=_env_with_src(), timeout=60)

    done = python("-m", "qpolar.cli", "commute", "XX", "ZZ")
    assert (done.returncode, done.stdout, done.stderr) == (0, "commute\n", "")
    done = python("-c", "from qpolar import main, run_verification; print(run_verification(1).overall)")
    assert (done.returncode, done.stdout) == (0, "True\n")


def test_import_loads_no_heavy_stdlib_module_and_not_the_cli():
    # -S: a plain interpreter, as a site .pth file may load some of these itself
    code = "import sys; before = set(sys.modules); import qpolar; print(*sorted(set(sys.modules) - before))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=_env_with_src(), timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    added = set(done.stdout.split())
    assert "qpolar.gf2" in added
    assert added.isdisjoint({"dataclasses", "inspect", "typing", "argparse", "json", "qpolar.cli"})


# each output is more than a pipe buffer holds, so a write after the close fails
@pytest.mark.parametrize("argv,first_line", [
    ("generators 4", b"IIIX,IIXI,IIXX,IXII,IXIX,IXXI,IXXX,XIII,XIIX,XIXI,XIXX,XXII,XXIX,XXXI,XXXX\n"),
    ("spread 3 --method search --all", b"IIZ,IXI,IXZ,XII,XIZ,XXI,XXZ\n"),
], ids=["generators", "spread-search-all"])
def test_closed_stdout_exits_141_without_a_traceback(argv, first_line):
    proc = subprocess.Popen(
        [sys.executable, "-m", "qpolar", *argv.split()],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env_with_src(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")
    assert first == first_line


NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


# a write that fails other than by a closed pipe is an error of the run, not a failed check
@pytest.mark.parametrize("command", [
    pytest.param("verify 1 > /dev/full", marks=NO_DEV_FULL),
    pytest.param("generators 4 > /dev/full", marks=NO_DEV_FULL),
    "verify 1 >&-",
    "verify x >&-",
])
def test_failed_write_exits_2_with_one_error_line(command):
    done = subprocess.run(
        ["sh", "-c", f'"$0" -m qpolar {command}', sys.executable],
        capture_output=True, text=True, env=_env_with_src(), timeout=60,
    )
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")


def test_output_bytes_do_not_depend_on_the_hash_seed():
    # no output may depend on set or dict iteration order; each run prints one
    # line per argv: the argv, its exit code and the sha256 of its output
    code = (
        "import contextlib, hashlib, io\n"
        "from qpolar.cli import main\n"
        "for argv in ('generators 3', 'generators 4', 'verify 3 --format json', 'verify 4 --format json',\n"
        "             'verify 3 --oracle --format json', 'graph 2 --format json', 'graph 3 --format json',\n"
        "             'spread 3 --method search --limit 5 --format json',\n"
        "             'spread 3 --method search --all --format json'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        code = main(argv.split())\n"
        "    print(argv, code, hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
    )
    outs = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True, text=True, env=dict(_env_with_src(), PYTHONHASHSEED=seed), timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        outs.append(done.stdout.splitlines())
    assert outs[0] == outs[1]
    assert [line.split()[-2] for line in outs[0]] == ["0"] * 9


# sha256 of stdout and the exit code of each invocation, captured at commit
# 117794f, before the generator DFS, perp_census and the span helper moved
# onto packed keys (the two graph 3 digests at 7d0947d, before the graph
# took its adjacency from perpendicular masks; the two spread 3 search
# digests at 2a1a7ee, before the spread search moved onto bitmasks; the
# text generators 1..4 and spread 3 search --limit 1000 digests at 3acef06,
# before MCS blocks were rendered through one word table per command and
# canonical_json stopped calling json.dumps with an indent; the two spread
# search --all --format json digests at be611c7, before MCS blocks were
# rendered column by column and lists of strings needing no escape were
# joined whole; the two N=6 commute --oracle digests at a03ca40, before
# matrices were stored as row bytes): a change of internal representation
# must leave every byte of output alone.
OUTPUT_GOLDENS = [
    ("verify 1", 0, "c92bc056a60c44c0de5f6abcbc2d48c5b803de6f61896d5756a444c261b6b3f6"),
    ("verify 1 --format json", 0, "0975c7c93201ef7794e206bc61a7bbe9bb044d5d7d00c10c3b95594ea5520027"),
    ("verify 2", 0, "97046770f5f65806a835891b8dfa21a93fcce2b42ae5ea3da3963dde8112bd4d"),
    ("verify 2 --format json", 0, "acd84332350ed05f7dee18d12b84f4b4047d060e1f7aa19ef7772d4cd10e0fc3"),
    ("verify 3", 0, "abc889e3c58079a7a75b1b677588e8e5f0e35c59a3ec79444d77c4fd1b6420f1"),
    ("verify 3 --format json", 0, "d5ab35be29c7d4788efa0cc0ffd1dcc4f992f73661c11b9121977830e9c48efb"),
    ("verify 4", 0, "5bc942aac078cae1638e2a15924de9e38f8049f464857387caef91d0884ca8a6"),
    ("verify 4 --format json", 0, "6e6a157c6cad0c6be79ad5af02fdaf456924e877ff50a207d2038e3148cb1883"),
    ("generators 1", 0, "a3d61916033253953c512578136d853085cb4145950e0da1155e1766568c0d52"),
    ("generators 2", 0, "f9b50c63c720f183f003af38b1e809284f85f56e9612f4c8e89320eb377412be"),
    ("generators 3", 0, "658cad3a5ace715ce5062f7c9b0834c8d0026eb33c83c9f4513d82b8520afa23"),
    ("generators 4", 0, "0539ba7fe22811df8784990e9e7580a1ac10339ff01a75b500eb03ab7d7ba9e2"),
    ("generators 1 --format json", 0, "9bf1135b23c9c6844bd3ba0e01b3fb71f4a4cd16e8dcee526209aea62dca0c01"),
    ("generators 2 --format json", 0, "8dd39dd4deaf28e2b13fa4768aedd30a2aa8928d924ea3dea022a018d1b56504"),
    ("generators 3 --format json", 0, "fb1df20205feb3355745bb9af01cba077f0795e623a881d7611a5eb62f8ee21d"),
    ("generators 4 --format json", 0, "36c4b729e7d163e588d3f8c6bb3aba003762c7231fb139250aeb237f8686c0ab"),
    ("spread 1", 0, "84fce55163a65e6dfd198d0727b52dff4df6252634c2a8dc4253a2e2db67f9a2"),
    ("spread 2", 0, "329a64fcd0bcf772eafb41bcb2f404621acc16a41292a37bb1f3c9d743a9be51"),
    ("spread 3", 0, "1ae266c618060118aed9c39ca3461048067d9c79b1130fc2a87a3ef7087b74f7"),
    ("spread 3 --format json", 0, "3d25e9ba6bb91457831a7864a3b48ac1cf418b6d8b263c79d1b93a88fe1b5d6c"),
    ("spread 4", 0, "d15b229a72e1ec7b6941593904b4671a5c2c7d6d82a338f9d8d34115c5ec7cc0"),
    ("spread 4 --format json", 0, "79257fae189ebdc9573731936c804585e5ca5fb3c2b31279c216dbc7f36e04e1"),
    ("spread 5", 0, "b15d3cc184567f4de83f8c86ce5ea87c69e78a2d4d2ba2781de591d54ce3b38f"),
    ("spread 5 --format json", 0, "e0df2f08aec5021e5df745acbd6bfb3a550ebaaf193d8d560c3b1b0f9b0398f3"),
    ("spread 2 --method search --all", 0, "ca9862fc4089f2c01c2f75a53ec31a77f3f6c467c7847c7b66c1a87674afca8a"),
    ("spread 3 --method search --limit 1", 0, "466c09c2c01a5715920712d58b82a9d88b4d5e7e75f4d024842836864ded327e"),
    ("spread 3 --method search --limit 1000", 0, "698f9cf5d42409a718f2909b97ba1ca6164e502f06130f0c5e9262012265bfd9"),
    ("spread 3 --method search --all", 0, "698f9cf5d42409a718f2909b97ba1ca6164e502f06130f0c5e9262012265bfd9"),
    (
        "spread 3 --method search --limit 1000 --format json",
        0,
        "8a7006a08071f21fcdfc49a27d679980f3c93a8e4e6fc8d71d3dc218f2e085d5",
    ),
    (
        "spread 3 --method search --all --format json",
        0,
        "8a7006a08071f21fcdfc49a27d679980f3c93a8e4e6fc8d71d3dc218f2e085d5",
    ),
    (
        "spread 2 --method search --all --format json",
        0,
        "479e8b50cf160b3fc0c8504a85b26f0f936107225c7c50ee741e070332e5901c",
    ),
    ("graph 2", 0, "e1e3c549360e9e2a336ccc2b14773d2f7880c1f754152ed8eeab523192c9914f"),
    ("graph 3", 0, "920ebc357583451518ca10f88bbbb8a9edf655eb589423b49a03e5f1c9cfa1b6"),
    ("graph 3 --format json", 0, "9987db012376504d9d31dfc1c8123a21eeda20b84903ee3d79582135cf2f72e5"),
    ("verify 2 --oracle", 0, "765cee2fad70c4e33f761dff5b53371245d902ad95b7a35cbf960a706d791e1f"),
    ("verify 3 --oracle", 0, "9413fed67b25c17e94876aba0498597e86c2cea4eb9b0f95eb8ea0279304da1c"),
    ("verify 3 --oracle --format json", 0, "4787f7d7ba8eeb340c594193db32bf4080e73dbffb0a94de62bf17a0a5fa96d4"),
    ("verify 4 --oracle", 0, "c385a6ff824d057da7dc62b6fa13fda3c41699748110fdde5beda6956f6e44cd"),
    ("verify 4 --oracle --format json", 0, "d296668d11fbbc4391fec57a852f9c669283be5d9779262f116acd3097ac5d08"),
    ("commute XYZ ZYX --oracle", 0, "f4b7e66fde887c29973697c2abd3e62f8e91f8b98f28e86e54f5a2d1b328b682"),
    ("commute XYZXYZ ZYXZYX --oracle", 0, "f4b7e66fde887c29973697c2abd3e62f8e91f8b98f28e86e54f5a2d1b328b682"),
    ("commute XYZXYZ ZYXZYZ --oracle", 1, "1edbb5c8914cf3a1629ecd10b7ec566b88b3b0a6ee1a2b841ad115a2030c98b8"),
]


@pytest.mark.parametrize("argv,code,sha256", OUTPUT_GOLDENS, ids=[a for a, _, _ in OUTPUT_GOLDENS])
def test_output_matches_golden_digest(capsys, argv, code, sha256):
    got_code, out, _ = run(capsys, *argv.split())
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, sha256)


def test_reused_parser_leaks_no_state_between_calls(capsys, monkeypatch):
    # main builds its parser once; each call in turn must print what a
    # golden pins, or what the same argv prints through a fresh parser
    goldens = {argv: (code, sha256) for argv, code, sha256 in OUTPUT_GOLDENS}
    sequence = [["verify", "3", "--oracle"], ["verify", "3"], ["verify", "2", "--format", "xml"], ["commute", "XY", "YX"]]
    monkeypatch.setattr(cli, "_parser", None)
    in_turn = [run(capsys, *sequence[0])]
    parser = cli._parser
    for argv in sequence[1:]:
        in_turn.append(run(capsys, *argv))
        assert cli._parser is parser
    for argv, (code, out, err) in zip(sequence, in_turn):
        if " ".join(argv) in goldens:
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == goldens[" ".join(argv)]
        else:
            monkeypatch.setattr(cli, "_parser", None)
            assert run(capsys, *argv) == (code, out, err)
    assert [code for code, _, _ in in_turn] == [0, 0, 2, 0]
