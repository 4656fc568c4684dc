"""The four benchmark workloads: one timed operation each, and its output gate.

A workload is built from the seed before anything is timed.  ``op(i)``
is the timed call into qpolar; ``check(i, result)`` is the gate that
runs after the clock stops and says whether that op's output is right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)

from qpolar import cli, geometry, gf2, pauli  # noqa: E402

ORACLE_QUBITS = 4
ORACLE_WORDS = ["".join(w) for w in itertools.product("IXYZ", repeat=ORACLE_QUBITS)][1:]
ORACLE_BATCH = len(ORACLE_WORDS)  # pairs per op: about 0.1 s, so a run holds well over 100 ops
ORACLE_BATCHES = 8  # distinct batches drawn per seed; ops cycle through them

SEARCH_QUBITS = 3
SEARCH_LIMIT = 1000  # above the 960 spreads that exist, so the search is exhaustive
SEARCH_SPREADS = 960

with open(os.path.join(BENCH_DIR, "goldens.json")) as fh:
    GOLDENS = json.load(fh)


@dataclass
class Workload:
    items_per_op: int
    op: Callable[[int], Any]
    check: Callable[[int, Any], bool]


def cli_digest(code: int, stdout: str) -> dict:
    return {"exit": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_workload(argv: list[str], items: int, golden: dict) -> Workload:
    return Workload(
        items_per_op=items,
        op=lambda i: _run_cli(argv),
        check=lambda i, result: cli_digest(*result) == golden,
    )


def letter_rule(p: str, q: str) -> bool:
    """Two words commute iff an even number of positions hold distinct non-I letters."""
    clashes = sum(a != "I" and b != "I" and a != b for a, b in zip(p, q))
    return clashes % 2 == 0


def oracle_batches(seed: int) -> list[list[tuple[str, str]]]:
    """Ordered pairs of non-identity N=4 words drawn from the seed.

    Each batch puts every word first once, in a seeded order, beside a
    seeded partner, so one op meets every word: the cold op fills the
    whole ``pauli_matrix`` cache and no later op adds to it.
    """
    rng = random.Random(seed)
    return [
        [(p, rng.choice(ORACLE_WORDS)) for p in rng.sample(ORACLE_WORDS, ORACLE_BATCH)]
        for _ in range(ORACLE_BATCHES)
    ]


def _oracle_workload(seed: int) -> Workload:
    batches = oracle_batches(seed)
    expected = [[(letter_rule(p, q),) * 2 for p, q in batch] for batch in batches]

    def op(i: int) -> list[tuple[bool, bool]]:
        return [
            (pauli.commutes(p, q), pauli.commutes_matrix(p, q))
            for p, q in batches[i % ORACLE_BATCHES]
        ]

    return Workload(
        items_per_op=ORACLE_BATCH,
        op=op,
        check=lambda i, result: result == expected[i % ORACLE_BATCHES],
    )


_XZ_TO_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


def _word(v) -> str:
    return "".join(
        _XZ_TO_LETTER[(v.x >> s) & 1, (v.z >> s) & 1] for s in range(v.n - 1, -1, -1)
    )


def spread_form(spread) -> tuple:
    """Canonical form from the public API only: sorted blocks of sorted words."""
    return tuple(sorted(tuple(sorted(_word(v) for v in gf2.span_points(b))) for b in spread.blocks))


def spreads_digest(forms) -> str:
    return hashlib.sha256(json.dumps(sorted(forms)).encode()).hexdigest()


def _search_workload(golden: str) -> Workload:
    desarguesian = spread_form(geometry.desarguesian_spread(SEARCH_QUBITS))

    def check(i: int, spreads) -> bool:
        forms = {spread_form(s) for s in spreads}
        return (
            len(spreads) == SEARCH_SPREADS
            and len(forms) == SEARCH_SPREADS
            and desarguesian in forms
            and spreads_digest(forms) == golden
        )

    return Workload(
        items_per_op=SEARCH_SPREADS,
        op=lambda i: geometry.enumerate_spreads(SEARCH_QUBITS, limit=SEARCH_LIMIT),
        check=check,
    )


def build(name: str, seed: int, goldens: dict = GOLDENS) -> Workload:
    """Make a workload's inputs from the seed; ``goldens`` is replaceable for tests."""
    if name == "verify":
        return _cli_workload(["verify", "4", "--format", "json"], 1, goldens["verify"])
    if name == "mcs":
        return _cli_workload(["generators", "4", "--format", "json"], 2295, goldens["mcs"])
    if name == "oracle":
        return _oracle_workload(seed)
    if name == "search":
        return _search_workload(goldens["search"])
    raise ValueError(f"unknown workload {name!r}")
