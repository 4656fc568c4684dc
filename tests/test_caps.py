"""The caps table: every guarded operation runs at its cap and refuses one above it."""

import pytest

from qpolar import (
    CAPS,
    MODULI,
    CapacityError,
    DimensionMismatch,
    SymplecticVector,
    commutes_matrix,
    desarguesian_spread,
    enumerate_generators,
    enumerate_spreads,
    params,
    run_verification,
)
from qpolar.cli import build_parser


def graph(n):
    args = build_parser().parse_args(["graph", str(n), "--format", "json"])
    return args.func(args)


def spread_search(n):
    args = build_parser().parse_args(["spread", str(n), "--method", "search", "--limit", "1"])
    return args.func(args)


# name: (cap, operation guarded by it, exception one above the cap)
GUARDED = {
    "qubit count": (CAPS["qubit count"], lambda n: SymplecticVector(n, 0, 1), DimensionMismatch),
    "generator enumeration": (CAPS["generator enumeration"], enumerate_generators, CapacityError),
    "spread search": (CAPS["spread search"], lambda n: enumerate_spreads(n, limit=1), CapacityError),
    "matrix oracle": (CAPS["matrix oracle"], lambda n: commutes_matrix("X" * n, "Z" * n), CapacityError),
    "graph": (CAPS["graph"], graph, CapacityError),
    # the CLI's search path, which reaches the cap through geometry._spread_covers
    "spread search (CLI)": (CAPS["spread search"], spread_search, CapacityError),
    # derived caps, stored nowhere; search without a limit takes the spread search cap
    "full spread enumeration": (CAPS["spread search"], enumerate_spreads, CapacityError),
    "params": (CAPS["qubit count"], params, DimensionMismatch),
    "verify": (CAPS["generator enumeration"], run_verification, CapacityError),
    "constructed spreads": (max(MODULI), desarguesian_spread, CapacityError),
}


def test_every_table_entry_is_guarded():
    assert set(CAPS) <= set(GUARDED)
    assert (CAPS["qubit count"], CAPS["matrix oracle"]) == (12, 6)


@pytest.mark.parametrize("name", list(GUARDED))
def test_operation_runs_at_its_cap_and_refuses_above(name):
    cap, operation, error = GUARDED[name]
    operation(cap)
    with pytest.raises(error) as err:
        operation(cap + 1)
    assert f"capped at N<={cap}; N={cap + 1} was requested" in str(err.value)
