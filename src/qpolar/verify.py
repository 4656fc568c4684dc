"""Recount every closed-form claim by enumeration.

``run_verification`` checks the five counting identities of
:mod:`qpolar.geometry` for one qubit number, and optionally sweeps the
matrix oracle; each count is a named :class:`Check` of expected against
actual.  The ``verify`` subcommand prints the report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .geometry import desarguesian_spread, enumerate_generators, params
from .gf2 import all_points, perp_census, span_points
from .pauli import commutation_sweep


@dataclass(frozen=True)
class Check:
    """One named count with its closed-formula expectation."""

    name: str
    expected: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.ok,
        }


@dataclass(frozen=True)
class VerificationReport:
    n_qubits: int
    checks: tuple[Check, ...]

    @property
    def overall(self) -> bool:
        return all(c.ok for c in self.checks)


def run_verification(n_qubits: int, oracle: bool = False) -> VerificationReport:
    """Recount everything the formulas predict, by actual enumeration.

    The check names are the report's stable identifiers; downstream
    scripts key on them.
    """
    p = params(n_qubits)
    checks: list[Check] = []

    point_total = sum(1 for _ in all_points(n_qubits))
    checks.append(Check("eq1_point_count", p.point_count, point_total))

    gens = enumerate_generators(n_qubits)
    checks.append(Check("eq2_generator_count", p.generator_count, len(gens)))

    sizes = {len(span_points(g)) for g in gens}
    size_actual = sizes.pop() if len(sizes) == 1 else -1
    checks.append(Check("eq4_generator_size", p.generator_size, size_actual))

    try:
        blocks = len(desarguesian_spread(n_qubits).blocks)
    except DomainError:
        blocks = -1
    checks.append(Check("eq3_spread_partition", p.spread_size, blocks))

    censuses = {perp_census(pt)[1] for pt in all_points(n_qubits)}
    census_actual = censuses.pop() if len(censuses) == 1 else -1
    checks.append(Check("eq5_non_perp_census", p.non_perp_count, census_actual))

    if oracle:
        pairs, mismatches = commutation_sweep(n_qubits)
        checks.append(Check("oracle_pairs_checked", p.point_count**2, pairs))
        checks.append(Check("oracle_mismatches", 0, mismatches))

    return VerificationReport(n_qubits, tuple(checks))
