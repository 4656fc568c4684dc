"""Recount every closed-form claim by enumeration.

``run_verification`` checks the five counting identities of
:mod:`qpolar.geometry` for one qubit number, and optionally sweeps the
matrix oracle; each count is a named :class:`Check` of expected against
actual.  The ``verify`` subcommand prints the report.
"""

from __future__ import annotations

from .errors import DomainError, _Value
from .geometry import desarguesian_spread, enumerate_generators, params
from .gf2 import _perp_mask
from .pauli import commutation_sweep


class Check(_Value):
    """One named count with its closed-formula expectation."""

    __slots__ = ("name", "expected", "actual")

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def to_dict(self) -> dict:
        return {**dict(zip(self.__slots__, self._astuple(self))), "pass": self.ok}


class VerificationReport(_Value):
    """The checks of one qubit number, in run order; ``overall`` is whether every one passed."""

    __slots__ = ("n_qubits", "checks")

    @property
    def overall(self) -> bool:
        return all(c.ok for c in self.checks)


def run_verification(n_qubits: int, oracle: bool = False) -> VerificationReport:
    """Recount everything the formulas predict, by actual enumeration.

    The check names are the report's stable identifiers; downstream
    scripts key on them.
    """
    p = params(n_qubits)
    # first, so the generator enumeration cap is verify's cap before any count runs
    gens = enumerate_generators(n_qubits)
    checks: list[Check] = []
    # one perpendicular mask per point key 1 .. 4^N - 1, for eq4 and eq5
    perps = [_perp_mask(key, n_qubits) for key in range(1, 1 << (2 * n_qubits))]

    points = (1 << len(perps)) - 1  # every point, as bit k - 1 for key k
    covered = 0  # eq1: the points on some enumerated generator
    sizes = set()
    for g in gens:
        commutant = points  # the points perpendicular to every row: g itself when g is maximal isotropic
        for key in g.keys:
            commutant &= perps[key - 1]
        covered |= commutant
        sizes.add(commutant.bit_count() if all(commutant >> (key - 1) & 1 for key in g.keys) else -1)
    size_actual = sizes.pop() if len(sizes) == 1 else -1
    checks.append(Check("eq1_point_count", p.point_count, covered.bit_count()))
    checks.append(Check("eq2_generator_count", p.generator_count, len(gens)))
    checks.append(Check("eq4_generator_size", p.generator_size, size_actual))

    try:
        blocks = len(desarguesian_spread(n_qubits).blocks)
    except DomainError:
        blocks = -1
    checks.append(Check("eq3_spread_partition", p.spread_size, blocks))

    censuses = {len(perps) - perp.bit_count() for perp in perps}
    census_actual = censuses.pop() if len(censuses) == 1 else -1
    checks.append(Check("eq5_non_perp_census", p.non_perp_count, census_actual))

    if oracle:
        pairs, mismatches = commutation_sweep(n_qubits)
        checks.append(Check("oracle_pairs_checked", p.point_count**2, pairs))
        checks.append(Check("oracle_mismatches", 0, mismatches))

    return VerificationReport(n_qubits, tuple(checks))
