"""Recount every closed-form claim by enumeration.

``run_verification`` checks the five counting identities of
:mod:`qpolar.geometry` for one qubit number, and optionally sweeps the
matrix oracle; each count is a named :class:`Check` of expected against
actual.  The ``verify`` subcommand prints the report.

The generator, spread and census counts read ``gf2._perp_masks``, the
table of every key's perpendicular mask that the oracle sweep checks;
the spread count takes the field-plane blocks as the row keys of
``geometry._field_plane_rows``, so no vector, Subspace or Spread is built.
"""

from __future__ import annotations

from .errors import _Value
from .geometry import _field_plane_rows, _generator_bases, params
from .gf2 import _perp_masks, _reduce, _span_keys
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
    gens = _generator_bases(n_qubits)  # each generator's RREF row keys
    checks: list[Check] = []
    perps = _perp_masks(n_qubits)  # for eq1, eq3, eq4 and eq5: perps[k] is point k's, perps[0] every point
    bits = [1 << key >> 1 for key in range(len(perps))]  # point k as bit k - 1; 0 for key 0

    points = perps[0]
    covered = 0  # eq1: the points on some enumerated generator
    sizes = set()
    for g in gens:
        commutant = points  # the points perpendicular to every row: g itself when g is maximal isotropic
        rows = 0  # g's rows as points
        for key in g:
            commutant &= perps[key]
            rows |= bits[key]
        covered |= commutant
        sizes.add(commutant.bit_count() if commutant & rows == rows else -1)
    size_actual = sizes.pop() if len(sizes) == 1 else -1
    checks.append(Check("eq1_point_count", p.point_count, covered.bit_count()))
    checks.append(Check("eq2_generator_count", p.generator_count, len(gens)))
    checks.append(Check("eq4_generator_size", p.generator_size, size_actual))

    blocks = 0  # eq3: the field-plane blocks, each a generator, partition the points
    partition = 0
    for rows in _field_plane_rows(n_qubits):
        keys = _reduce(rows)
        commutant = points
        for key in keys:
            commutant &= perps[key]
        span = sum(bits[key] for key in _span_keys(keys))  # reduced rows are independent: distinct keys
        if commutant != span or partition & span:  # a subspace is its own commutant exactly when it is a generator
            blocks = -1
            break
        partition |= span
        blocks += 1
    checks.append(Check("eq3_spread_partition", p.spread_size, blocks if partition == points else -1))

    censuses = {(points ^ perp).bit_count() for perp in perps[1:]}
    census_actual = censuses.pop() if len(censuses) == 1 else -1
    checks.append(Check("eq5_non_perp_census", p.non_perp_count, census_actual))

    if oracle:
        pairs, mismatches = commutation_sweep(n_qubits)
        checks.append(Check("oracle_pairs_checked", p.point_count**2, pairs))
        checks.append(Check("oracle_mismatches", 0, mismatches))

    return VerificationReport(n_qubits, tuple(checks))
