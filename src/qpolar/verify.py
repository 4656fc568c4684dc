"""Recount every closed-form claim by enumeration.

``run_verification`` checks the five counting identities of
:mod:`qpolar.geometry` for one qubit number, and optionally sweeps the
matrix oracle; each count is a named :class:`Check` of expected against
actual.  The ``verify`` subcommand prints the report.

The generator, spread and census counts read ``gf2._perp_masks``, the
table of every key's perpendicular mask that the oracle sweep checks.
One scan takes each block of row keys to its commutant on that table,
the AND of its rows' masks: eq1, eq2 and eq4 scan the enumerated
generators, eq3 the unreduced field-plane rows of
``geometry._field_plane_rows``.  A block is a generator when its
commutant holds its rows and has 2^N - 1 points, so nothing is reduced
or spanned and no vector, Subspace or Spread is built; tests check each
commutant against the block's span.
"""

from __future__ import annotations

from .errors import _Value
from .geometry import _field_plane_rows, _generator_bases, params
from .gf2 import _perp_masks
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


def _scan(blocks: list, perps: list[int], bits: list[int]) -> tuple[int, set[int]]:
    """The union of the blocks' commutants and the set of their sizes, -1 for a block its commutant misses.

    A block is a list of row keys; its commutant is the points perpendicular
    to every row, the block itself exactly when it is maximal isotropic.
    """
    points = perps[0]
    covered = 0
    sizes = set()
    for block in blocks:
        commutant = points
        rows = 0  # the block's rows as points
        for key in block:
            commutant &= perps[key]
            rows |= bits[key]
        covered |= commutant
        sizes.add(commutant.bit_count() if commutant & rows == rows else -1)
    return covered, sizes


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
    covered, sizes = _scan(gens, perps, bits)
    checks.append(Check("eq1_point_count", p.point_count, covered.bit_count()))
    checks.append(Check("eq2_generator_count", p.generator_count, len(gens)))
    checks.append(Check("eq4_generator_size", p.generator_size, sizes.pop() if len(sizes) == 1 else -1))

    # a set of rows has its span's commutant, so each block with 2^N - 1 commutant
    # points is a generator; their sizes add up to their union's exactly when they
    # are pairwise disjoint
    blocks = _field_plane_rows(n_qubits)
    covered, sizes = _scan(blocks, perps, bits)
    spread = sizes == {p.generator_size} and covered == points and covered.bit_count() == len(blocks) * p.generator_size
    checks.append(Check("eq3_spread_partition", p.spread_size, len(blocks) if spread else -1))

    censuses = {(points ^ perp).bit_count() for perp in perps[1:]}
    census_actual = censuses.pop() if len(censuses) == 1 else -1
    checks.append(Check("eq5_non_perp_census", p.non_perp_count, census_actual))

    if oracle:
        pairs, mismatches = commutation_sweep(n_qubits)
        checks.append(Check("oracle_pairs_checked", p.point_count**2, pairs))
        checks.append(Check("oracle_mismatches", 0, mismatches))

    return VerificationReport(n_qubits, tuple(checks))
