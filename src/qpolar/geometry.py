"""The rank-N symplectic polar space of order two.

Counting targets (the five identities every run verifies):

    eq1  points            4^N - 1
    eq2  generators        (2+1)(2^2+1)...(2^N+1)
    eq3  spread size       2^N + 1
    eq4  generator size    2^N - 1
    eq5  non-perpendicular 2^(2N-1)   (per point)

Generators (maximal totally isotropic subspaces, vector rank N) are
enumerated by depth-first extension of reduced-row-echelon bases: each
new row must carry a pivot strictly right of the previous one, keep
every earlier row zero at that pivot, and pair to zero under the form
with all earlier rows.  Every generator is therefore produced from its
unique RREF exactly once, in a fixed order, with no dedup pass.

A spread is a set of 2^N + 1 generators partitioning the 4^N - 1
points.  One spread is built constructively for any N <= 5 from the
field plane GF(2^N) x GF(2^N) (the lines through the origin transported
to standard coordinates via the trace-dual basis); exhaustive spread
search is an exact-cover problem over (points x generators).

Enumeration confirms the counting identities exactly for every N it
can reach (N <= 4 for generators, N <= 3 for censuses); for larger N
the closed formulas are used as predictions, and params() reports them
without claiming an independent recount.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2n
from .errors import CapacityError, DimensionMismatch, DomainError
from .gf2 import (
    Subspace,
    SymplecticVector,
    all_points,
    is_totally_isotropic,
    rref,
    sp_form,
    span_points,
)

MAX_PARAMS_QUBITS = 12
MAX_GENERATOR_ENUM_QUBITS = 4
MAX_SPREAD_CONSTRUCT_QUBITS = 5
MAX_SPREAD_SEARCH_QUBITS = 3
MAX_SPREAD_FULL_ENUM_QUBITS = 2


@dataclass(frozen=True)
class PolarSpaceParams:
    """The five closed-form counts for a given qubit number."""

    n_qubits: int
    point_count: int
    generator_count: int
    generator_size: int
    spread_size: int
    non_perp_count: int


def params(n_qubits: int) -> PolarSpaceParams:
    if not 1 <= n_qubits <= MAX_PARAMS_QUBITS:
        raise DimensionMismatch(f"n_qubits must be in 1..{MAX_PARAMS_QUBITS}, got {n_qubits}")
    n = n_qubits
    gen_count = 1
    for i in range(1, n + 1):
        gen_count *= (1 << i) + 1
    return PolarSpaceParams(
        n_qubits=n,
        point_count=(1 << (2 * n)) - 1,
        generator_count=gen_count,
        generator_size=(1 << n) - 1,
        spread_size=(1 << n) + 1,
        non_perp_count=1 << (2 * n - 1),
    )


def _form_keys(a: int, b: int, n: int) -> int:
    # the shifted x-part has only n bits, so the AND already ignores the
    # other key's x-part
    return (((a >> n) & b).bit_count() + (a & (b >> n)).bit_count()) & 1


def enumerate_generators(n_qubits: int) -> list[Subspace]:
    """Every rank-N totally isotropic subspace, once, in canonical order.

    Canonical order is the DFS emission order: bases compared row by
    row, rows ordered pivot-major then by packed value.
    """
    n = n_qubits
    if n < 1:
        raise DimensionMismatch(f"n_qubits must be positive, got {n}")
    if n > MAX_GENERATOR_ENUM_QUBITS:
        predicted = params(n).generator_count if n <= MAX_PARAMS_QUBITS else None
        detail = f" ({predicted} subspaces by the product formula)" if predicted else ""
        raise CapacityError(
            f"generator enumeration is capped at N<={MAX_GENERATOR_ENUM_QUBITS}; "
            f"N={n} was requested{detail}"
        )

    two_n = 2 * n
    mask = (1 << n) - 1
    out: list[Subspace] = []
    rows: list[int] = []

    def extend(min_pivot: int) -> None:
        if len(rows) == n:
            basis = tuple(SymplecticVector(n, key >> n, key & mask) for key in rows)
            out.append(Subspace(n, basis))
            return
        # leave room for the remaining pivots
        for pivot in range(min_pivot, two_n - (n - len(rows) - 1)):
            lead = 1 << (two_n - 1 - pivot)
            if any(r & lead for r in rows):
                continue
            for free in range(lead):
                cand = lead | free
                if all(_form_keys(cand, r, n) == 0 for r in rows):
                    rows.append(cand)
                    extend(pivot + 1)
                    rows.pop()

    extend(0)
    return out


def is_maximal_isotropic(s: Subspace) -> bool:
    """True iff the totally isotropic subspace s has rank N.

    Rank N is the same as maximality: in the non-degenerate 2N-dimensional
    space every totally isotropic subspace extends to one of rank N (Witt),
    so s has an extending point exactly when its rank is below N.  The
    point-by-point extension scan lives in the exhaustive tests.
    """
    if not is_totally_isotropic(s):
        raise DomainError("subspace is not totally isotropic")
    return s.rank == s.n


@dataclass(frozen=True)
class Spread:
    """2^N + 1 generators partitioning all 4^N - 1 points.

    Blocks are normalized to canonical order on construction (sorted by
    each block's smallest point) and all partition invariants are
    checked; an invalid block set does not construct.
    """

    n: int
    blocks: tuple[Subspace, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.blocks, key=lambda b: min(p.key for p in span_points(b))))
        object.__setattr__(self, "blocks", ordered)
        self.validate()

    def validate(self) -> None:
        """Re-check every spread invariant; raises DomainError on violation."""
        p = params(self.n)
        if len(self.blocks) != p.spread_size:
            raise DomainError(f"spread must have {p.spread_size} blocks, found {len(self.blocks)}")
        seen: set[int] = set()
        total = 0
        for block in self.blocks:
            if block.n != self.n:
                raise DomainError("block qubit count differs from spread")
            if block.rank != self.n or not is_totally_isotropic(block):
                raise DomainError("spread block is not a generator")
            keys = {pt.key for pt in span_points(block)}
            if seen & keys:
                raise DomainError("spread blocks overlap")
            seen |= keys
            total += len(keys)
        if total != p.point_count:
            raise DomainError(f"spread covers {total} of {p.point_count} points")

    def sort_key(self) -> tuple:
        return tuple(block.sort_key() for block in self.blocks)


def desarguesian_spread(n_qubits: int) -> Spread:
    """Build the field-plane spread: lines through the origin of K x K, K = GF(2^N).

    The blocks are {(0, b)} and, for each c in K, {(a, c*a)}.  First
    components are written in the polynomial basis and second components
    in its trace-dual, which carries the field-plane form
    Tr(a*d) + Tr(b*c) to the standard form exactly, so every block lands
    totally isotropic in standard coordinates.
    """
    n = n_qubits
    if n < 1:
        raise DimensionMismatch(f"n_qubits must be positive, got {n}")
    if n > MAX_SPREAD_CONSTRUCT_QUBITS:
        raise CapacityError(
            f"constructed spreads are capped at N<={MAX_SPREAD_CONSTRUCT_QUBITS}; N={n} was requested"
        )

    pair = gf2n.dual_basis(gf2n.polynomial_basis(n))

    def x_part(a: gf2n.FieldElement) -> int:
        # coefficient of x^i becomes coordinate x_(i+1), qubit 1 at the MSB
        return sum(((a.bits >> i) & 1) << (n - 1 - i) for i in range(n))

    def z_part(b: gf2n.FieldElement) -> int:
        # dual-basis coordinates read off by tracing against the primal basis
        return sum(gf2n.trace(gf2n.fmul(b, pair.primal[i])) << (n - 1 - i) for i in range(n))

    nonzero = [e for e in gf2n.elements(n) if e.bits]
    blocks = []
    for slope in gf2n.elements(n):
        pts = [SymplecticVector(n, x_part(a), z_part(gf2n.fmul(slope, a))) for a in nonzero]
        blocks.append(rref(pts))
    blocks.append(rref([SymplecticVector(n, 0, z_part(b)) for b in nonzero]))
    return Spread(n, tuple(blocks))


def enumerate_spreads(n_qubits: int, limit: int | None = None) -> list[Spread]:
    """Exhaustive exact-cover search for spreads.

    Deterministic: the uncovered point with fewest remaining candidate
    blocks is covered first (ties to the lowest point), candidates tried
    in canonical generator order.  Full enumeration is supported for
    N <= 2; N = 3 requires a limit.  Results are returned sorted by
    canonical form.
    """
    n = n_qubits
    if n < 1:
        raise DimensionMismatch(f"n_qubits must be positive, got {n}")
    if n > MAX_SPREAD_SEARCH_QUBITS:
        raise CapacityError(f"spread search is capped at N<={MAX_SPREAD_SEARCH_QUBITS}; N={n} was requested")
    if limit is None and n > MAX_SPREAD_FULL_ENUM_QUBITS:
        raise CapacityError(
            f"full spread enumeration is capped at N<={MAX_SPREAD_FULL_ENUM_QUBITS}; "
            f"pass a limit for N={n}"
        )
    if limit is not None and limit < 1:
        raise DomainError(f"limit must be at least 1, got {limit}")

    generators = enumerate_generators(n)
    point_keys = sorted(p.key for p in all_points(n))
    index_of = {key: i for i, key in enumerate(point_keys)}
    n_points = len(point_keys)
    full = (1 << n_points) - 1

    masks = []
    for g in generators:
        m = 0
        for pt in span_points(g):
            m |= 1 << index_of[pt.key]
        masks.append(m)
    blocks_through: list[list[int]] = [[] for _ in range(n_points)]
    for b, m in enumerate(masks):
        for i in range(n_points):
            if (m >> i) & 1:
                blocks_through[i].append(b)

    solutions: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def search(covered: int) -> bool:
        """Returns False once the limit is reached, to unwind the recursion."""
        if covered == full:
            solutions.append(tuple(chosen))
            return limit is None or len(solutions) < limit
        best_point = -1
        best = None
        for i in range(n_points):
            if (covered >> i) & 1:
                continue
            cands = [b for b in blocks_through[i] if not masks[b] & covered]
            if not cands:
                return True  # dead branch
            if best is None or len(cands) < len(best):
                best, best_point = cands, i
                if len(cands) == 1:
                    break
        assert best is not None and best_point >= 0
        for b in best:
            chosen.append(b)
            keep_going = search(covered | masks[b])
            chosen.pop()
            if not keep_going:
                return False
        return True

    search(0)

    spreads = [Spread(n, tuple(generators[b] for b in sol)) for sol in solutions]
    unique = {s.sort_key(): s for s in spreads}
    return [unique[k] for k in sorted(unique)]


@dataclass(frozen=True)
class GQReport:
    """Structure audit of the N=2 space (the generalized quadrangle of order two)."""

    point_count: int
    line_count: int
    points_per_line: tuple[int, ...]
    lines_per_point: tuple[int, ...]
    collinear_partners: tuple[int, ...]
    axiom_violations: int

    EXPECTED = (15, 15, (3,), (3,), (6,), 0)

    @property
    def passed(self) -> bool:
        actual = (
            self.point_count,
            self.line_count,
            self.points_per_line,
            self.lines_per_point,
            self.collinear_partners,
            self.axiom_violations,
        )
        return actual == self.EXPECTED


def gq22_structure_check() -> GQReport:
    """Verify the N=2 incidence structure point by point.

    Checks 15 points and 15 totally isotropic lines, 3 points per line,
    3 lines per point, 6 collinear partners per point, and the
    quadrangle axiom: a point off a line is collinear with exactly one
    of its points.
    """
    points = list(all_points(2))
    lines = enumerate_generators(2)
    line_sets = [span_points(line) for line in lines]

    points_per_line = sorted({len(s) for s in line_sets})
    lines_per_point = sorted({sum(p in s for s in line_sets) for p in points})
    collinear = sorted({
        sum(1 for q in points if q != p and sp_form(p, q) == 0) for p in points
    })

    violations = 0
    for p in points:
        for s in line_sets:
            if p in s:
                continue
            if sum(1 for q in s if sp_form(p, q) == 0) != 1:
                violations += 1

    return GQReport(
        point_count=len(points),
        line_count=len(lines),
        points_per_line=tuple(points_per_line),
        lines_per_point=tuple(lines_per_point),
        collinear_partners=tuple(collinear),
        axiom_violations=violations,
    )
