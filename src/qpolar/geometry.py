"""The rank-N symplectic polar space of order two.

Counting targets (the five identities every run verifies):

    eq1  points            4^N - 1
    eq2  generators        (2+1)(2^2+1)...(2^N+1)
    eq3  spread size       2^N + 1
    eq4  generator size    2^N - 1
    eq5  non-perpendicular 2^(2N-1)   (per point)

A set of points is a bitmask with point key k as bit k - 1.

Generators (maximal totally isotropic subspaces, vector rank N) are
built directly, with no search.  A generator L is the graph of a
symmetric form over its x-projection W, of dimension a with RREF rows
w_1 .. w_a.  Its rows with x = 0 are {0} x K for K = W^perp under the
dot product, of dimension N - a.  Let u_i be w_i's leading bit reduced
modulo K's RREF; then w_j . u_i is 1 when j = i and 0 otherwise.  Each
symmetric a x a matrix beta over GF(2) gives one generator, whose
rows (w_i | sum_j beta_ij u_j) followed by the rows (0 | k) of K are
already its RREF.  It is isotropic: the form on x-rows i and j is
beta_ij + beta_ji = 0, and w . k = 0.  Every generator arises once, as
beta_ij = w_j . z_i.  So the count is the sum over a of [N a]_2 times
2^(a(a+1)/2): 1 + 30 + 280 + 960 + 1024 = 2,295 at N = 4.  W runs over
every pivot set and its free bits, and beta over the span of the
a(a+1)/2 basis forms, each XORing u's into one or two rows' z halves,
so no candidate is ever tested.  The bases are sorted into canonical
order (Subspace.sort_key order) by one int each, their rows' ranks in
2N-bit fields.  _generator_bases returns each basis as its RREF
row-key tuple, which verify, the generators command, the spread search
and the N=2 audit read directly (the rule in gf2's docstring), and
enumerate_generators wraps them as Subspaces unchecked; tests rebuild
every generator through the checking constructor.

A spread is a set of 2^N + 1 generators partitioning the 4^N - 1
points.  One spread is built constructively from the field plane
GF(2^N) x GF(2^N) (the lines through the origin transported to standard
coordinates via the trace-dual basis, each spanned by N rows over that
basis) for every N with a pinned modulus in gf2n.MODULI, N <= 5.
_field_plane_rows builds those rows once, as keys, for two consumers:
desarguesian_spread, which wraps them as a validated Spread, and
verify's eq3, which checks each block by its commutant on the
_perp_masks table, as eq4 checks a generator, with no reduction or span.

Exhaustive spread search is exact cover of the points by the generators,
run as Algorithm X on bitmasks: each generator is a row listing its
points, key k as column k - 1, and a node holds two ints, the uncovered
points and the generators still disjoint from every chosen one.
Precomputed per call are the generators through each point and the
generators meeting each generator, so a child's state is two big-int
ANDs.  Spreads come out in canonical order as they are found, so a
limit of k returns the first k.  The search runs up to the spread
search cap, N = 3, where it finds all 960 spreads.  _spread_covers
returns each spread as its cover, the tuple of its blocks' indices into
_generator_bases, which the spread command renders by indexing one list
of rendered generators; enumerate_spreads wraps the covers as Spreads
of Subspaces, unchecked.

Enumeration confirms the counting identities exactly up to the
generator enumeration cap (N <= 4; every cap is in errors.CAPS); for
larger N the closed formulas are used as predictions, and params()
reports them without claiming an independent recount.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import or_

from . import gf2n
from .errors import CapacityError, DomainError, _Value, _is_int, check_cap, check_type
from .gf2 import (
    Subspace,
    _perp_masks,
    _reduce,
    _residue,
    _span_keys,
    _vectors,
    is_totally_isotropic,
    rref,
    span_points,
)

__all__ = ["GQReport", "PolarSpaceParams", "Spread", "desarguesian_spread", "enumerate_generators", "enumerate_spreads",
           "gq22_structure_check", "is_maximal_isotropic", "params"]


class PolarSpaceParams(_Value):
    """The five closed-form counts for a given qubit number."""

    __slots__ = ("n_qubits", "point_count", "generator_count", "generator_size", "spread_size", "non_perp_count")


def params(n_qubits: int) -> PolarSpaceParams:
    check_cap("qubit count", n_qubits)
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


def enumerate_generators(n_qubits: int) -> list[Subspace]:
    """Every rank-N totally isotropic subspace, once, in canonical order.

    Canonical order is ``Subspace.sort_key`` order: bases compared row by
    row, rows ordered pivot-major then by packed value.  Each generator
    is the graph of a symmetric form over its x-projection, built from
    that parametrisation (see the module docstring) without a search.
    """
    return list(map(Subspace._unchecked, repeat(n_qubits), _generator_bases(n_qubits)))


def _generator_bases(n_qubits: int) -> list[tuple[int, ...]]:
    """enumerate_generators' bases as RREF row-key tuples, in the same canonical order."""
    n = n_qubits
    # params(n), an argument, checks N against the qubit count cap before check_cap runs
    check_cap("generator enumeration", n, f" ({params(n).generator_count} subspaces by the product formula)")

    width = 2 * n
    shifts = [width * (n - 1 - i) for i in range(n)]  # row i's field in a basis's rank
    full = (1 << width) - 1

    def rank(key: int) -> int:
        # (pivot, key) order as one int: the leading bit and every bit above it flipped
        low = key.bit_length() - 1
        return key ^ (full >> low << low)

    found: dict[int, tuple[int, ...]] = {}  # each basis by its rank
    for pivots in range(1 << n):  # the pivot bits of the x-projection W
        leads = [1 << b for b in reversed(range(n)) if pivots >> b & 1]
        others = [1 << b for b in range(n) if not pivots >> b & 1]
        spaces: list[tuple[int, ...]] = [()]  # every W: each row is its lead plus any non-pivot bits below it
        for lead in leads:
            options = [lead]
            for bit in others:
                if bit < lead:
                    options += [w ^ bit for w in options]
            spaces = [ws + (w,) for ws in spaces for w in options]
        forms = [(i, j) for i in range(len(leads)) for j in range(i, len(leads))]
        for ws in spaces:
            # K = W^perp: each non-pivot bit plus the leads of the rows that have it
            ks = _reduce([q + sum(lead for lead, w in zip(leads, ws) if w & q) for q in others])
            us = [_residue(u, ks) for u in leads]  # each lead reduced modulo K's RREF
            # the x-rows' keys and the ranks, over the span of the basis forms
            cols = [[w << n] for w in ws]
            ranks = [sum(rank(key) << s for key, s in zip([w << n for w in ws] + ks, shifts))]
            for i, j in forms:  # beta_ij = beta_ji = 1: z_i ^= u_j and z_j ^= u_i
                step = us[j] << shifts[i] ^ (us[i] << shifts[j] if j != i else 0)
                for c, col in enumerate(cols):
                    flip = us[j] if c == i else us[i] if c == j else 0
                    col += [key ^ flip for key in col] if flip else col
                ranks += [r ^ step for r in ranks]
            found.update(zip(ranks, zip(*cols, *([k] * len(ranks) for k in ks))))
    return [found[r] for r in sorted(found)]


def is_maximal_isotropic(s: Subspace) -> bool:
    """True iff the totally isotropic subspace s has rank N.

    Rank N is the same as maximality: in the non-degenerate 2N-dimensional
    space every totally isotropic subspace extends to one of rank N (Witt),
    so s has an extending point exactly when its rank is below N.  The
    point-by-point extension scan lives in the exhaustive tests.
    """
    check_type(s, Subspace, "is_maximal_isotropic")
    if not is_totally_isotropic(s):
        raise DomainError("subspace is not totally isotropic")
    return s.rank == s.n


class Spread(_Value):
    """2^N + 1 generators partitioning all 4^N - 1 points.

    ``Spread(n, blocks)`` checks every partition invariant, so an invalid
    block set does not construct; the blocks are then put in canonical
    order, by each block's smallest point.  That point is the last RREF
    row: a combination with any other row leads at a higher bit.
    ``Spread._unchecked(n, blocks)`` takes blocks already a spread, in
    canonical order, and checks nothing.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: tuple[Subspace, ...]) -> None:
        self.__setstate__((n, blocks))
        self.validate()
        self.__setstate__((n, tuple(sorted(blocks, key=lambda b: b.keys[-1]))))

    def validate(self) -> None:
        """Re-check every spread invariant; raises DomainError on violation."""
        p = params(self.n)
        if not hasattr(self.blocks, "__len__"):
            raise DomainError(f"spread blocks must be a sequence, got {type(self.blocks).__name__}")
        if len(self.blocks) != p.spread_size:
            raise DomainError(f"spread must have {p.spread_size} blocks, found {len(self.blocks)}")
        seen = set()  # of points; every block is over self.n, so equal vectors = equal keys
        for block in self.blocks:
            if not isinstance(block, Subspace):
                raise DomainError(f"a spread block must be a Subspace, got {type(block).__name__}")
            if block.n != self.n:
                raise DomainError("block qubit count differs from spread")
            if block.rank != self.n or not is_totally_isotropic(block):
                raise DomainError("spread block is not a generator")
            points = span_points(block)
            if not seen.isdisjoint(points):
                raise DomainError("spread blocks overlap")
            seen |= points
        # 2^N + 1 disjoint blocks of 2^N - 1 points each cover all 4^N - 1 points

    def sort_key(self) -> tuple:
        return tuple(block.sort_key() for block in self.blocks)


def _field_plane_rows(n_qubits: int) -> list[list[int]]:
    """desarguesian_spread's blocks as N unreduced row keys each: (d*delta_j | e_j) per d in K, then (e_i | 0)."""
    n = n_qubits
    cap = max(gf2n.MODULI)  # the field plane exists where a modulus is pinned
    if _is_int(n) and n > cap:
        raise CapacityError(f"constructed spreads are capped at N<={cap}; N={n} was requested")
    check_cap("qubit count", n)

    dual = [delta.bits for delta in gf2n.dual_basis(gf2n.polynomial_basis(n))]
    units = [1 << (n - 1 - j) for j in range(n)]  # e_j, qubit 1 at the MSB

    x_parts = [0, *_span_keys(units)]  # x_parts[a]: the coefficient of x^i of a becomes e_i
    blocks = [[x_parts[gf2n._mul(d, delta, n)] << n | e for delta, e in zip(dual, units)] for d in range(1 << n)]
    blocks.append([e << n for e in units])
    return blocks


def desarguesian_spread(n_qubits: int) -> Spread:
    """Build the field-plane spread: lines through the origin of K x K, K = GF(2^N).

    The blocks are {(0, b)} and, for each c in K, {(a, c*a)}.  First
    components are written in the polynomial basis and second components
    in its trace-dual, which carries the field-plane form
    Tr(a*d) + Tr(b*c) to the standard form exactly, so every block lands
    totally isotropic in standard coordinates.

    Each block is rref'd from N rows over the trace-dual basis delta_j,
    whose second components have coordinates e_j by duality.  So for d
    in K the rows (d*delta_j, e_j) span {(d*b, b)}: the vertical line at
    d = 0 and the line of slope 1/d otherwise.  The rows (e_i, 0) span
    the line of slope 0.  The e_j make each block's N rows independent,
    and rref is canonical.
    """
    n = n_qubits
    return Spread(n, tuple(rref(_vectors(rows, n), n) for rows in _field_plane_rows(n)))


def _exact_covers(rows: list[list[int]], n_cols: int, limit: int | None) -> list[tuple[int, ...]]:
    """Every exact cover of columns 0 .. n_cols - 1 by the rows, each the list of its columns, up to limit.

    Algorithm X on bitmasks (Knuth, "Dancing Links"): a node holds the
    uncovered columns and the live rows, those meeting no chosen row.  It
    branches on the lowest uncovered column and tries the live rows
    through it in ascending index order; none is a dead end.  Each cover
    is returned once, as its row indices in the order they were chosen,
    which is the order of each row's lowest column.  Covers come out in
    lexicographic order of those index tuples, so a limit of k returns
    the first k.
    """
    through = [0] * n_cols  # the rows through each column, bit r for row r
    for r, cols in enumerate(rows):
        for c in cols:
            through[c] |= 1 << r
    masks = [sum(1 << c for c in cols) for cols in rows]  # a row's columns are distinct, so sum is OR
    # the rows sharing a column with each row, itself included
    meets = [reduce(or_, map(through.__getitem__, cols)) for cols in rows]

    covers: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def search(uncovered: int, alive: int) -> bool:
        """Returns False once the limit is reached, to unwind the recursion."""
        if not uncovered:
            covers.append(tuple(chosen))
            return limit is None or len(covers) < limit
        best = through[(uncovered & -uncovered).bit_length() - 1] & alive
        while best:
            low = best & -best
            best ^= low
            r = low.bit_length() - 1
            chosen.append(r)
            keep_going = search(uncovered & ~masks[r], alive & ~meets[r])
            chosen.pop()
            if not keep_going:
                return False
        return True

    search((1 << n_cols) - 1, (1 << len(rows)) - 1)
    return covers


def _spread_covers(n_qubits: int, limit: int | None) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """enumerate_spreads' search, unwrapped: the generator bases and each spread as indices into them.

    bases is _generator_bases(n_qubits).  Each cover lists one spread's
    blocks as indices into bases, in canonical block order, and covers
    come in canonical spread order, up to limit.  The spread search cap
    and the limit are checked here, for enumerate_spreads and the CLI.
    """
    n = n_qubits
    check_cap("spread search", n)
    if limit is not None and not _is_int(limit):
        raise DomainError(f"limit must be an integer, got {limit!r}")
    if limit is not None and limit < 1:
        raise DomainError(f"limit must be at least 1, got {limit}")

    bases = _generator_bases(n)
    covers = _exact_covers([[k - 1 for k in _span_keys(keys)] for keys in bases], (1 << (2 * n)) - 1, limit)
    return bases, covers


def enumerate_spreads(n_qubits: int, limit: int | None = None) -> list[Spread]:
    """Exhaustive exact-cover search for spreads, in canonical order.

    Deterministic: the columns are the points, key k as column k - 1,
    and the rows are the generators in canonical generator order, each
    the list of its points.  The spread search entry of errors.CAPS caps
    it with or without a limit; without one it returns every spread.
    Exact cover with a fixed branching rule reaches each spread by
    exactly one path, so no spread is found twice.

    Results come out in canonical order as found, so a limit of k
    returns the first k spreads of the full list.  Every point below the
    one being covered is already covered and blocks are disjoint, so each
    chosen block's smallest point is the one it was chosen to cover: each
    cover lists its blocks by smallest point, as Spread does.  Generator
    indices follow Subspace.sort_key, and covers come out in
    lexicographic index order, which is Spread.sort_key order.  An exact
    cover of the points by generators is a spread by definition, so
    results are built unchecked; tests rebuild every one through the
    checking Spread constructor.
    """
    bases, covers = _spread_covers(n_qubits, limit)
    generators = list(map(Subspace._unchecked, repeat(n_qubits), bases))
    return [Spread._unchecked(n_qubits, tuple(map(generators.__getitem__, cover))) for cover in covers]


class GQReport(_Value):
    """Structure audit of the N=2 space (the generalized quadrangle of order two)."""

    __slots__ = (
        "point_count", "line_count", "points_per_line", "lines_per_point", "collinear_partners", "axiom_violations"
    )
    EXPECTED = (15, 15, (3,), (3,), (6,), 0)

    @property
    def passed(self) -> bool:
        return self._astuple(self) == self.EXPECTED


def gq22_structure_check() -> GQReport:
    """Verify the N=2 incidence structure point by point.

    Checks 15 points and 15 totally isotropic lines, 3 points per line,
    3 lines per point, 6 collinear partners per point, and the
    quadrangle axiom: a point off a line is collinear with exactly one
    of its points.
    """
    # every set of points, one point included, is a mask with key k as bit k - 1
    points = [1 << (k - 1) for k in range(1, 16)]
    lines = [sum(1 << (k - 1) for k in _span_keys(keys)) for keys in _generator_bases(2)]
    perps = _perp_masks(2)[1:]

    points_per_line = sorted({line.bit_count() for line in lines})
    lines_per_point = sorted({sum(line & p != 0 for line in lines) for p in points})
    collinear = sorted({perp.bit_count() - 1 for perp in perps})
    # lines off p that do not meet p's perpendicular set in one point
    violations = sum((perp & line).bit_count() != 1 for p, perp in zip(points, perps) for line in lines if not line & p)

    return GQReport(
        point_count=len(points),
        line_count=len(lines),
        points_per_line=tuple(points_per_line),
        lines_per_point=tuple(lines_per_point),
        collinear_partners=tuple(collinear),
        axiom_violations=violations,
    )
