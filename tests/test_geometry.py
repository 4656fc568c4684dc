"""Counting formulas, generator enumeration, spreads, and the GQ(2,2) audit."""

from itertools import combinations

import pytest

from qpolar import (
    CapacityError,
    DimensionMismatch,
    DomainError,
    GQReport,
    Spread,
    Subspace,
    SymplecticVector,
    all_points,
    desarguesian_spread,
    elements,
    enumerate_generators,
    enumerate_spreads,
    fmul,
    gq22_structure_check,
    is_maximal_isotropic,
    is_totally_isotropic,
    params,
    polynomial_basis,
    rref,
    span_points,
    sp_form,
    trace,
)
from qpolar.errors import CAPS
from qpolar.geometry import _exact_covers, _field_plane_rows, _generator_bases, _spread_covers
from qpolar.gf2 import _perp_mask, _perp_masks, _reduce, _span_keys


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, (3, 3, 1, 3, 2)),
        (2, (15, 15, 3, 5, 8)),
        (3, (63, 135, 7, 9, 32)),
        (4, (255, 2295, 15, 17, 128)),
    ],
)
def test_params_small_cases(n, expected):
    p = params(n)
    actual = (p.point_count, p.generator_count, p.generator_size, p.spread_size, p.non_perp_count)
    assert actual == expected


def test_params_consistency_up_to_cap():
    for n in range(1, 13):
        p = params(n)
        # a spread's blocks tile the points exactly
        assert p.spread_size * p.generator_size == p.point_count
        assert p.point_count == (1 << (2 * n)) - 1
        assert p.non_perp_count == 1 << (2 * n - 1)
    with pytest.raises(DimensionMismatch):
        params(0)
    with pytest.raises(DimensionMismatch):
        params(13)


def test_generator_count_by_enumeration():
    assert len(enumerate_generators(1)) == 3
    assert len(enumerate_generators(2)) == 15
    assert len(enumerate_generators(3)) == 135


def test_generators_n1_canonical_order():
    gens = enumerate_generators(1)
    bases = [g.basis for g in gens]
    assert bases == [
        (SymplecticVector(1, 1, 0),),  # X
        (SymplecticVector(1, 1, 1),),  # Y
        (SymplecticVector(1, 0, 1),),  # Z
    ]


def _reference_generator_bases(n):
    """The filter-every-candidate DFS on vectors: each new row takes a pivot
    right of the last, earlier rows are zero there, and every candidate with
    that pivot is tested by sp_form against every earlier row."""
    points = list(all_points(n))
    out = []
    rows = []

    def extend(min_pivot):
        if len(rows) == n:
            out.append(tuple(rows))
            return
        for pivot in range(min_pivot, 2 * n):
            lead = 1 << (2 * n - 1 - pivot)
            if any(r.key & lead for r in rows):
                continue
            for key in range(lead, 2 * lead):
                v = points[key - 1]
                if all(sp_form(v, r) == 0 for r in rows):
                    rows.append(v)
                    extend(pivot + 1)
                    rows.pop()

    extend(0)
    return out


def test_generator_order_matches_reference_dfs():
    for n in range(1, 5):
        assert [g.basis for g in enumerate_generators(n)] == _reference_generator_bases(n)


def _gaussian_binomial(n, a):
    """[n a]_2: the number of a-dimensional subspaces of GF(2)^n."""
    top = bottom = 1
    for i in range(a):
        top *= (1 << (n - i)) - 1
        bottom *= (1 << (i + 1)) - 1
    return top // bottom


def _x_projection_census(gens, n):
    """How many generators have a rows with a nonzero x half, for a = 0 .. n, read from the keys."""
    census = [0] * (n + 1)
    for g in gens:
        census[sum(key >> n != 0 for key in g.keys)] += 1
    return census


def _graph_counts(n):
    """Generators with an a-dimensional x-projection: [n a]_2 subspaces times 2^(a(a+1)/2) symmetric forms."""
    return [_gaussian_binomial(n, a) << (a * (a + 1) // 2) for a in range(n + 1)]


def test_generators_are_valid_and_distinct():
    for n in (1, 2, 3, 4):
        gens = enumerate_generators(n)
        assert len(gens) == params(n).generator_count
        assert _x_projection_census(gens, n) == _graph_counts(n)
        assert len({g.sort_key() for g in gens}) == len(gens)
        assert [g.sort_key() for g in gens] == sorted(g.sort_key() for g in gens)
        for g in gens:
            # enumerate_generators wraps each basis unchecked; the checking constructor must agree
            rebuilt = Subspace(n, g.basis)
            assert rebuilt == g and hash(rebuilt) == hash(g)
            assert g.rank == n
            assert is_totally_isotropic(g)
            keys = [p.key for p in span_points(g)]
            assert len(keys) == (1 << n) - 1
            # Spread orders its blocks by this: the last RREF row is the smallest point
            assert g.basis[-1].key == min(keys)


def test_graph_counts_sum_to_generator_count():
    assert _graph_counts(4) == [1, 30, 280, 960, 1024]
    for n in range(1, 13):
        assert sum(_graph_counts(n)) == params(n).generator_count


def test_generator_count_at_n5_by_enumeration(monkeypatch):
    # eq2 recounted one step past the default cap: 3 * 5 * 9 * 17 * 33 subspaces
    monkeypatch.setitem(CAPS, "generator enumeration", 5)
    gens = enumerate_generators(5)
    assert len(gens) == params(5).generator_count == 75735
    assert _x_projection_census(gens, 5) == _graph_counts(5)
    assert len(set(gens)) == len(gens)
    keys = [g.sort_key() for g in gens]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # every basis is 5 independent rows, pairwise perpendicular
    perps = [_perp_mask(key, 5) for key in range(1 << 10)]
    for g in gens:
        rows = g.keys
        assert len({key.bit_length() for key in rows}) == 5  # distinct leading bits
        common = perps[rows[0]] & perps[rows[1]] & perps[rows[2]] & perps[rows[3]] & perps[rows[4]]
        assert all(common >> (key - 1) & 1 for key in rows), g


def test_generators_capacity():
    with pytest.raises(CapacityError) as err:
        enumerate_generators(5)
    assert "75735" in str(err.value)  # the formula-predicted count
    with pytest.raises(DimensionMismatch):
        enumerate_generators(0)
    with pytest.raises(DimensionMismatch, match="qubit count is capped at N<=12"):
        enumerate_generators(13)
    for bad in (None, "4", [4]):
        with pytest.raises(DimensionMismatch, match="must be an integer"):
            enumerate_generators(bad)


def test_is_maximal_isotropic():
    for g in enumerate_generators(2):
        assert is_maximal_isotropic(g)
    # a single point is isotropic but extendable
    assert not is_maximal_isotropic(rref([SymplecticVector(2, 0b10, 0)]))
    assert is_maximal_isotropic(rref([SymplecticVector(1, 0, 1)]))
    x = SymplecticVector(1, 1, 0)
    z = SymplecticVector(1, 0, 1)
    with pytest.raises(DomainError):
        is_maximal_isotropic(rref([x, z]))


def _extending_point(s, points):
    """A point outside s perpendicular to all of s, by a literal scan; None if none."""
    basis = s.basis  # a view built on each read, so read once per subspace
    for q in points:
        if all(sp_form(q, b) == 0 for b in basis) and not s.contains(q):
            return q
    return None


def test_maximality_scan_matches_rank_everywhere():
    for n in range(1, 5):
        points = list(all_points(n))
        for g in enumerate_generators(n):
            assert _extending_point(g, points) is None
            assert is_maximal_isotropic(g)
            if n > 3:
                continue
            # dropping a basis row leaves a reduced rank-(N-1) isotropic basis
            for i in range(n):
                s = Subspace(n, g.basis[:i] + g.basis[i + 1:])
                assert _extending_point(s, points) is not None
                assert not is_maximal_isotropic(s)


def _check_partition_directly(spread, n):
    # independent of Spread.validate: pairwise form on every block and
    # a coverage bitmask over all points
    covered = 0
    for block in spread.blocks:
        pts = sorted(span_points(block), key=lambda v: v.key)
        assert len(pts) == (1 << n) - 1
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                assert sp_form(p, q) == 0
        for p in pts:
            bit = 1 << (p.key - 1)
            assert not covered & bit
            covered |= bit
    assert covered == (1 << ((1 << (2 * n)) - 1)) - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_desarguesian_spread(n):
    s = desarguesian_spread(n)
    assert len(s.blocks) == params(n).spread_size
    for block in s.blocks:  # rref builds each block unchecked; the checking constructor must agree
        rebuilt = Subspace(n, block.basis)
        assert rebuilt == block and hash(rebuilt) == hash(block)
    _check_partition_directly(s, n)


def _reference_desarguesian_spread(n):
    """The field-plane spread point by point: each block rref'd from all
    2^N - 1 nonzero points of its line, with second coordinates read off
    by tracing, not from N rows over the trace-dual basis."""
    primal = polynomial_basis(n)

    def x_part(a):
        return sum(((a.bits >> i) & 1) << (n - 1 - i) for i in range(n))

    def z_part(b):  # trace-dual coordinates, read off by tracing against the primal basis
        return sum(trace(fmul(b, p)) << (n - 1 - i) for i, p in enumerate(primal))

    nonzero = [e for e in elements(n) if e.bits]
    blocks = [
        rref([SymplecticVector(n, x_part(a), z_part(fmul(c, a))) for a in nonzero])
        for c in elements(n)
    ]
    blocks.append(rref([SymplecticVector(n, 0, z_part(b)) for b in nonzero]))
    return Spread(n, tuple(blocks))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_desarguesian_spread_matches_pointwise_reference(n):
    assert desarguesian_spread(n) == _reference_desarguesian_spread(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_field_plane_rows_reduce_to_the_desarguesian_blocks(n):
    assert sorted(tuple(_reduce(rows)) for rows in _field_plane_rows(n)) == sorted(
        b.keys for b in desarguesian_spread(n).blocks
    )


@pytest.mark.parametrize(
    "n, blocks",
    [*((n, _field_plane_rows) for n in range(1, 6)), *((n, _generator_bases) for n in range(1, 5))],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_block_commutant_is_its_span(n, blocks):
    # verify's generator rule: a block's commutant on the mask table, whether
    # taken over its unreduced rows or its reduced ones, is its own span
    perps = _perp_masks(n)
    for rows in blocks(n):
        keys = _reduce(rows)
        span = sum(1 << key - 1 for key in _span_keys(keys))
        assert span.bit_count() == 2**n - 1
        for basis in (rows, keys):
            commutant = perps[0]
            for key in basis:
                commutant &= perps[key]
            assert commutant == span


def test_field_plane_rows_capacity_matches_the_spread():
    with pytest.raises(CapacityError) as spread_error:
        desarguesian_spread(6)
    with pytest.raises(CapacityError) as rows_error:
        _field_plane_rows(6)
    assert str(rows_error.value) == str(spread_error.value) == "constructed spreads are capped at N<=5; N=6 was requested"


def test_desarguesian_n1_block_order():
    s = desarguesian_spread(1)
    bases = [b.basis for b in s.blocks]
    # canonical block order is by smallest contained point: Z, X, Y
    assert bases == [
        (SymplecticVector(1, 0, 1),),
        (SymplecticVector(1, 1, 0),),
        (SymplecticVector(1, 1, 1),),
    ]


def test_desarguesian_capacity():
    for n in (6, 13):  # past the qubit count cap too, the constructed-spread cap decides
        with pytest.raises(CapacityError, match=f"^constructed spreads are capped at N<=5; N={n} was requested$"):
            desarguesian_spread(n)
    for n in (0, -1):
        with pytest.raises(DimensionMismatch, match=f"^n_qubits must be positive, got {n}$"):
            desarguesian_spread(n)


def test_spread_validation_rejects_bad_block_sets():
    good = desarguesian_spread(2)
    with pytest.raises(DomainError, match="^spread must have 5 blocks, found 4$"):
        Spread(2, good.blocks[:-1])  # too few blocks
    with pytest.raises(DomainError, match="^spread blocks overlap$"):
        Spread(2, good.blocks[:-1] + (good.blocks[0],))  # duplicate block
    not_gen = rref([SymplecticVector(2, 0b10, 0)])
    with pytest.raises(DomainError, match="^spread block is not a generator$"):
        Spread(2, good.blocks[:-1] + (not_gen,))
    with pytest.raises(DomainError, match="^spread block is not a generator$"):
        Spread(2, good.blocks[:-1] + (rref([], 2),))  # rank 0: no smallest point to order by
    with pytest.raises(DomainError, match="^block qubit count differs from spread$"):
        Spread(2, good.blocks[:-1] + (desarguesian_spread(3).blocks[0],))
    # two distinct generators sharing one point, the second met right after the first
    first = good.blocks[0]
    other = next(g for g in enumerate_generators(2) if len(span_points(g) & span_points(first)) == 1)
    with pytest.raises(DomainError, match="^spread blocks overlap$"):
        Spread(2, (first, other) + good.blocks[2:])


def test_enumerate_spreads_n1():
    spreads = enumerate_spreads(1)
    assert len(spreads) == 1
    assert spreads[0].sort_key() == desarguesian_spread(1).sort_key()


def test_enumerate_spreads_n2_full():
    spreads = enumerate_spreads(2)
    assert len(spreads) == 6
    keys = [s.sort_key() for s in spreads]
    assert len(set(keys)) == 6
    assert keys == sorted(keys)
    assert desarguesian_spread(2).sort_key() in keys
    for s in spreads:
        _check_partition_directly(s, 2)
        assert Spread(s.n, s.blocks) == s  # built unchecked; the checking constructor agrees


def test_enumerate_spreads_deterministic():
    first = [s.sort_key() for s in enumerate_spreads(2)]
    second = [s.sort_key() for s in enumerate_spreads(2)]
    assert first == second
    limited = enumerate_spreads(2, limit=2)
    assert len(limited) == 2
    assert [s.sort_key() for s in limited] == [s.sort_key() for s in enumerate_spreads(2, limit=2)]


def test_enumerate_spreads_n3_with_and_without_limit():
    found = enumerate_spreads(3, limit=1)
    assert len(found) == 1
    _check_partition_directly(found[0], 3)
    everything = [s.sort_key() for s in enumerate_spreads(3)]
    assert len(everything) == 960
    assert everything == [s.sort_key() for s in enumerate_spreads(3, limit=1000)]
    with pytest.raises(CapacityError):
        enumerate_spreads(4, limit=1)
    with pytest.raises(DomainError):
        enumerate_spreads(2, limit=0)


def _brute_force_covers(rows, n_cols):
    """Every set of rows partitioning the columns, each listed by lowest column, in lexicographic order."""
    subsets = (chosen for size in range(len(rows) + 1) for chosen in combinations(range(len(rows)), size))
    return sorted(
        tuple(sorted(chosen, key=lambda r: min(rows[r])))
        for chosen in subsets
        if sorted(c for r in chosen for c in rows[r]) == list(range(n_cols))
    )


@pytest.mark.parametrize("rows,n_cols,count", [
    # Knuth's "Dancing Links" example, columns A..G, some listed out of order: one cover
    ([[5, 2, 4], [0, 3, 6], [1, 2, 5], [3, 0], [6, 1], [3, 4, 6]], 7, 1),
    # every nonempty subset of four columns, high columns first: the 15 set partitions
    ([[c for c in (3, 2, 1, 0) if s >> c & 1] for s in range(15, 0, -1)], 4, 15),
    # column 2 is in no row
    ([[0], [1], [0, 1], [3]], 4, 0),
    ([[1, 0], [3, 2], [0], [2], [1, 3], [3], [1]], 4, 5),
], ids=["knuth", "all-subsets", "uncoverable", "mixed"])
def test_exact_covers_match_brute_force(rows, n_cols, count):
    everything = _exact_covers(rows, n_cols, None)
    assert everything == _brute_force_covers(rows, n_cols)
    assert len(everything) == count
    for k in range(1, count + 2):  # a limit of k returns the first k
        assert _exact_covers(rows, n_cols, k) == everything[:k]


def _reference_spread_search(n, limit=None):
    """The list-based exact cover, written from the enumerate_spreads rule:
    at each node the lowest uncovered point is covered, trying the blocks
    through it that miss every covered point in canonical generator order
    (none ends the branch).  Spreads are returned in discovery order."""
    gens = enumerate_generators(n)
    blocks = [{p.key for p in span_points(g)} for g in gens]
    points = range(1, 1 << (2 * n))
    through = {p: [b for b, pts in enumerate(blocks) if p in pts] for p in points}
    found = []
    chosen = []

    def search(covered):
        if len(covered) == len(points):
            found.append(list(chosen))
            return limit is None or len(found) < limit
        lowest = next(p for p in points if p not in covered)
        for b in through[lowest]:
            if blocks[b] & covered:
                continue
            chosen.append(b)
            keep_going = search(covered | blocks[b])
            chosen.pop()
            if not keep_going:
                return False
        return True

    search(set())
    return [Spread(n, tuple(gens[b] for b in sol)) for sol in found]


def _assert_covers_index(spreads, n, limit):
    """_spread_covers' index tuples, the ones the CLI renders, pick out the public spreads' blocks."""
    bases, covers = _spread_covers(n, limit)
    assert [tuple(bases[i] for i in c) for c in covers] == [tuple(b.keys for b in s.blocks) for s in spreads]


@pytest.mark.parametrize("n,limit", [
    (1, None), (2, None), (3, 1), (3, 2), (3, 7), (3, 100), (3, 1000),
    (1, 1), (1, 7), (2, 1), (2, 7), (3, None),
])
def test_enumerate_spreads_matches_reference_search(n, limit):
    spreads = enumerate_spreads(n, limit=limit)
    assert spreads == _reference_spread_search(n, limit)
    _assert_covers_index(spreads, n, limit)


@pytest.mark.parametrize("n,limit,error,message", [
    (2, 0, DomainError, "limit must be at least 1, got 0"),
    (2, -1, DomainError, "limit must be at least 1, got -1"),
    (2, True, DomainError, "limit must be an integer, got True"),
    (2, 2.5, DomainError, "limit must be an integer, got 2.5"),
    (CAPS["spread search"] + 1, 1, CapacityError, "spread search is capped at N<=3; N=4 was requested"),
])
def test_spread_covers_refuse_as_enumerate_spreads(n, limit, error, message):
    for search in (_spread_covers, enumerate_spreads):
        with pytest.raises(error) as err:
            search(n, limit)
        assert (type(err.value), str(err.value)) == (error, message)


def test_enumerate_spreads_n4_sorted_past_cap(monkeypatch):
    monkeypatch.setitem(CAPS, "spread search", 4)
    spreads = enumerate_spreads(4, limit=5)
    assert spreads == _reference_spread_search(4, limit=5)
    _assert_covers_index(spreads, 4, 5)
    assert all(Spread(s.n, s.blocks) == s for s in spreads)
    keys = [s.sort_key() for s in spreads]
    assert len(set(keys)) == 5 and keys == sorted(keys)


@pytest.mark.parametrize("n,limits", [(2, range(1, 8)), (3, (1, 2, 7, 100, 959, 960, 1000))])
def test_enumerate_spreads_limit_is_prefix(n, limits):
    everything = enumerate_spreads(n)
    for k in limits:
        assert enumerate_spreads(n, limit=k) == everything[:k]


def test_enumerate_spreads_limit_is_prefix_past_cap(monkeypatch):
    monkeypatch.setitem(CAPS, "spread search", 4)
    assert enumerate_spreads(4, limit=5) == enumerate_spreads(4, limit=20)[:5]


def test_enumerate_spreads_n3_all():
    spreads = enumerate_spreads(3, limit=1000)
    keys = [s.sort_key() for s in spreads]
    assert len(keys) == len(set(keys)) == 960
    assert keys == sorted(keys)
    assert desarguesian_spread(3).sort_key() in keys
    assert all(Spread(s.n, s.blocks) == s for s in spreads)


def test_spread_blocks_closed_under_addition():
    for spread in (desarguesian_spread(2), desarguesian_spread(3), enumerate_spreads(3, limit=1)[0]):
        for block in spread.blocks:
            pts = span_points(block)
            for p in pts:
                for q in pts:
                    if p != q:
                        assert (p ^ q) in pts


def test_gq22_structure():
    report = gq22_structure_check()
    assert report.point_count == 15
    assert report.line_count == 15
    assert report.points_per_line == (3,)
    assert report.lines_per_point == (3,)
    assert report.collinear_partners == (6,)
    assert report.axiom_violations == 0
    assert report.passed


@pytest.mark.parametrize("field", GQReport.__slots__)
def test_gq22_report_fails_when_any_one_field_is_off(field):
    report = gq22_structure_check()
    values = {name: getattr(report, name) for name in GQReport.__slots__}
    value = values[field]
    values[field] = (*value, 0) if isinstance(value, tuple) else value + 1
    assert not GQReport(**values).passed
