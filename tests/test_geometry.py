"""Counting formulas, generator enumeration, spreads, and the GQ(2,2) audit."""

import random

import pytest

from qpolar import (
    CapacityError,
    DimensionMismatch,
    DomainError,
    Spread,
    Subspace,
    SymplecticVector,
    all_points,
    desarguesian_spread,
    enumerate_generators,
    enumerate_spreads,
    gq22_structure_check,
    is_maximal_isotropic,
    is_totally_isotropic,
    params,
    rref,
    span_points,
    sp_form,
)

SEED = 20260826


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


def test_generators_are_valid_and_distinct():
    for n in (1, 2, 3):
        gens = enumerate_generators(n)
        assert len(gens) == params(n).generator_count
        assert len({g.sort_key() for g in gens}) == len(gens)
        assert [g.sort_key() for g in gens] == sorted(g.sort_key() for g in gens)
        for g in gens:
            assert g.rank == n
            assert is_totally_isotropic(g)
            assert len(span_points(g)) == (1 << n) - 1


def test_generators_capacity():
    with pytest.raises(CapacityError) as err:
        enumerate_generators(5)
    assert "75735" in str(err.value)  # the formula-predicted count
    with pytest.raises(DimensionMismatch):
        enumerate_generators(0)


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
    for q in points:
        if all(sp_form(q, b) == 0 for b in s.basis) and not s.contains(q):
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
    _check_partition_directly(s, n)


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
    with pytest.raises(CapacityError):
        desarguesian_spread(6)


def test_spread_validation_rejects_bad_block_sets():
    good = desarguesian_spread(2)
    with pytest.raises(DomainError):
        Spread(2, good.blocks[:-1])  # too few blocks
    with pytest.raises(DomainError):
        Spread(2, good.blocks[:-1] + (good.blocks[0],))  # duplicate block
    not_gen = rref([SymplecticVector(2, 0b10, 0)])
    with pytest.raises(DomainError):
        Spread(2, good.blocks[:-1] + (not_gen,))


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


def test_enumerate_spreads_deterministic():
    first = [s.sort_key() for s in enumerate_spreads(2)]
    second = [s.sort_key() for s in enumerate_spreads(2)]
    assert first == second
    limited = enumerate_spreads(2, limit=2)
    assert len(limited) == 2
    assert [s.sort_key() for s in limited] == [s.sort_key() for s in enumerate_spreads(2, limit=2)]


def test_enumerate_spreads_n3_needs_limit():
    found = enumerate_spreads(3, limit=1)
    assert len(found) == 1
    _check_partition_directly(found[0], 3)
    with pytest.raises(CapacityError):
        enumerate_spreads(3)
    with pytest.raises(CapacityError):
        enumerate_spreads(4, limit=1)
    with pytest.raises(DomainError):
        enumerate_spreads(2, limit=0)


def test_spread_blocks_closed_under_addition():
    rng = random.Random(SEED)
    for spread in (desarguesian_spread(2), desarguesian_spread(3), enumerate_spreads(3, limit=1)[0]):
        for block in spread.blocks:
            pts = list(span_points(block))
            for _ in range(20):
                p, q = rng.choice(pts), rng.choice(pts)
                if p != q:
                    assert (p ^ q) in set(pts)


def test_gq22_structure():
    report = gq22_structure_check()
    assert report.point_count == 15
    assert report.line_count == 15
    assert report.points_per_line == (3,)
    assert report.lines_per_point == (3,)
    assert report.collinear_partners == (6,)
    assert report.axiom_violations == 0
    assert report.passed
