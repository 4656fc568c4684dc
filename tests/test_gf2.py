"""Form, RREF, span, and census tests for the GF(2) symplectic layer."""

import itertools
import random
import re

import pytest

from qpolar import (
    DimensionMismatch,
    DomainError,
    QPolarError,
    Subspace,
    SymplecticVector,
    ZeroVectorError,
    all_points,
    is_totally_isotropic,
    perp_census,
    rref,
    span_points,
    sp_form,
)
from qpolar import cli, geometry, gf2, pauli, verify
from qpolar.gf2 import _perp_mask, _perp_masks, _swap_halves
from qpolar.pauli import all_words, pauli_to_vector, vector_to_pauli

SEED = 20260826


def key_rows(n, *keys):
    return tuple(SymplecticVector(n, k >> n, k & ((1 << n) - 1)) for k in keys)


def rand_vector(rng, n, nonzero=False):
    while True:
        v = SymplecticVector(n, rng.randrange(1 << n), rng.randrange(1 << n))
        if not (nonzero and v.is_zero):
            return v


def test_vector_construction():
    v = SymplecticVector.from_bits("10", "11")
    assert (v.n, v.x, v.z) == (2, 0b10, 0b11)
    assert str(v) == "10|11"
    assert v.key == 0b1011
    assert v.pivot == 0  # leading coordinate is x_1
    assert not v.is_zero
    assert SymplecticVector(2, 0, 0).is_zero
    assert SymplecticVector(2, 0, 0).pivot is None


def test_vector_validation():
    with pytest.raises(DimensionMismatch):
        SymplecticVector(0, 0, 0)
    with pytest.raises(DimensionMismatch):
        SymplecticVector(13, 0, 0)
    with pytest.raises(ValueError):
        SymplecticVector(2, 4, 0)
    with pytest.raises(DimensionMismatch):
        SymplecticVector.from_bits("1", "10")
    with pytest.raises(DimensionMismatch):
        SymplecticVector.from_bits("", "")


@pytest.mark.parametrize("bad", ["0b1", "1_0", " 1", "+1", "\uff11\uff10", "12"])
def test_from_bits_rejects_non_binary_characters(bad):
    # int(s, 2) alone would accept the first five and raise a bare ValueError on "12"
    with pytest.raises(DomainError, match=re.escape(repr(bad))):
        SymplecticVector.from_bits(bad, "0" * len(bad))


def test_vector_xor():
    x = SymplecticVector(1, 1, 0)
    y = SymplecticVector(1, 1, 1)
    assert x ^ y == SymplecticVector(1, 0, 1)
    with pytest.raises(DimensionMismatch):
        x ^ SymplecticVector(2, 1, 0)


@pytest.mark.parametrize("n,count", [(1, 3), (2, 15), (3, 63), (4, 255)])
def test_all_points_count_and_order(n, count):
    pts = list(all_points(n))
    assert len(pts) == count
    assert all(not p.is_zero for p in pts)
    keys = [p.key for p in pts]
    assert keys == sorted(keys) and len(set(keys)) == count


def spans_by_xor(basis):
    """The nonzero span vectors, built by SymplecticVector.__xor__ rather than from keys."""
    span = set()
    for row in basis:
        span |= {row} | {row ^ v for v in span}
    return span


def built_points(n, keys):
    return [SymplecticVector(n, k >> n, k & ((1 << n) - 1)) for k in keys]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12])
def test_points_served_from_keys_equal_built_points(n):
    count = min(1 << (2 * n), 1024) - 1  # every point up to N=5, the first 1,023 at N=12
    assert list(itertools.islice(all_points(n), count)) == built_points(n, range(1, count + 1))
    rng = random.Random(SEED)
    for _ in range(30):
        # at most 7 rows, so a span of at most 127 points
        keys = [rng.randrange(1 << (2 * n)) for _ in range(rng.randrange(1, min(n, 6) + 2))]
        s = rref(built_points(n, keys), n_qubits=n)
        assert s.basis == tuple(built_points(n, gf2._reduce(keys)))
        assert span_points(s) == spans_by_xor(s.basis)
    for p in built_points(n, rng.sample(range(1, 1 << (2 * n)), min(40, count))):
        assert pauli_to_vector(vector_to_pauli(p)) == p


def test_sp_form_goldens():
    x = SymplecticVector(1, 1, 0)
    y = SymplecticVector(1, 1, 1)
    z = SymplecticVector(1, 0, 1)
    assert sp_form(x, x) == 0
    assert sp_form(x, z) == 1
    assert sp_form(x, y) == 1
    assert sp_form(y, z) == 1
    xx = SymplecticVector(2, 0b11, 0)
    zz = SymplecticVector(2, 0, 0b11)
    assert sp_form(xx, zz) == 0  # two sign flips cancel
    with pytest.raises(DimensionMismatch):
        sp_form(x, xx)


def test_form_alternating():
    for n in (1, 2, 3):
        for p in all_points(n):
            assert sp_form(p, p) == 0
    rng = random.Random(SEED)
    for n in (4, 5):
        for _ in range(500):
            v = rand_vector(rng, n)
            assert sp_form(v, v) == 0


def test_form_symmetric_in_characteristic_two():
    rng = random.Random(SEED)
    for n in (1, 2, 3, 4, 5):
        for _ in range(300):
            u, v = rand_vector(rng, n), rand_vector(rng, n)
            assert sp_form(u, v) == sp_form(v, u)


def test_form_bilinear():
    rng = random.Random(SEED)
    for n in (1, 2, 3, 4, 5):
        for _ in range(300):
            u, v, w = (rand_vector(rng, n) for _ in range(3))
            assert sp_form(u ^ w, v) == sp_form(u, v) ^ sp_form(w, v)


def test_form_nondegenerate():
    for n in (1, 2, 3):
        for p in all_points(n):
            assert any(sp_form(p, q) == 1 for q in all_points(n))


def test_rref_goldens():
    x = SymplecticVector(1, 1, 0)
    y = SymplecticVector(1, 1, 1)
    z = SymplecticVector(1, 0, 1)
    assert rref([x]).basis == (x,)
    # {X, Y} spans the whole plane; canonical basis is {X, Z}
    assert rref([y, x]).basis == (x, z)
    assert rref([x, x]).basis == (x,)
    assert rref([SymplecticVector(2, 0, 0)]).rank == 0
    assert rref([], n_qubits=2).rank == 0
    with pytest.raises(DimensionMismatch):
        rref([])
    with pytest.raises(DimensionMismatch):
        rref([x, SymplecticVector(2, 1, 0)])


@pytest.mark.parametrize("n", [0, -1, 13])
def test_bad_qubit_counts_raise_dimension_mismatch(n):
    # raised on the call itself, before any point or word is asked for
    with pytest.raises(DimensionMismatch):
        rref([], n_qubits=n)
    with pytest.raises(DimensionMismatch):
        all_points(n)
    with pytest.raises(DimensionMismatch):
        all_words(n)


def test_rref_idempotent_and_shuffle_invariant():
    rng = random.Random(SEED)
    for n in (1, 2, 3, 4):
        for _ in range(60):
            batch = [rand_vector(rng, n) for _ in range(rng.randrange(1, 2 * n + 2))]
            s = rref(batch, n_qubits=n)
            assert rref(s.basis, n_qubits=n) == s
            shuffled = batch[:]
            rng.shuffle(shuffled)
            s2 = rref(shuffled, n_qubits=n)
            assert s2 == s
            assert span_points(s2) == span_points(s)


def test_span_points_size():
    rng = random.Random(SEED)
    for n in (1, 2, 3, 4):
        for _ in range(40):
            s = rref([rand_vector(rng, n) for _ in range(n + 1)], n_qubits=n)
            assert len(span_points(s)) == (1 << s.rank) - 1


def test_contains_agrees_with_span():
    rng = random.Random(SEED)
    for n in (2, 3):
        for _ in range(20):
            s = rref([rand_vector(rng, n) for _ in range(n)], n_qubits=n)
            members = span_points(s)
            assert s.contains(SymplecticVector(n, 0, 0))
            for key in range(1, 1 << (2 * n)):
                v = SymplecticVector(n, key >> n, key & ((1 << n) - 1))
                assert s.contains(v) == (v in members)
    with pytest.raises(DimensionMismatch):
        s.contains(SymplecticVector(1, 0, 1))


def test_subspace_rejects_non_canonical_basis():
    y = SymplecticVector(1, 1, 1)
    x = SymplecticVector(1, 1, 0)
    z = SymplecticVector(1, 0, 1)
    with pytest.raises(ValueError):
        Subspace(1, (y, x))  # pivots collide
    with pytest.raises(ValueError):
        Subspace(1, (y, z))  # pivot of z appears in y: not reduced
    with pytest.raises(ValueError):
        Subspace(1, (SymplecticVector(1, 0, 0),))
    with pytest.raises(DimensionMismatch):
        Subspace(1, (SymplecticVector(2, 1, 0),))


def test_subspace_accepts_exactly_the_rref_bases():
    for n in (1, 2):
        points = list(all_points(n))
        for size in range(4):
            for basis in itertools.product(points, repeat=size):
                try:
                    Subspace(n, basis)
                    constructed = True
                except ValueError:
                    constructed = False
                assert constructed == (rref(basis, n).basis == basis), basis


def _reference_subspace_error(n, basis):
    """The construction checks in their fixed order: the first failure's (type, message), or None."""
    for row in basis:
        if row.n != n:
            return DimensionMismatch, "basis rows must match the subspace qubit count"
        if row.is_zero:
            return DomainError, "zero row in basis"
    keys = [row.key for row in basis]
    leads = [1 << (key.bit_length() - 1) for key in keys]
    if any(a <= b for a, b in zip(leads, leads[1:])):
        return DomainError, "basis pivots must strictly increase"
    if any(key & sum(leads) != lead for key, lead in zip(keys, leads)):
        return DomainError, "basis is not fully reduced"
    return None


def _seeded_bases(n, rng, count):
    """RREF bases of random spans, each with one row XOR-ed into another and with two rows swapped."""
    points = list(all_points(n))
    for _ in range(count):
        basis = rref(rng.sample(points, rng.randint(1, 2 * n))).basis
        yield basis
        if len(basis) > 1:
            i, j = rng.sample(range(len(basis)), 2)
            yield basis[:i] + (basis[i] ^ basis[j],) + basis[i + 1:]
            rows = list(basis)
            rows[i], rows[j] = rows[j], rows[i]
            yield tuple(rows)


def test_subspace_raises_the_first_failing_check():
    cases = []
    for n in (1, 2):  # exhaustive up to three rows
        other = 3 - n  # two rows over the other qubit count, one of them zero
        rows = [SymplecticVector(n, 0, 0), *all_points(n)]
        rows += [SymplecticVector(other, 0, 0), SymplecticVector(other, 1, 0)]
        cases += [(n, basis) for size in range(4) for basis in itertools.product(rows, repeat=size)]
    rng = random.Random(SEED)
    for n in (3, 4):
        cases += [(n, basis) for basis in _seeded_bases(n, rng, 100)]
    for n, basis in cases:
        try:
            Subspace(n, basis)
            got = None
        except QPolarError as err:
            got = type(err), str(err)
        assert got == _reference_subspace_error(n, basis), basis


@pytest.mark.parametrize("n,keys,message", [
    # a stray pivot bit in a row above the pivot row
    (2, (0b1100, 0b0100), "not fully reduced"),
    (3, (0b100001, 0b010000, 0b000001), "not fully reduced"),
    (3, (0b100000, 0b010010, 0b000010), "not fully reduced"),
    # in a row below it, the stray bit is that row's own leading bit
    (2, (0b1000, 0b1100), "pivots must strictly increase"),
    (3, (0b100000, 0b010000, 0b100001), "pivots must strictly increase"),
    (3, (0b100000, 0b000100, 0b000110), "pivots must strictly increase"),
])
def test_subspace_rejects_stray_pivot_bits(n, keys, message):
    with pytest.raises(ValueError, match=message):
        Subspace(n, key_rows(n, *keys))


@pytest.mark.parametrize("build,message", [
    (lambda: SymplecticVector(2, 4, 0), "2-bit values"),
    (lambda: Subspace(1, (SymplecticVector(1, 0, 0),)), "zero row"),
    (lambda: Subspace(1, key_rows(1, 0b11, 0b10)), "pivots must strictly increase"),
    (lambda: Subspace(1, key_rows(1, 0b11, 0b01)), "not fully reduced"),
], ids=["vector", "zero row", "pivot order", "not reduced"])
def test_construction_errors_are_qpolar_errors(build, message):
    with pytest.raises(QPolarError, match=message):
        build()


def test_is_totally_isotropic():
    for n in (1, 2):
        for p in all_points(n):
            assert is_totally_isotropic(rref([p]))
    xi = SymplecticVector(2, 0b10, 0)
    ix = SymplecticVector(2, 0b01, 0)
    assert is_totally_isotropic(rref([xi, ix]))
    x = SymplecticVector(1, 1, 0)
    z = SymplecticVector(1, 0, 1)
    assert not is_totally_isotropic(rref([x, z]))
    # every pair and triple of points at N=2 and every pair at N=3, against the form on the points
    for n, sizes in ((2, (2, 3)), (3, (2,))):
        points = list(all_points(n))
        for size in sizes:
            for chosen in itertools.combinations(points, size):
                expected = all(sp_form(p, q) == 0 for p, q in itertools.combinations(chosen, 2))
                assert is_totally_isotropic(rref(chosen)) == expected, chosen


@pytest.mark.parametrize("n,census", [
    (1, (0, 2)), (2, (6, 8)), (3, (30, 32)), (4, (126, 128)), (5, (510, 512)), (12, (2**23 - 2, 2**23)),
])
def test_perp_census(n, census):
    # every point up to N=5; at N=12, points of weight 1, 24 and mixed halves
    points = all_points(n) if n <= 5 else key_rows(12, 1, (1 << 24) - 1, 0xA5C_3F0)
    for p in points:
        assert perp_census(p) == census


def test_perp_census_matches_sp_form_scan():
    for n in (1, 2, 3):
        pts = list(all_points(n))
        for p in pts:
            non_perp = sum(sp_form(p, q) for q in pts)
            perp = sum(1 for q in pts if q != p and sp_form(p, q) == 0)
            assert perp_census(p) == (perp, non_perp)


def test_swapped_key_parity_is_the_form():
    # the perpendicular mask, which every key-level use of the form reads, is built from this key
    for n in (1, 2, 3):
        vecs = [SymplecticVector(n, key >> n, key & ((1 << n) - 1)) for key in range(1 << (2 * n))]
        for u in vecs:
            for v in vecs:
                assert (u.key & _swap_halves(v.key, n)).bit_count() & 1 == sp_form(u, v)
        for u in vecs[1:]:
            perp = _perp_mask(u.key, n)
            for v in vecs[1:]:
                assert perp >> (v.key - 1) & 1 == 1 - sp_form(u, v)


@pytest.mark.parametrize("n", range(1, 7))
def test_perp_masks_equal_one_perp_mask_per_key(n):
    points = (1 << (1 << 2 * n) - 1) - 1
    assert _perp_masks(n) == [points] + [_perp_mask(key, n) for key in range(1, 1 << 2 * n)]


def test_every_whole_space_mask_comes_from_the_one_table():
    # verify's counts, the oracle sweep, graph and the N=2 audit read the
    # table the oracle checks; none of them builds masks point by point
    for module in (verify, pauli, cli, geometry):
        assert module._perp_masks is gf2._perp_masks, module.__name__
        assert not hasattr(module, "_perp_mask"), module.__name__


def test_perp_census_rejects_zero():
    with pytest.raises(ZeroVectorError):
        perp_census(SymplecticVector(2, 0, 0))


def test_perpendicular_iff_line_is_isotropic():
    # at order two, "joined by a totally isotropic line" and "form
    # vanishes" pick out the same pairs
    for n in (1, 2, 3):
        pts = list(all_points(n))
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                line = rref([p, q, p ^ q])
                assert line.rank == 2
                assert len(span_points(line)) == 3
                assert (sp_form(p, q) == 0) == is_totally_isotropic(line)
