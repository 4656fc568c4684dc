"""GF(2^n) arithmetic, trace, and trace-dual basis tests."""

import itertools
import random

import pytest

from qpolar import (
    MODULI,
    DimensionMismatch,
    FieldElement,
    NotABasisError,
    QPolarError,
    dual_basis,
    elements,
    fmul,
    one,
    polynomial_basis,
    trace,
    zero,
)
from qpolar.gf2n import _mul, _trace

SEED = 20260826
DEGREES = (1, 2, 3, 4, 5)


def test_moduli_are_pinned():
    assert MODULI == {1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101}


def test_element_validation():
    with pytest.raises(DimensionMismatch):
        FieldElement(6, 0)
    with pytest.raises(ValueError):
        FieldElement(2, 4)
    with pytest.raises(DimensionMismatch):
        one(2) ^ one(3)
    with pytest.raises(DimensionMismatch):
        fmul(one(2), one(3))


def test_element_construction_error_is_a_qpolar_error():
    with pytest.raises(QPolarError, match="fit in 2 bits"):
        FieldElement(2, 4)


def test_elements_count():
    for n in DEGREES:
        assert len(list(elements(n))) == 1 << n


@pytest.mark.parametrize("n", [0, -1, 6])
def test_elements_checks_the_degree_on_the_call(n):
    with pytest.raises(DimensionMismatch, match=rf"^supported extension degrees are \[1, 2, 3, 4, 5\], got {n}$"):
        elements(n)


def test_fmul_goldens():
    # GF(4): x*x = x + 1 and x*(x+1) = x^2 + x = 1
    x4 = FieldElement(2, 0b10)
    assert fmul(x4, x4) == FieldElement(2, 0b11)
    assert fmul(x4, FieldElement(2, 0b11)) == one(2)
    # GF(8): x^2 * x = x^3 = x + 1, and x*(x^2+1) = x^3 + x = 1
    x8 = FieldElement(3, 0b010)
    assert fmul(FieldElement(3, 0b100), x8) == FieldElement(3, 0b011)
    assert fmul(x8, FieldElement(3, 0b101)) == one(3)


def test_fmul_identity_and_zero():
    for n in DEGREES:
        for a in elements(n):
            assert fmul(a, one(n)) == a
            assert fmul(a, zero(n)) == zero(n)


def test_field_axioms_on_random_triples():
    rng = random.Random(SEED)
    for n in DEGREES:
        for _ in range(200):
            a, b, c = (FieldElement(n, rng.randrange(1 << n)) for _ in range(3))
            assert fmul(a, b) == fmul(b, a)
            assert fmul(fmul(a, b), c) == fmul(a, fmul(b, c))
            assert fmul(a, b ^ c) == fmul(a, b) ^ fmul(a, c)


def test_every_nonzero_element_has_unique_inverse():
    for n in DEGREES:
        for a in elements(n):
            if a == zero(n):
                continue
            inverses = [b for b in elements(n) if fmul(a, b) == one(n)]
            assert len(inverses) == 1


def test_frobenius_additivity():
    rng = random.Random(SEED)
    for n in DEGREES:
        for _ in range(200):
            a = FieldElement(n, rng.randrange(1 << n))
            b = FieldElement(n, rng.randrange(1 << n))
            assert fmul(a ^ b, a ^ b) == fmul(a, a) ^ fmul(b, b)


def test_trace_properties():
    for n in DEGREES:
        values = set()
        for a in elements(n):
            t = trace(a)
            assert t in (0, 1)
            values.add(t)
            assert trace(fmul(a, a)) == t  # invariant under squaring
        assert values == {0, 1}  # onto GF(2)
        assert trace(zero(n)) == 0
        assert trace(one(n)) == n % 2  # sum of n copies of 1
    for n in (1, 2, 3, 4):
        for a in elements(n):
            for b in elements(n):
                assert trace(a ^ b) == trace(a) ^ trace(b)


def test_int_kernels_match_the_field_element_wrappers_exhaustively():
    pairs = 0
    for n in DEGREES:
        for a in elements(n):
            assert _trace(a.bits, n) == trace(a)
            for b in elements(n):
                assert _mul(a.bits, b.bits, n) == fmul(a, b).bits
                pairs += 1
    assert pairs == 1364


def test_trace_goldens():
    assert trace(one(1)) == 1
    assert trace(FieldElement(2, 0b10)) == 1  # x + x^2 = x + (x+1) = 1 in GF(4)
    assert trace(FieldElement(3, 0b010)) == 0  # x + x^2 + x^4 = 0 in GF(8)


def test_polynomial_basis():
    for n in DEGREES:
        basis = polynomial_basis(n)
        assert [e.bits for e in basis] == [1 << i for i in range(n)]
    with pytest.raises(DimensionMismatch):
        polynomial_basis(6)


def test_dual_basis_delta_identities():
    for n in DEGREES:
        primal = polynomial_basis(n)
        dual = dual_basis(primal)
        assert len(dual) == n
        for i in range(n):
            for j in range(n):
                expected = 1 if i == j else 0
                assert trace(fmul(primal[i], dual[j])) == expected


def _dual_by_search(primal):
    """Each delta_j found among all 2^n elements by Tr(p_i * delta_j) = [i == j];
    None unless every j has exactly one solution."""
    n = len(primal)
    dual = []
    for j in range(n):
        hits = [
            d
            for d in elements(n)
            if all(trace(fmul(p, d)) == (i == j) for i, p in enumerate(primal))
        ]
        if len(hits) != 1:
            return None
        dual.append(hits[0])
    return tuple(dual)


def _dual_or_none(primal):
    try:
        return dual_basis(list(primal))
    except NotABasisError:
        return None


def test_dual_basis_matches_definition_exhaustively():
    accepted = {}
    for n in (1, 2, 3):
        accepted[n] = 0
        for primal in itertools.product(elements(n), repeat=n):
            dual = _dual_or_none(primal)
            assert dual == _dual_by_search(primal), primal
            accepted[n] += dual is not None
    assert accepted == {1: 1, 2: 6, 3: 168}  # |GL(n, 2)|: the ordered bases


@pytest.mark.parametrize("n", [4, 5])
def test_dual_basis_matches_definition_sampled(n):
    rng = random.Random(SEED)
    for _ in range(100):
        primal = tuple(FieldElement(n, rng.randrange(1 << n)) for _ in range(n))
        assert _dual_or_none(primal) == _dual_by_search(primal), primal


def test_dual_of_dual_is_primal():
    for n in DEGREES:
        primal = polynomial_basis(n)
        assert dual_basis(list(dual_basis(primal))) == tuple(primal)


def test_dual_basis_rejects_non_basis():
    with pytest.raises(NotABasisError):
        dual_basis([])
    with pytest.raises(NotABasisError):
        dual_basis([one(2), one(2)])
    with pytest.raises(NotABasisError):
        dual_basis([zero(2), one(2)])
    with pytest.raises(NotABasisError):
        dual_basis([one(2)])  # wrong length
    with pytest.raises(NotABasisError):
        dual_basis([one(2), one(3)])  # mixed degrees
