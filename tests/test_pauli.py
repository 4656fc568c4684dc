"""Word encoding, exact matrix oracle, and the commuting = perpendicular bridge."""

from functools import lru_cache
from itertools import product

import pytest

from qpolar import (
    CapacityError,
    DimensionMismatch,
    DomainError,
    ExactMatrix,
    IdentityWordError,
    SymplecticVector,
    ZeroVectorError,
    all_points,
    all_words,
    commutation_sweep,
    commutes,
    commutes_matrix,
    desarguesian_spread,
    enumerate_generators,
    mcs_of_generator,
    pauli_matrix,
    pauli_to_vector,
    rref,
    validate_word,
    vector_to_pauli,
)

# single-letter products with the phase stripped, derived by hand from
# XY = iZ, YZ = iX, ZX = iY and P^2 = I; used as an oracle independent
# of the encoding under test (and itself checked against the matrices)
LETTER_PRODUCT = {
    ("I", "I"): "I", ("I", "X"): "X", ("I", "Y"): "Y", ("I", "Z"): "Z",
    ("X", "I"): "X", ("X", "X"): "I", ("X", "Y"): "Z", ("X", "Z"): "Y",
    ("Y", "I"): "Y", ("Y", "X"): "Z", ("Y", "Y"): "I", ("Y", "Z"): "X",
    ("Z", "I"): "Z", ("Z", "X"): "Y", ("Z", "Y"): "X", ("Z", "Z"): "I",
}


def word_product(p, q):
    return "".join(LETTER_PRODUCT[a, b] for a, b in zip(p, q))


def times_i(m, k):
    """Multiply an ExactMatrix by i^k."""
    re, im = m.re, m.im
    for _ in range(k % 4):
        re, im = tuple(tuple(-v for v in row) for row in im), re
    return ExactMatrix(re, im)


def equal_mod_phase(a, b):
    return any(times_i(a, k) == b for k in range(4))


# Dense Gaussian-integer arithmetic on rows of (re, im) entries, read
# through the .re/.im views: the reference that the monomial @ and kron
# are compared against, and the home of sums that are not monomial.
def dense(m):
    return tuple(tuple(zip(re_row, im_row)) for re_row, im_row in zip(m.re, m.im))


def gmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def dense_matmul(a, b):
    n = range(len(a))

    def entry(i, j):
        terms = [gmul(a[i][k], b[k][j]) for k in n]
        return sum(t[0] for t in terms), sum(t[1] for t in terms)

    return tuple(tuple(entry(i, j) for j in n) for i in n)


def dense_kron(a, b):
    d = len(b)
    n = range(len(a) * d)
    return tuple(tuple(gmul(a[i // d][j // d], b[i % d][j % d]) for j in n) for i in n)


def dense_sub(a, b):
    return tuple(tuple((x[0] - y[0], x[1] - y[1]) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def dense_is_zero(a):
    return all(e == (0, 0) for row in a for e in row)


def nonidentity_words(n):
    return [w for w in all_words(n) if set(w) != {"I"}]


def test_validate_word():
    assert validate_word("XIZY") == "XIZY"
    with pytest.raises(DomainError):
        validate_word("")
    with pytest.raises(DomainError) as err:
        validate_word("XAZ")
    assert "'A'" in str(err.value)
    with pytest.raises(DomainError):
        validate_word("xz")  # lowercase is not a word


def test_encoding_goldens():
    assert pauli_to_vector("X") == SymplecticVector(1, 1, 0)
    assert pauli_to_vector("Z") == SymplecticVector(1, 0, 1)
    assert pauli_to_vector("Y") == SymplecticVector(1, 1, 1)
    assert str(pauli_to_vector("YZ")) == "10|11"
    assert pauli_to_vector("IX") == SymplecticVector(2, 0b01, 0b00)
    with pytest.raises(IdentityWordError):
        pauli_to_vector("II")
    with pytest.raises(ZeroVectorError):
        vector_to_pauli(SymplecticVector(2, 0, 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_encoding_is_a_bijection(n):
    words = nonidentity_words(n)
    assert len(words) == (1 << (2 * n)) - 1
    vectors = [pauli_to_vector(w) for w in words]
    assert len(set(vectors)) == len(words)
    assert set(vectors) == set(all_points(n))
    for w, v in zip(words, vectors):
        assert vector_to_pauli(v) == w


def test_commutes_goldens():
    assert commutes("X", "X")
    assert not commutes("X", "Z")
    assert commutes("XX", "ZZ")
    with pytest.raises(DimensionMismatch):
        commutes("X", "XX")
    with pytest.raises(IdentityWordError):
        commutes("II", "XX")


def test_exact_matrix_basics():
    ident = ExactMatrix(((1, 0), (0, 1)), ((0, 0), (0, 0)))
    assert pauli_matrix("I") == ident
    y = pauli_matrix("Y")
    assert y.re == ((0, 0), (0, 0))
    assert y.im == ((0, -1), (1, 0))
    assert dense_is_zero(dense_sub(dense(y), dense(y)))
    assert not dense_is_zero(dense_sub(dense(y), dense(ident)))
    with pytest.raises(ValueError):
        ExactMatrix(((1, 0),), ((0, 0), (0, 0)))
    with pytest.raises(DimensionMismatch):
        ident @ pauli_matrix("XX")
    with pytest.raises(AttributeError):
        ident.dim = 3


@pytest.mark.parametrize(
    "re,im",
    [
        (((1, 1), (0, 1)), ((0, 0), (0, 0))),  # two entries in row 0
        (((0, 0), (0, 1)), ((0, 0), (0, 0))),  # empty row 0
        (((1, 0), (1, 0)), ((0, 0), (0, 0))),  # two entries in column 0
        (((2, 0), (0, 1)), ((0, 0), (0, 0))),  # 2 is not a unit
        (((1, 0), (0, 1)), ((1, 0), (0, 0))),  # nor is 1 + i
    ],
)
def test_exact_matrix_rejects_non_monomial_or_non_unit(re, im):
    with pytest.raises(ValueError):
        ExactMatrix(re, im)


def test_monomial_arithmetic_matches_dense():
    # Pauli column maps are XOR masks, which compose in either order, so
    # two monomial matrices that are not Pauli products join the words
    phase_gate = ExactMatrix(((1, 0), (0, 0)), ((0, 0), (0, 1)))
    cycle = ExactMatrix(
        ((0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
        ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (-1, 0, 0, 0)),
    )
    matrices = [pauli_matrix(w) for n in (1, 2) for w in all_words(n)] + [phase_gate, cycle]
    for a in matrices:
        for b in matrices:
            assert dense(a.kron(b)) == dense_kron(dense(a), dense(b))
            if a.dim == b.dim:
                assert dense(a @ b) == dense_matmul(dense(a), dense(b))


def test_pauli_matrix_xz_golden():
    # X (outer) tensor Z (inner), written out by hand
    m = pauli_matrix("XZ")
    assert m.re == (
        (0, 0, 1, 0),
        (0, 0, 0, -1),
        (1, 0, 0, 0),
        (0, -1, 0, 0),
    )
    assert not any(any(row) for row in m.im)


def test_pauli_matrix_cap():
    with pytest.raises(CapacityError):
        pauli_matrix("I" * 7)
    assert pauli_matrix("I" * 6).dim == 64


def test_pauli_matrices_are_unitary_with_unit_entries():
    for w in nonidentity_words(2):
        m = pauli_matrix(w)
        for i in range(m.dim):
            for j in range(m.dim):
                re, im = m.entry(i, j)
                assert (re, im) in {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
        # each row and column holds exactly one nonzero entry
        for i in range(m.dim):
            assert sum(1 for j in range(m.dim) if m.entry(i, j) != (0, 0)) == 1
            assert sum(1 for j in range(m.dim) if m.entry(j, i) != (0, 0)) == 1


def test_commutes_matrix_goldens():
    assert not commutes_matrix("X", "Y")
    assert commutes_matrix("XI", "IZ")
    assert commutes_matrix("ZZ", "XX")
    # the commutator of X and Y is exactly 2iZ
    x, y, z = pauli_matrix("X"), pauli_matrix("Y"), pauli_matrix("Z")
    commutator = dense_sub(dense(x @ y), dense(y @ x))
    doubled_iz = (((0, 2), (0, 0)), ((0, 0), (0, -2)))
    assert commutator == doubled_iz
    assert times_i(z, 1).im == ((1, 0), (0, -1))
    with pytest.raises(DimensionMismatch):
        commutes_matrix("X", "XX")


def test_letter_product_table_against_matrices():
    for a, b in product("IXYZ", repeat=2):
        got = pauli_matrix(a) @ pauli_matrix(b)
        expected = pauli_matrix(LETTER_PRODUCT[a, b])
        assert equal_mod_phase(got, expected)


def _phase_free_key(m):
    """m's column map with its phases taken relative to row 0: equal exactly mod phase."""
    return m.cols, tuple((p - m.phases[0]) & 3 for p in m.phases)


@lru_cache(maxsize=None)
def _words_by_matrix(n):
    return {_phase_free_key(pauli_matrix(w)): w for w in all_words(n)}


def recover_word_from_matrix(m, n):
    """Find the word whose matrix equals m up to a phase in {1,i,-1,-i}."""
    word = _words_by_matrix(n).get(_phase_free_key(m))
    if word is None:
        raise AssertionError("matrix is not a Pauli word up to phase")
    return word


def assert_homomorphism_mod_phase(n):
    """Every ordered product of N-qubit words, against the matrices."""
    words = nonidentity_words(n)
    for p in words:
        for q in words:
            prod = recover_word_from_matrix(pauli_matrix(p) @ pauli_matrix(q), n)
            assert prod == word_product(p, q)
            if set(prod) == {"I"}:
                assert pauli_to_vector(p) == pauli_to_vector(q)
            else:
                assert pauli_to_vector(prod) == pauli_to_vector(p) ^ pauli_to_vector(q)


def test_homomorphism_mod_phase_exhaustive_small():
    for n in (1, 2):
        assert_homomorphism_mod_phase(n)


def test_homomorphism_mod_phase_randomized():
    # the name is historical: every ordered pair at N = 3 and 4 is checked
    for n in (3, 4):
        assert_homomorphism_mod_phase(n)


@pytest.mark.parametrize("n,pairs", [(1, 9), (2, 225)])
def test_oracle_equivalence_sweep_small(n, pairs):
    assert commutation_sweep(n) == (pairs, 0)


def test_oracle_equivalence_sweep_n4():
    assert commutation_sweep(4) == (65025, 0)


def test_commutation_sweep_cap():
    with pytest.raises(CapacityError):
        commutation_sweep(7)


def test_mcs_of_generator():
    z_gen = rref([SymplecticVector(1, 0, 1)])
    assert mcs_of_generator(z_gen) == ["Z"]
    g = rref([SymplecticVector(2, 0b10, 0), SymplecticVector(2, 0b01, 0)])
    assert set(mcs_of_generator(g)) == {"XI", "IX", "XX"}
    for g3 in enumerate_generators(3)[:5]:
        assert len(mcs_of_generator(g3)) == 7
    with pytest.raises(DomainError):
        mcs_of_generator(rref([SymplecticVector(2, 0b10, 0)]))  # not maximal
    x = SymplecticVector(1, 1, 0)
    z = SymplecticVector(1, 0, 1)
    with pytest.raises(DomainError):
        mcs_of_generator(rref([x, z]))  # not isotropic


def test_mcs_words_are_ordered_by_point():
    for g in enumerate_generators(2):
        words = mcs_of_generator(g)
        keys = [pauli_to_vector(w).key for w in words]
        assert keys == sorted(keys)


def test_every_mcs_passes_pairwise_matrix_commutation():
    for n in (1, 2, 3):
        for g in enumerate_generators(n):
            words = mcs_of_generator(g)
            for i, p in enumerate(words):
                for q in words[i + 1:]:
                    assert commutes_matrix(p, q)


def test_mcs_maximality_no_outside_word_commutes_with_all():
    for n in (1, 2):
        for g in enumerate_generators(n):
            cell = set(mcs_of_generator(g))
            for w in nonidentity_words(n):
                if w in cell:
                    continue
                assert not all(commutes(w, m) for m in cell)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_spread_cells_partition_all_words(n):
    cells = [mcs_of_generator(b) for b in desarguesian_spread(n).blocks]
    assert len(cells) == (1 << n) + 1
    seen = [w for cell in cells for w in cell]
    assert len(seen) == (1 << (2 * n)) - 1
    assert set(seen) == set(nonidentity_words(n))


def maximal_cliques(vertices, adj):
    """Bron-Kerbosch with pivoting."""
    out = []

    def grow(r, p, x):
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in list(p - adj[pivot]):
            grow(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    grow(set(), set(vertices), set())
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_maximal_commuting_set_comes_from_a_generator(n):
    # converse direction: the maximal cliques of the matrix-oracle
    # commutation graph are exactly the generator cells, nothing else
    words = nonidentity_words(n)
    adj = {w: {u for u in words if u != w and commutes_matrix(w, u)} for w in words}
    cliques = set(maximal_cliques(words, adj))
    cells = {frozenset(mcs_of_generator(g)) for g in enumerate_generators(n)}
    assert cliques == cells
