"""Word encoding, exact matrix oracle, and the commuting = perpendicular bridge."""

import random
from functools import lru_cache
from itertools import product

import pytest

from qpolar import (
    CapacityError,
    DimensionMismatch,
    DomainError,
    ExactMatrix,
    IdentityWordError,
    QPolarError,
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
from qpolar.gf2 import _perp_masks
from qpolar.pauli import _CHUNKS, _LETTER_TO_XZ, _keys_to_words, _mcs_words, _word_key

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


# a word must be a str; a list passes len and iteration, a tuple of letters
# passes letter validation, and bytes would be read as ints
WORD_ENTRY_POINTS = {
    "validate_word": validate_word,
    "pauli_to_vector": pauli_to_vector,
    "pauli_matrix": pauli_matrix,
    "commutes": lambda word: commutes(word, "XY"),
    "commutes_matrix": lambda word: commutes_matrix(word, "XY"),
    "commutes_matrix second word": lambda word: commutes_matrix("XY", word),
}


@pytest.mark.parametrize("entry", WORD_ENTRY_POINTS)
@pytest.mark.parametrize("word", [5, None, b"XX", ("X",), ["X", "Y"]], ids=repr)
def test_word_entry_points_refuse_non_str(entry, word):
    if entry == "pauli_matrix" and isinstance(word, list):
        # the cache hashes its argument before pauli_matrix runs
        with pytest.raises(TypeError, match="^unhashable type: 'list'$"):
            pauli_matrix(word)
        return
    with pytest.raises(DomainError, match=f"^a Pauli word must be a str, got {type(word).__name__}$"):
        WORD_ENTRY_POINTS[entry](word)


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


def _letter_error(ch, word):
    return DomainError, f"invalid Pauli letter {ch!r} in {word!r} (allowed: I, X, Y, Z)"


_IDENTITY_ERROR = IdentityWordError, "the identity word has no point in the space"
_QUBIT_CAP_ERROR = DimensionMismatch, "qubit count is capped at N<=12; N=13 was requested"


# int() alone would take "_", spaces and Unicode digits such as "١"; the
# parse must name each of them, and the identity check precedes the cap
@pytest.mark.parametrize("word,expected", [
    ("", (DomainError, "empty Pauli word")),
    ("X_Z", _letter_error("_", "X_Z")),
    ("1", _letter_error("1", "1")),
    ("10", _letter_error("1", "10")),
    (" X", _letter_error(" ", " X")),
    ("X ", _letter_error(" ", "X ")),
    ("xz", _letter_error("x", "xz")),
    ("X\u0661", _letter_error("\u0661", "X\u0661")),
    ("II", _IDENTITY_ERROR),
    ("I" * 13, _IDENTITY_ERROR),
    ("X" * 13, _QUBIT_CAP_ERROR),
])
def test_pauli_to_vector_error_contract(word, expected):
    with pytest.raises(QPolarError) as err:
        pauli_to_vector(word)
    assert (type(err.value), str(err.value)) == expected


def _reference_word_key(word):
    """(N, key) of a word read one letter at a time from _LETTER_TO_XZ, or the (class, message) it must raise."""
    if not isinstance(word, str):
        return DomainError, f"a Pauli word must be a str, got {type(word).__name__}"
    if not word:
        return DomainError, "empty Pauli word"
    bad = [ch for ch in word if ch not in _LETTER_TO_XZ]
    if bad:
        return _letter_error(bad[0], word)
    x = z = 0
    for ch in word:
        xb, zb = _LETTER_TO_XZ[ch]
        x, z = x << 1 | xb, z << 1 | zb
    n = len(word)
    if not x | z:
        return _IDENTITY_ERROR
    if n > 12:
        return DimensionMismatch, f"qubit count is capped at N<=12; N={n} was requested"
    return n, x << n | z


def _parsed(word):
    try:
        return _word_key(word)
    except QPolarError as err:
        return type(err), str(err)


def test_word_key_against_letterwise_reference():
    # every word of 1-6 letters: one chunk, then a partial and a whole second chunk
    words = ["".join(w) for n in range(1, 7) for w in product("IXYZ", repeat=n)]
    # a bad letter in every position of words of one to three chunks
    words += [w[:i] + "1" + w[i + 1:] for w in ("XXXX", "XXXXX", "XXXXXX", "YZXIYZXI", "XXXXXXXXX") for i in range(len(w))]
    words += ["", "I" * 13, "X" * 13, "I" * 12 + "Z", b"XX", ["X", "Y"], None]
    for word in words:
        assert _parsed(word) == _reference_word_key(word), word
    assert _parsed("I" * 13) == _IDENTITY_ERROR  # the identity check precedes the cap
    assert _parsed("X" * 13) == _QUBIT_CAP_ERROR
    assert _parsed(b"XX") == (DomainError, "a Pauli word must be a str, got bytes")


def _length_error(m, n):
    return DimensionMismatch, f"words of length {m} and {n} cannot be compared"


@pytest.mark.parametrize("p,q,symplectic,matrix", [
    ("II", "X", _IDENTITY_ERROR, _length_error(2, 1)),
    ("XA", "XX", _letter_error("A", "XA"), _letter_error("A", "XA")),
    ("X", "XX", _length_error(1, 2), _length_error(1, 2)),
    ("X" * 13, "Z" * 13, _QUBIT_CAP_ERROR, (
        CapacityError, "matrix oracle is capped at N<=6; N=13 was requested (2^13 x 2^13 matrices)",
    )),
    ("XX", "I_", _letter_error("_", "I_"), _letter_error("_", "I_")),
])
def test_commutation_routes_error_contract(p, q, symplectic, matrix):
    for route, expected in ((commutes, symplectic), (commutes_matrix, matrix)):
        with pytest.raises(QPolarError) as err:
            route(p, q)
        assert (type(err.value), str(err.value)) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_encoding_is_a_bijection(n):
    words = nonidentity_words(n)
    assert len(words) == (1 << (2 * n)) - 1
    vectors = [pauli_to_vector(w) for w in words]
    assert len(set(vectors)) == len(words)
    assert set(vectors) == set(all_points(n))
    for w, v in zip(words, vectors):
        assert vector_to_pauli(v) == w


def test_chunk_table_against_letterwise_reference():
    # entry (x4 << 4) | z4, spelled letter by letter, qubit 1 at bit 3
    letter_of = {xz: letter for letter, xz in _LETTER_TO_XZ.items()}
    assert len(_CHUNKS) == 256
    for index, word in enumerate(_CHUNKS):
        x4, z4 = index >> 4, index & 15
        assert word == "".join(letter_of[(x4 >> s) & 1, (z4 >> s) & 1] for s in (3, 2, 1, 0))


@pytest.mark.parametrize("n", [5, 8, 9, 12])
def test_multi_chunk_round_trip(n):
    # N = 5 and 9 leave a partial top chunk, N = 8 and 12 fill every chunk
    rng = random.Random(20260826)
    keys = [rng.randrange(1, 1 << (2 * n)) for _ in range(2000)]
    top = 1 << (n - 1)
    extremes = {
        1: "I" * (n - 1) + "Z",
        (1 << (2 * n)) - 1: "Y" * n,
        top << n: "X" + "I" * (n - 1),
        top: "Z" + "I" * (n - 1),
        1 << n: "I" * (n - 1) + "X",
    }
    keys += list(extremes)
    words = _keys_to_words(keys, n)
    for key, word in zip(keys, words):
        v = SymplecticVector(n, key >> n, key & ((1 << n) - 1))
        assert len(word) == n
        assert vector_to_pauli(v) == word
        assert pauli_to_vector(word) == v
    assert words[-len(extremes):] == list(extremes.values())


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
    with pytest.raises(AttributeError):
        ident.cols = ()
    # Y (x) X built dense, and by kron: equal values hash equal
    y_x = ExactMatrix(((0,) * 4,) * 4, ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0)))
    assert y_x == pauli_matrix("YX") and hash(y_x) == hash(pauli_matrix("YX"))
    assert (ident == "I") is False
    assert repr(pauli_matrix("XY")) == "ExactMatrix(dim=4)"


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


@pytest.mark.parametrize("re,im,message", [
    (((1, 0),), ((0, 0), (0, 0)), "square and congruent"),
    (((1, 1), (0, 1)), ((0, 0), (0, 0)), "not monomial"),
], ids=["shape", "not monomial"])
def test_exact_matrix_construction_errors_are_qpolar_errors(re, im, message):
    with pytest.raises(QPolarError, match=message):
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


def random_monomial(rng, dim):
    """A dim x dim monomial matrix with shuffled columns and unit entries.

    Half are one random unit times a permutation matrix, so AB and BA
    agree in every phase and only their columns can tell them apart; the
    rest take a random unit in each row.
    """
    cols = rng.sample(range(dim), dim)
    scalar = rng.random() < 0.5
    phases = [rng.randrange(4)] * dim if scalar else [rng.randrange(4) for _ in range(dim)]
    re, im = [[0] * dim for _ in range(dim)], [[0] * dim for _ in range(dim)]
    for r, (c, k) in enumerate(zip(cols, phases)):
        re[r][c], im[r][c] = ((1, 0), (0, 1), (-1, 0), (0, -1))[k]
    return ExactMatrix(re, im)


def test_commutes_with_matches_the_literal_products():
    paulis = [pauli_matrix(w) for n in (1, 2, 3) for w in all_words(n)]
    for a in paulis:
        for b in paulis:
            if a.dim == b.dim:
                assert a.commutes_with(b) == (a @ b == b @ a)
    rng = random.Random(20260826)
    column_splits = 0
    for _ in range(2000):
        dim = rng.randint(1, 8)
        a, b = random_monomial(rng, dim), random_monomial(rng, dim)
        ab, ba = a @ b, b @ a
        assert a.commutes_with(b) == (ab == ba)
        # Pauli column maps are XOR masks, which commute: only these pairs
        # exercise the column comparison
        column_splits += ab.cols != ba.cols
    assert column_splits > 0
    with pytest.raises(DimensionMismatch):
        pauli_matrix("X").commutes_with(pauli_matrix("XX"))


@pytest.mark.parametrize("dim", [33, 64])
def test_monomial_arithmetic_at_the_row_byte_edge(dim):
    # columns from 32 up set the row byte's top bit, and dim 64 uses all 256 table entries
    rng = random.Random(20261020 + dim)
    a, b = random_monomial(rng, dim), random_monomial(rng, dim)
    unit = ExactMatrix(((0,),), ((1,),))  # the 1 x 1 matrix i: the only kron factor that fits
    a2 = a @ a
    da, db, da2 = dense(a), dense(b), dense(a2)
    ab, ba = dense_matmul(da, db), dense_matmul(db, da)
    assert (dense(a @ b), dense(b @ a), da2) == (ab, ba, dense_matmul(da, da))
    assert a.commutes_with(b) == (ab == ba) and ab != ba
    assert a.commutes_with(a2) and dense_matmul(da, da2) == dense_matmul(da2, da)
    assert dense(a.kron(unit)) == dense_kron(da, dense(unit))
    assert dense(unit.kron(b)) == dense_kron(dense(unit), db)


@pytest.mark.parametrize("build", [
    lambda: ExactMatrix([[int(i == j) for j in range(65)] for i in range(65)], [[0] * 65] * 65),
    lambda: pauli_matrix("XXX").kron(pauli_matrix("ZYZI")),
    lambda: pauli_matrix("X" * 6).kron(pauli_matrix("Y")),
], ids=["dense 65", "kron 8 x 16", "kron 64 x 2"])
def test_row_bytes_cap_the_dimension_at_64(build):
    message = r"^ExactMatrix is capped at 64 rows, one byte each; (65|128) rows were requested$"
    with pytest.raises(CapacityError, match=message):
        build()


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


def test_homomorphism_mod_phase_exhaustive_n3_n4():
    for n in (3, 4):
        assert_homomorphism_mod_phase(n)


@pytest.mark.parametrize("n,pairs", [(1, 9), (2, 225), (3, 3969)])
def test_oracle_equivalence_sweep_small(n, pairs, monkeypatch):
    # the reported pair count is the number of matrix comparisons made: every ordered pair once
    calls = []
    real = ExactMatrix.commutes_with
    monkeypatch.setattr(ExactMatrix, "commutes_with", lambda a, b: calls.append(1) or real(a, b))
    assert commutation_sweep(n) == (pairs, 0)
    assert len(calls) == pairs


def test_oracle_equivalence_sweep_n4():
    assert commutation_sweep(4) == (65025, 0)


def test_oracle_equivalence_sweep_n5():
    assert commutation_sweep(5) == (1046529, 0)


def test_commutation_sweep_cap():
    with pytest.raises(CapacityError):
        commutation_sweep(7)


def test_commutation_sweep_counts_a_wrong_matrix(monkeypatch):
    # X gets Z's matrix, so X and Z "commute" on the matrix side, in both orders;
    # X against X or Y keeps its verdict, so exactly 2 of the 9 pairs mismatch
    real = pauli_matrix
    monkeypatch.setattr("qpolar.pauli.pauli_matrix", lambda w: real("Z" if w == "X" else w))
    assert commutation_sweep(1) == (9, 2)


def test_commutation_sweep_counts_a_wrong_form(monkeypatch):
    # key 1 (Z) loses its own bit, so the form side says Z anticommutes with
    # itself; every other pair keeps its verdict, so exactly 1 of the 9 mismatches
    monkeypatch.setattr("qpolar.pauli._perp_masks", lambda n: [m ^ (k == 1) for k, m in enumerate(_perp_masks(n))])
    assert commutation_sweep(1) == (9, 1)


def test_mcs_of_generator():
    z_gen = rref([SymplecticVector(1, 0, 1)])
    assert mcs_of_generator(z_gen) == ["Z"]
    g = rref([SymplecticVector(2, 0b10, 0), SymplecticVector(2, 0b01, 0)])
    assert set(mcs_of_generator(g)) == {"XI", "IX", "XX"}
    for g3 in enumerate_generators(3)[:5]:
        assert len(mcs_of_generator(g3)) == 7
    with pytest.raises(DomainError, match=r"^rank 1 subspace is not a generator \(need rank 2\)$"):
        mcs_of_generator(rref([SymplecticVector(2, 0b10, 0)]))  # not maximal
    x = SymplecticVector(1, 1, 0)
    z = SymplecticVector(1, 0, 1)
    with pytest.raises(DomainError, match="^subspace is not totally isotropic$"):
        mcs_of_generator(rref([x, z]))  # not isotropic


def test_batch_renderer_matches_mcs_of_generator():
    cases = [(n, enumerate_generators(n)) for n in (1, 2, 3, 4)]
    cases += [(n, desarguesian_spread(n).blocks) for n in (1, 2, 3, 4, 5)]
    for n, blocks in cases:
        assert _mcs_words([g.keys for g in blocks], n) == [sorted(mcs_of_generator(g)) for g in blocks]
    assert _mcs_words([], 3) == []


# prefixes of the N=4 generator list, from one block to all 2,295, each given
# as a list and as a tuple
@pytest.mark.parametrize("k", [1, 63, 64, 65, 128, 129, 2295])
def test_batch_renderer_across_chunk_boundaries(k):
    blocks = enumerate_generators(4)[:k]
    expected = [sorted(mcs_of_generator(g)) for g in blocks]
    rows = [g.keys for g in blocks]
    assert _mcs_words(rows, 4) == expected
    assert _mcs_words(tuple(rows), 4) == expected


def test_mcs_words_are_ordered_by_point():
    blocks = [g for n in (1, 2, 3, 4) for g in enumerate_generators(n)]
    for g in blocks + list(desarguesian_spread(5).blocks):
        words = mcs_of_generator(g)
        assert all(len(w) == g.n for w in words)
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
