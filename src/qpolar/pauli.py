"""Pauli words, their symplectic coordinates, and an exact matrix oracle.

Operators are phase-free classes written as words over {I, X, Y, Z},
qubit 1 leftmost, tensor factors read left to right.  Letters encode
into (x, z) coordinate pairs

    I -> (0, 0),  X -> (1, 0),  Z -> (0, 1),  Y -> (1, 1)

so the 4^N - 1 non-identity words biject onto the nonzero vectors of
V(2N, 2), and two operators commute exactly when the alternating form
vanishes on their vectors.  Phases are discarded throughout: the point
set has 4^N - 1 elements, which forces the quotient by {+-1, +-i}, and
commutation is phase-invariant, so nothing observable is lost.  (Y is
the X-then-Z composition up to the phase -i, which the quotient
absorbs.)  Any symplectic change of basis would give an equally valid
dictionary; this letterwise one is the package-wide convention.
A word is parsed by two str.translate passes that spell its x bits and
its z bits as binary digits, read by one int() as the packed key
(x << N) | z; commutes compares two such keys with no vector built.
Words are rendered from packed keys four qubits per lookup.  Every
such table derives from the letter encoding.

The independent route that grounds the dictionary is ExactMatrix:
literal Kronecker products of the four single-qubit matrices over the
Gaussian integers, where "commuting" means AB and BA are exactly equal.
Pauli tensor products are monomial (one unit of {1, i, -1, -i} per row
and column), so rows are stored as (column, exponent of i mod 4) and
products add exponents exactly.  The commutation test compares AB and
BA row by row, each row's column and exponent read straight from the
factors, and stops at the first row that differs, so neither product
is built.  The matrices come from literal 2x2 tables, never from x/z
bits, so the oracle is independent of the form.  Its sweep renders
every nonzero key to a word and checks the matrices' verdicts against
``gf2._perp_mask``, the form behind every count.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as _product

from .errors import DimensionMismatch, DomainError, IdentityWordError, ZeroVectorError, _Value, check_cap
from .geometry import is_maximal_isotropic
from .gf2 import Subspace, SymplecticVector, _perp_mask, _span_keys, _swap_halves, _vectors

LETTERS = "IXYZ"
_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_XZ_TO_LETTER = {xz: letter for letter, xz in _LETTER_TO_XZ.items()}
# str.translate tables spelling a word's x bits, and its z bits, as binary digits
_X_BITS = str.maketrans({letter: str(x) for letter, (x, _) in _LETTER_TO_XZ.items()})
_Z_BITS = str.maketrans({letter: str(z) for letter, (_, z) in _LETTER_TO_XZ.items()})


def validate_word(word: str) -> str:
    """Check a Pauli word; returns it unchanged.  Raises naming the bad character."""
    if not word:
        raise DomainError("empty Pauli word")
    for ch in word:
        if ch not in _LETTER_TO_XZ:
            raise DomainError(f"invalid Pauli letter {ch!r} in {word!r} (allowed: I, X, Y, Z)")
    return word


def all_words(n_qubits: int):
    """All 4^N words including the identity, in letter order."""
    check_cap("qubit count", n_qubits)
    return ("".join(letters) for letters in _product(LETTERS, repeat=n_qubits))


def _word_key(word: str) -> tuple[int, int]:
    """(N, packed key) of a non-identity word; checks its letters, then identity, then N."""
    if not word or word.strip(LETTERS):  # a non-letter is left: name it
        validate_word(word)
    key = int(word.translate(_X_BITS) + word.translate(_Z_BITS), 2)
    if not key:
        raise IdentityWordError("the identity word has no point in the space")
    n = len(word)
    check_cap("qubit count", n)
    return n, key


def pauli_to_vector(word: str) -> SymplecticVector:
    """Letterwise encoding of a non-identity word into its point."""
    n, key = _word_key(word)
    return next(_vectors((key,), n))


# entry (x4 << 4) | z4 is the word of one 4-qubit chunk, leading I's kept
_CHUNKS = tuple(
    "".join(_XZ_TO_LETTER[x >> s & 1, z >> s & 1] for s in (3, 2, 1, 0))
    for x in range(16) for z in range(16)
)


def _keys_to_words(keys, n: int) -> list[str]:
    """Words of packed keys (x << n) | z: one _CHUNKS lookup per 4 qubits, padding I's sliced off.

    Each chunk is one pass over the sequence keys, top chunk first.  At
    N = 4 the slice is whole, so every word is a _CHUNKS string itself.
    """
    chunks, top = _CHUNKS, 4 * ((n - 1) // 4)
    # x >> top has at most 4 bits; z is unmasked, as x bits above bit n land on the padding
    xs, cut = n + top, -n % 4
    words = [chunks[(k >> xs) << 4 | k >> top & 15][cut:] for k in keys]
    for s in range(top - 4, -1, -4):
        words = [w + chunks[(k >> n + s & 15) << 4 | k >> s & 15] for w, k in zip(words, keys)]
    return words


def vector_to_pauli(v: SymplecticVector) -> str:
    """Inverse of pauli_to_vector."""
    if v.is_zero:
        raise ZeroVectorError("the zero vector corresponds to the excluded identity")
    return _keys_to_words((v.key,), v.n)[0]


def commutes(p: str, q: str) -> bool:
    """Symplectic commutation test: the form vanishes on the two points."""
    (n, u), (m, v) = _word_key(p), _word_key(q)
    if n != m:
        raise DimensionMismatch(f"words of length {n} and {m} cannot be compared")
    return not (u & _swap_halves(v, n)).bit_count() & 1


# i**k for k = 0..3 as (re, im) pairs: the four units of the Gaussian integers
_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


class ExactMatrix(_Value):
    """A square monomial matrix over the Gaussian integers with unit entries.

    Row r holds its only nonzero entry, i**phases[r], in column cols[r];
    ``re`` and ``im`` are dense views of the real and imaginary parts.
    """

    __slots__ = ("cols", "phases")

    def __init__(self, re, im):
        re, im = tuple(map(tuple, re)), tuple(map(tuple, im))
        dim = len(re)
        if len(im) != dim or any(len(row) != dim for row in re + im):
            raise DomainError("real and imaginary parts must be square and congruent")
        rows = [[(j, e) for j, e in enumerate(zip(*parts)) if e != (0, 0)] for parts in zip(re, im)]
        units = [row[0] for row in rows if len(row) == 1 and row[0][1] in _UNITS]
        if len({j for j, _ in units}) != dim:
            raise DomainError("not monomial: every row and column needs one entry in {1, i, -1, -i}")
        object.__setattr__(self, "cols", tuple(j for j, _ in units))
        object.__setattr__(self, "phases", tuple(_UNITS.index(e) for _, e in units))

    @classmethod
    def _from_rows(cls, cols: tuple[int, ...], phases: tuple[int, ...]) -> "ExactMatrix":
        m = object.__new__(cls)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "phases", phases)
        return m

    @property
    def dim(self) -> int:
        return len(self.cols)

    @property
    def re(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.entry(i, j)[0] for j in range(self.dim)) for i in range(self.dim))

    @property
    def im(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.entry(i, j)[1] for j in range(self.dim)) for i in range(self.dim))

    def entry(self, i: int, j: int) -> tuple[int, int]:
        return _UNITS[self.phases[i]] if self.cols[i] == j else (0, 0)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch("matrix dimensions differ")
        b_cols, b_phases = other.cols, other.phases
        return ExactMatrix._from_rows(
            tuple([b_cols[c] for c in self.cols]),
            tuple([(p + b_phases[c]) & 3 for c, p in zip(self.cols, self.phases)]),
        )

    def commutes_with(self, other: "ExactMatrix") -> bool:
        """Whether self @ other == other @ self, compared row by row with no product built."""
        if self.dim != other.dim:
            raise DimensionMismatch("matrix dimensions differ")
        a_cols, a_phases, b_cols, b_phases = self.cols, self.phases, other.cols, other.phases
        # row r of A is i**p in column c, of B i**q in column d; so row r of AB
        # is i**(p + b_phases[c]) in column b_cols[c], of BA i**(q + a_phases[d]) in a_cols[d]
        for c, d, p, q in zip(a_cols, b_cols, a_phases, b_phases):
            if b_cols[c] != a_cols[d] or (p + b_phases[c] - q - a_phases[d]) & 3:
                return False
        return True

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product with self as the outer (left) factor."""
        d2 = other.dim
        return ExactMatrix._from_rows(
            tuple([a * d2 + b for a in self.cols for b in other.cols]),
            tuple([(a + b) & 3 for a in self.phases for b in other.phases]),
        )

    def __repr__(self):
        return f"ExactMatrix(dim={self.dim})"


SINGLE_QUBIT = {
    "I": ExactMatrix(((1, 0), (0, 1)), ((0, 0), (0, 0))),
    "X": ExactMatrix(((0, 1), (1, 0)), ((0, 0), (0, 0))),
    "Y": ExactMatrix(((0, 0), (0, 0)), ((0, -1), (1, 0))),
    "Z": ExactMatrix(((1, 0), (0, -1)), ((0, 0), (0, 0))),
}


@lru_cache(maxsize=None)
def pauli_matrix(word: str) -> ExactMatrix:
    """The literal 2^N x 2^N matrix of a word, leftmost letter outermost."""
    validate_word(word)
    n = len(word)
    check_cap("matrix oracle", n, f" (2^{n} x 2^{n} matrices)")
    m = SINGLE_QUBIT[word[0]]
    for ch in word[1:]:
        m = m.kron(SINGLE_QUBIT[ch])
    return m


def commutes_matrix(p: str, q: str) -> bool:
    """Brute-force commutation: the exact products AB and BA are equal."""
    if len(p) != len(q):
        raise DimensionMismatch(f"words of length {len(p)} and {len(q)} cannot be compared")
    return pauli_matrix(p).commutes_with(pauli_matrix(q))


def commutation_sweep(n_qubits: int) -> tuple[int, int]:
    """Compare both commutation routes over all ordered pairs of non-identity words.

    Each key 1 .. 4^N - 1 is rendered to its word and built once as a
    matrix; per pair the form side is one bit of ``_perp_mask``, and the
    matrix side is ExactMatrix.commutes_with, which never reads x/z bits.
    Returns (pairs_checked, mismatches).
    """
    n = n_qubits
    check_cap("matrix oracle", n)  # before all 4^N - 1 words are rendered
    keys = range(1, 1 << 2 * n)
    matrices = [pauli_matrix(w) for w in _keys_to_words(keys, n)]
    pairs = 0
    mismatches = 0
    for u, a in zip(keys, matrices):
        perp = _perp_mask(u, n)
        for v, b in zip(keys, matrices):
            pairs += 1
            if (perp >> (v - 1) & 1) != a.commutes_with(b):
                mismatches += 1
    return pairs, mismatches


def mcs_of_generator(g: Subspace) -> list[str]:
    """The maximally commuting operator set carried by a generator.

    The result is the generator's 2^N - 1 points as words, ascending in
    point order.  Maximality is is_maximal_isotropic's rank-N check; no
    point scan runs here.  The span is built and rendered on packed keys.
    """
    if not is_maximal_isotropic(g):
        raise DomainError(f"rank {g.rank} subspace is not a generator (need rank {g.n})")
    return _keys_to_words(sorted(_span_keys(g)), g.n)


def _mcs_words(blocks, n: int) -> list[list[str]]:
    """sorted(mcs_of_generator(g)) for each generator g over n qubits, from one word table.

    The table holds all 4^N words, so this serves the N the CLI prints,
    not the qubit cap.  The blocks come from the package's own enumerators,
    so none is re-checked here; tests/test_geometry.py rebuilds them through
    the checking constructors: every generator at N <= 4
    (test_generators_are_valid_and_distinct), every spread search result at
    N <= 3 (test_enumerate_spreads_n2_full, test_enumerate_spreads_n3_all)
    and every constructed spread (test_desarguesian_spread).
    """
    table = _keys_to_words(range(1 << 2 * n), n)
    return [sorted([table[k] for k in _span_keys(g)]) for g in blocks]
