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

The independent route that grounds the dictionary is ExactMatrix:
literal Kronecker products of the four single-qubit matrices over the
Gaussian integers, where "commuting" means AB and BA are exactly equal.
Pauli tensor products are monomial (one unit of {1, i, -1, -i} per row
and column), so rows are stored as (column, exponent of i mod 4) and
products add exponents exactly.  The matrices come from literal 2x2
tables, never from x/z bits, so the oracle is independent of the form.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as _product

from .errors import (
    CapacityError,
    DimensionMismatch,
    DomainError,
    IdentityWordError,
    ZeroVectorError,
)
from .geometry import is_maximal_isotropic
from .gf2 import Subspace, SymplecticVector, sp_form

LETTERS = "IXYZ"
_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_XZ_TO_LETTER = {xz: letter for letter, xz in _LETTER_TO_XZ.items()}

# 2^6 x 2^6 is the largest matrix the oracle will build
MAX_ORACLE_QUBITS = 6


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
    for letters in _product(LETTERS, repeat=n_qubits):
        yield "".join(letters)


def pauli_to_vector(word: str) -> SymplecticVector:
    """Letterwise encoding of a non-identity word into its point."""
    validate_word(word)
    n = len(word)
    x = z = 0
    for k, ch in enumerate(word):
        xb, zb = _LETTER_TO_XZ[ch]
        x |= xb << (n - 1 - k)
        z |= zb << (n - 1 - k)
    if x == 0 and z == 0:
        raise IdentityWordError("the identity word has no point in the space")
    return SymplecticVector(n, x, z)


def _key_to_word(key: int, n: int) -> str:
    """The word of the packed point key = (x << n) | z, qubit 1 leftmost."""
    # z keeps the x-part above bit n, but the shifts below never reach it
    x, z = key >> n, key
    return "".join([_XZ_TO_LETTER[(x >> s) & 1, (z >> s) & 1] for s in range(n - 1, -1, -1)])


def vector_to_pauli(v: SymplecticVector) -> str:
    """Inverse of pauli_to_vector."""
    if v.is_zero:
        raise ZeroVectorError("the zero vector corresponds to the excluded identity")
    return _key_to_word(v.key, v.n)


def commutes(p: str, q: str) -> bool:
    """Symplectic commutation test: the form vanishes on the two points."""
    u, v = pauli_to_vector(p), pauli_to_vector(q)
    if u.n != v.n:
        raise DimensionMismatch(f"words of length {u.n} and {v.n} cannot be compared")
    return sp_form(u, v) == 0


# i**k for k = 0..3 as (re, im) pairs: the four units of the Gaussian integers
_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


class ExactMatrix:
    """A square monomial matrix over the Gaussian integers with unit entries.

    Row r holds its only nonzero entry, i**phases[r], in column cols[r];
    ``re`` and ``im`` are dense views of the real and imaginary parts.
    """

    __slots__ = ("cols", "phases")

    def __init__(self, re, im):
        re, im = tuple(map(tuple, re)), tuple(map(tuple, im))
        dim = len(re)
        if len(im) != dim or any(len(row) != dim for row in re + im):
            raise ValueError("real and imaginary parts must be square and congruent")
        rows = [[(j, e) for j, e in enumerate(zip(*parts)) if e != (0, 0)] for parts in zip(re, im)]
        units = [row[0] for row in rows if len(row) == 1 and row[0][1] in _UNITS]
        if len({j for j, _ in units}) != dim:
            raise ValueError("not monomial: every row and column needs one entry in {1, i, -1, -i}")
        object.__setattr__(self, "cols", tuple(j for j, _ in units))
        object.__setattr__(self, "phases", tuple(_UNITS.index(e) for _, e in units))

    @classmethod
    def _from_rows(cls, cols: tuple[int, ...], phases: tuple[int, ...]) -> "ExactMatrix":
        m = object.__new__(cls)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "phases", phases)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

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

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.cols == other.cols and self.phases == other.phases

    def __hash__(self):
        return hash((self.cols, self.phases))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch("matrix dimensions differ")
        b_cols, b_phases = other.cols, other.phases
        return ExactMatrix._from_rows(
            tuple([b_cols[c] for c in self.cols]),
            tuple([(p + b_phases[c]) & 3 for c, p in zip(self.cols, self.phases)]),
        )

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
    if len(word) > MAX_ORACLE_QUBITS:
        raise CapacityError(
            f"the matrix oracle is capped at N<={MAX_ORACLE_QUBITS} "
            f"(2^{len(word)} x 2^{len(word)} requested)"
        )
    m = SINGLE_QUBIT[word[0]]
    for ch in word[1:]:
        m = m.kron(SINGLE_QUBIT[ch])
    return m


def commutes_matrix(p: str, q: str) -> bool:
    """Brute-force commutation: the exact products AB and BA are equal."""
    if len(p) != len(q):
        raise DimensionMismatch(f"words of length {len(p)} and {len(q)} cannot be compared")
    a, b = pauli_matrix(p), pauli_matrix(q)
    return a @ b == b @ a


def commutation_sweep(n_qubits: int) -> tuple[int, int]:
    """Compare both commutation routes over all ordered pairs of non-identity words.

    Returns (pairs_checked, mismatches).
    """
    if n_qubits > MAX_ORACLE_QUBITS:
        raise CapacityError(f"the matrix oracle is capped at N<={MAX_ORACLE_QUBITS}")
    words = [w for w in all_words(n_qubits) if set(w) != {"I"}]
    pairs = 0
    mismatches = 0
    for p in words:
        for q in words:
            pairs += 1
            if commutes(p, q) != commutes_matrix(p, q):
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
    keys = [0]
    for row in g.basis:
        rk = row.key
        keys += [k ^ rk for k in keys]
    keys.sort()
    return [_key_to_word(k, g.n) for k in keys[1:]]
