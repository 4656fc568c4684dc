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
Words are rendered from packed keys (x << N) | z four qubits per
lookup in _CHUNKS, a table derived from the letter encoding, and parsed
four letters per lookup in its inverse; commutes compares two parsed
keys with no vector built.

The independent route that grounds the dictionary is ExactMatrix:
literal Kronecker products of the four single-qubit matrices over the
Gaussian integers, where "commuting" means AB and BA are exactly equal.
Pauli tensor products are monomial (one unit of {1, i, -1, -i} per row
and column), so a matrix is a byte string: row r's byte is col << 2 | e
for its one entry i**e in column col, which fits for dim <= 64, the
oracle cap's 2^6.  A 256-byte right-action table holds row c times i**e
at c << 2 | e, so the rows of AB are A's rows translated through B's
table by one bytes.translate, exponents added exactly.  The commutation
test builds AB and BA that way and compares them whole, every row's
column and exponent.  The matrices come from literal 2x2 tables, never
from x/z bits, so the oracle is independent of the form.  Its sweep
compares each word's matrix verdicts, as a point mask, with its entry
of ``gf2._perp_masks``, the table every count reads.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as _product
from operator import xor

from .errors import CAPS, CapacityError, DimensionMismatch, DomainError, IdentityWordError, ZeroVectorError, _Value, _is_int, _iterate, check_cap, check_type
from .geometry import is_maximal_isotropic
from .gf2 import Subspace, SymplecticVector, _form, _perp_masks, _span_keys, _vectors

__all__ = ["ExactMatrix", "all_words", "commutation_sweep", "commutes", "commutes_matrix", "mcs_of_generator",
           "pauli_matrix", "pauli_to_vector", "validate_word", "vector_to_pauli"]

LETTERS = "IXYZ"
_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_XZ_TO_LETTER = {xz: letter for letter, xz in _LETTER_TO_XZ.items()}


def validate_word(word: str) -> str:
    """Check a Pauli word; returns it unchanged.  Raises naming the bad type or character."""
    if not isinstance(word, str):
        raise DomainError(f"a Pauli word must be a str, got {type(word).__name__}")
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
    """(N, packed key) of a non-identity word; checks its type and letters, then identity, then N.

    The word is left-padded with I to whole 4-letter chunks, and each
    chunk is one _CHUNK_XZ lookup: one in all at N <= 4.  A chunk that is
    not in the table holds a non-letter, which validate_word then names.
    """
    if word.__class__ is not str or not word:  # a non-str names its type; "" would pad to the identity
        validate_word(word)
    n = len(word)
    try:
        if n <= 4:
            x, z = _CHUNK_XZ[word.rjust(4, "I")]
        else:
            padded = word.rjust(n + -n % 4, "I")
            x = z = 0
            for i in range(0, len(padded), 4):
                x4, z4 = _CHUNK_XZ[padded[i:i + 4]]
                x, z = x << 4 | x4, z << 4 | z4
    except KeyError:
        validate_word(word)
    key = x << n | z
    if not key:
        raise IdentityWordError("the identity word has no point in the space")
    if n > CAPS["qubit count"]:
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
# its inverse: the (x4, z4) of each 4-letter chunk
_CHUNK_XZ = {w: divmod(i, 16) for i, w in enumerate(_CHUNKS)}


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
    check_type(v, SymplecticVector, "vector_to_pauli")
    if v.is_zero:
        raise ZeroVectorError("the zero vector corresponds to the excluded identity")
    return _keys_to_words((v.key,), v.n)[0]


def commutes(p: str, q: str) -> bool:
    """Symplectic commutation test: the form vanishes on the two points."""
    (n, u), (m, v) = _word_key(p), _word_key(q)
    if n != m:
        raise DimensionMismatch(f"words of length {n} and {m} cannot be compared")
    return not _form(u, v, n)


# i**k for k = 0..3 as (re, im) pairs: the four units of the Gaussian integers
_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))
# _TIMES_I[e] maps the row byte col << 2 | k to col << 2 | (k + e) % 4: the entry times i**e
_TIMES_I = tuple(bytes([b & ~3 | (b + e) & 3 for b in range(256)]) for e in range(4))


def _check_rows(dim: int) -> None:
    """Refuse a matrix with more rows than one byte can address: col << 2 | e needs col < 64."""
    if dim > 64:
        raise CapacityError(f"ExactMatrix is capped at 64 rows, one byte each; {dim} rows were requested")


def _kron_rows(outer: bytes, inner: bytes) -> bytes:
    """Row bytes of the Kronecker product, outer factor left.

    Outer row col << 2 | e scales the inner matrix by i**e into column
    block col, so its block is the inner rows translated by _TIMES_I[e]
    rotated by the block's byte offset: each byte b becomes
    _TIMES_I[e][b + offset], which stays below 256 as the product fits.
    """
    d = len(inner)
    _check_rows(len(outer) * d)
    blocks = []
    for a in outer:
        times, offset = _TIMES_I[a & 3], (a & ~3) * d
        blocks.append(inner.translate(times[offset:] + times[:offset]))
    return b"".join(blocks)


def _right_action(rows: bytes) -> bytes:
    """The 256-byte table whose entry c << 2 | e is row c of ``rows`` times i**e; unused entries 0."""
    table = bytearray(256)
    for e, times in enumerate(_TIMES_I):
        table[e:4 * len(rows):4] = rows.translate(times)
    return bytes(table)


class ExactMatrix(_Value):
    """A square monomial matrix over the Gaussian integers with unit entries, at most 64 x 64.

    Row r holds one nonzero entry, i**e in column col, stored as the byte
    ``rows[r] = col << 2 | e``.  ``table[c << 2 | e]`` is row c times i**e
    in the same encoding, so the rows of A @ B are
    ``A.rows.translate(B.table)``.  ``cols``, ``phases``, ``entry`` and
    the dense ``re`` and ``im`` are read-only views of the rows.
    """

    __slots__ = ("rows", "table")

    def __init__(self, re, im):
        tables = "real and imaginary parts must be tables of rows"
        re, im = [tuple(tuple(_iterate(row, tables)) for row in _iterate(part, tables)) for part in (re, im)]
        dim = len(re)
        if len(im) != dim or any(len(row) != dim for row in re + im):
            raise DomainError("real and imaginary parts must be square and congruent")
        _check_rows(dim)
        for row in re + im:
            for v in row:
                if not _is_int(v):
                    raise DomainError(f"matrix entries must be integers, got {v!r}")
        nonzero = [[(j, e) for j, e in enumerate(zip(*parts)) if e != (0, 0)] for parts in zip(re, im)]
        units = [row[0] for row in nonzero if len(row) == 1 and row[0][1] in _UNITS]
        if len({j for j, _ in units}) != dim:
            raise DomainError("not monomial: every row and column needs one entry in {1, i, -1, -i}")
        rows = bytes([j << 2 | _UNITS.index(e) for j, e in units])
        self.__setstate__((rows, _right_action(rows)))

    @classmethod
    def _from_rows(cls, rows: bytes) -> "ExactMatrix":
        return cls._unchecked(rows, _right_action(rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def cols(self) -> tuple[int, ...]:
        return tuple([b >> 2 for b in self.rows])

    @property
    def phases(self) -> tuple[int, ...]:
        return tuple([b & 3 for b in self.rows])

    @property
    def re(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.entry(i, j)[0] for j in range(self.dim)) for i in range(self.dim))

    @property
    def im(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.entry(i, j)[1] for j in range(self.dim)) for i in range(self.dim))

    def entry(self, i: int, j: int) -> tuple[int, int]:
        b = self.rows[i]
        return _UNITS[b & 3] if b >> 2 == j else (0, 0)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if len(self.rows) != len(other.rows):
            raise DimensionMismatch("matrix dimensions differ")
        return ExactMatrix._from_rows(self.rows.translate(other.table))

    def commutes_with(self, other: "ExactMatrix") -> bool:
        """Whether self @ other == other @ self: both products' rows, all compared."""
        if len(self.rows) != len(other.rows):
            raise DimensionMismatch("matrix dimensions differ")
        return self.rows.translate(other.table) == other.rows.translate(self.table)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product with self as the outer (left) factor."""
        return ExactMatrix._from_rows(_kron_rows(self.rows, other.rows))

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
    """The literal 2^N x 2^N matrix of a word, leftmost letter outermost.

    The letters' matrices are folded from the right, so each step's outer
    factor is one 2 x 2 letter.  Any hashable non-str raises DomainError.
    An unhashable argument, such as a list, raises TypeError from the
    cache itself, before this runs.
    """
    validate_word(word)
    n = len(word)
    check_cap("matrix oracle", n, f" (2^{n} x 2^{n} matrices)")
    rows = SINGLE_QUBIT[word[-1]].rows
    for ch in word[-2::-1]:
        rows = _kron_rows(SINGLE_QUBIT[ch].rows, rows)
    return ExactMatrix._from_rows(rows)


def commutes_matrix(p: str, q: str) -> bool:
    """Brute-force commutation: the exact products AB and BA are equal."""
    if p.__class__ is not str or q.__class__ is not str:  # before len, which bytes or a list would pass
        validate_word(p)
        validate_word(q)
    if len(p) != len(q):
        raise DimensionMismatch(f"words of length {len(p)} and {len(q)} cannot be compared")
    return pauli_matrix(p).commutes_with(pauli_matrix(q))


def commutation_sweep(n_qubits: int) -> tuple[int, int]:
    """Compare both commutation routes over all ordered pairs of non-identity words.

    Each key 1 .. 4^N - 1 is rendered to its word and built once as a
    matrix.  For each word u, the matrix side is the point mask of the
    keys whose matrices commute with u's, every pair decided by
    ExactMatrix.commutes_with, which never reads x/z bits; the form side
    is u's entry of ``_perp_masks``.  The pairs on which they differ are
    the set bits of the two masks' XOR.  Returns (pairs_checked, mismatches).
    """
    n = n_qubits
    check_cap("matrix oracle", n)  # before all 4^N - 1 words are rendered
    keys = range(1, 1 << 2 * n)
    matrices = [pauli_matrix(w) for w in _keys_to_words(keys, n)]
    perps = _perp_masks(n)
    mismatches = 0
    for u, a in zip(keys, matrices):
        commuting = sum(1 << (v - 1) for v, b in zip(keys, matrices) if a.commutes_with(b))
        mismatches += (commuting ^ perps[u]).bit_count()
    return len(keys) ** 2, mismatches


def mcs_of_generator(g: Subspace) -> list[str]:
    """The maximally commuting operator set carried by a generator.

    The result is the generator's 2^N - 1 points as words, ascending in
    point order.  Maximality is is_maximal_isotropic's rank-N check; no
    point scan runs here.  The span is built and rendered on packed keys.
    """
    check_type(g, Subspace, "mcs_of_generator")
    if not is_maximal_isotropic(g):
        raise DomainError(f"rank {g.rank} subspace is not a generator (need rank {g.n})")
    # XORs of fully reduced rows order by their highest row, so doubling from the
    # lowest row up (the keys are stored highest first) lists the span ascending
    return _keys_to_words(_span_keys(g.keys[::-1]), g.n)


def _mcs_words(blocks, n: int) -> list[list[str]]:
    """sorted(mcs_of_generator(g)) for each generator in blocks, given as its RREF row keys, over n qubits.

    Words come from one table of all 4^N words, so this serves the N the
    CLI prints, not the qubit cap.  Blocks are rendered all at once and
    column by column: row i of every block is one column, the 2^n span
    columns grow by list-doubling as in ``_span_keys``, and each nonzero
    column is looked up in the table, both by C-level maps.  Every block
    must have n rows, or zip would truncate it.  The largest input a
    command reaches is ``generators 4``'s 2,295 blocks, so the span columns
    hold at most about 34,000 ints.
    The blocks come from the package's own enumerators, so none is
    re-checked here; tests/test_geometry.py rebuilds them through the
    checking constructors: every generator at N <= 4
    (test_generators_are_valid_and_distinct), which are also the blocks
    the spread search renders, and every constructed spread
    (test_desarguesian_spread).
    """
    table = _keys_to_words(range(1 << 2 * n), n)
    spans = [[0] * len(blocks)]
    for rows in zip(*blocks):
        spans += [list(map(xor, span, rows)) for span in spans]
    del spans[0]  # the zero vector
    return list(map(sorted, zip(*[map(table.__getitem__, span) for span in spans])))
