"""Bit-packed GF(2) symplectic linear algebra for N qubits.

Vectors live in V(2N, 2) and are written (x_1 .. x_N | z_1 .. z_N).
Both halves are packed into Python ints with qubit 1 at the most
significant bit, so ``(x << n) | z`` orders vectors exactly like reading
their coordinate string left to right.  The nonzero vectors are the
points of the rank-N symplectic polar space of order two; the zero
vector is a legal intermediate value in linear algebra but is rejected
by every point-level operation.

The alternating form is fixed once for the whole package:

    sp_form(u, v) = u.x . v.z  +  u.z . v.x   (mod 2)

i.e. the Gram matrix is [[0, I], [I, 0]] in the (x | z) split.  With the
letterwise Pauli encoding in :mod:`qpolar.pauli` this makes
"form vanishes" coincide with "operators commute".

Two distinct points are perpendicular when the form vanishes on them.
For order two this is the same as being joined by a totally isotropic
line: the line through p and q is {p, q, p + q}, and it is totally
isotropic iff sp_form(p, q) = 0 (bilinearity gives the form on all
other pairs).  Tests exercise this equivalence directly.  Inside the
package the form on packed keys is the parity of ``u & _swap_halves(v, n)``,
taken per basis pair by ``is_totally_isotropic``, per word pair by
``pauli.commutes``, and against one point by ``_perp_mask``, a mask with
key k as bit k - 1.  The form is bilinear, so non-perpendicular masks
add under XOR: ``_perp_masks`` list-doubles all 4^N masks from the 2N
unit keys' masks, the one table read by verify's counts, ``graph``, the
N=2 audit and ``pauli.commutation_sweep``, which checks it.  Points become
``SymplecticVector``s only at the public edge, built when asked for.

A Subspace is its reduced row echelon basis with pivots taken left to
right across (x | z), stored as the rows' packed keys by descending
leading bit, so equal subspaces always carry identical key tuples.
Generators follow one rule: key tuples inside, Subspace at the public
edge.  The package's own code reads them as these tuples, and
``_span_keys`` spans a tuple of row keys, not a Subspace.
``_reduce``, the package's one GF(2) row reduction, builds that basis in
``rref``, decides the checked constructor, reduces each x-projection's
dot-product complement in ``geometry._generator_bases``, and gives
``gf2n.dual_basis`` its trace Gram inverse by reducing [G | I].  Its
step is ``_residue``, one row reduced modulo fully reduced rows, which
is 0 exactly when the row lies in their span: ``Subspace.contains``
tests that, and ``_generator_bases`` reduces each leading bit modulo
the complement with it.  verify reduces and spans nothing: a
set of rows has its span's commutant, so it checks each block, generator
or field-plane line, by the AND of its rows' ``_perp_masks`` entries.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import DimensionMismatch, DomainError, ZeroVectorError, _Value, _is_int, _iterate, check_cap, check_type


class SymplecticVector(_Value):
    """An element of V(2N, 2), bit-packed as (x-part, z-part)."""

    __slots__ = ("n", "x", "z")

    def __init__(self, n: int, x: int, z: int) -> None:
        check_cap("qubit count", n)
        if not _is_int(x) or not _is_int(z):
            raise DomainError(f"x/z parts must be integers, got {x!r} and {z!r}")
        if not 0 <= x < (1 << n) or not 0 <= z < (1 << n):
            raise DomainError(f"x/z parts must be {n}-bit values")
        self.__setstate__((n, x, z))

    @classmethod
    def from_bits(cls, x_bits: str, z_bits: str) -> "SymplecticVector":
        """Build from coordinate strings, e.g. from_bits("10", "01") for N=2."""
        check_type(x_bits, str, "SymplecticVector.from_bits")
        check_type(z_bits, str, "SymplecticVector.from_bits")
        if len(x_bits) != len(z_bits) or not x_bits:
            raise DimensionMismatch("x and z bit strings must have equal positive length")
        for bits in (x_bits, z_bits):
            if not set(bits) <= {"0", "1"}:
                raise DomainError(f"bit strings may contain only 0 and 1, got {bits!r}")
        return cls(len(x_bits), int(x_bits, 2), int(z_bits, 2))

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.z == 0

    @property
    def key(self) -> int:
        """Packed 2N-bit value; ascending key = left-to-right lexicographic order."""
        return (self.x << self.n) | self.z

    @property
    def pivot(self) -> int | None:
        """Index of the leading coordinate (0 = x_1, ..., 2N-1 = z_N); None if zero."""
        if self.is_zero:
            return None
        return 2 * self.n - self.key.bit_length()

    def __xor__(self, other: "SymplecticVector") -> "SymplecticVector":
        check_type(other, SymplecticVector, "SymplecticVector ^")
        if self.n != other.n:
            raise DimensionMismatch(f"cannot add vectors over {self.n} and {other.n} qubits")
        return SymplecticVector(self.n, self.x ^ other.x, self.z ^ other.z)

    def __str__(self) -> str:
        return f"{self.x:0{self.n}b}|{self.z:0{self.n}b}"


def _vectors(keys: Iterable[int], n: int) -> Iterator[SymplecticVector]:
    """The points of the nonzero ``keys``, each built through the validated constructor."""
    mask = (1 << n) - 1
    return (SymplecticVector(n, k >> n, k & mask) for k in keys)


def all_points(n_qubits: int) -> Iterator[SymplecticVector]:
    """All 4^N - 1 nonzero vectors in ascending key order."""
    check_cap("qubit count", n_qubits)
    return _vectors(range(1, 1 << (2 * n_qubits)), n_qubits)


def _swap_halves(key: int, n: int) -> int:
    """The key with its x and z halves exchanged.

    sp_form(u, v) is the parity of ``u.key & _swap_halves(v.key, n)``.
    """
    return ((key & ((1 << n) - 1)) << n) | (key >> n)


def _perp_mask(key: int, n: int) -> int:
    """The points perpendicular to point ``key``, itself included: bit k - 1 for key k.

    Built by doubling over the 2N key bits: the keys with bit b set pair
    with the point like the keys below 2^b, flipped when the swapped key
    has bit b.  That is 2N big-int steps, not a parity test per key.
    """
    swapped = _swap_halves(key, n)
    mask = 1  # bit k set for each key k < 2^b on which the form vanishes, from key 0
    for b in range(2 * n):
        width = 1 << b
        mask |= (mask ^ ((1 << width) - 1) if swapped >> b & 1 else mask) << width
    return mask >> 1


def _perp_masks(n: int) -> list[int]:
    """``_perp_mask(k, n)`` for every key k = 0 .. 4^N - 1; entry 0 is every point.

    Key k with bit b set is key k - 2^b plus the unit key 2^b, so its
    non-perpendicular mask is the XOR of theirs: doubling the list once
    per unit key builds all of them, and each is complemented at the end.
    """
    points = (1 << (1 << 2 * n) - 1) - 1  # bit k - 1 for each key k >= 1
    non_perps = [0]  # non-perpendicular masks of the keys below 2^b
    for b in range(2 * n):
        unit = points ^ _perp_mask(1 << b, n)
        non_perps += [mask ^ unit for mask in non_perps]
    return [points ^ mask for mask in non_perps]


def sp_form(u: SymplecticVector, v: SymplecticVector) -> int:
    """Evaluate the alternating form: parity of u.x & v.z plus u.z & v.x."""
    if not isinstance(u, SymplecticVector) or not isinstance(v, SymplecticVector):
        raise DomainError(f"sp_form takes two SymplecticVectors, got {type(u).__name__} and {type(v).__name__}")
    if u.n != v.n:
        raise DimensionMismatch(f"form needs equal qubit counts, got {u.n} and {v.n}")
    return ((u.x & v.z).bit_count() + (u.z & v.x).bit_count()) & 1


class Subspace(_Value):
    """A GF(2) subspace given by its (unique) reduced row echelon basis.

    The basis is stored as ``keys``, the rows' packed keys by descending
    leading bit (ascending pivot); ``basis`` is a view of them as points.
    Canonical form means value equality coincides with subspace
    equality.  ``Subspace(n, basis)`` checks that ``_reduce`` leaves the
    basis unchanged; build from any other basis through :func:`rref`.
    ``Subspace._unchecked(n, keys)`` takes keys already reduced, by
    descending leading bit, and checks nothing.
    """

    __slots__ = ("n", "keys")

    def __init__(self, n: int, basis: Iterable[SymplecticVector]) -> None:
        check_cap("qubit count", n)
        keys = []
        for row in _iterate(basis, "a subspace basis must be iterable"):
            if not isinstance(row, SymplecticVector):
                raise DomainError(f"a basis row must be a SymplecticVector, got {type(row).__name__}")
            if row.n != n:
                raise DimensionMismatch("basis rows must match the subspace qubit count")
            key = row.key
            if not key:
                raise DomainError("zero row in basis")
            keys.append(key)
        lengths = [key.bit_length() for key in keys]  # pivots increase as these fall
        if any(a <= b for a, b in zip(lengths, lengths[1:])):
            raise DomainError("basis pivots must strictly increase")
        if _reduce(keys) != keys:  # rows with distinct pivots are independent: only reduction differs
            raise DomainError("basis is not fully reduced")
        self.__setstate__((n, tuple(keys)))

    @property
    def basis(self) -> tuple[SymplecticVector, ...]:
        return tuple(_vectors(self.keys, self.n))

    @property
    def rank(self) -> int:
        return len(self.keys)

    def contains(self, v: SymplecticVector) -> bool:
        check_type(v, SymplecticVector, "Subspace.contains")
        if v.n != self.n:
            raise DimensionMismatch("vector and subspace qubit counts differ")
        return not _residue(v.key, self.keys)

    def sort_key(self) -> tuple[tuple[int, int], ...]:
        """Canonical comparison key: rows ordered pivot-major, then by packed value."""
        width = 2 * self.n
        return tuple((width - key.bit_length(), key) for key in self.keys)


def rref(vectors: Iterable[SymplecticVector], n_qubits: int | None = None) -> Subspace:
    """Reduce a list of vectors to the canonical RREF basis of their span.

    ``n_qubits`` is only needed when ``vectors`` is empty (the rank-0
    subspace is a valid result, not an error).
    """
    rows: list[int] = []
    n = n_qubits
    for v in _iterate(vectors, "rref takes an iterable of SymplecticVectors"):
        if not isinstance(v, SymplecticVector):
            raise DomainError(f"rref takes SymplecticVectors, got {type(v).__name__}")
        if n is None:
            n = v.n
        elif v.n != n:
            raise DimensionMismatch("all vectors must share one qubit count")
        rows.append(v.key)
    if n is None:
        raise DimensionMismatch("empty input needs an explicit n_qubits")
    check_cap("qubit count", n)

    return Subspace._unchecked(n, tuple(_reduce(rows)))


def _residue(row: int, reduced: Iterable[int]) -> int:
    """``row`` reduced modulo fully reduced rows sorted by descending leading bit; 0 iff in their span."""
    # an xor with a reduced row is smaller exactly when it clears that row's pivot
    for piv in reduced:
        row = min(row, row ^ piv)
    return row


def _reduce(rows: Iterable[int]) -> list[int]:
    """The fully reduced nonzero rows spanning ``rows``, by descending leading bit."""
    reduced: list[int] = []  # kept fully reduced and sorted by descending leading bit
    for row in rows:
        row = _residue(row, reduced)
        if row:
            reduced = [min(piv, piv ^ row) for piv in reduced]
            reduced.append(row)
            reduced.sort(reverse=True)
    return reduced


def _span_keys(rows: tuple[int, ...]) -> list[int]:
    """Packed keys of the 2^len(rows) - 1 nonzero vectors spanned by independent row keys (so distinct)."""
    keys = [0]
    for row in rows:
        keys += [k ^ row for k in keys]
    return keys[1:]


def span_points(s: Subspace) -> set[SymplecticVector]:
    """All 2^rank - 1 nonzero vectors in the span of the basis."""
    check_type(s, Subspace, "span_points")
    return set(_vectors(_span_keys(s.keys), s.n))


def is_totally_isotropic(s: Subspace) -> bool:
    """True iff the form vanishes on the whole subspace.

    Bilinearity means checking all basis pairs suffices (and the form is
    alternating, so diagonal pairs are free).  The form on two keys is
    the parity of one AND with the other's halves swapped.
    """
    check_type(s, Subspace, "is_totally_isotropic")
    n, keys = s.n, s.keys
    for i in range(1, len(keys)):  # each row against every row above it
        swapped = _swap_halves(keys[i], n)
        for u in keys[:i]:
            if (swapped & u).bit_count() & 1:
                return False
    return True


def perp_census(p: SymplecticVector) -> tuple[int, int]:
    """Count (perpendicular, non-perpendicular) points among all q != p.

    Perpendicular means distinct with vanishing form.  The
    non-perpendicular count is 2^(2N-1) for every point.
    """
    check_type(p, SymplecticVector, "perp_census")
    if p.is_zero:
        raise ZeroVectorError("the zero vector is not a point of the space")
    perp = _perp_mask(p.key, p.n).bit_count()
    return perp - 1, (1 << (2 * p.n)) - 1 - perp
