"""GF(2^n) arithmetic in a fixed polynomial basis, n = 1..5.

Elements are n-bit ints: bit i is the coefficient of x^i.  The modulus
for each degree is pinned (low-weight standard choices) so every output
of the package is reproducible bit for bit:

    n=1: x + 1        n=2: x^2 + x + 1    n=3: x^3 + x + 1
    n=4: x^4 + x + 1  n=5: x^5 + x^2 + 1

The only consumer is geometry._field_plane_rows, the field-plane spread
rows behind desarguesian_spread and verify's eq3, which needs
multiplication and the trace-dual of the polynomial basis
{1, x, ..., x^(n-1)}; that dual comes from the basis's trace Gram matrix,
inverted by gf2._reduce, the package's one GF(2) row reduction.  The
arithmetic runs on ints in the private kernels _mul and _trace;
FieldElement is the public edge: fmul and trace wrap the kernels, and
dual_basis wraps only its n results.  Results are not re-checked per
call: tests/test_gf2n.py checks Tr(p_i * delta_j) = [i == j]
(test_dual_basis_delta_identities, test_dual_basis_matches_definition_*)
and trace(a) in {0, 1} for every element (test_trace_properties).
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import DimensionMismatch, DomainError, NotABasisError, _Value, _is_int, _iterate, check_type
from .gf2 import _reduce

MODULI = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
}


def _check_degree(n: int) -> None:
    if not _is_int(n) or n not in MODULI:  # 2.0 and True would match a key
        raise DimensionMismatch(f"supported extension degrees are {sorted(MODULI)}, got {n}")


class FieldElement(_Value):
    """An element of GF(2^n): bit i of ``bits`` is the coefficient of x^i."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int) -> None:
        _check_degree(n)
        if not _is_int(bits):
            raise DomainError(f"bits must be an integer, got {bits!r}")
        if not 0 <= bits < (1 << n):
            raise DomainError(f"coefficients must fit in {n} bits")
        self.__setstate__((n, bits))

    def __xor__(self, other: "FieldElement") -> "FieldElement":
        check_type(other, FieldElement, "FieldElement ^")
        if self.n != other.n:
            raise DimensionMismatch("cannot add elements of different degrees")
        return FieldElement(self.n, self.bits ^ other.bits)


def zero(n: int) -> FieldElement:
    return FieldElement(n, 0)


def one(n: int) -> FieldElement:
    return FieldElement(n, 1)


def elements(n: int) -> Iterator[FieldElement]:
    """All 2^n field elements, in coefficient order; the degree is checked on the call."""
    _check_degree(n)
    return (FieldElement(n, bits) for bits in range(1 << n))


def _mul(a: int, b: int, n: int) -> int:
    """The product of the n-bit elements a and b modulo the pinned polynomial, as an int."""
    # carry-less multiply
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        a <<= 1
        b >>= 1
    # reduce degree-by-degree from the top
    modulus = MODULI[n]
    for bit in range(prod.bit_length() - 1, n - 1, -1):
        if (prod >> bit) & 1:
            prod ^= modulus << (bit - n)
    return prod


def _trace(a: int, n: int) -> int:
    """The absolute trace of the n-bit element a, as 0 or 1."""
    acc = power = a
    for _ in range(n - 1):
        power = _mul(power, power, n)
        acc ^= power
    return acc


def fmul(a: FieldElement, b: FieldElement) -> FieldElement:
    """Product modulo the pinned irreducible polynomial."""
    if not isinstance(a, FieldElement) or not isinstance(b, FieldElement):
        raise DomainError(f"fmul takes two FieldElements, got {type(a).__name__} and {type(b).__name__}")
    if a.n != b.n:
        raise DimensionMismatch(f"cannot multiply degrees {a.n} and {b.n}")
    return FieldElement(a.n, _mul(a.bits, b.bits, a.n))


def trace(a: FieldElement) -> int:
    """Absolute trace a + a^2 + ... + a^(2^(n-1)), landing in {0, 1}."""
    check_type(a, FieldElement, "trace")
    return _trace(a.bits, a.n)


def polynomial_basis(n: int) -> list[FieldElement]:
    """The default primal basis {1, x, ..., x^(n-1)}."""
    _check_degree(n)
    return [FieldElement(n, 1 << i) for i in range(n)]


def dual_basis(primal: list[FieldElement]) -> tuple[FieldElement, ...]:
    """The unique trace-dual (delta_0, ..., delta_(n-1)) of a GF(2)-basis.

    Inverts the trace Gram matrix G_ij = Tr(primal_i * primal_j) over
    GF(2) by reducing [G | I] with gf2._reduce; a singular Gram matrix
    means the input is not a basis.
    test_dual_basis_matches_definition_* checks Tr(primal_i * delta_j) =
    [i == j] against a brute-force search, so it is not re-checked here.
    """
    primal = tuple(_iterate(primal, "dual_basis takes an iterable of FieldElements"))
    for e in primal:
        if not isinstance(e, FieldElement):
            raise DomainError(f"dual_basis takes FieldElements, got {type(e).__name__}")
    if not primal:
        raise NotABasisError("empty primal basis")
    n = primal[0].n
    if len(primal) != n or any(e.n != n for e in primal):
        raise NotABasisError(f"need exactly {n} elements of degree {n}")

    # [G | I], with column j of G at bit 2n-1-j and of I at bit n-1-j; reduced,
    # it is [I | G^-1], row j pivoting on column j, unless G is singular
    p = [e.bits for e in primal]
    aug = [
        sum(_trace(_mul(p[i], p[j], n), n) << (2 * n - 1 - j) for j in range(n)) | 1 << (n - 1 - i)
        for i in range(n)
    ]
    inv = _reduce(aug)
    if not inv[-1] >> n:
        raise NotABasisError("trace Gram matrix is singular: primal is not a basis")

    dual = []
    for j in range(n):
        acc = 0
        for k in range(n):
            if (inv[j] >> (n - 1 - k)) & 1:  # G^-1 is symmetric as G is: row j is column j
                acc ^= p[k]
        dual.append(FieldElement(n, acc))
    return tuple(dual)
