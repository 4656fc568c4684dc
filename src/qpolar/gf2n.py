"""GF(2^n) arithmetic in a fixed polynomial basis, n = 1..5.

Elements are n-bit ints: bit i is the coefficient of x^i.  The modulus
for each degree is pinned (low-weight standard choices) so every output
of the package is reproducible bit for bit:

    n=1: x + 1        n=2: x^2 + x + 1    n=3: x^3 + x + 1
    n=4: x^4 + x + 1  n=5: x^5 + x^2 + 1

The only consumer is the field-plane spread construction, which needs
multiplication and the trace-dual of the polynomial basis
{1, x, ..., x^(n-1)}; that dual comes from the basis's trace Gram matrix,
inverted by gf2._reduce, the package's one GF(2) row reduction.
dual_basis returns it as a tuple of FieldElements.  Results are not
re-checked per call: tests/test_gf2n.py checks Tr(p_i * delta_j) = [i == j]
(test_dual_basis_delta_identities, test_dual_basis_matches_definition_*)
and trace(a) in {0, 1} for every element (test_trace_properties).
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import DimensionMismatch, DomainError, NotABasisError, _Value
from .gf2 import _reduce

MODULI = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
}


def _check_degree(n: int) -> None:
    if n not in MODULI:
        raise DimensionMismatch(f"supported extension degrees are {sorted(MODULI)}, got {n}")


class FieldElement(_Value):
    """An element of GF(2^n): bit i of ``bits`` is the coefficient of x^i."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int) -> None:
        _check_degree(n)
        if not 0 <= bits < (1 << n):
            raise DomainError(f"coefficients must fit in {n} bits")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __xor__(self, other: "FieldElement") -> "FieldElement":
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


def fmul(a: FieldElement, b: FieldElement) -> FieldElement:
    """Product modulo the pinned irreducible polynomial."""
    if a.n != b.n:
        raise DimensionMismatch(f"cannot multiply degrees {a.n} and {b.n}")
    n = a.n
    # carry-less multiply
    prod = 0
    x, y = a.bits, b.bits
    while y:
        if y & 1:
            prod ^= x
        x <<= 1
        y >>= 1
    # reduce degree-by-degree from the top
    modulus = MODULI[n]
    for bit in range(prod.bit_length() - 1, n - 1, -1):
        if (prod >> bit) & 1:
            prod ^= modulus << (bit - n)
    return FieldElement(n, prod)


def trace(a: FieldElement) -> int:
    """Absolute trace a + a^2 + ... + a^(2^(n-1)), landing in {0, 1}."""
    acc = a
    power = a
    for _ in range(a.n - 1):
        power = fmul(power, power)
        acc = acc ^ power
    return acc.bits


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
    if not primal:
        raise NotABasisError("empty primal basis")
    n = primal[0].n
    if len(primal) != n or any(e.n != n for e in primal):
        raise NotABasisError(f"need exactly {n} elements of degree {n}")

    # [G | I], with column j of G at bit 2n-1-j and of I at bit n-1-j; reduced,
    # it is [I | G^-1], row j pivoting on column j, unless G is singular
    aug = [
        sum(trace(fmul(primal[i], primal[j])) << (2 * n - 1 - j) for j in range(n)) | 1 << (n - 1 - i)
        for i in range(n)
    ]
    inv = _reduce(aug)
    if not inv[-1] >> n:
        raise NotABasisError("trace Gram matrix is singular: primal is not a basis")

    dual = []
    for j in range(n):
        acc = zero(n)
        for k in range(n):
            if (inv[j] >> (n - 1 - k)) & 1:  # G^-1 is symmetric as G is: row j is column j
                acc = acc ^ primal[k]
        dual.append(acc)
    return tuple(dual)
