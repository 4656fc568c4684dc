"""Exception types shared across the package, and the table of size caps."""


class QPolarError(ValueError):
    """Base class for all qpolar errors."""


class DimensionMismatch(QPolarError):
    """Operands live over different qubit counts."""


class ZeroVectorError(QPolarError):
    """The zero vector was used where a point of the space is required."""


class IdentityWordError(QPolarError):
    """The all-identity Pauli word was used where a non-identity operator is required."""


class CapacityError(QPolarError):
    """An enumeration or oracle was requested above its supported size cap."""


# Every independent size cap, with its measured cost at the cap (CPython 3.11,
# shared 2-vCPU VM).  The name decides the error: the qubit count cap raises
# DimensionMismatch, every other cap CapacityError.  Derived caps are not
# stored: params() takes the qubit count cap; verify takes the generator
# enumeration cap, as it enumerates generators (verify 4: about 0.02 s, about
# 0.19 s with --oracle); constructed spreads take max(gf2n.MODULI), the largest
# degree with a pinned field modulus (desarguesian_spread(5): about 0.003 s).
CAPS = {
    "qubit count": 12,  # x and z halves of one 24-bit key; perp_census of an N=12 point: about 7 ms
    # enumerate_generators(4): about 0.013 s for 2,295 subspaces; N=5 would take
    # about 1.0 s for 75,735 (measured with this entry raised to 5).  generators 4
    # --format json: 0.02-0.035 s in-process (median of 21, five runs), about half
    # of it the enumeration and most of the rest rendering the 34,425 words
    "generator enumeration": 4,
    # enumerate_spreads(3): 0.010-0.013 s for all 960 spreads (median of 11, four
    # runs), nearly all of it the cover search, as search results are built
    # without re-validation; enumerate_spreads(3, limit=1): about 1.6-1.9 ms
    "spread search": 3,
    "matrix oracle": 6,  # commutes_matrix at N=6: about 0.05 ms a pair, cache cold; 0.007 ms warm
    "graph": 3,  # graph 3: about 3 ms for 63 vertices and 945 edges
}


def check_cap(what: str, n: int, detail: str = "") -> None:
    """Raise DimensionMismatch unless n >= 1; above ``CAPS[what]``, the error the cap's name decides."""
    if n < 1:
        raise DimensionMismatch(f"n_qubits must be positive, got {n}")
    cap = CAPS[what]
    if n > cap:
        error = DimensionMismatch if what == "qubit count" else CapacityError
        raise error(f"{what} is capped at N<={cap}; N={n} was requested{detail}")


class NotABasisError(QPolarError):
    """The supplied field elements do not form a basis."""


class DomainError(QPolarError):
    """Structured input violates an operation's precondition (e.g. not isotropic, not a generator)."""
