"""Exception types, the table of size caps, the argument rules, and the value base shared across the package.

The argument rules are written once here, for every module to call:
``_is_int`` (an int that is not a ``bool``), ``_iterate`` (an iterator,
or DomainError naming the type of a non-iterable), ``check_cap`` (a
positive integer count within its cap) and ``check_type``.
"""

from operator import attrgetter

__all__ = ["CAPS", "CapacityError", "DimensionMismatch", "DomainError", "IdentityWordError", "NotABasisError",
           "QPolarError", "ZeroVectorError"]


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


class NotABasisError(QPolarError):
    """The supplied field elements do not form a basis."""


class DomainError(QPolarError):
    """Structured input violates an operation's precondition (e.g. not isotropic, not a generator)."""


# Every independent size cap, with its measured cost at the cap (CPython 3.11,
# shared 2-vCPU VM).  The name decides the error: the qubit count cap raises
# DimensionMismatch, every other cap CapacityError.  Derived caps are not
# stored: params() takes the qubit count cap; verify takes the generator
# enumeration cap, as it enumerates generators (verify 4: about 0.004-0.005 s,
# about 0.020-0.021 s with --oracle, median of 21 through cli.main, three runs);
# constructed spreads take max(gf2n.MODULI), the largest degree with a pinned
# field modulus (desarguesian_spread(5): about 0.003 s).
CAPS = {
    "qubit count": 12,  # x and z halves of one 24-bit key; perp_census of an N=12 point: about 7 ms
    # enumerate_generators(4): 0.004-0.007 s for 2,295 subspaces, 0.002-0.003 s of
    # it the key tuples of geometry._generator_bases (median of seven, ten runs);
    # N=5 would take 0.21-0.25 s for 75,735, 0.085-0.12 s as key tuples (three runs
    # of seven, with this entry raised to 5).  generators 4 --format json:
    # 0.012-0.015 s in-process (median of 21, five runs): about 20 % the key
    # tuples, 35-50 % rendering the 34,425 words, about a fifth JSON, the rest
    # argument parsing and output
    "generator enumeration": 4,
    # enumerate_spreads(3): 0.0065-0.012 s for all 960 spreads (median of 11, ten
    # runs), nearly all of it the cover search, as search results are built
    # without re-validation; enumerate_spreads(3, limit=1): about 0.9-1.8 ms.
    # spread 3 --method search --all through cli.main: 0.007-0.011 s, 0.012-0.016 s
    # with --format json (median of 21, three runs), each of the 135 generators
    # rendered once and indexed per spread
    "spread search": 3,
    # commutes_matrix at N=6: about 0.015 ms a pair, cache cold; 0.0004 ms warm.
    # commutation_sweep(6): about 5.7 s for all 16,769,025 ordered pairs (one run),
    # 0.26-0.28 s at N=5.  A matrix row is one byte, col << 2 | e, so a cap above 6
    # needs a wider row encoding
    "matrix oracle": 6,
    "graph": 3,  # graph 3: about 3 ms for 63 vertices and 945 edges
}


def _is_int(value: object) -> bool:
    """Whether ``value`` is an int and not a bool, the one integer rule."""
    return isinstance(value, int) and value.__class__ is not bool


def _iterate(values: object, message: str):
    """An iterator over ``values``; DomainError "<message>, got <type>" if it is not iterable."""
    try:
        return iter(values)
    except TypeError:
        raise DomainError(f"{message}, got {type(values).__name__}") from None


def check_cap(what: str, n: int, detail: str = "") -> None:
    """Raise DimensionMismatch unless n is a non-bool int >= 1; above ``CAPS[what]``, the error its name decides."""
    if not _is_int(n):
        raise DimensionMismatch(f"n_qubits must be an integer, got {n!r}")
    if n < 1:
        raise DimensionMismatch(f"n_qubits must be positive, got {n}")
    cap = CAPS[what]
    if n > cap:
        error = DimensionMismatch if what == "qubit count" else CapacityError
        raise error(f"{what} is capped at N<={cap}; N={n} was requested{detail}")


def check_type(value: object, cls: type, caller: str) -> None:
    """Raise DomainError naming the type of ``value`` unless it is a ``cls``."""
    if not isinstance(value, cls):
        raise DomainError(f"{caller} takes a {cls.__name__}, got {type(value).__name__}")


class _Value:
    """An immutable value whose fields are its ``__slots__``, in place of a frozen dataclass.

    Equality (with the same class only), hash, repr, pickling and copying
    run over the field tuple, read by one ``operator.attrgetter`` per
    class, and fields cannot be assigned or deleted.  It spares ``import
    qpolar`` loading ``dataclasses``, the modules that pulls in, and its
    generated methods.  The generic ``__init__`` takes every field;
    constructors that validate define their own.

    Fields are written in one place, ``__setstate__``, through the
    class's slot setters: every constructor and unpickling end in it.
    ``_unchecked`` builds a value from fields the package already knows
    are valid, without running a constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._astuple = attrgetter(*cls.__slots__)  # not a descriptor: called as self._astuple(self)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    @classmethod
    def _unchecked(cls, *fields):
        """The value of these fields, in slot order, without validation."""
        value = object.__new__(cls)
        value.__setstate__(fields)
        return value

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes exactly the fields {', '.join(names)}")
        self.__setstate__(values[name] for name in names)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._astuple(self)))
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self) -> tuple:
        return self._astuple(self)

    def __setstate__(self, state) -> None:
        for setter, value in zip(self._setters, state):
            setter(self, value)
