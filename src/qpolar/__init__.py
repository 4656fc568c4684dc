"""Pauli commutation structure as a binary symplectic point geometry.

The non-identity N-qubit Pauli operators (modulo phase) are the nonzero
vectors of a 2N-dimensional GF(2) space carrying an alternating form;
operators commute exactly when the form vanishes on their vectors.  The
package enumerates the maximal totally isotropic subspaces (maximally
commuting operator sets), builds and searches for spreads (partitions of
all operators into such sets), verifies the counting formulas behind
each of those objects, and cross-checks the whole dictionary against
exact Gaussian-integer matrices.
"""

from .errors import (
    CapacityError,
    DimensionMismatch,
    DomainError,
    IdentityWordError,
    NotABasisError,
    QPolarError,
    ZeroVectorError,
)
from .gf2 import (
    MAX_QUBITS,
    Subspace,
    SymplecticVector,
    all_points,
    is_totally_isotropic,
    perp_census,
    rref,
    span_points,
    sp_form,
)
from .gf2n import (
    MODULI,
    DualBasisPair,
    FieldElement,
    dual_basis,
    elements,
    fmul,
    one,
    polynomial_basis,
    trace,
    zero,
)
from .geometry import (
    GQReport,
    PolarSpaceParams,
    Spread,
    desarguesian_spread,
    enumerate_generators,
    enumerate_spreads,
    gq22_structure_check,
    is_maximal_isotropic,
    params,
)
from .pauli import (
    MAX_ORACLE_QUBITS,
    ExactMatrix,
    all_words,
    commutation_sweep,
    commutes,
    commutes_matrix,
    mcs_of_generator,
    pauli_matrix,
    pauli_to_vector,
    validate_word,
    vector_to_pauli,
)
from .verify import Check, VerificationReport, run_verification

__version__ = "0.1.0"


# cli is imported on first use (PEP 562), so ``python -m qpolar.cli`` does
# not find it already in sys.modules and runpy has nothing to warn about
def __getattr__(name: str):
    if name in ("canonical_json", "main"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CapacityError",
    "Check",
    "DimensionMismatch",
    "DomainError",
    "DualBasisPair",
    "ExactMatrix",
    "FieldElement",
    "GQReport",
    "IdentityWordError",
    "MAX_ORACLE_QUBITS",
    "MAX_QUBITS",
    "MODULI",
    "NotABasisError",
    "PolarSpaceParams",
    "QPolarError",
    "Spread",
    "Subspace",
    "SymplecticVector",
    "VerificationReport",
    "ZeroVectorError",
    "all_points",
    "all_words",
    "canonical_json",
    "commutation_sweep",
    "commutes",
    "commutes_matrix",
    "desarguesian_spread",
    "dual_basis",
    "elements",
    "enumerate_generators",
    "enumerate_spreads",
    "fmul",
    "gq22_structure_check",
    "is_maximal_isotropic",
    "is_totally_isotropic",
    "main",
    "mcs_of_generator",
    "one",
    "params",
    "pauli_matrix",
    "pauli_to_vector",
    "perp_census",
    "polynomial_basis",
    "rref",
    "run_verification",
    "span_points",
    "sp_form",
    "trace",
    "validate_word",
    "vector_to_pauli",
    "zero",
    "__version__",
]
