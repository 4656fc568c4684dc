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

# each module's __all__ is its public surface, and the package re-exports them all
from . import errors, gf2, gf2n, geometry, pauli, verify
from .errors import *
from .gf2 import *
from .gf2n import *
from .geometry import *
from .pauli import *
from .verify import *

__version__ = "0.1.0"


# cli is imported on first use (PEP 562), so ``python -m qpolar.cli`` does
# not find it already in sys.modules and runpy has nothing to warn about
def __getattr__(name: str):
    if name in ("canonical_json", "main"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["canonical_json", "main", "__version__"]
__all__ += errors.__all__
__all__ += gf2.__all__
__all__ += gf2n.__all__
__all__ += geometry.__all__
__all__ += pauli.__all__
__all__ += verify.__all__
