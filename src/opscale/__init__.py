"""Operator scaling of completely positive maps to specified marginals.

Given a CP map T(X) = sum_i A_i X A_i^dag and nonincreasing target
spectra (p, q), the solvers find invertible (g, h) such that the scaled
map T_{g,h}(X) = g^dag T(h X h^dag) g carries diag(p) to (nearly) the
identity and, dually, diag(q) back to the identity.  Matrix scaling,
the Horn eigenvalue problem for sums of Hermitian matrices, Forster's
radial isotropic position, and the Schur-Horn inverse problem are all
special cases, exposed under their own names and as CLI subcommands.

Each public name is listed once, in the __all__ of the submodule that
defines it; the package re-exports all of them.  The CLI (opscale.cli)
is the entry point and is not re-exported.
"""

from . import apps, cpmap, exceptions, feasibility, reduction, relmetrics, scaler
from .apps import *  # noqa: F403
from .cpmap import *  # noqa: F403
from .exceptions import *  # noqa: F403
from .feasibility import *  # noqa: F403
from .reduction import *  # noqa: F403
from .relmetrics import *  # noqa: F403
from .scaler import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (cpmap, relmetrics, reduction, scaler, feasibility, apps, exceptions)
    for name in module.__all__
]
