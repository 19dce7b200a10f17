"""Exact and floating-point linear stability analysis of Hamiltonian
equilibria, with spectral-flow and relative-equilibrium tooling.

The package exports exactly the ``__all__`` of its four layer modules.
``relequil.spectral_flow`` names the function of that name, which the star
import binds over the submodule; take the module's other helpers with
``from relequil.spectral_flow import ...``.
"""

__version__ = "0.1.0"

from . import matrix_core, nbody, spectral_flow as _flow_module, stability
from .matrix_core import *  # noqa: F401,F403
from .stability import *  # noqa: F401,F403
from .spectral_flow import *  # noqa: F401,F403
from .nbody import *  # noqa: F401,F403

__all__ = ["__version__", *matrix_core.__all__, *stability.__all__,
           *_flow_module.__all__, *nbody.__all__]
