"""Adaptive non-uniform meshes that tame oscillatory 3-point schemes.

The package reconstructs the computational mesh around the evolving
solution each step (curvature monitor, equidistribution, extreme-proximity
guard), transfers the solution by clipping linear interpolation and then
advances it with a dispersive or anti-diffusive 3-point scheme; the
``bounds`` module machine-checks the matching total-variation-increase
bound chain.

Each layer module's ``__all__`` is its public API; the package re-exports
their union. The command-line harness, ``shockmesh.cli``, is not imported.
"""

from . import bounds, driver, grid, monitor, remesh, schemes
from .bounds import *  # noqa: F401,F403
from .driver import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .monitor import *  # noqa: F401,F403
from .remesh import *  # noqa: F401,F403
from .schemes import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (bounds, driver, grid, monitor, remesh, schemes)
    for name in module.__all__
]
