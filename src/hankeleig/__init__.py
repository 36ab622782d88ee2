"""Extremal eigenpairs of large Hankel tensors.

A Hankel tensor is stored as its generating vector alone; tensor-vector
products are real-FFT correlations of that vector, and extremal Z-, H-,
and generalized eigenpairs come from a curvilinear search on the unit
sphere.  A dense brute-force oracle validates the fast products.  The
package re-exports the public names of each module's ``__all__``.
"""

__version__ = "0.1.0"

from . import dense_oracle, fft_products, generators, objective, solver
from .dense_oracle import *  # noqa: F403
from .fft_products import *  # noqa: F403
from .generators import *  # noqa: F403
from .objective import *  # noqa: F403
from .solver import *  # noqa: F403

__all__ = ["__version__"]
__all__ += dense_oracle.__all__
__all__ += fft_products.__all__
__all__ += generators.__all__
__all__ += objective.__all__
__all__ += solver.__all__
