"""Numerical laboratory for the weak-disorder transverse-field SK model.

Modules by topic:

- ``constants``: closed-form moment constants, bounds G_N / W_N / c0
- ``hilbert``: exact diagonalization for small N
- ``paths``: even-parity Poisson paths and overlap functionals
- ``annealed``: path Monte Carlo for F_N, the scale function k, phase regions
- ``variational``: discretized variational principle and fixed-point solver
- ``disorder``: quenched ensemble statistics, second moments, Poincare ratio
- ``cli``: the ``qsk`` command-line front end
"""

__version__ = "0.1.0"

from .constants import ModelParams
from .stats import EstimateWithError

__all__ = [
    "__version__",
    "ModelParams",
    "EstimateWithError",
]
