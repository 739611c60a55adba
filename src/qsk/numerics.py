"""Shared numerical kernels: overflow-safe elementary functions and quadrature.

Everything here is deterministic and free of package state; the quadrature
node tables are cached per node count.
"""

import warnings
from functools import lru_cache

import numpy as np

LN2 = float(np.log(2.0))
#: relative change, on the scale max(1, |value|), that ``refine_once`` accepts
REFINE_RTOL = 1e-6
#: Gauss nodes of every quadrature; ``refine_once`` checks them against twice
QUAD_NODES = 64


class QuadratureConvergenceWarning(UserWarning):
    """Doubling the quadrature nodes moved the result more than the tolerance."""


def logcosh(x):
    """ln cosh(x), overflow-safe for any real x (array friendly)."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - LN2


def logsumexp(a, axis=None):
    """ln sum exp(a) along ``axis`` (all axes when None), overflow-safe.

    The algorithm of ``scipy.special.logsumexp`` for real input, without its
    per-call dispatch cost: the m terms equal to the maximum are taken out of
    the shifted sum s, and the result is log1p(s/m) + ln m + max.  Where that
    is not finite (an infinite or all -inf input), the direct ln sum exp(a)
    is returned instead.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    a_max = np.max(a, axis=axis, keepdims=True)
    at_max = a == a_max
    m = np.sum(at_max, axis=axis, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max), axis=axis,
                   keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
            out = np.where(finite, out, direct)
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def sinhc(x):
    """sinh(x)/x with the removable singularity filled in at x = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-6
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)


@lru_cache(maxsize=64)
def gauss_legendre_01(n):
    """Gauss-Legendre nodes/weights mapped to [0, 1]."""
    if n < 1:
        raise ValueError("need at least one node")
    x, w = np.polynomial.legendre.leggauss(int(n))
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=64)
def gauss_hermite(n):
    """Physicists' Gauss-Hermite nodes/weights (weight e^{-x^2}), 1 to 256 nodes.

    numpy's recurrence overflows above ~400 nodes; no rule here uses more
    than 2 * QUAD_NODES.
    """
    if not 1 <= n <= 256:
        raise ValueError("need 1 to 256 nodes")
    return np.polynomial.hermite.hermgauss(int(n))


def normal_nodes(n):
    """Nodes y_i and log-weights so that E_{g~N(0,1)} f(g) ~ sum_i e^{lw_i} f(y_i)."""
    x, w = gauss_hermite(n)
    with np.errstate(divide="ignore"):  # far-tail weights underflow to 0
        lw = np.log(w)
    return x * np.sqrt(2.0), lw - 0.5 * np.log(np.pi)


def refine_once(evaluate, label):
    """Run ``evaluate`` at ``QUAD_NODES`` and twice that; warn if they disagree.

    Returns the fine-node value together with a convergence flag.  The
    comparison is relative on the scale max(1, |fine|), which suits the
    log-valued integrals used throughout this package.  For an array value
    the flag is an array, and one warning names the unsettled points.
    """
    coarse = evaluate(QUAD_NODES)
    fine = evaluate(2 * QUAD_NODES)
    scale = np.maximum(1.0, np.abs(fine))
    converged = np.abs(fine - coarse) <= REFINE_RTOL * scale
    if np.ndim(fine) == 0:
        converged = bool(converged)
        where = ": %.9e vs %.9e, relative change" % (coarse, fine)
    else:
        where = " at %d of %d points: worst relative change" % (
            converged.size - np.count_nonzero(converged), converged.size)
    if not np.all(converged):
        warnings.warn(
            "%s did not settle after doubling nodes (%d -> %d)%s %.3e > tolerance %.0e"
            % (label, QUAD_NODES, 2 * QUAD_NODES, where,
               np.max(np.abs(fine - coarse) / scale), REFINE_RTOL),
            QuadratureConvergenceWarning,
            stacklevel=2,
        )
    return fine, converged


def scan_minimize(f, grid):
    """min f on [grid[0], grid[-1]]: a scan of ``grid``, then bounded Brent.

    ``f`` maps an array of points to their values.  Brent refines the least
    grid value between its two neighbours to 1e-12; the smaller minimum wins.
    """
    from scipy.optimize import minimize_scalar

    vals = f(grid)
    i = int(np.argmin(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    res = minimize_scalar(lambda x: float(f(np.array([x]))[0]),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return float(min(vals[i], res.fun))
