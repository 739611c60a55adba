"""Closed-form constants of the transverse-field mean-field spin glass.

Everything in this module is deterministic.  The central object is the
imaginary-time autocorrelation of a single spin in transverse field,

    mu(t, t') = cosh(beta*b*(1 - 2|t - t'|)) / cosh(beta*b),  t, t' in [0, 1],

whose first two moments

    m = integral mu dt dt'      = tanh(beta*b)/(beta*b)
    p = integral mu^2 dt dt'    = (1 - tanh^2(beta*b) + m)/2

drive every bound implemented here.  The identity 2p - m = 1/cosh^2(beta*b)
is exact and is used as a self-test.  All routines accept the dimensionless
combinations lam = (beta*v)^2/4 and beta_b = beta*b.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import (
    LN2,
    gauss_hermite,
    gauss_legendre_01,
    logcosh,
    logsumexp,
    refine_once,
)

__all__ = [
    "ModelParams",
    "mu",
    "m_of",
    "p_of",
    "two_p_minus_m",
    "log_two_p_minus_m",
    "p_n_of",
    "g_n_of",
    "inf_g_n_over_n",
    "w_n_of",
    "c0_of",
    "moment_inequalities",
]

#: relative rounding slack forgiven by ``moment_inequalities``
MOMENT_SLACK = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the N-spin model.

    Hamiltonian: H = -(v/sqrt(N)) sum_{i<j} g_ij Sz_i Sz_j - b sum_i Sx_i
    with i.i.d. standard normal couplings g_ij.  The derived combinations
    ``lam`` and ``beta_b`` are always recomputed from (beta, v, b), never
    cached, so they cannot drift out of sync.
    """

    n_spins: int
    beta: float
    v: float
    b: float

    def __post_init__(self):
        if int(self.n_spins) != self.n_spins or self.n_spins < 2:
            raise ValueError("n_spins must be an integer >= 2")
        for name in ("beta", "v", "b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.v < 0 or self.b < 0:
            raise ValueError("v and b must be non-negative")

    @property
    def lam(self):
        """Disorder strength lam = beta^2 v^2 / 4; weak disorder is 4*lam < 1."""
        return (self.beta * self.v) ** 2 / 4.0

    @property
    def beta_b(self):
        return self.beta * self.b

    @property
    def beta_v(self):
        return self.beta * self.v

    @classmethod
    def from_dimensionless(cls, n_spins, lam, beta_b):
        """Parameters with beta = 1 realizing the given (lam, beta_b)."""
        if lam < 0 or beta_b < 0:
            raise ValueError("lam and beta_b must be non-negative")
        return cls(n_spins=n_spins, beta=1.0, v=2.0 * math.sqrt(lam), b=float(beta_b))

    def to_dict(self):
        return {
            "n_spins": self.n_spins,
            "beta": self.beta,
            "v": self.v,
            "b": self.b,
            "lam": self.lam,
            "beta_b": self.beta_b,
        }


def mu(t, tp, beta_b):
    """Two-point function cosh(beta_b*(1-2|t-t'|))/cosh(beta_b) on [0,1]^2.

    Overflow-safe for beta_b up to and beyond 1e3 (evaluated as a
    difference of log-cosh terms).  Raises ValueError when either time lies
    outside [0, 1].
    """
    t = np.asarray(t, dtype=float)
    tp = np.asarray(tp, dtype=float)
    if np.any(t < 0) or np.any(t > 1) or np.any(tp < 0) or np.any(tp > 1):
        raise ValueError("times must lie in [0, 1]")
    if beta_b < 0:
        raise ValueError("beta_b must be >= 0")
    out = np.exp(logcosh(beta_b * (1.0 - 2.0 * np.abs(t - tp))) - logcosh(beta_b))
    if out.ndim == 0:
        return float(out)
    return out


def m_of(beta_b):
    """First moment m = tanh(x)/x; equals 1 at x = 0 and decreases to 0."""
    x = np.asarray(beta_b, dtype=float)
    if np.any(x < 0):
        raise ValueError("beta_b must be >= 0")
    small = x < 1e-8
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 - x * x / 3.0, np.tanh(safe) / safe)
    if out.ndim == 0:
        return float(out)
    return out


def p_of(beta_b):
    """Second moment p = (1 - tanh^2(x) + m)/2; decreases from 1 to 0."""
    x = np.asarray(beta_b, dtype=float)
    t2 = np.square(np.tanh(x))
    out = 0.5 * (1.0 - t2 + m_of(x))
    if out.ndim == 0:
        return float(out)
    return out


def log_two_p_minus_m(beta_b):
    """ln(2p - m), evaluated without cancellation.

    In the combination 2p - m the moment m cancels exactly and what remains
    is 1 - tanh^2(x) = sech^2(x).  The direct float subtraction
    2*p_of(x) - m_of(x) loses all digits once sech^2 drops below the
    rounding error of p (x >~ 19); this form, 2*(ln 2 - x - ln(1+e^{-2x})),
    stays accurate at every scale.  The identity sqrt(2p-m)*cosh(x) = 1 is
    then checkable at any x as exp(0.5*log_two_p_minus_m(x) + logcosh(x)).
    """
    x = np.asarray(beta_b, dtype=float)
    if np.any(x < 0):
        raise ValueError("beta_b must be >= 0")
    out = 2.0 * (LN2 - x - np.log1p(np.exp(-2.0 * x)))
    if out.ndim == 0:
        return float(out)
    return out


def two_p_minus_m(beta_b):
    """sech^2(beta_b) = 2p - m on the linear scale (underflows near x ~ 370)."""
    return np.exp(log_two_p_minus_m(beta_b))


def p_n_of(n, beta_b):
    """Finite-size second moment p_N = p + (1-p)/N (the diagonal correction).

    ``n`` and ``beta_b`` broadcast against each other; scalar inputs give a
    float.
    """
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("n must be >= 1")
    p = p_of(beta_b)
    out = p + (1.0 - p) / n
    if np.ndim(out) == 0:
        return float(out)
    return out


def g_n_of(n, lam, beta_b):
    """G_N = ln(1 + p_N (e^{N lam} - 1)), evaluated in log space.

    Valid for any N >= 1 and lam >= 0; for N*lam beyond the overflow range
    the equivalent form N*lam + ln(p_N + (1-p_N) e^{-N lam}) is used.
    ``n`` and ``beta_b`` broadcast against each other; scalar inputs give a
    float.
    """
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("n must be >= 1")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    pn = p_n_of(n, beta_b)
    x = n * lam
    # both branches are evaluated everywhere: expm1 overflows to inf only
    # where the direct form is discarded, and exp(-x) underflows to a
    # harmless 0 in the shifted form
    with np.errstate(over="ignore", under="ignore"):
        direct = np.log1p(pn * np.expm1(x))
        shifted = x + np.log(pn) + np.log1p((1.0 - pn) * np.exp(-x) / pn)
    out = np.where(x <= 700.0, direct, shifted)
    if out.ndim == 0:
        return float(out)
    return out


def inf_g_n_over_n(lam, beta_b, n_max=64):
    """Minimize G_N/N over integer N in [2, n_max].

    Returns ``(value, argmin)``; for an array ``beta_b`` both are arrays of
    its shape, computed in one broadcast over N.  Warns once when any
    minimizer sits on the upper boundary, because then the reported infimum
    is only an upper bound for the true infimum over all N.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    ns = np.arange(2, int(n_max) + 1)
    bb = np.asarray(beta_b, dtype=float)
    vals = g_n_of(ns, lam, bb[..., None]) / ns
    argmins = ns[np.argmin(vals, axis=-1)]
    if np.any(argmins == n_max):
        warnings.warn(
            "inf G_N/N attained at the n_max boundary (N=%d); value may still decrease"
            % n_max,
            stacklevel=2,
        )
    values = np.min(vals, axis=-1)
    if bb.ndim == 0:
        return float(values), int(argmins)
    return values, argmins


def _w_n_eval(n, lam, beta_b, gl_nodes, gh_nodes):
    # ln integral_0^1 dt integral dx w_N(x) [cosh(sx) + mu(t,0) sinh(sx)]^N
    # with w_N(x) = sqrt(N/pi) e^{-N x^2} and s = sqrt(4 lam).  Substituting
    # x = y/sqrt(N) reduces the x-integral to Gauss-Hermite form.  Writing
    # cosh(u) + mu*sinh(u) = [(1+mu)e^u + (1-mu)e^{-u}]/2 keeps everything in
    # log space (mu in (0,1], so both terms are non-negative).
    t, wt = gauss_legendre_01(gl_nodes)
    y, wy = gauss_hermite(gh_nodes)
    mu_t = mu(t, 0.0, beta_b)
    u = np.sqrt(4.0 * lam / n) * y  # s*x at x = y/sqrt(N)
    with np.errstate(divide="ignore"):  # mu = 1 (beta_b = 0) gives a clean -inf
        log_one_minus = np.log1p(-mu_t)
    log_bracket = (
        np.logaddexp(
            np.log1p(mu_t)[:, None] + u[None, :],
            log_one_minus[:, None] - u[None, :],
        )
        - np.log(2.0)
    )
    log_terms = (
        np.log(wt)[:, None]
        + np.log(wy)[None, :]
        - 0.5 * np.log(np.pi)
        + n * log_bracket
    )
    return float(logsumexp(log_terms))


def w_n_of(n, lam, beta_b, quad_nodes=64):
    """Gaussian-interpolation bound W_N (ln of a smoothed N-th moment).

    Satisfies F_N <= W_N <= G_N with equality W_2 = G_2.  Evaluated by a
    tensor Gauss-Legendre x Gauss-Hermite rule; both node sets are doubled
    once and a QuadratureConvergenceWarning fires if the value moves by more
    than 1e-6 relative.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if quad_nodes < 20:
        raise ValueError("quad_nodes must be >= 20")
    if lam < 0 or beta_b < 0:
        raise ValueError("lam and beta_b must be >= 0")
    value, _ = refine_once(
        lambda k: _w_n_eval(n, lam, beta_b, k, k), quad_nodes, label="w_n_of"
    )
    return value


# sympy-derived small-x series of c0 (relative error < 1e-12 below the cutoff)
_C0_SERIES = (4.0 / 15.0, -136.0 / 315.0, 248.0 / 567.0, -11056.0 / 31185.0)
_C0_CUTOFF = 1e-2


def c0_of(beta_b):
    """Curvature constant c0 = (m-p)/(4x^2) + (2p-m)/6 - ((2p-m)/2)^2.

    Strictly positive for x > 0 with (m-p)^2/cosh(x) <= c0 <= p(m-p).  The
    closed form loses most significant digits to cancellation as x -> 0, so
    below a small-argument cutoff the power series 4x^2/15 - 136x^4/315 + ...
    is used instead.
    """
    x = float(beta_b)
    if x < 0:
        raise ValueError("beta_b must be >= 0")
    if x < _C0_CUTOFF:
        x2 = x * x
        acc = 0.0
        for coef in reversed(_C0_SERIES):
            acc = acc * x2 + coef
        return acc * x2
    m = m_of(x)
    p = p_of(x)
    w = 2.0 * p - m  # = 1/cosh^2(x), exact identity
    return (m - p) / (4.0 * x * x) + w / 6.0 - (w / 2.0) ** 2


def moment_inequalities(beta_b):
    """The strict ordering 0 < m^2 < p < m < min(1, 2p) <= 2p < (1+p)m.

    Returns a dict of named booleans, one per inequality.  Each holds
    strictly in exact arithmetic for every beta_b > 0, but the true margins
    shrink to O(beta_b^4) as beta_b -> 0 (m^2 vs p) and below the rounding
    error of p as beta_b -> infinity (m vs 2p, where 2p - m = sech^2).  The
    slack therefore forgives violations up to ``MOMENT_SLACK`` relative to
    the larger side; it never demands a minimum separation.
    """
    m = m_of(beta_b)
    p = p_of(beta_b)
    return {
        "m_sq_positive": 0.0 < m * m,
        "m_sq_lt_p": m * m < p + MOMENT_SLACK * p,
        "p_lt_m": p < m + MOMENT_SLACK * m,
        "m_lt_one": m < 1.0 + MOMENT_SLACK,
        "m_lt_two_p": m < 2.0 * p + MOMENT_SLACK * m,
        "two_p_lt_one_plus_p_m": 2.0 * p < (1.0 + p) * m + MOMENT_SLACK * m,
    }
