"""Closed-form constants of the transverse-field mean-field spin glass.

Everything in this module is deterministic.  The central object is the
imaginary-time autocorrelation of a single spin in transverse field,

    mu(t, t') = cosh(beta*b*(1 - 2|t - t'|)) / cosh(beta*b),  t, t' in [0, 1],

whose first two moments

    m = integral mu dt dt'      = tanh(beta*b)/(beta*b)
    p = integral mu^2 dt dt'    = (1 - tanh^2(beta*b) + m)/2

drive every bound implemented here.  The identity 2p - m = 1/cosh^2(beta*b)
is exact and is used as a self-test.  All routines take lam = (beta*v)^2/4,
a scalar, and beta_b = beta*b, also as an array.  The only quadrature is
W_N's: its Gaussian x-integral is exact, which leaves Gauss-Legendre in t.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import LN2, gauss_legendre_01, logcosh, logsumexp, refine_once

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

#: the largest N of the upper bound inf_N G_N/N on the quenched-annealed gap
N_MAX = 64


def _float_or_array(out):
    """A 0-d result as a float: scalar arguments give a float."""
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class ModelParams:
    """The N-spin model at lam = (beta v)^2 / 4 and beta_b = beta b.

    In units with beta = 1 the Hamiltonian is
    beta H = -(2 sqrt(lam)/sqrt(N)) sum_{i<j} g_ij Sz_i Sz_j - beta_b sum_i Sx_i
    with i.i.d. standard normal couplings g_ij; every result depends on
    (beta, v, b) only through these two combinations.  Weak disorder is
    4 lam < 1.
    """

    n_spins: int
    lam: float
    beta_b: float

    def __post_init__(self):
        if int(self.n_spins) != self.n_spins or self.n_spins < 2:
            raise ValueError("n_spins must be an integer >= 2")
        for name in ("lam", "beta_b"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, not {value!r}")

    def to_dict(self):
        return {"n_spins": self.n_spins, "lam": self.lam, "beta_b": self.beta_b}


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
    if np.any(np.asarray(beta_b) < 0):
        raise ValueError("beta_b must be >= 0")
    out = np.exp(logcosh(beta_b * (1.0 - 2.0 * np.abs(t - tp))) - logcosh(beta_b))
    return _float_or_array(out)


def m_of(beta_b):
    """First moment m = tanh(x)/x; equals 1 at x = 0 and decreases to 0."""
    x = np.asarray(beta_b, dtype=float)
    if np.any(x < 0):
        raise ValueError("beta_b must be >= 0")
    small = x < 1e-8
    safe = np.where(small, 1.0, x)
    return _float_or_array(np.where(small, 1.0 - x * x / 3.0, np.tanh(safe) / safe))


def p_of(beta_b):
    """Second moment p = (1 - tanh^2(x) + m)/2; decreases from 1 to 0."""
    x = np.asarray(beta_b, dtype=float)
    t2 = np.square(np.tanh(x))
    return _float_or_array(0.5 * (1.0 - t2 + m_of(x)))


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
    return _float_or_array(2.0 * (LN2 - x - np.log1p(np.exp(-2.0 * x))))


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
    return _float_or_array(p + (1.0 - p) / n)


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
    return _float_or_array(np.where(x <= 700.0, direct, shifted))


def inf_g_n_over_n(lam, beta_b):
    """Minimize G_N/N over integer N in [2, N_MAX].

    Returns ``(value, argmin)``; for an array ``beta_b`` both are arrays of
    its shape, computed in one broadcast over N.  Warns once when any
    minimizer sits on the upper boundary N_MAX, because then the reported
    infimum is only an upper bound for the true infimum over all N.
    """
    ns = np.arange(2, N_MAX + 1)
    bb = np.asarray(beta_b, dtype=float)
    vals = g_n_of(ns, lam, bb[..., None]) / ns
    argmins = ns[np.argmin(vals, axis=-1)]
    if np.any(argmins == N_MAX):
        warnings.warn(
            "inf G_N/N attained at the N_MAX boundary (N=%d); value may still decrease"
            % N_MAX,
            stacklevel=2,
        )
    values = np.min(vals, axis=-1)
    if bb.ndim == 0:
        return float(values), int(argmins)
    return values, argmins


#: W_N's t-rule above beta_b = 40: Gauss-Legendre panels on [0, 1/2] split at
#: these multiples of 1/beta_b, the width of mu(t, 0)'s boundary layers
W_N_LAYER_BREAKS = (2.0, 20.0)


def _graded_t_rule(beta_b, nodes):
    """Nodes and weights in t, each (beta_b.size, T), for a 1-D ``beta_b``;
    mu(t, 0) is even about t = 1/2, so [0, 1/2] with doubled weights."""
    x, w = gauss_legendre_01(nodes)
    edges = np.append(np.outer(1.0 / beta_b, (0.0,) + W_N_LAYER_BREAKS),
                      np.full((beta_b.size, 1), 0.5), axis=1)[..., None]
    width = np.diff(edges, axis=1)
    return ((edges[:, :-1] + width * x).reshape(beta_b.size, -1),
            (2.0 * width * w).reshape(beta_b.size, -1))


def _w_n_eval(n, lam, beta_b, nodes):
    # ln integral_0^1 dt integral dx w_N(x) [cosh(sx) + mu(t,0) sinh(sx)]^N
    # with w_N(x) = sqrt(N/pi) e^{-N x^2} and s = sqrt(4 lam).  Binomially,
    # [cosh(sx) + mu sinh(sx)]^N = 2^-N sum_k C(N,k) (1+mu)^k (1-mu)^(N-k)
    # e^{(2k-N)sx}, and under w_N the mean of e^{(2k-N)sx} is
    # e^{lam (2k-N)^2/N}: the x-integral is exact and only t needs a rule.
    k = np.arange(n + 1)
    log_fact = np.array([math.lgamma(j + 1) for j in k])
    log_coef = (log_fact[-1] - log_fact - log_fact[::-1]  # ln C(N, k)
                + lam * (2 * k - n) ** 2 / n - n * LN2)
    out = np.empty(beta_b.size)
    plain = beta_b.ravel() <= 2.0 * W_N_LAYER_BREAKS[-1]
    for rows in (plain, ~plain):
        if not rows.any():
            continue
        bb = beta_b.ravel()[rows]
        t, wt = gauss_legendre_01(nodes) if rows is plain else _graded_t_rule(bb, nodes)
        mu_t = mu(t, 0.0, bb[:, None])[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):  # mu = 1 at beta_b = 0
            log_one_minus = np.where(k < n, (n - k) * np.log1p(-mu_t), 0.0)
        log_terms = k * np.log1p(mu_t) + log_one_minus + log_coef
        out[rows] = logsumexp(log_terms + np.log(wt)[..., None], axis=(-2, -1))
    return out.reshape(beta_b.shape)


def w_n_of(n, lam, beta_b):
    """Gaussian-interpolation bound W_N (ln of a smoothed N-th moment).

    Satisfies F_N <= W_N <= G_N with equality W_2 = G_2.  The Gaussian
    x-integral is exact; the t-integral is Gauss-Legendre, split at mu(t, 0)'s
    boundary layers once beta_b > 40.  Its nodes are doubled once and a
    QuadratureConvergenceWarning fires if the value moves by more than 1e-6
    relative.  ``beta_b`` may be an array.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    bb = np.asarray(beta_b, dtype=float)
    if lam < 0 or np.any(bb < 0):
        raise ValueError("lam and beta_b must be >= 0")
    return _float_or_array(refine_once(lambda k: _w_n_eval(n, lam, bb, k), "w_n_of")[0])


# sympy-derived small-x series of c0 (relative error < 1e-12 below the cutoff)
_C0_SERIES = (4.0 / 15.0, -136.0 / 315.0, 248.0 / 567.0, -11056.0 / 31185.0)
_C0_CUTOFF = 1e-2


def c0_of(beta_b):
    """Curvature constant c0 = (m-p)/(4x^2) + (2p-m)/6 - ((2p-m)/2)^2.

    Strictly positive for x > 0 with (m-p)^2/cosh(x) <= c0 <= p(m-p).  The
    closed form loses most significant digits to cancellation as x -> 0, so
    below a small-argument cutoff the power series 4x^2/15 - 136x^4/315 + ...
    is used instead.  ``beta_b`` may be an array; a scalar gives a float.
    """
    x = np.asarray(beta_b, dtype=float)
    if np.any(x < 0):
        raise ValueError("beta_b must be >= 0")
    small = x < _C0_CUTOFF
    x2 = np.square(np.where(small, x, 0.0))
    series = np.polynomial.polynomial.polyval(x2, _C0_SERIES)
    safe = np.where(small, 1.0, x)
    m = m_of(safe)
    p = p_of(safe)
    w = 2.0 * p - m  # = 1/cosh^2(x), exact identity
    return _float_or_array(np.where(
        small, series * x2, (m - p) / (4.0 * safe * safe) + w / 6.0 - (w / 2.0) ** 2))


def moment_inequalities(beta_b):
    """The strict ordering 0 < m^2 < p < m < min(1, 2p) <= 2p < (1+p)m.

    Returns a dict of named booleans of the shape of ``beta_b``, one per
    inequality.  Each holds strictly in exact arithmetic for every beta_b > 0,
    but the true margins shrink to O(beta_b^4) as beta_b -> 0 (m^2 vs p) and
    below the rounding error of p as beta_b -> infinity (m vs 2p, where
    2p - m = sech^2).  The slack therefore forgives violations up to
    ``MOMENT_SLACK`` relative to the larger side; it never demands a minimum
    separation.
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
