"""Annealed averages, the replica-scale function k, and the phase diagram.

The annealed partition function of the N-spin model factorizes over
disorder into a path average:

    E[Z_N] = (2 cosh(beta*b))^N e^{-lam} < e^{N lam P_N} >

over N independent even-parity paths, with P_N the mean squared overlap.
This module estimates F_N = ln < e^{N lam P_N} > by Monte Carlo, evaluates
the replica-symmetric scale function

    k(lam) = max_{q in [0,1]} [ lam (1 - (1-q)^2) - E ln cosh(g sqrt(4 lam q)) ]

(zero exactly when 4*lam <= 1), and classifies the (1/(beta v), b/v) plane
by rigorous bounds on the annealed-to-quenched gap.
"""

import numpy as np

from . import paths
from .constants import ModelParams, g_n_of, inf_g_n_over_n, p_n_of, w_n_of
from .numerics import logcosh, normal_nodes, refine_once, scan_minimize
from .stats import EstimateWithError, log_mean_exp, mean_with_err

__all__ = [
    "estimate_f_n",
    "mean_p_n",
    "annealed_free_energy",
    "f_n_sandwich",
    "k_of_lambda",
    "delta_infinity_bounds",
    "region_labels",
    "region_scan",
]

#: estimating ln < e^{N lam P} > by a plain mean gets exponentially hard;
#: keep N small enough that the weights stay tame
MAX_SPINS_PATH_MC = 32


def _path_count(n_spins, ensemble_count):
    if ensemble_count < 2:
        raise ValueError("need at least two path configurations")
    return int(n_spins) * int(ensemble_count)


def estimate_f_n(params: ModelParams, ensemble_count, seed):
    """Monte-Carlo estimate of F_N = ln < e^{N lam P_N} >.

    Draws ``ensemble_count`` independent N-tuples of even-parity paths at
    rate beta*b and averages e^{N lam P_N} in log space.  Warns when the
    effective sample size of the exponential weights drops below 100.
    """
    n = params.n_spins
    if n > MAX_SPINS_PATH_MC:
        raise ValueError(f"N={n} too large for the plain-mean path estimator")
    ens = paths.sample_ensemble(params.beta_b, _path_count(n, ensemble_count), seed)
    p_vals = paths.p_n_batch(ens, n)
    est, _ = log_mean_exp(n * params.lam * p_vals, "estimate_f_n", seed=seed)
    return est


def mean_p_n(params: ModelParams, ensemble_count, seed):
    """Plain mean of P_N over path configurations; E[P_N] = p_N exactly."""
    n = params.n_spins
    ens = paths.sample_ensemble(params.beta_b, _path_count(n, ensemble_count), seed)
    return mean_with_err(paths.p_n_batch(ens, n), seed=seed)


def annealed_free_energy(params: ModelParams, f_hat):
    """beta f_N^ann = (lam - F_N)/N - ln(2 cosh(beta*b)) from an estimate
    ``f_hat`` of F_N (``estimate_f_n``); the error scales by 1/N."""
    n = params.n_spins
    value = (params.lam - f_hat.value) / n - (logcosh(params.beta_b) + np.log(2.0))
    return EstimateWithError(
        float(value), f_hat.std_err / n, f_hat.n_samples, f_hat.seed
    )


def f_n_sandwich(params: ModelParams, f_hat, n_sigma):
    """The rigorous sandwich N p_N lam <= F_N <= min(G_N, W_N) for an estimate.

    Returns ``(bounds, verdicts)``: the three bounds, and whether ``f_hat``
    lies within ``n_sigma`` standard errors of each side.
    """
    n, lam, bb = params.n_spins, params.lam, params.beta_b
    lower = n * p_n_of(n, bb) * lam
    g_val = g_n_of(n, lam, bb)
    w_val = w_n_of(n, lam, bb)
    slack = n_sigma * f_hat.std_err
    bounds = {"lower_n_p_n_lam": lower, "g_n": g_val, "w_n": w_val}
    verdicts = {
        "lower_ok": bool(f_hat.value >= lower - slack),
        "upper_ok": bool(f_hat.value <= min(g_val, w_val) + slack),
    }
    return bounds, verdicts


# -- the scale function k --------------------------------------------------


def _k_objective(lam, q_grid, nodes):
    """lam(1-(1-q)^2) - E ln cosh(g sqrt(4 lam q)) on a grid of q values."""
    y, lw = normal_nodes(nodes)
    # the rule is symmetric and ln cosh even: nodes y > 0, weights doubled
    half = y > 0.0
    arg = np.sqrt(4.0 * lam * np.asarray(q_grid))[:, None] * y[None, half]
    expect = logcosh(arg) @ (2.0 * np.exp(lw[half]))
    return lam * (1.0 - np.square(1.0 - np.asarray(q_grid))) - expect


def k_of_lambda(lam):
    """k(lam) >= 0; equals 0 iff 4*lam <= 1, and k(lam) <= lam always.

    The objective can be bimodal near the threshold, so a 512-point dense
    scan brackets the maximizer before bounded Brent refinement.  The
    Gaussian expectation uses Gauss-Hermite nodes; doubling is checked once.
    """
    lam = float(lam)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if 4.0 * lam <= 1.0:
        # proven: the maximizer is q = 0 and the maximum is exactly 0; the
        # numerical search would return O(1e-17) dust here, which must not
        # leak into positivity certificates downstream
        return 0.0

    def evaluate(nodes):
        return -scan_minimize(lambda q: -_k_objective(lam, q, nodes),
                              np.linspace(0.0, 1.0, 512))

    value, _ = refine_once(evaluate, "k_of_lambda")
    return max(0.0, value)


# -- phase-diagram bounds --------------------------------------------------


def delta_infinity_bounds(lam, beta_b):
    """Rigorous bracket for the limiting quenched-annealed gap beta*Delta.

    Lower bound max(0, k(lam) - ln cosh(beta_b)); upper bound
    inf_{2<=N<=N_MAX} G_N/N (``constants.N_MAX``).  Both are exact
    statements for every lam >= 0.  Both bounds have the shape of ``beta_b``.
    """
    lower = np.maximum(0.0, k_of_lambda(lam) - logcosh(beta_b))
    upper, _ = inf_g_n_over_n(lam, beta_b)
    return lower, upper


def region_labels(inv_beta_v, delta_lower):
    """Phase label of each point of the (1/(beta v), b/v) plane; broadcasts.

    "zero" in weak disorder, the exact criterion inv_beta_v > 1 (i.e.
    beta*v < 1, equivalently 4*lam < 1), where the gap vanishes; else
    "positive" where delta_lower > 0 certifies a strictly positive gap via
    k(lam) > ln cosh(beta_b); else "unresolved".
    """
    return np.where(inv_beta_v > 1.0, "zero",
                    np.where(delta_lower > 0.0, "positive", "unresolved"))


def region_scan(inv_beta_v_values, b_over_v_values):
    """The gap bracket on a grid: (delta_lower, delta_upper), each (x, y)-shaped.

    The x axis is 1/(beta v) (so lam = 1/(4 x^2)) and the y axis is b/v
    (so beta_b = y/x).  ``delta_infinity_bounds`` runs once per column,
    broadcast over y, and fills row x of both grids.
    """
    xs = np.asarray(inv_beta_v_values, dtype=float)
    ys = np.asarray(b_over_v_values, dtype=float)
    if xs.size < 2 or ys.size < 2:
        raise ValueError("need at least a 2x2 grid")
    if np.any(xs <= 0.0) or np.any(ys < 0.0):
        raise ValueError("inv_beta_v must be > 0 and b_over_v >= 0")
    lower, upper = np.empty((2, xs.size, ys.size))
    for i, x in enumerate(xs):
        lower[i], upper[i] = delta_infinity_bounds(1.0 / (4.0 * x * x), ys / x)
    return lower, upper
