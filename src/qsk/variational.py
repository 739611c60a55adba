"""Discretized variational principle for the annealed free energy.

On the space of symmetric kernels psi(t, t') on [0,1]^2 define

    Omega(psi) = ||psi||^2/(4 lam) - Lambda(psi),
    Lambda(psi) = ln < exp(<psi, sigma x sigma>) >

with the path average over one even-parity process and the L2([0,1]^2)
pairing.  Then beta f^ann + ln(2 cosh beta_b) = -p lam - 2c0 lam^2 + O(lam^3)
and the minimizer solves psi = 2 lam Lambda'(psi), a contraction for
0 < 2 lam < 1, which covers the whole weak-disorder regime 4 lam < 1;
``fixed_point_solve`` refuses any other lam, and it stops at the fixed
tolerance ``FIXED_POINT_TOL`` or cap ``FIXED_POINT_MAX_ITER``.  Everything
here works on an M x M cell discretization:
a kernel is a GridFunction, the path functional <psi, sigma x sigma>
reduces exactly to a quadratic form in the signed cell occupations, and the
path average is replaced by a fixed Monte-Carlo ensemble (sample-average
approximation), so the solved problem is deterministic given the ensemble.

Paths are sparse: one has no jump with probability 1/cosh(beta_b), 0.65
at beta_b = 1, and most of the rest jump twice.  The path kernels therefore
work from each path's jump cells (``paths.CellTerms``) and never build its
row of M signed cell lengths: with z = M s written as a sum of a few
columns of a fixed (M x (2M + 1)) matrix V, a form <z, psi z> is a sum of
lookups into the table V^T psi V, 15 for a path with two jumps in two
cells, and the weighted Gram sum wt z z^T is V h V^T, where h adds up the
same pair terms by table index.  The products of the terms' coefficients
are made for one piece of paths at a time (closed forms for two jumps in
two cells), not stored.  Every jumpless path has z = u_0, so the sample
average is one atom, the n0 jumpless paths with the common form and
weight, plus the paths that jump.  The kernels go through the terms in
pieces of rows, in turn: at a few lookups a path the pool's start-up and
contention cost more than they save.  The results do not depend on the
worker count, and agree with the dense (paths x M) route of
``tests/oracles.py`` to rounding (see ``form_bounds`` there).
"""

from dataclasses import dataclass

import numpy as np

from .constants import c0_of, inf_g_n_over_n, m_of, p_of
from .numerics import (QUAD_NODES, gauss_hermite, logcosh, logsumexp,
                       refine_once, scan_minimize)
from .paths import PIECE_PAIRS
from .stats import EstimateWithError, log_mean_exp

__all__ = [
    "GridFunction",
    "FixedPointReport",
    "discretize_mu",
    "lambda_functional",
    "lambda_prime",
    "fixed_point_solve",
    "fixed_point_verdicts",
    "lambda_constant",
    "static_approximation",
    "static_threshold",
    "taylor_prediction",
]


class GridFunction:
    """A kernel on [0,1]^2, piecewise constant on an M x M uniform grid.

    The grid inner product is <f, g> = (1/M^2) sum f_kl g_kl, matching the
    L2 pairing of the piecewise-constant representatives.  The values must
    be exactly (bitwise) symmetric: values[k,l] == values[l,k].
    """

    __slots__ = ("values", "m_cells")

    def __init__(self, values):
        values = np.ascontiguousarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("a grid function must be a square matrix")
        if values.shape[0] < 1:
            raise ValueError("need at least one cell per axis")
        if not np.array_equal(values, values.T):
            raise ValueError("a grid function must be exactly symmetric")
        self.values = values
        self.m_cells = values.shape[0]

    def norm2(self):
        """Squared grid norm ||f||^2 = (1/M^2) sum f^2."""
        return float(np.square(self.values).sum()) / self.m_cells**2

    def scaled(self, factor):
        return GridFunction(factor * self.values)


# -- exact discretization of the two-point kernel --------------------------


def _g2_over_cosh(u, beta_b):
    """Double antiderivative of cosh(bb(1-2|t|))/cosh(bb), normalized; even.

    G(u) = int_0^u int_0^s cosh(bb(1-2r))/cosh(bb) dr ds
         = u tanh(bb)/(2bb) - sinh(bb(1-u)) sinh(bb u)/(2bb^2 cosh(bb))

    evaluated in overflow-safe form for any bb >= 0.
    """
    u = np.abs(np.asarray(u, dtype=float))
    bb = float(beta_b)
    if bb < 1e-8:
        return 0.5 * u * u  # relative error O(bb^2)
    a = bb * (1.0 - u)
    c = bb * u
    term1 = u * np.tanh(bb) / (2.0 * bb)
    # sinh(a) sinh(c) / cosh(a+c) = (1-e^{-2a})(1-e^{-2c}) / (2(1+e^{-2(a+c)}))
    term2 = (
        -np.expm1(-2.0 * a) * -np.expm1(-2.0 * c)
        / (2.0 * (1.0 + np.exp(-2.0 * bb)))
        / (2.0 * bb * bb)
    )
    return term1 - term2


def discretize_mu(m_cells, beta_b):
    """Exact cell averages of mu(t, t') on the M x M grid (symmetric Toeplitz).

    Each entry is M^2 times the integral of mu over the cell, computed from
    the closed-form double antiderivative, so the only error is rounding.
    For M = 1 the single entry is exactly m; the average of all entries
    equals m for every M.
    """
    m = int(m_cells)
    if m < 1:
        raise ValueError("m_cells must be >= 1")
    if beta_b < 0:
        raise ValueError("beta_b must be >= 0")
    # cell (k, l) value = M^2 * [G((d+1)/M) - 2G(d/M) + G((d-1)/M)], d = k - l
    g = _g2_over_cosh(np.arange(m + 1) / m, beta_b)
    ext = np.concatenate([g[1:2], g])  # index d -> G(|d-1|/M) via ext[d]
    second = g[1:] - 2.0 * g[:-1] + ext[:m]
    col = m * m * second
    vals = col[np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])]
    return GridFunction(vals)


# -- path functionals ------------------------------------------------------


#: the fixed-point iteration stops once the sup-norm update falls below
#: FIXED_POINT_TOL, or after FIXED_POINT_MAX_ITER iterations
FIXED_POINT_TOL = 1e-8
FIXED_POINT_MAX_ITER = 200


def _quadratic_forms(psi: GridFunction, terms, n_paths):
    """<psi, sigma x sigma> for each of ``n_paths`` paths.

    ``terms`` are the CellTerms of the paths that jump; their forms come
    first, in path order, each its pair terms' lookups into V^T psi V / M^2
    (s = z/M) added in turn.  The n_paths - terms.n_jumping jumpless paths
    follow, each with the form <w, psi w> of the cell widths w = u_0/M.
    """
    table = terms.table(psi.values) / psi.m_cells**2
    x = np.full(n_paths, table[0])
    for group in terms.groups:
        x[group.rows] = group.forms(table)
    return x


def lambda_functional(psi: GridFunction, ensemble):
    """Estimate Lambda(psi) = ln < e^{<psi, sigma x sigma>} > on the ensemble."""
    terms = ensemble.signed_lengths(psi.m_cells)
    x = _quadratic_forms(psi, terms, len(ensemble))
    est, _ = log_mean_exp(x, "lambda_functional", seed=ensemble.seed)
    return est


def lambda_prime(psi: GridFunction, ensemble):
    """Gradient kernel Lambda'(psi) as a GridFunction (exactly symmetric).

    Cell (k, l) holds the self-normalized weighted average of
    M^2 s_k s_l under weights e^{<psi, sigma x sigma>}; entries lie in
    [-1, 1] up to rounding.
    """
    terms = ensemble.signed_lengths(psi.m_cells)
    return _weighted_gram(terms, _quadratic_forms(psi, terms, len(ensemble)), False)


def _weighted_gram(terms, x, with_err):
    """Lambda'(psi) (and its errors) from the CellTerms and forms x of psi.

    ``x`` is laid out as ``_quadratic_forms`` returns it.  With z = M s,
    the weighted second moments are the Gram sum_i wt_i z_i z_i^T and, with
    ``with_err``, the same with wt_i^2 and with wt_i^2 on z_i o z_i.  Each
    is V h V^T, where h adds up the weighted pair products by table index,
    one ``bincount`` for each piece of a TermGroup (``TermGroup.pieces``):
    the pieces fix the order of every addition, so h keeps its bits.  The
    n0 jumpless paths share z = u_0 and the weight wt0, so they add n0 wt0
    to h[0, 0], and n0 wt0^2 to the other two.  Besides x it holds one
    path-length vector, the weights (computed in place), and one piece's
    buffers; the squared weights are made per piece, and once in full at
    the end.
    """
    size = (2 * terms.m_cells + 1) ** 2  # entries of the flat table
    wt = x - x.max()
    np.exp(wt, out=wt)
    total = wt.sum()
    sums = np.zeros((3 if with_err else 1, size))
    sums[0, 0] = wt[terms.n_jumping :].sum() / total  # exactly 1 when all weights tie
    wt /= total
    if with_err:
        sums[1:, 0] = np.square(wt[terms.n_jumping :]).sum()

    buffer = np.empty(max([PIECE_PAIRS] + [g.n_pairs for g in terms.groups]))
    for group in terms.groups:
        for rows in group.pieces():
            pairs = group.pair_indices(rows).ravel()
            weights = buffer[: pairs.size].reshape(-1, group.n_pairs)
            wt_rows = wt[group.rows[rows]]
            group.weigh(rows, wt_rows, weights)
            sums[0] += np.bincount(pairs, weights.ravel(), size)
            if with_err:
                np.square(wt_rows, out=wt_rows)
                group.weigh(rows, wt_rows, weights)
                sums[1] += np.bincount(pairs, weights.ravel(), size)
                square_pairs, square_coefs = group.squares(rows)
                square_coefs *= wt_rows[:, None]
                sums[2] += np.bincount(square_pairs.ravel(), square_coefs.ravel(), size)
    grams = [terms.unfold(h) for h in sums]
    k = 0.5 * (grams[0] + grams[0].T)
    grad = GridFunction(k)
    if not with_err:
        return grad
    c1, c2 = grams[1:]
    var = c2 - 2.0 * k * c1 + np.square(k) * np.square(wt).sum()
    var = 0.5 * (var + var.T)
    err = GridFunction(np.sqrt(np.clip(var, 0.0, None)))
    return grad, err


def _omega_of(psi, lam, lambda_est):
    """Omega(psi) = ||psi||^2/(4 lam) - Lambda(psi); the error is Lambda's."""
    return EstimateWithError(psi.norm2() / (4.0 * lam) - lambda_est.value,
                             lambda_est.std_err, lambda_est.n_samples,
                             lambda_est.seed)


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of the sample-average fixed-point iteration.

    ``contraction_ratios`` are successive L2 update-norm ratios, bounded by
    2*lam < 1 for the exact map; the empirical map obeys the same bound
    because the discretized kernel sigma x sigma has grid norm <= 1, so no
    ratio can exceed 1.  The stopping rule uses the sup norm of the update.
    ``psi_std_err`` holds cellwise Monte-Carlo errors of the final iterate.
    ``start_lambda`` (Lambda at the start kernel 2 lam mu_M), ``lam`` and
    ``beta_b`` (the ensemble's rate) are not part of ``to_dict``.
    """

    psi: GridFunction
    omega_value: EstimateWithError
    iterations: int
    residual_norm: float
    contraction_ratios: tuple
    converged: bool
    ess: float
    psi_std_err: GridFunction
    start_lambda: EstimateWithError
    lam: float
    beta_b: float

    def to_dict(self):
        return {
            "m_cells": self.psi.m_cells,
            "psi": self.psi.values.tolist(),
            "psi_std_err": self.psi_std_err.values.tolist(),
            "omega": self.omega_value.to_dict(),
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
            "contraction_ratios": list(self.contraction_ratios),
            "converged": self.converged,
            "ess": self.ess,
        }


def fixed_point_solve(lam, m_cells, ensemble):
    """Iterate psi -> 2 lam Lambda'(psi) from psi = 2 lam mu_M to convergence.

    One fixed ensemble is reused throughout (sample-average approximation),
    so the iteration is deterministic and a contraction with rate <= 2 lam.
    That needs 0 < 2 lam < 1: any other lam is refused with a ValueError.
    beta_b is the ensemble's rate.  Stops when the sup-norm update falls
    below ``FIXED_POINT_TOL`` or after ``FIXED_POINT_MAX_ITER`` iterations.
    The ensemble's jump-cell terms are built once, on the first call at
    this M.
    """
    lam = float(lam)
    if not 0.0 < 2.0 * lam < 1.0:
        raise ValueError(f"lam = {lam!r}: the fixed-point iteration is a "
                         "contraction only for 0 < 2*lam < 1")
    m = int(m_cells)
    psi = discretize_mu(m, ensemble.rate).scaled(2.0 * lam)
    terms = ensemble.signed_lengths(m)
    ratios = []
    prev_l2 = None
    converged = False
    # the start kernel's forms give its Lambda and the first gradient
    x = _quadratic_forms(psi, terms, len(ensemble))
    start_lambda, _ = log_mean_exp(x, "lambda_functional", seed=ensemble.seed)
    grad = _weighted_gram(terms, x, False)
    for iterations in range(1, FIXED_POINT_MAX_ITER + 1):
        if iterations > 1:
            grad = lambda_prime(psi, ensemble)
        nxt = grad.scaled(2.0 * lam)
        delta = nxt.values - psi.values
        sup = float(np.abs(delta).max())
        l2 = float(np.sqrt(np.square(delta).sum()) / m)
        if prev_l2 is not None and prev_l2 > 0.0:
            ratios.append(l2 / prev_l2)
        prev_l2 = l2
        psi = nxt
        if sup < FIXED_POINT_TOL:
            converged = True
            break
    # one pass over the final iterate's quadratic forms gives its
    # gradient, errors, Lambda and the ESS of its weights
    x = _quadratic_forms(psi, terms, len(ensemble))
    grad, err = _weighted_gram(terms, x, True)
    residual = float(
        np.sqrt(np.square(2.0 * lam * grad.values - psi.values).sum()) / m
    )
    lambda_est, ess = log_mean_exp(x, "lambda_functional", seed=ensemble.seed)
    om = _omega_of(psi, lam, lambda_est)
    return FixedPointReport(
        psi=psi,
        omega_value=om,
        iterations=iterations,
        residual_norm=residual,
        contraction_ratios=tuple(ratios),
        converged=converged,
        ess=ess,
        psi_std_err=err.scaled(2.0 * lam),
        start_lambda=start_lambda,
        lam=lam,
        beta_b=ensemble.rate,
    )


def fixed_point_verdicts(report: FixedPointReport, n_sigma):
    """Convergence, contraction ratios <= 2 lam + 0.02, and the paper's bounds
    on inf Omega, each within ``n_sigma`` MC errors, at the report's lam, beta_b.

    inf Omega lies in [-inf_N G_N/N, -p lam]; the start Omega(2 lam mu)
    exceeds it by at most 4 lam^3; and it deviates from the (beta v)^4
    Taylor prediction by at most (4 + 4 m^3/3) lam^3.  The start Omega
    uses the report's ``start_lambda``.
    """
    lam, beta_b = report.lam, report.beta_b
    om = report.omega_value
    slack = n_sigma * om.std_err
    p, m = p_of(beta_b), m_of(beta_b)
    inf_g = inf_g_n_over_n(lam, beta_b)[0]
    start = discretize_mu(report.psi.m_cells, beta_b).scaled(2 * lam)
    gap = _omega_of(start, lam, report.start_lambda).value - om.value
    taylor_dev = abs(om.value - taylor_prediction(lam, beta_b))
    return {
        "converged": report.converged,
        "ratio_bound_ok": all(r <= 2 * lam + 0.02 for r in report.contraction_ratios),
        "omega_bracket_ok": bool(-inf_g - slack <= om.value <= -p * lam + slack),
        "start_gap": gap,
        "start_gap_ok": bool(-slack <= gap <= 4 * lam**3 + slack),
        "taylor_abs_dev": taylor_dev,
        "taylor_ok": bool(taylor_dev <= (4 + 4 * m**3 / 3) * lam**3 + slack),
    }


# -- constant-kernel specialization and the static approximation -----------


def _lambda_constant_vec(ys, beta_b, nodes):
    """Lambda(y * 1) for an array of y >= 0, by Gauss-Hermite quadrature.

    For a constant kernel the quadratic form is y (integral sigma)^2 and the
    path average has the closed Gaussian-mixture form

        Lambda(y 1) = ln int dz e^{-pi z^2} cosh(sqrt(4 pi y z^2 + bb^2))
                      - ln cosh(bb).
    """
    u, w = gauss_hermite(nodes)
    log_w = np.log(w) - 0.5 * np.log(np.pi)
    arg = np.sqrt(
        4.0 * np.asarray(ys, dtype=float)[:, None] * u[None, :] ** 2 + beta_b**2
    )
    return logsumexp(log_w[None, :] + logcosh(arg), axis=1) - logcosh(beta_b)


def lambda_constant(y, beta_b):
    """Lambda evaluated at the constant kernel y * 1 (closed 1-D quadrature).

    Requires y >= 0 (the Gaussian-mixture form needs a non-negative
    kernel); at y = 0 the value is exactly 0.
    """
    y = float(y)
    if y < 0:
        raise ValueError("y must be >= 0")
    if beta_b < 0:
        raise ValueError("beta_b must be >= 0")
    value, _ = refine_once(
        lambda k: float(_lambda_constant_vec([y], beta_b, k)[0]), "lambda_constant")
    return value


def static_approximation(lam, beta_b):
    """J(lam) = inf_{x >= 0} [lam x^2 - Lambda(2 lam x 1)].

    The restriction of the variational problem to constant kernels; satisfies
    -lam <= J <= -m^2 lam, with J/lam -> -m^2 as lam -> 0 and -> -1 as
    lam -> infinity.  A dense scan plus parabolic steps (``scan_minimize``)
    over Lambda at ``QUAD_NODES`` Gauss-Hermite nodes, without a doubling check.
    At beta_b = 0 the paths never jump (sigma = 1, m = 1), both bounds meet
    and J = -lam exactly, which the scan would only reach up to rounding.
    """
    lam = float(lam)
    if lam <= 0:
        raise ValueError("lam must be positive")
    if beta_b == 0:
        return -lam
    return scan_minimize(
        lambda xs: lam * xs * xs
        - _lambda_constant_vec(2.0 * lam * xs, beta_b, QUAD_NODES),
        np.linspace(0.0, 1.5, 601))[1]


def static_threshold(beta_b):
    """lam* = (p - m^2)/(2 p (1 - m)); below it the static J exceeds -p lam.

    The quotient cancels at small beta_b (it is 0/0 at 0), so below 0.1 its
    Taylor series x^2/30 + 11x^4/1575 - 113x^6/47250 + 6917x^8/27286875
    takes over; either side is within 2e-10 relative of the exact value.
    """
    if 0.0 <= beta_b < 0.1:
        x2 = beta_b * beta_b
        return (x2 / 30 + 11 * x2**2 / 1575 - 113 * x2**3 / 47250
                + 6917 * x2**4 / 27286875)
    p, m = p_of(beta_b), m_of(beta_b)
    return (p - m * m) / (2.0 * p * (1.0 - m))


def taylor_prediction(lam, beta_b):
    """Second-order prediction -p lam - 2 c0 lam^2 for inf Omega."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    return -p_of(beta_b) * lam - 2.0 * c0_of(beta_b) * lam**2
