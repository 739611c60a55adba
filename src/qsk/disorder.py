"""Disorder-ensemble statistics: quenched averages, moments, concentration.

Small-N exact diagonalization is repeated over many coupling draws to
estimate E[beta f_N], the second-moment ratio E[Z^2]/E[Z]^2 (bounded by
c = e^{-2 lam}/sqrt(1-4 lam) in the weak-disorder regime), the spin-glass
order parameter E<Sz_1 Sz_2>^2, the Paley-Zygmund witness (read from the
ln Z of a study already run, never from a second solve), and the
Gaussian-Poincare ratio.  The gradient d ln Z/d g_ij = (beta v/sqrt(N))
<Sz_i Sz_j> is exact, so the Poincare inequality Var F(g) <= E|grad F|^2
for the standard Gaussian couplings g gives

    Var(ln Z_N) <= 2 lam (N-1) E[op],   op = mean over i<j of <Sz_i Sz_j>^2.

One study holds both sides, and a mis-scaled ln Z or <Sz Sz> can break it.

Disorder draws and path draws live in disjoint stream domains, so mixed
estimators (e.g. quenched-vs-annealed gaps) never share randomness.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import paths
from .constants import ModelParams
from .hilbert import (
    _sign_patterns,
    build_hamiltonian,
    draw_couplings,
    gibbs_zz_matrix,
    spectrum,
)
from .numerics import logsumexp
from .stats import (
    EstimateWithError,
    frequency_with_err,
    jackknife_se,
    mean_with_err,
)
from .streams import BATCH_SIZE, map_batches

__all__ = [
    "DisorderStudyResult",
    "run_study",
    "order_parameter_trend",
    "second_moment_theory_bound",
    "study_verdicts",
    "generalized_second_moment",
    "paley_zygmund_witness",
]

#: plain-mean disorder averages concentrate poorly outside this range
MAX_SPINS_DISORDER = 10
MAX_FOUR_LAM = 0.6

#: block bytes per chunk, 16 D^2 a sample: 64 samples at N = 6, 1 at N = 10
CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class DisorderStudyResult:
    """Summary statistics of one disorder study (all beta-scaled).

    ``per_sample`` holds the (ln_z, beta_f, order_parameter) arrays the
    summaries were computed from, one entry per disorder sample.
    """

    quenched_mean: EstimateWithError
    second_moment_ratio: EstimateWithError
    order_parameter: EstimateWithError
    poincare_ratio: EstimateWithError
    n_disorder: int
    per_sample: tuple = field(repr=False, compare=False)


def _validate_disorder_params(params):
    if params.n_spins > MAX_SPINS_DISORDER:
        raise ValueError(
            f"N={params.n_spins} exceeds the disorder-study cap ({MAX_SPINS_DISORDER})"
        )
    if 4.0 * params.lam > MAX_FOUR_LAM:
        raise ValueError(
            "4*lam = %.3f exceeds the plain-mean range of disorder studies "
            "(%.2f); use lam <= %g" % (4 * params.lam, MAX_FOUR_LAM, MAX_FOUR_LAM / 4)
        )


def _study_arrays(params, n_disorder, seed):
    """Per-sample ln Z, beta*f, and mean squared pair correlation.

    All couplings are drawn first; the samples are then solved in the
    fewest contiguous chunks of balanced size that hold at most
    ``CHUNK_BYTES`` of blocks each, each chunk as one stack.  The layout
    depends on N and the sample count alone: ``map_batches`` decides
    whether the chunks share the pool, and each result is stored at its
    sample index, so the output does not depend on the worker count.  The
    ``hilbert`` kernels check their invariants (symmetric, traceless blocks
    and |<Sz_i Sz_j>| <= 1) on every sample; a failure names the offending
    (seed, batch, index) triple.
    """
    n = params.n_spins
    dim = 2 ** (n - 1)
    couplings = draw_couplings(n, n_disorder, seed)
    iu, ju = np.triu_indices(n, k=1)
    ln_z = np.empty(n_disorder)
    op = np.empty(n_disorder)

    def solve(start, stop):
        h = build_hamiltonian(params, couplings[start:stop])
        ln_z[start:stop] = spectrum(h).ln_z
        c = gibbs_zz_matrix(h)
        # C-ordered rows, so each row mean is the one-sample pairwise sum
        op[start:stop] = np.square(c[:, iu, ju], order="C").mean(axis=1)

    def solve_chunk(k):
        start = k * n_disorder // n_chunks
        stop = (k + 1) * n_disorder // n_chunks
        try:
            solve(start, stop)
        except Exception:
            # re-solve one sample at a time to name the one that fails
            for i in range(start, stop):
                try:
                    solve(i, i + 1)
                except Exception as exc:
                    raise RuntimeError(
                        "disorder sample failed (seed=%d, batch=%d, index=%d): %s"
                        % (seed, i // BATCH_SIZE, i, exc)
                    ) from exc
            raise

    per_chunk = max(1, CHUNK_BYTES // (16 * dim * dim))
    n_chunks = -(-n_disorder // per_chunk)
    map_batches(solve_chunk, n_chunks)
    return ln_z, -ln_z / n, op


def _ratio_of_means(ln_z, seed):
    """E[Z^2]/E[Z]^2 plug-in estimate with a leave-one-out jackknife error."""
    n = ln_z.size
    c = ln_z.max()
    u = np.exp(ln_z - c)          # Z_i / e^c
    u2 = np.square(u)
    s1, s2 = u.sum(), u2.sum()
    value = (s2 / n) / (s1 / n) ** 2
    loo = ((s2 - u2) / (n - 1)) / np.square((s1 - u) / (n - 1))
    return EstimateWithError(float(value), jackknife_se(loo), n, seed)


def _poincare_ratio(ln_z, op, params, seed):
    """Var(ln Z)/(2 lam (N-1) E[op]) with a leave-one-out jackknife error."""
    n = ln_z.size
    scale = 2.0 * params.lam * (params.n_spins - 1)
    value = np.var(ln_z, ddof=1) / (scale * op.mean())
    x2 = np.square(ln_z - ln_z.mean())
    loo_var = (x2.sum() - n / (n - 1) * x2) / (n - 2)
    loo = loo_var / (scale * (op.sum() - op) / (n - 1))
    return EstimateWithError(float(value), jackknife_se(loo), n, seed)


def run_study(params: ModelParams, n_disorder, seed):
    """Full disorder study of ``n_disorder`` >= 10 samples at one parameter point.

    Returns plain-mean estimates of E[beta f_N], the second-moment ratio
    (jackknife error), the order parameter (2/(N(N-1))) sum_{i<j} <Sz_i Sz_j>^2
    averaged over disorder, and the Gaussian-Poincare ratio
    Var(ln Z)/(2 lam (N-1) E[op]) (jackknife error), which needs lam > 0.
    """
    if n_disorder < 10:
        raise ValueError("n_disorder must be >= 10")
    if not params.lam > 0:
        raise ValueError("lam must be > 0: the Poincare ratio is 0/0 at lam = 0")
    _validate_disorder_params(params)
    ln_z, beta_f, op = _study_arrays(params, n_disorder, seed)
    return DisorderStudyResult(
        quenched_mean=mean_with_err(beta_f, seed=seed),
        second_moment_ratio=_ratio_of_means(ln_z, seed=seed),
        order_parameter=mean_with_err(op, seed=seed),
        poincare_ratio=_poincare_ratio(ln_z, op, params, seed),
        n_disorder=n_disorder,
        per_sample=(ln_z, beta_f, op),
    )


def order_parameter_trend(params_base: ModelParams, n_list, n_disorder, seed):
    """Order parameter at fixed (lam, beta_b) for each N in n_list.

    The disorder average of the mean squared pair correlation decreases
    with N in the weak-disorder regime.  Every entry draws at the same
    ``seed``, so the entries are correlated, not independent studies (0.57
    between N = 3 and 4 at lam = 0.125, beta_b = 1; ROADMAP item 4).
    """
    out = []
    for n in n_list:
        params = replace(params_base, n_spins=int(n))
        _validate_disorder_params(params)
        _, _, op = _study_arrays(params, n_disorder, seed)
        out.append(mean_with_err(op, seed=seed))
    return out


# -- second moments --------------------------------------------------------


def second_moment_theory_bound(lam):
    """Weak-disorder bound e^{-2 lam}/sqrt(1-4 lam) on E[Z^2]/E[Z]^2."""
    if not 0.0 <= 4.0 * lam < 1.0:
        raise ValueError("requires 0 <= 4*lam < 1")
    return float(np.exp(-2.0 * lam) / np.sqrt(1.0 - 4.0 * lam))


def study_verdicts(result, n_sigma, ratio_bound):
    """The inequalities a disorder study must meet, each within ``n_sigma`` errors.

    ``ratio_le_theory``: E[Z^2]/E[Z]^2 stays below ``ratio_bound``; and
    ``poincare_le_one``: Var(ln Z) <= 2 lam (N-1) E[op].
    """
    ratio, poincare = result.second_moment_ratio, result.poincare_ratio
    return {
        "ratio_le_theory": bool(
            ratio.value <= ratio_bound + n_sigma * ratio.std_err),
        "poincare_le_one": bool(
            poincare.value <= 1.0 + n_sigma * poincare.std_err),
    }


def generalized_second_moment(params: ModelParams, gamma, n_path_ensembles, seed):
    """Path-average form of E[Z^2]-type moments at shifted coupling gamma.

    For two independent N-path systems with overlap matrices A, B the
    statistic

        e^{N lam (P_A + P_B)} 2^{-N} sum_eps exp((2(lam+gamma)/N)
            sum_{ij} eps_i eps_j A_ij B_ij)

    averaged over the paired systems, divided by the squared mean of
    e^{N lam P} and multiplied by sqrt(1 - 4(lam+gamma)), estimates a ratio
    that is <= 1 for 0 <= 4(lam+gamma) < 1; at gamma = 0 that ratio is
    E[Z_N^2]/E[Z_N]^2 / c(lam).
    The eps sum is enumerated exactly (N <= 4).  Jackknife standard error
    over the paired systems.
    """
    n = params.n_spins
    if n > 4:
        raise ValueError("the exact replica-sign enumeration is limited to N <= 4")
    total_shift = params.lam + float(gamma)
    if not 0.0 <= 4.0 * total_shift < 1.0:
        raise ValueError("requires 0 <= 4*(lam+gamma) < 1")
    if n_path_ensembles < 2:
        raise ValueError("need at least two paired systems")
    ens = paths.sample_ensemble(params.beta_b, 2 * n * int(n_path_ensembles), seed)
    a = paths.overlap_matrix_batch(ens, n).reshape(-1, 2, n, n)
    lam = params.lam
    p_vals = np.square(a).sum(axis=(2, 3)) / n**2          # (n_items, 2)
    eps = _sign_patterns(n)                                 # (2^N, N)
    c = a[:, 0] * a[:, 1]                                   # (n_items, N, N)
    quad = np.einsum("kn,xnm,km->xk", eps, c, eps)
    coupling = np.exp((2.0 * total_shift / n) * quad).mean(axis=1)
    num = np.exp(lam * n * p_vals.sum(axis=1)) * coupling
    den = np.exp(lam * n * p_vals)                          # (n_items, 2)

    n_items = num.size
    s_num, s_den = num.sum(), den.sum()
    scale = float(np.sqrt(1.0 - 4.0 * total_shift))
    value = scale * (s_num / n_items) / (s_den / (2 * n_items)) ** 2
    loo_num = (s_num - num) / (n_items - 1)
    loo_den = (s_den - den.sum(axis=1)) / (2 * n_items - 2)
    loo = scale * loo_num / np.square(loo_den)
    return EstimateWithError(float(value), jackknife_se(loo), n_items, seed)


def paley_zygmund_witness(result, lam):
    """Frequency of Z >= (sample mean of Z)/2 in a study vs the threshold 1/(4c).

    ``result`` is a ``run_study`` result, whose per-sample ln Z it reads.
    c = e^{-2 lam}/sqrt(1 - 4 lam) bounds the second-moment ratio, so the
    Paley-Zygmund inequality guarantees P(Z >= E[Z]/2) >= 1/(4c).
    """
    c = second_moment_theory_bound(lam)
    ln_z = result.per_sample[0]
    ln_mean = float(logsumexp(ln_z) - np.log(ln_z.size))
    hits = int((ln_z >= ln_mean - np.log(2.0)).sum())
    return (frequency_with_err(hits, ln_z.size, seed=result.quenched_mean.seed),
            1.0 / (4.0 * c))
