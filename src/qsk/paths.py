"""Jump-parity-conditioned Poisson paths and their overlap algebra.

A path is the set of jump times of a +-1valued process sigma(t) on [0, 1]
with sigma(0) = +1 and sigma(t) = (-1)^{#jumps <= t}.  Paths are sampled
from a rate-r Poisson process conditioned on an even number of jumps, so
sigma(1) = +1 (periodic boundary).  Given the jump count, the jump times
are order statistics of i.i.d. uniforms.

The key functionals are the pair overlap A = integral_0^1 sigma_a sigma_b dt,
the per-configuration overlap average P_N = (1/N^2) sum_{ij} A_ij^2, and the
signed occupation of grid cells used by the discretized variational problem.
All of them reduce to alternating sums over merged, sorted jump times and
are therefore exact (no time discretization anywhere).

A path has no jump with probability 1/cosh(rate), 0.65 at rate 1.  The
kernels do merge work only where it changes the answer: a pair of paths is
merged (gathered and sorted) only when both jump, a pair with one jumpless
path takes the other path's own alternating sum, and two jumpless paths
overlap exactly 1.  Every overlap is laid out and summed as the full merge
would be, so the outputs are byte-identical to merging every pair.  The
signed cell lengths are stored only for the paths that jump: a jumpless
path's row would be the cell widths, the same for all of them.
"""

from functools import lru_cache

import numpy as np

from .numerics import sinhc
from .streams import (
    BATCH_SIZE,
    DOMAIN_PATHS,
    batch_generator,
    batch_ranges,
    fill_chunks,
    map_chunks,
)

__all__ = [
    "PathEnsemble",
    "sample_ensemble",
    "sample_unconditioned",
    "signed_totals",
    "cell_widths",
    "laplace_conditional",
    "even_jump_count_cdf",
]

#: padding value for jump matrices; sorts after every real time and compares
#: False against every query point t <= 1
PAD = 2.0


@lru_cache(maxsize=256)
def even_jump_count_cdf(rate):
    """CDF of the even-conditioned Poisson jump count.

    Entry j is P(K <= 2j | K even) for K ~ Poisson(rate).  The series is
    truncated once the missing mass drops below 1e-15 and renormalized.
    P(K = 0) = 1/cosh(rate) and E[K] = rate*tanh(rate).
    """
    r = float(rate)
    if r < 0:
        raise ValueError("rate must be >= 0")
    if r > 300.0:
        raise ValueError("rate too large for stable even-parity conditioning")
    if r == 0.0:
        return np.array([1.0])
    # terms r^{2j}/(2j)! / cosh(r), built iteratively
    term = 1.0 / np.cosh(r)
    terms = [term]
    j = 0
    while terms[-1] > 1e-18 or 1.0 - np.sum(terms) > 1e-15:
        term *= r * r / ((2 * j + 1) * (2 * j + 2))
        terms.append(term)
        j += 1
        if j > 100000:  # pragma: no cover - defensive
            raise RuntimeError("even-count series failed to converge")
    cdf = np.cumsum(terms)
    return cdf / cdf[-1]


def _sample_batch(rate, n, seed, batch_index, conditioned=True):
    """Jump matrix (n, kmax) padded with PAD, plus per-path counts."""
    rng = batch_generator(seed, DOMAIN_PATHS, batch_index)
    if conditioned:
        cdf = even_jump_count_cdf(float(rate))
        counts = 2 * np.searchsorted(cdf, rng.random(n), side="right")
    else:
        counts = rng.poisson(float(rate), size=n)
    kmax = int(counts.max()) if n else 0
    if kmax == 0:
        return np.empty((n, 0)), counts.astype(np.int64)
    jumps = rng.random((n, kmax))
    jumps[np.arange(kmax)[None, :] >= counts[:, None]] = PAD
    rows = np.flatnonzero(counts >= 2)  # a row with fewer jumps is sorted
    jumps[rows] = np.sort(np.take(jumps, rows, axis=0), axis=1)
    return jumps, counts.astype(np.int64)


class PathEnsemble:
    """A reproducible batch of paths stored as one padded jump matrix.

    Sampled ensembles are fully determined by (seed, count, rate): the draw
    is split into fixed-size batches with one counter-based stream each, so
    the result does not depend on the worker count.  Derived per-path
    quantities (signed cell lengths) are memoized on the instance.  Row k
    must hold counts[k] sorted jump times in (0, 1] followed by PAD, as the
    kernels read it; anything else raises ValueError.
    ``workers`` is the pool size for the kernels that run on the ensemble
    (signed cell lengths, ``p_n_batch``); None defers to ``QSK_WORKERS``.
    Their results do not depend on it either.
    """

    def __init__(self, jumps, counts, rate, seed=None, workers=None):
        jumps = np.ascontiguousarray(jumps, dtype=float)
        counts = np.asarray(counts, dtype=np.int64)
        if jumps.ndim != 2 or counts.ndim != 1 or jumps.shape[0] != counts.size:
            raise ValueError("jumps must be (n_paths, kmax) with matching counts")
        if np.any(counts % 2 != 0):
            raise ValueError("all paths must have an even jump count")
        _check_rows(jumps, counts)
        self.jumps = jumps
        self.counts = counts
        self.rate = float(rate)
        self.seed = seed
        self.workers = workers
        self._signed_cache = {}

    def __len__(self):
        return self.jumps.shape[0]

    def sigma_matrix(self, t):
        """sigma_i(t) for every path i; t scalar in [0, 1]."""
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise ValueError("t must lie in [0, 1]")
        k = (self.jumps <= t).sum(axis=1)
        return 1.0 - 2.0 * (k % 2)

    def signed_lengths(self, m_cells):
        """Integrals of sigma over the m_cells uniform cells, one row per path
        that jumps, in path order.

        A jumpless path (sigma = 1) would have ``cell_widths(m_cells)`` as
        its row, so its row is not stored: the matrix has
        ``np.count_nonzero(counts)`` rows, none at all at rate 0.
        """
        m_cells = int(m_cells)
        if m_cells not in self._signed_cache:
            self._signed_cache[m_cells] = _batch_signed_lengths(
                self.jumps, np.flatnonzero(self.counts), m_cells, self.workers
            )
        return self._signed_cache[m_cells]


def _check_rows(jumps, counts):
    """Raise ValueError unless row k holds counts[k] sorted times in (0, 1],
    then PAD.

    Once a row is known to be non-decreasing (a NaN fails that), its first
    entry, its last time and its first PAD bound every other entry, so each
    BATCH_SIZE chunk of rows takes a few passes over its contiguous values.
    A jump at t = 1 is a jump at the last cell boundary and is accepted.
    """
    width = jumps.shape[1]
    if np.any(counts < 0) or np.any(counts > width):
        raise ValueError(f"jump counts must lie in [0, {width}], the row width")
    for _, start, stop in batch_ranges(counts.size if width else 0):
        flat, k = jumps[start:stop].ravel(), counts[start:stop]
        rising = flat[1:] >= flat[:-1]
        rising[width - 1 :: width] = True  # no order across rows
        if not rising.all():
            raise ValueError("every row of jump times must be sorted")
        pad = np.arange(0, flat.size, width) + k  # each row's first PAD
        if not (np.all(flat <= PAD) and np.all(
                (k == width) | (flat.take(pad, mode="clip") == PAD))):
            raise ValueError(f"row k must hold counts[k] jump times, then {PAD}")
        if not (np.all(flat[::width] > 0.0) and np.all(
                (k == 0) | (flat.take(pad - 1, mode="clip") <= 1.0))):
            raise ValueError("jump times must lie in (0, 1]")


def _sample_matrix(rate, count, seed, workers, conditioned):
    if count < 1:
        raise ValueError("count must be >= 1")
    def batch(start, stop):
        return _sample_batch(rate, stop - start, seed, start // BATCH_SIZE, conditioned)

    parts = map_chunks(batch, count, workers)
    counts = np.concatenate([c for _, c in parts])
    kmax = int(counts.max()) if count else 0
    jumps = np.full((count, kmax), PAD)
    row = 0
    for mat, c in parts:
        jumps[row : row + len(c), : mat.shape[1]] = mat
        row += len(c)
    return jumps, counts


def sample_ensemble(rate, count, seed, workers=None):
    """Sample ``count`` even-parity paths at ``rate``; see PathEnsemble."""
    jumps, counts = _sample_matrix(rate, count, seed, workers, conditioned=True)
    return PathEnsemble(jumps, counts, rate, seed=seed, workers=workers)


def sample_unconditioned(rate, count, seed, workers=None):
    """Plain rate-r Poisson paths (no parity conditioning).

    Returns ``(jumps, counts)`` in the same padded-matrix layout as
    PathEnsemble; counts may be odd, so this does not build an ensemble
    object.  Signed totals for such paths are available via
    ``signed_totals``.
    """
    return _sample_matrix(rate, count, seed, workers, conditioned=False)


def signed_totals(jumps, counts):
    """integral_0^1 sigma(t) dt per row of a padded jump matrix (any parity).

    integral_0^1 sigma = (-1)^K + 2 sum_j (-1)^{j-1} t_j, K the jump count.
    """
    signs = _alternating_signs(jumps.shape[1])
    s = 2.0 * (signs[None, :] * np.where(jumps < 1.5, jumps, 0.0)).sum(axis=1)
    return (1.0 - 2.0 * (np.asarray(counts) % 2)) + s


# -- overlap algebra ------------------------------------------------------


def _alternating_signs(width):
    s = np.ones(width)
    s[1::2] = -1.0
    return s


def _grouped_jumps(ensemble, n):
    """The jump matrix as (n_groups, n, kmax) for consecutive groups of n paths."""
    total = len(ensemble)
    if total % n != 0:
        raise ValueError("ensemble length must be a multiple of n_spins")
    return ensemble.jumps.reshape(total // n, n, -1)


def _pair_overlaps(grouped):
    """Yield ``(i, a)`` for each spin i < N - 1: a is the (N-1-i, n_groups)
    array of overlaps A_ij, j > i, so the blocks follow ``triu_indices``.

    The product sigma_i sigma_j flips sign at every jump of the merged path,
    so the overlap integral_0^1 sigma_i sigma_j dt is an alternating sum of
    the merged jump times: A = 1 + 2 sum_k (-1)^{k-1} t_(k) over the sorted
    union.  ``grouped`` is a (n_groups, N, kmax) padded jump array.  Only
    pairs in which both paths jump are merged: their two rows are gathered,
    BATCH_SIZE pairs at a time, into one reused buffer of 2 kmax columns,
    which is sorted; the PAD entries end up last and are zeroed before the
    sum.  Against a jumpless partner the merged row would be the other
    path's own row followed by kmax PADs, so such a pair takes that path's
    value, summed over the same 2 kmax columns; two jumpless paths give
    exactly 1.  Every entry is thus bit for bit the full merge, whichever
    sort algorithm runs: equal keys are equal floats.  Only one spin's
    block is held at a time, and its index arrays cover only its pairs.
    """
    n_groups, n, width = grouped.shape
    if width == 0:
        for i in range(n - 1):
            yield i, np.ones((n - 1 - i, n_groups))
        return
    rows = grouped.reshape(-1, width)  # row g n + i is path i of group g
    signs = _alternating_signs(2 * width)
    merged = np.empty((BATCH_SIZE, 2 * width))

    def overlaps(first, second):
        """A for the path pairs (first[k], second[k]); None: jumpless partner."""
        values = np.empty(first.size)
        for lo in range(0, first.size, BATCH_SIZE):
            hi = min(lo + BATCH_SIZE, first.size)
            buf = merged[: hi - lo]
            buf[:, :width] = np.take(rows, first[lo:hi], axis=0)
            if second is None:
                buf[:, width:] = PAD
            else:
                buf[:, width:] = np.take(rows, second[lo:hi], axis=0)
                buf.sort(axis=1)
            buf *= buf < 1.5  # PAD -> 0
            buf *= signs
            values[lo:hi] = 1.0 + 2.0 * buf.sum(axis=1)
        return values

    jumping = rows[:, 0] < 1.5
    alone = np.ones(rows.shape[0])  # each path's A against a jumpless path
    movers = np.flatnonzero(jumping)
    alone[movers] = overlaps(movers, None)
    alone = np.ascontiguousarray(alone.reshape(n_groups, n).T)
    jumping = np.ascontiguousarray(jumping.reshape(n_groups, n).T)
    for i in range(n - 1):
        block = alone[i + 1 :].copy()  # pairs (i, j) for j > i
        np.copyto(block, alone[i], where=jumping[i])
        js, g = np.nonzero(jumping[i + 1 :] & jumping[i])
        first = g * n + i
        block[js, g] = overlaps(first, first + 1 + js)
        yield i, block


def p_n_batch(ensemble, n_spins):
    """P_N = (1/N^2) sum_{i,j} A_ij^2 for consecutive groups of ``n_spins`` paths.

    The ensemble length must be a multiple of n_spins; returns one value per
    group.  Vectorized over groups, exact per pair; blocks of groups run on
    the ensemble's worker pool.
    """
    n = int(n_spins)
    if n < 2:
        raise ValueError("n_spins must be >= 2")
    grouped = _grouped_jumps(ensemble, n)

    def block(start, stop, out):
        acc = np.full(stop - start, float(n))  # diagonal terms A_ii = 1
        for _, pairs in _pair_overlaps(grouped[start:stop]):
            for a in pairs:
                acc += 2.0 * np.square(a)
        np.divide(acc, n**2, out=out)

    return fill_chunks(block, np.empty(grouped.shape[0]), ensemble.workers)


def overlap_matrix_batch(ensemble, n_spins):
    """(n_groups, N, N) overlap matrices A for consecutive groups of paths.

    Blocks of groups run on the ensemble's worker pool.
    """
    n = int(n_spins)
    grouped = _grouped_jumps(ensemble, n)

    def block(start, stop, out):
        for i, pairs in _pair_overlaps(grouped[start:stop]):
            out[:, i, i + 1 :] = pairs.T
            out[:, i + 1 :, i] = pairs.T
        out[:, np.arange(n), np.arange(n)] = 1.0

    return fill_chunks(block, np.empty((grouped.shape[0], n, n)),
                       ensemble.workers)


# -- signed cell lengths --------------------------------------------------


def cell_widths(m_cells):
    """The signed cell lengths of a jumpless path (sigma = 1), bit for bit."""
    return np.diff(np.arange(m_cells + 1) / m_cells)


def _batch_signed_lengths(jumps, movers, m_cells, workers):
    """Integrals of sigma over the m_cells uniform cells, per row in ``movers``.

    Uses the closed form of the antiderivative F(x) = integral_0^x sigma:
    F(x) = (-1)^{nu(x)} x + 2 sum_{j <= nu(x)} (-1)^{j-1} t_j with nu(x) the
    number of jumps up to x; cell values are differences of F at the cell
    boundaries, so each entry is exact up to rounding.  The jump counts nu
    at the boundaries are integers: each jump is counted once, at the first
    boundary at or above it, and the counts are summed along the row.  The
    work is chunked by path index; each chunk writes its rows of ``movers``
    (ascending row indices) at their place in the compact output.
    """
    m = int(m_cells)
    if m < 1:
        raise ValueError("m_cells must be >= 1")
    width = jumps.shape[1]
    bounds = np.arange(m + 1) / m
    signs = _alternating_signs(width)
    out = np.empty((movers.size, m))

    def block(start, stop):
        lo, hi = np.searchsorted(movers, (start, stop))
        if lo == hi:
            return
        rows = np.take(jumps, movers[lo:hi], axis=0)
        row = np.arange(hi - lo)[:, None]
        # slot m + 1 of each row collects the PAD entries
        first = np.searchsorted(bounds, rows, side="left") + row * (m + 2)
        per_bound = np.bincount(first.ravel(), minlength=row.size * (m + 2))
        nu = per_bound.reshape(row.size, m + 2)[:, : m + 1].cumsum(axis=1)
        prefix = np.zeros((row.size, width + 1))
        np.cumsum(signs * np.where(rows < 1.5, rows, 0.0), axis=1,
                  out=prefix[:, 1:])
        f = (1 - 2 * (nu & 1)) * bounds
        f += 2.0 * prefix.ravel()[nu + row * (width + 1)]
        np.subtract(f[:, 1:], f[:, :-1], out=out[lo:hi])

    map_chunks(block, jumps.shape[0], workers)
    return out


# -- closed-form correlation kernels --------------------------------------


def laplace_conditional(g, beta, b, s):
    """Endpoint-resolved exponential moment of the unconditioned process.

    L_s(g) = e^{beta*b} < 1{sigma(1) = s} e^{beta*g*integral_0^1 sigma} >
    over rate-(beta*b) Poisson paths with sigma(0) = +1.  Closed forms with
    w = sqrt(b^2 + g^2):

        L_{+1}(g) = cosh(beta*w) + (g/w) sinh(beta*w)
        L_{-1}(g) = (b/w) sinh(beta*w)

    The w -> 0 limits are taken smoothly (sinh(x)/x -> 1), giving
    L_{+1} -> cosh(beta*g) type behavior at b = 0 and L_{-1} -> beta*b at
    g = 0; at g = b = 0 the values are 1 and 0.
    """
    if s not in (+1, -1):
        raise ValueError("s must be +1 or -1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if b < 0:
        raise ValueError("b must be >= 0")
    w = np.hypot(b, g)
    bw = beta * w
    if s == -1:
        return float(b * beta * sinhc(bw))
    return float(np.cosh(bw) + g * beta * sinhc(bw))
