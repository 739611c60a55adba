"""Reference implementations that the fast kernels are tested against.

A path here is a plain sorted array of jump times in the open interval
(0, 1), even in number, with sigma(0) = +1 and sigma(t) = (-1)^{#jumps <= t}.
Each path function evaluates its quantity directly, one path or one pair at
a time, so a test can compare it with the batched kernels in ``qsk.paths``
and ``qsk.annealed``.  ``signed_lengths_broadcast``,
``overlap_matrix_serial`` and ``p_n_batch_serial`` take a whole padded jump
matrix instead, one PAD-padded row per path at the width of the largest
count, which ``padded_matrix`` builds from the flat layout.  The first
gives the dense signed cell lengths, one row per path; the other two are
the unchunked, single-threaded forms of the overlap kernels (the pairwise
merge loop), which the chunked kernels, two-jump closed forms included,
must reproduce bit for bit, as ``signed_totals`` must reproduce
``signed_totals_padded``.  Each of these adds its sums in turn, left to
right from 0.0 (``sum_in_turn``), the one order of the path kernels, in
which the PAD columns, zeroed, change no bit.  ``even_paths`` and
``poisson_paths`` are the
sampler's batch layout with every row sorted as a whole padded row.
``quadratic_forms_full`` and ``weighted_gram_full`` are the variational path
kernels on a whole (paths x M) signed-length matrix at once, with a row for
every path, jumpless ones included: the dense route that the jump-cell
kernels of ``qsk.variational`` replace.  Those never build the rows and
reproduce the forms within ``form_bounds``.  The dense Hamiltonian is the
full 2^N x 2^N matrix in the Sz basis, diagonalized without the spin-flip
reduction of ``qsk.hilbert``.  ``per_sample_study`` is the disorder study
solved one sample at a time through the one-sample API of ``qsk.hilbert``,
which the chunked study must reproduce bit for bit.
``f2_quenched_exact`` is the N = 2 quenched average E[beta f_2] by
quadrature over the single coupling, the exact target of a two-spin
disorder study.  ``w_n_gauss_hermite`` is W_N with its Gaussian x-integral
done by Gauss-Hermite quadrature instead of in closed form,
``k_objective_unfolded`` the k objective on every Gauss-Hermite node, the
negative ones included, and ``csv_cell`` the one-cell formatter that the
column-wise CSV tables of ``qsk.cli`` must reproduce byte for byte.
"""

import numpy as np
from scipy.optimize import brentq

from qsk.hilbert import (
    build_hamiltonian,
    draw_couplings,
    gibbs_zz_matrix,
    spectrum,
)
from qsk.constants import mu
from qsk.numerics import (
    gauss_hermite,
    gauss_legendre_01,
    logcosh,
    logsumexp,
    normal_nodes,
    refine_once,
)
from qsk.paths import PAD, even_jump_count_cdf
from qsk.streams import (
    DOMAIN_PATHS,
    batch_generator,
    batch_ranges,
    single_blas_thread,
)


def sigma_at(times, t):
    """sigma(t) = (-1)^{#jumps <= t}; t must lie in [0, 1]."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("t must lie in [0, 1]")
    k = np.searchsorted(times, t, side="right")
    out = 1.0 - 2.0 * (k % 2)
    if out.ndim == 0:
        return float(out)
    return out


def sample_even_path(rate, rng):
    """Draw one even-parity path at the given rate from a numpy Generator."""
    cdf = even_jump_count_cdf(float(rate))
    k = 2 * int(np.searchsorted(cdf, rng.random(), side="right"))
    while True:
        times = np.sort(rng.random(k))
        if k == 0 or (times[0] > 0.0 and np.all(np.diff(times) > 0.0)):
            return times


def overlap_integral(times_a, times_b):
    """Exact overlap integral_0^1 sigma_a(t) sigma_b(t) dt of two even paths.

    The product sigma_a sigma_b flips sign at every jump of the merged path,
    so the integral is an alternating sum of the merged jump times:
    A = 1 + 2 sum_j (-1)^{j-1} t_(j) over the sorted union.
    """
    merged = np.sort(np.concatenate([times_a, times_b]))
    signs = np.where(np.arange(merged.size) % 2 == 0, 1.0, -1.0)
    return float(1.0 + 2.0 * (signs * merged).sum())


def p_n_functional(paths):
    """P_N = (1/N^2) sum_{i,j} A_ij^2 for a configuration of N >= 2 paths."""
    n = len(paths)
    if n < 2:
        raise ValueError("need at least two paths")
    acc = float(n)  # diagonal terms A_ii = 1
    for i in range(n):
        for j in range(i + 1, n):
            acc += 2.0 * overlap_integral(paths[i], paths[j]) ** 2
    return acc / n**2


def cell_signed_lengths(times, m_cells):
    """Integral of sigma over each of the m_cells uniform cells.

    Each cell is split at the jumps inside it and sigma is read at the
    midpoint of every piece.
    """
    out = np.empty(m_cells)
    for k in range(m_cells):
        lo, hi = k / m_cells, (k + 1) / m_cells
        knots = [lo] + [t for t in times if lo < t < hi] + [hi]
        out[k] = sum((b - a) * sigma_at(times, 0.5 * (a + b))
                     for a, b in zip(knots, knots[1:]))
    return out


def padded_matrix(times, counts):
    """The (paths x max count) jump matrix of a flat layout: row k holds the
    jump times of path k, then PAD."""
    jumps = np.full((counts.size, int(counts.max(initial=0))), PAD)
    jumps[np.arange(jumps.shape[1]) < counts[:, None]] = times
    return jumps


def sum_in_turn(rows):
    """The sum of each row of ``rows``, its entries added in turn to 0.0,
    one column at a time."""
    total = np.zeros(rows.shape[0])
    for column in rows.T:
        total += column
    return total


def signed_totals_padded(jumps, counts):
    """integral_0^1 sigma per row of a padded jump matrix, any parity:
    (-1)^K + 2 sum_j (-1)^{j-1} t_j, added in turn over the whole row."""
    signs = np.ones(jumps.shape[1])
    signs[1::2] = -1.0
    s = 2.0 * sum_in_turn(signs * np.where(jumps < 1.5, jumps, 0.0))
    return (1.0 - 2.0 * (counts % 2)) + s


def signed_lengths_broadcast(jumps, m_cells):
    """Cell integrals of sigma per row of a PAD-padded jump matrix, in one block.

    The jump count at every cell boundary comes from a (rows, M+1, kmax)
    comparison tensor; the antiderivative F(x) = (-1)^{nu(x)} x
    + 2 sum_{j <= nu(x)} (-1)^{j-1} t_j is then differenced at the boundaries.
    """
    n, width = jumps.shape
    bounds = np.arange(m_cells + 1) / m_cells
    signs = np.ones(width)
    signs[1::2] = -1.0
    nu = (jumps[:, None, :] <= bounds[None, :, None]).sum(axis=2)
    prefix = np.zeros((n, width + 1))
    np.cumsum(signs[None, :] * np.where(jumps < 1.5, jumps, 0.0), axis=1,
              out=prefix[:, 1:])
    f = np.where(nu % 2 == 0, 1.0, -1.0) * bounds[None, :]
    f += 2.0 * np.take_along_axis(prefix, nu, axis=1)
    return np.diff(f, axis=1)


def overlap_matrix_serial(jumps, n_spins):
    """(n_groups, N, N) overlap matrices of consecutive groups of ``n_spins`` rows.

    The pairwise merge loop, all groups at once on one thread: for every
    pair the two padded rows are concatenated and stable-sorted, the PAD
    entries (last after the sort) are zeroed, and A = 1 + 2 sum_k
    (-1)^{k-1} t_(k) is added in turn over all 2 kmax columns.
    """
    n = int(n_spins)
    grouped = jumps.reshape(jumps.shape[0] // n, n, -1)
    n_groups, _, width = grouped.shape
    signs = np.ones(2 * width)
    signs[1::2] = -1.0
    out = np.empty((n_groups, n, n))
    out[:, np.arange(n), np.arange(n)] = 1.0
    merged = np.empty((n_groups, 2 * width))
    for i in range(n):
        for j in range(i + 1, n):
            merged[:, :width] = grouped[:, i, :]
            merged[:, width:] = grouped[:, j, :]
            merged.sort(axis=1, kind="stable")
            merged[merged >= 1.5] = 0.0
            merged *= signs
            out[:, i, j] = out[:, j, i] = 1.0 + 2.0 * sum_in_turn(merged)
    return out


def p_n_batch_serial(jumps, n_spins):
    """P_N per consecutive group of ``n_spins`` rows of a padded jump matrix.

    The diagonal N plus 2 A_ij^2 for every pair i < j, added in that order.
    """
    n = int(n_spins)
    a = overlap_matrix_serial(jumps, n)
    acc = np.full(a.shape[0], float(n))  # diagonal terms A_ii = 1
    for i in range(n):
        for j in range(i + 1, n):
            acc += 2.0 * np.square(a[:, i, j])
    return acc / n**2


def even_paths(rate, count, seed):
    """The flat jump times and the counts of ``sample_ensemble``, batch by batch.

    Every batch draws its jump counts and then an (n, kmax) block of jump
    times from its own stream, with kmax the batch's largest count, and
    sorts every row after setting the entries past a row's count to PAD,
    PAD-only rows included; each row's real times are then read in order.
    """
    cdf = even_jump_count_cdf(float(rate))

    def draw_counts(rng, n):
        return 2 * np.searchsorted(cdf, rng.random(n), side="right")

    return _padded_block_paths(count, seed, draw_counts)


def poisson_paths(rate, count, seed):
    """The flat jump times and the counts of ``sample_unconditioned``, drawn
    and sorted as ``even_paths`` draws and sorts them."""
    return _padded_block_paths(count, seed,
                               lambda rng, n: rng.poisson(float(rate), size=n))


def _padded_block_paths(count, seed, draw_counts):
    times, counts = [], []
    for b, start, stop in batch_ranges(count):
        rng = batch_generator(seed, DOMAIN_PATHS, b)
        k = draw_counts(rng, stop - start)
        kmax = int(k.max())
        block = rng.random((stop - start, kmax))
        block[np.arange(kmax)[None, :] >= k[:, None]] = PAD
        block.sort(axis=1)
        times += [row[:n] for row, n in zip(block, k)]
        counts.append(k)
    return np.concatenate(times), np.concatenate(counts).astype(np.int64)


def quadratic_forms_full(psi_values, s):
    """<psi, sigma x sigma> per row of the signed-length matrix s, in one block."""
    return ((s @ psi_values) * s).sum(axis=1)


def form_bounds(terms, psi_values):
    """A bound on |<psi, s x s>| of each jumping path between the jump-cell
    kernel on ``terms`` (``qsk.paths.CellTerms``) and a dense row, and last
    the same for the jumpless paths' common form.

    A path with T pair terms adds T lookups f c_p c_q (V^T psi V)/M^2.  Each
    is at most 8 max|psi| in size (|f| <= 2, every |c| <= 2, and a table
    entry sums at most M^2 entries of psi), and each table entry comes from
    two prefix sums of at most M + 1 entries: a lookup carries at most about
    2M + 2 roundings, and the row sum T more.  A jumpless path's form is the
    single lookup u_0 against u_0.
    """
    pairs = np.zeros(terms.n_jumping + 1)
    pairs[-1] = 1
    for group in terms.groups:
        pairs[group.rows] = group.n_pairs
    eps = np.finfo(float).eps
    return 8 * np.abs(psi_values).max() * eps * pairs * (2 * terms.m_cells + 2 + pairs)


def weighted_gram_full(s, x):
    """Lambda' and its cellwise errors under weights e^x, full-matrix products.

    Returns the symmetrized M^2-scaled weighted Gram matrix of the rows of s
    and the delta-method standard error of every cell.
    """
    m2 = float(s.shape[1]) ** 2
    w = np.exp(x - x.max())
    wt = w / w.sum()
    k = m2 * ((s * wt[:, None]).T @ s)
    k = 0.5 * (k + k.T)
    wt2 = np.square(wt)
    c1 = m2 * ((s * wt2[:, None]).T @ s)
    s2 = np.square(s)
    c2 = m2 * m2 * ((s2 * wt2[:, None]).T @ s2)
    var = c2 - 2.0 * k * c1 + np.square(k) * wt2.sum()
    var = 0.5 * (var + var.T)
    return k, np.sqrt(np.clip(var, 0.0, None))


def w_n_gauss_hermite(n, lam, beta_b, t, wt, gh_nodes=128):
    """ln integral_0^1 dt integral dx w_N(x) [cosh(sx) + mu(t,0) sinh(sx)]^N.

    w_N(x) = sqrt(N/pi) e^{-N x^2} and s = sqrt(4 lam).  The t-integral uses
    the nodes ``t`` and weights ``wt``; substituting x = y/sqrt(N) gives the
    x-integral Gauss-Hermite form.  Writing cosh(u) + mu*sinh(u) =
    [(1+mu)e^u + (1-mu)e^{-u}]/2 keeps everything in log space.
    """
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


def k_objective_unfolded(lam, q_grid, nodes):
    """lam(1-(1-q)^2) - E ln cosh(g sqrt(4 lam q)) on all ``nodes`` normal nodes."""
    y, lw = normal_nodes(nodes)
    arg = np.sqrt(4.0 * lam * np.asarray(q_grid))[:, None] * y[None, :]
    return lam * (1.0 - np.square(1.0 - np.asarray(q_grid))) - logcosh(arg) @ np.exp(lw)


def csv_cell(x):
    """One CSV cell: PASS/FAIL for a boolean, an integer as such, a float to
    17 significant digits, anything else by ``str``."""
    if isinstance(x, (bool, np.bool_)):
        return "PASS" if x else "FAIL"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


#: half-line panels for integrands that decay like e^{-2*s*y}; the edges
#: refine toward the origin, where the large-s mass concentrates
_HALF_LINE_EDGES = (0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0)


def _tanh_sq_expect(s, panel_nodes=32):
    """E tanh^2(s Z) for Z ~ N(0,1), as 1 - E sech^2(s Z).

    Gauss-Hermite converges slowly here (tanh^2 saturates at infinity and
    has double poles at i*pi/(2s)), so the sech^2 remainder is integrated on
    the half line with composite Gauss-Legendre panels instead; the result
    is accurate to machine precision uniformly in s.
    """
    x01, w01 = gauss_legendre_01(int(panel_nodes))
    edges = np.asarray(_HALF_LINE_EDGES)
    y = (edges[:-1, None] + np.diff(edges)[:, None] * x01[None, :]).ravel()
    w = (np.diff(edges)[:, None] * w01[None, :]).ravel()
    a = float(s) * y
    sech_sq = np.square(2.0 * np.exp(-a) / (1.0 + np.exp(-2.0 * a)))
    phi = np.exp(-0.5 * y * y) / np.sqrt(2.0 * np.pi)
    return 1.0 - 2.0 * float(w @ (phi * sech_sq))


def sk_equation_solve(lam, quad_nodes=32):
    """Largest root q of q = E tanh^2(g sqrt(4 lam q)); 0 when 4*lam <= 1.

    For 4*lam > 1 the nonzero root is unique and coincides with the
    maximizer of the k objective (k'(lam) = q^2), which makes it an
    independent check on ``qsk.annealed.k_of_lambda``.  ``quad_nodes``
    counts Gauss-Legendre nodes per half-line panel.
    """
    lam = float(lam)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if 4.0 * lam <= 1.0:
        return 0.0

    def h(q):
        return _tanh_sq_expect(np.sqrt(4.0 * lam * q), panel_nodes=quad_nodes) - q

    # near q=0+, E tanh^2 ~ 4 lam q > q, so h > 0; h(1) < 0
    lo = 1e-12
    if h(lo) <= 0.0:  # pragma: no cover - only at threshold rounding
        return 0.0
    return float(brentq(h, lo, 1.0, xtol=1e-14))


def z_table(n):
    """(2^n, n) Sz eigenvalues of every basis state; bit k = spin k+1, 0 -> +1."""
    states = np.arange(2**n)
    return 1.0 - 2.0 * ((states[:, None] >> np.arange(n)[None, :]) & 1)


def dense_hamiltonian(params, couplings):
    """beta H as a dense 2^N x 2^N matrix: Sz-Sz diagonal plus -beta_b per
    single flip."""
    n = params.n_spins
    dim = 2**n
    z = z_table(n)
    iu, ju = np.triu_indices(n, k=1)
    h = np.zeros((dim, dim))
    weights = -(2.0 * np.sqrt(params.lam) / np.sqrt(n)) * np.asarray(couplings)
    np.fill_diagonal(h, (z[:, iu] * z[:, ju]) @ weights)
    if params.beta_b != 0.0:
        rows = np.arange(dim)
        for k in range(n):
            h[rows, rows ^ (1 << k)] = -params.beta_b
    return h


def dense_gibbs_weights(matrix):
    """Gibbs probability of every Sz basis state, from one dense eigh."""
    evals, vecs = np.linalg.eigh(matrix)
    w = np.exp(-(evals - evals.min()))
    w /= w.sum()
    return np.square(vecs) @ w


def _f2_quenched_eval(lam, beta_b, nodes):
    y, lw = normal_nodes(nodes)
    # ln Z_2(g) = ln 2 + ln[cosh(sqrt(2 lam) g) + cosh(sqrt(2 lam g^2 + 4 bb^2))]
    a = np.sqrt(2.0 * lam) * y
    c = np.sqrt(2.0 * lam * y * y + 4.0 * beta_b * beta_b)
    ln_z = np.log(2.0) + np.logaddexp(logcosh(a), logcosh(c))
    return -0.5 * float(np.exp(lw) @ ln_z)


def f2_quenched_exact(lam, beta_b):
    """E[beta f_2] by Gauss-Hermite quadrature over the single coupling.

    Deterministic reference for the N = 2 disorder average; node doubling is
    checked once (warning on non-convergence).
    """
    if lam < 0 or beta_b < 0:
        raise ValueError("lam and beta_b must be >= 0")
    value, _ = refine_once(lambda k: _f2_quenched_eval(lam, beta_b, k),
                           "f2_quenched_exact")
    return value


def per_sample_study(params, n_disorder, seed):
    """(ln Z, beta*f, mean squared <Sz_i Sz_j> over pairs) of each disorder sample.

    Each draw gets its own Hamiltonian, eigendecomposition and correlation
    matrix, with OpenBLAS on one thread as on the worker pool (from N = 9
    on, eigh's bits depend on the BLAS thread count).
    """
    n = params.n_spins
    iu, ju = np.triu_indices(n, k=1)
    ln_z = np.empty(n_disorder)
    op = np.empty(n_disorder)
    with single_blas_thread():
        for i, g in enumerate(draw_couplings(n, n_disorder, seed)):
            h = build_hamiltonian(params, g)
            ln_z[i] = spectrum(h).ln_z
            c = gibbs_zz_matrix(h)
            op[i] = np.square(c[iu, ju]).mean()
    return ln_z, -ln_z / n, op
