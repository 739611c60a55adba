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

A path has no jump with probability 1/cosh(rate), 0.65 at rate 1, and
has rate*tanh(rate) jumps on average, so an ensemble stores its paths flat:
the jump times of every path concatenated in path order, and one offset
per path.  A kernel that needs rectangular rows pads one chunk of paths at
a time.  The kernels do merge work only where it changes the answer: a
pair of paths is merged (gathered and sorted) only when both jump and one
of them jumps more than twice, two two-jump paths take a closed form, a
pair with one jumpless path takes the other path's own alternating sum,
and two jumpless paths overlap exactly 1.  Every overlap is bit for bit
the sum of merging two rows padded to the ensemble's largest count, so the
outputs do not depend on the chunking.

The signed cell lengths on M cells are never stored as rows.  A jump adds a
step to sigma, and the step's cell integrals are one partial cell plus all
the cells after it, so a path's row is a handful of terms: one indicator of
"all cells from here on" and one partial cell for each cell that holds
jumps (``CellTerms``).  Jumps that share a cell share its terms.  The
ensemble memoizes, per M, each jumping path's products of pairs of terms,
which turn a quadratic form in the row into lookups into one table; a
jumpless path has no terms.
"""

from functools import lru_cache

import numpy as np

from .numerics import sinhc
from .streams import BATCH_SIZE, DOMAIN_PATHS, batch_generator, batch_ranges

__all__ = [
    "PathEnsemble",
    "sample_ensemble",
    "sample_unconditioned",
    "signed_totals",
    "laplace_conditional",
    "even_jump_count_cdf",
]

#: padding value of the rows a kernel builds for one chunk of paths; sorts
#: after every real time and compares False against every query point t <= 1
PAD = 2.0

#: bytes of padded jump times that one chunk of the overlap kernels may hold
OVERLAP_CHUNK_BYTES = 2 << 20


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


class PathEnsemble:
    """A reproducible batch of paths stored flat.

    ``times`` holds the sorted jump times of every path, concatenated in
    path order; path k's times are ``times[offsets[k]:offsets[k + 1]]``.
    A path that does not jump takes no space, so the ensemble costs 8 bytes
    a path for its offset plus 8 bytes a jump.  The constructor takes the
    times and the per-path jump counts, and raises ValueError unless every
    count is an even integer >= 0, the counts add up to ``times.size`` and
    each path's times are sorted and lie in (0, 1].

    Sampled ensembles are fully determined by (seed, count, rate): the draw
    is split into fixed-size batches with one counter-based stream each.
    Derived per-path quantities (the jump-cell terms of the signed cell
    lengths) are memoized on the instance.  The sampler and the overlap
    kernels (``p_n_batch``) run their batches in turn, never on the worker
    pool: they are memory-bound numpy work that two threads on two cores
    ran no faster.  Most jumping paths jump twice (92% at rate 1), and both
    take closed forms for those paths that round exactly as the general
    route does (see ``_sample_paths`` and ``_pair_overlaps``).
    """

    def __init__(self, times, counts, rate, seed=None):
        times = np.ascontiguousarray(times, dtype=float)
        counts = np.asarray(counts)
        if counts.dtype.kind not in "iu" and not np.all(np.floor(counts) == counts):
            raise ValueError("every jump count must be an integer")
        counts = counts.astype(np.int64, copy=False)
        if times.ndim != 1 or counts.ndim != 1:
            raise ValueError("times and counts must be flat arrays")
        self.offsets = _check_paths(times, counts)
        self.times = times
        self.max_count = int(counts.max()) if counts.size else 0
        self.rate = float(rate)
        self.seed = seed
        self._signed_cache = {}

    def __len__(self):
        return self.offsets.size - 1

    def sigma_matrix(self, t):
        """sigma_i(t) for every path i; t scalar in [0, 1]."""
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise ValueError("t must lie in [0, 1]")
        hits = np.concatenate(([0], np.cumsum(self.times <= t)))
        k = np.diff(hits[self.offsets])  # jumps <= t of each path
        return 1.0 - 2.0 * (k % 2)

    def signed_lengths(self, m_cells):
        """The signed lengths of the paths that jump on m_cells uniform cells,
        as the CellTerms of their jump cells.

        A jumpless path (sigma = 1) would have the cell widths as its row,
        the same for all of them, so it has no terms; at rate 0 there are
        none at all.  Memoized per m_cells.
        """
        m_cells = int(m_cells)
        if m_cells not in self._signed_cache:
            self._signed_cache[m_cells] = _cell_terms(self, m_cells)
        return self._signed_cache[m_cells]


def _check_paths(times, counts):
    """The offsets of the paths in ``times``, one more than there are paths.

    Raises ValueError unless every count is even and >= 0, the counts add
    up to ``times.size`` and the times of each path are sorted and lie in
    (0, 1], which a NaN does not.  Each check is a pass over the flat arrays.
    A jump at t = 1 is a jump at the last cell boundary and is accepted.
    Besides the offsets, the checks hold one bool a jump: the parity and the
    sign are reductions (some count is odd iff the bitwise OR of all is).
    """
    if counts.min(initial=0) < 0 or np.bitwise_or.reduce(counts) & 1:
        raise ValueError("every jump count must be even and >= 0")
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    if offsets[-1] != times.size:
        raise ValueError(f"the jump counts add up to {offsets[-1]}, "
                         f"but there are {times.size} jump times")
    if times.size and not (times.min() > 0.0 and times.max() <= 1.0):
        raise ValueError("jump times must lie in (0, 1]")
    rising = np.empty(times.size + 1, dtype=bool)  # entry j: t_j >= t_(j-1)
    np.greater_equal(times[1:], times[:-1], out=rising[1:-1])
    rising[offsets] = True  # no order across paths
    if not rising.all():
        raise ValueError("the jump times of every path must be sorted")
    return offsets


def _sample_paths(rate, count, seed, conditioned):
    """Flat jump times and per-path counts of ``count`` paths.

    Every batch of the layout first draws its jump counts from its own
    stream, into the flat counts; the flat times are sized from them.  Each
    batch then draws its times with the same generator, as an (n, kmax)
    block of uniforms, kmax the batch's largest count, so the stream does
    not depend on the layout.  A row with k jumps takes the first k entries
    of its row of the block, sorted, and writes them to its place in the
    flat times.  The rows are handled by their count: a two-jump row is the
    (min, max) of its two entries, and the rows of any other count are
    sorted as one (rows, k) block.  These are the bytes of sorting every
    row padded with values above 1, and no batch's times are held twice.
    The batches run in turn.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    counts = np.empty(count, dtype=np.int64)
    rngs = []
    for b, start, stop in batch_ranges(count):
        rng = batch_generator(seed, DOMAIN_PATHS, b)
        if conditioned:
            cdf = even_jump_count_cdf(float(rate))
            counts[start:stop] = 2 * np.searchsorted(cdf, rng.random(stop - start),
                                                     side="right")
        else:
            counts[start:stop] = rng.poisson(float(rate), size=stop - start)
        rngs.append(rng)
    times = np.empty(int(counts.sum()))

    end = 0  # where the batch's times begin
    for (_, start, stop), rng in zip(batch_ranges(count), rngs):
        k = counts[start:stop]
        jumps = rng.random((k.size, int(k.max())))
        at = np.cumsum(k)
        at += end - k  # where each row's times begin
        end = at[-1] + k[-1]
        for c in np.flatnonzero(np.bincount(k)[1:]) + 1:
            rows = np.flatnonzero(k == c)
            dest = at[rows]
            if c == 2:
                lo, hi = jumps[rows, 0], jumps[rows, 1]
                times[dest] = np.minimum(lo, hi)
                times[dest + 1] = np.maximum(lo, hi)
            else:
                block = jumps[rows, :c]
                block.sort(axis=1)
                times[dest[:, None] + np.arange(c)] = block
    return times, counts


def sample_ensemble(rate, count, seed):
    """Sample ``count`` even-parity paths at ``rate``; see PathEnsemble."""
    times, counts = _sample_paths(rate, count, seed, conditioned=True)
    return PathEnsemble(times, counts, rate, seed=seed)


def sample_unconditioned(rate, count, seed):
    """Plain rate-r Poisson paths (no parity conditioning).

    Returns ``(times, counts)`` in the flat layout of PathEnsemble; counts
    may be odd, so this does not build an ensemble object.  Signed totals
    for such paths are available via ``signed_totals``.
    """
    return _sample_paths(rate, count, seed, conditioned=False)


def signed_totals(times, counts):
    """integral_0^1 sigma(t) dt per path of the flat layout (any parity).

    integral_0^1 sigma = (-1)^K + 2 sum_j (-1)^{j-1} t_j, K the jump count.
    Each BATCH_SIZE chunk of paths is summed as rows padded to the largest
    count, so the sums round alike in every chunk.
    """
    counts = np.asarray(counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    width = int(counts.max())
    signs = _alternating_signs(width)
    sums = np.empty(counts.size)
    for _, start, stop in batch_ranges(counts.size):
        rows = _padded(times[offsets[start] : offsets[stop]], counts[start:stop], width)
        sums[start:stop] = (signs * np.where(rows < 1.5, rows, 0.0)).sum(axis=1)
    return (1.0 - 2.0 * (counts % 2)) + 2.0 * sums


def _padded(times, counts, width):
    """Rows of ``width`` columns: the jump times of path k, then PAD.

    ``times`` holds exactly these paths' times, in order.
    """
    rows = np.full((counts.size, width), PAD)
    before = np.cumsum(counts) - counts  # where path k's times begin
    rows.ravel()[np.repeat(np.arange(counts.size) * width - before, counts)
                 + np.arange(times.size)] = times
    return rows


def _chunk(ensemble, start, stop):
    """The jump times and counts of paths start, ..., stop - 1."""
    offsets = ensemble.offsets[start : stop + 1]
    return ensemble.times[offsets[0] : offsets[-1]], np.diff(offsets)


# -- overlap algebra ------------------------------------------------------


def _alternating_signs(width):
    s = np.ones(width)
    s[1::2] = -1.0
    return s


def _group_chunks(ensemble, n):
    """The number of consecutive groups of n paths in the ensemble, and the
    (start, stop) group ranges of the chunks of the overlap kernels.

    A chunk pads its jumping paths to ``max_count``; it has BATCH_SIZE
    groups, or fewer where most paths jump, so that those rows take about
    OVERLAP_CHUNK_BYTES at most.
    """
    if len(ensemble) % n != 0:
        raise ValueError("ensemble length must be a multiple of n_spins")
    offsets = ensemble.offsets
    jumping = np.count_nonzero(offsets[1:] > offsets[:-1]) / max(len(ensemble), 1)
    group_bytes = max(8.0 * ensemble.max_count * n * jumping, 1.0)
    size = min(BATCH_SIZE, max(1, int(OVERLAP_CHUNK_BYTES // group_bytes)))
    n_groups = len(ensemble) // n
    return n_groups, [(start, min(start + size, n_groups))
                      for start in range(0, n_groups, size)]


def _pair_overlaps(times, counts, n, width):
    """Yield ``(i, a)`` for each spin i < N - 1 of one chunk of groups: a is
    the (N-1-i, n_groups) array of overlaps A_ij, j > i, so the blocks
    follow ``triu_indices``.

    ``times`` and ``counts`` are the flat layout of the chunk's paths, path
    g N + i being spin i of group g, and ``width`` is the largest count of
    the whole ensemble.  The product sigma_i sigma_j flips sign at every
    jump of the merged path, so the overlap integral_0^1 sigma_i sigma_j dt
    is an alternating sum of the merged jump times: A = 1 + 2 sum_k
    (-1)^{k-1} t_(k) over the sorted union.  The chunk's jumping paths are
    padded with PAD to ``width``, and only pairs in which both paths jump
    are merged: their two rows are gathered, BATCH_SIZE pairs at a time,
    into one reused buffer of 2 width columns, which is sorted; the PAD
    entries end up last and are zeroed before the sum.  Rows of ``width``
    columns in every chunk keep the sums alike: numpy's pairwise row sum
    rounds by the row length.  Against a jumpless partner the merged row
    would be the other path's own row followed by width PADs, so such a
    pair takes that path's value, summed over the same 2 width columns; two
    jumpless paths give exactly 1.  Every entry is thus bit for bit the full
    merge, whichever sort algorithm runs: equal keys are equal floats.

    A pair of two-jump paths skips the buffer (``_two_jump_overlaps``): its
    merged row holds four times, then zeros, and its sum is taken as numpy
    takes it.  A two-jump path t1 <= t2 against a jumpless partner takes
    A = 1 + 2 (t1 - t2), the sum of its row in any order.  Only one spin's
    block is held at a time, and its index arrays cover only its pairs.
    """
    n_groups = counts.size // n
    jumping = counts > 0
    movers = np.flatnonzero(jumping)
    held = counts[movers]
    rows = _padded(times, held, width)  # one row per jumping path
    begin = np.cumsum(held) - held  # every jumping path has two jumps or more
    t1, t2 = times[begin], times[begin + 1]
    long = held > 2
    slot = np.empty(counts.size, dtype=np.int64)  # the row of path p, if it jumps
    slot[movers] = np.arange(movers.size)
    signs = _alternating_signs(2 * width)
    merged = np.empty((BATCH_SIZE, 2 * width))

    def overlaps(first, second):
        """A for the row pairs (first[k], second[k]); None: jumpless partner."""
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

    alone = np.ones(counts.size)  # each path's A against a jumpless path
    alone[movers] = 1.0 + 2.0 * (t1 - t2)
    alone[movers[long]] = overlaps(np.flatnonzero(long), None)
    alone = np.ascontiguousarray(alone.reshape(n_groups, n).T)
    jumping = np.ascontiguousarray(jumping.reshape(n_groups, n).T)
    for i in range(n - 1):
        block = np.where(jumping[i], alone[i], alone[i + 1 :])  # pairs (i, j), j > i
        both = np.flatnonzero(jumping[i + 1 :] & jumping[i])  # entry (j - i - 1) G + g
        first = both % n_groups
        first *= n
        first += i  # path i of group g
        second = both // n_groups
        second += first
        second += 1  # path j of group g
        first, second = slot[first], slot[second]
        merge = long[first] | long[second]
        block.ravel()[both[merge]] = overlaps(first[merge], second[merge])
        short = ~merge
        first, second = first[short], second[short]
        block.ravel()[both[short]] = _two_jump_overlaps(
            t1[first], t2[first], t1[second], t2[second], width)
        yield i, block


def _two_jump_overlaps(a1, a2, b1, b2, width):
    """A for pairs of two-jump paths, a1 < a2 against b1 < b2, bit for bit
    as ``_pair_overlaps`` sums their merged row of 2 width columns.

    The sorted union is u1 = min(a1, b1), then u2 <= u3, the min and max of
    max(a1, b1) and min(a2, b2), then u4 = max(a2, b2); the signed row is
    u1, -u2, u3, -u4 and exact zeros.  numpy sums a row of 8 or more
    entries pairwise, which groups its first four as (u1 - u2) + (u3 - u4)
    and adds only zeros after them, and a shorter row in turn.
    """
    u1, u4 = np.minimum(a1, b1), np.maximum(a2, b2)
    inner_lo, inner_hi = np.maximum(a1, b1), np.minimum(a2, b2)
    u2, u3 = np.minimum(inner_lo, inner_hi), np.maximum(inner_lo, inner_hi)
    if 2 * width >= 8:
        total = (u1 - u2) + (u3 - u4)
    else:
        total = ((u1 - u2) + u3) - u4
    return 1.0 + 2.0 * total


def p_n_batch(ensemble, n_spins):
    """P_N = (1/N^2) sum_{i,j} A_ij^2 for consecutive groups of ``n_spins`` paths.

    The ensemble length must be a multiple of n_spins; returns one value per
    group.  Vectorized over groups, exact per pair, with the closed forms of
    ``_pair_overlaps`` for two-jump paths; the chunks of groups run in turn,
    and the result does not depend on the chunking or the worker count.
    """
    n = int(n_spins)
    if n < 2:
        raise ValueError("n_spins must be >= 2")
    n_groups, chunks = _group_chunks(ensemble, n)
    acc = np.full(n_groups, float(n))  # diagonal terms A_ii = 1
    for start, stop in chunks:
        block = acc[start:stop]
        for _, pairs in _pair_overlaps(*_chunk(ensemble, start * n, stop * n), n,
                                       ensemble.max_count):
            for a in pairs:
                block += 2.0 * np.square(a)
    return acc / n**2


def overlap_matrix_batch(ensemble, n_spins):
    """(n_groups, N, N) overlap matrices A for consecutive groups of paths.

    Every entry is the one ``p_n_batch`` squares, closed forms included;
    the chunks of groups run in turn.
    """
    n = int(n_spins)
    n_groups, chunks = _group_chunks(ensemble, n)
    out = np.empty((n_groups, n, n))
    for start, stop in chunks:
        block = out[start:stop]
        for i, pairs in _pair_overlaps(*_chunk(ensemble, start * n, stop * n), n,
                                       ensemble.max_count):
            block[:, i, i + 1 :] = pairs.T
            block[:, i + 1 :, i] = pairs.T
    out[:, np.arange(n), np.arange(n)] = 1.0
    return out


# -- signed cell lengths as jump-cell terms -------------------------------


class TermGroup:
    """The terms of the jumping paths that have J jump cells.

    ``rows`` holds the paths' places among the ensemble's jumping paths, in
    path order.  Row k of ``pairs`` and ``coefs`` lists the pairs p <= q of
    path k's 2J + 1 terms c_p v_(i_p) (see CellTerms): the index
    i_p (2M + 1) + i_q into a flat (2M + 1) x (2M + 1) table and f c_p c_q,
    with f = 2 for p < q.  For symmetric A, <z, A z> is then the row sum of
    ``coefs`` times (V^T A V) at ``pairs``.  ``cells`` and ``levels`` hold
    each path's jump cells c and z_c, from which ``CellTerms.squares``
    makes the pair terms of z o z when they are needed.
    """

    def __init__(self, rows, pairs, coefs, cells, levels):
        self.rows, self.pairs, self.coefs = rows, pairs, coefs
        self.cells, self.levels = cells, levels


class CellTerms:
    """The signed cell lengths of an ensemble's jumping paths, as terms.

    On M uniform cells, let u_b be the indicator of the cells >= b, for
    b = 0, ..., M (u_M = 0), and e_c the unit vector of cell c.  These are
    the 2M + 1 columns of V = [u_0 ... u_M e_0 ... e_(M-1)].  A jump at t
    lies in cell c = floor(M t), the last cell for t = 1, and raises the
    cell integrals of 1{s >= t} by (u_(c+1) + (c + 1 - M t) e_c)/M.  Since
    sigma = 1 + sum_j a_j 1{s >= t_j} with a_j = 2 (-1)^j, a path's signed
    cell lengths s, scaled to z = M s, are

        z = u_0 + sum over its jump cells c of (alpha_c u_(c+1) + gamma_c e_c),

    alpha_c = sum a_j and gamma_c = sum a_j (c + 1 - M t_j) over the jumps
    in cell c.  Jumps that share a cell share its two terms, so a path with
    K jumps has 2J + 1 terms, J <= min(K, M) its number of jump cells.
    ``groups`` holds one TermGroup for each J that occurs, in increasing J.
    A jumpless path would have z = u_0, the pair index 0, and is left out.
    """

    def __init__(self, m_cells, n_jumping, groups):
        self.m_cells, self.n_jumping, self.groups = m_cells, n_jumping, groups

    def table(self, a):
        """V^T a V for a symmetric M x M matrix a, flat: the values that the
        groups' pair indices point at.

        Its blocks are the 2-D suffix sums of a (u_b against u_b'), its row
        suffix sums (u_b against e_c) and a itself; row and column M, those
        of u_M = 0, are zero.
        """
        m = self.m_cells
        rows = np.zeros((m + 1, m))
        rows[:m] = a[::-1].cumsum(axis=0)[::-1]
        both = np.zeros((m + 1, m + 1))
        both[:, :m] = rows[:, ::-1].cumsum(axis=1)[:, ::-1]
        return np.block([[both, rows], [rows.T, a]]).ravel()

    def squares(self, group, rows):
        """The pairs and coefficients, like ``group.pairs`` and
        ``group.coefs``, of z o z for ``rows`` of ``group``: its J + 1 terms
        are u_0 (1 on every cell, as z_k^2 = 1 off the jump cells) and
        (z_c^2 - 1) e_c for each jump cell c."""
        cells = group.cells[rows]
        ids = np.zeros((cells.shape[0], cells.shape[1] + 1), np.int64)
        ids[:, 1:] = cells
        ids[:, 1:] += self.m_cells + 1
        coefs = np.ones(ids.shape)
        coefs[:, 1:] = np.square(group.levels[rows]) - 1.0
        return _pair_terms(ids, coefs, 2 * self.m_cells + 1)

    def unfold(self, h):
        """V h V^T, an M x M matrix, for h flat like ``table``: u_b adds to
        the cells >= b, so V is a prefix sum over the first M + 1 indices
        plus the last M."""
        m = self.m_cells
        h = h.reshape(2 * m + 1, 2 * m + 1)
        vh = h[: m + 1].cumsum(axis=0)[:m] + h[m + 1 :]
        return vh[:, : m + 1].cumsum(axis=1)[:, :m] + vh[:, m + 1 :]


def _jump_cells(times, counts, m):
    """The jump cells of the jumping paths of a flat layout, on m cells.

    Returns the number of jump cells of each jumping path and, for every
    jump cell in path order, the cell c, alpha_c, gamma_c and
    z_c = sigma_c + gamma_c, where sigma_c is the value of sigma on the
    cell before its first jump.
    """
    counts = counts[counts > 0]
    y = m * times
    cell = np.minimum(y.astype(np.int32), m - 1)  # floor: y >= 0
    starts = np.cumsum(counts) - counts  # each path's first jump
    index = np.arange(times.size) - np.repeat(starts, counts)  # j - 1
    a = np.where(index & 1, 2.0, -2.0)
    first = np.ones(times.size, dtype=bool)  # the first jump of its cell
    first[1:] = (cell[1:] != cell[:-1]) | (index[1:] == 0)
    at = np.flatnonzero(first)
    gamma = np.add.reduceat(a * ((cell + 1) - y), at)
    level = (1 - 2 * (index[at] & 1)) + gamma
    return (np.add.reduceat(first, starts, dtype=np.int64), cell[at],
            np.add.reduceat(a, at), gamma, level)


@lru_cache(maxsize=64)
def _triangle(n):
    """The pairs p <= q of n terms, and f = 2 for p < q, else 1."""
    p, q = np.triu_indices(n)
    return p, q, np.where(p < q, 2.0, 1.0)


def _pair_terms(ids, coefs, width):
    """The pairs p <= q of each row's terms: i_p width + i_q, and f c_p c_q."""
    p, q, f = _triangle(ids.shape[1])
    return ids[:, p] * width + ids[:, q], coefs[:, p] * f * coefs[:, q]


def _cell_terms(ensemble, m_cells):
    """The CellTerms of the ensemble on m_cells uniform cells.

    The jump cells of each BATCH_SIZE chunk of paths size every group; each
    chunk's terms then go into its own rows of the groups.
    """
    m = int(m_cells)
    if m < 1:
        raise ValueError("m_cells must be >= 1")
    width = 2 * m + 1

    cells = [_jump_cells(*_chunk(ensemble, start, stop), m)
             for _, start, stop in batch_ranges(len(ensemble))]
    top = max((int(n.max(initial=0)) for n, *_ in cells), default=0)
    tally = np.array([np.bincount(n, minlength=top + 1)
                      for n, *_ in cells]).reshape(-1, top + 1)
    before = np.cumsum(tally, axis=0) - tally  # group rows of the earlier chunks
    movers = np.cumsum(tally.sum(axis=1))  # jumping paths up to each chunk
    index = np.min_scalar_type(width * width - 1)  # holds every table index
    groups = {j: TermGroup(np.empty(size, np.int32),
                           np.empty((size, (2 * j + 1) * (j + 1)), index),
                           np.empty((size, (2 * j + 1) * (j + 1))),
                           np.empty((size, j), index), np.empty((size, j)))
              for j, size in enumerate(tally.sum(axis=0)) if j and size}

    for chunk, (n, cell, alpha, gamma, level) in enumerate(cells):
        first = np.cumsum(n) - n
        for j, group in groups.items():
            local = np.flatnonzero(n == j)
            rows = slice(before[chunk, j], before[chunk, j] + local.size)
            group.rows[rows] = movers[chunk] - n.size + local
            at = first[local, None] + np.arange(j)
            group.cells[rows], group.levels[rows] = cell[at], level[at]
            ids = np.zeros((local.size, 2 * j + 1), np.int32)  # u_0, u_(c+1), e_c
            ids[:, 1 : j + 1] = cell[at] + 1
            ids[:, j + 1 :] = ids[:, 1 : j + 1] + m
            coefs = np.ones(ids.shape)
            coefs[:, 1 : j + 1] = alpha[at]
            coefs[:, j + 1 :] = gamma[at]
            group.pairs[rows], group.coefs[rows] = _pair_terms(ids, coefs, width)
    return CellTerms(m, int(tally.sum()), tuple(groups.values()))


# -- closed-form correlation kernels --------------------------------------


def laplace_conditional(g, b, s):
    """Endpoint-resolved exponential moment of the unconditioned process.

    L_s(g, b) = e^b < 1{sigma(1) = s} e^{g*integral_0^1 sigma} >
    over rate-b Poisson paths with sigma(0) = +1.  Closed forms with
    w = sqrt(b^2 + g^2):

        L_{+1}(g, b) = cosh(w) + (g/w) sinh(w)
        L_{-1}(g, b) = (b/w) sinh(w)

    At inverse temperature beta, the moment of e^{beta*g*integral sigma}
    over rate-(beta*b) paths, times e^{beta*b}, is L_s(beta*g, beta*b).
    sinh(w)/w is taken smoothly to 1 at w = 0, so at g = b = 0 the values
    are 1 and 0.
    """
    if s not in (+1, -1):
        raise ValueError("s must be +1 or -1")
    if b < 0:
        raise ValueError("b must be >= 0")
    w = np.hypot(b, g)
    if s == -1:
        return float(b * sinhc(w))
    return float(np.cosh(w) + g * sinhc(w))
