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
and two jumpless paths overlap exactly 1.  Every sum of the kernels adds
its terms in turn from 0.0 (``_sum_in_turn``), an order in which padding
zeros change no bit, so the outputs do not depend on the chunking.

The signed cell lengths on M cells are never stored as rows.  A jump adds a
step to sigma, and the step's cell integrals are one partial cell plus all
the cells after it, so a path's row is a handful of terms: one indicator of
"all cells from here on" and one partial cell for each cell that holds
jumps (``CellTerms``).  Jumps that share a cell share its terms.  The
ensemble memoizes, per M, each jumping path's term coefficients and the
table indices of its pairs of terms, which turn a quadratic form in the
row into lookups into one table; the kernels make the products of the
pairs' coefficients one piece at a time.  A jumpless path has no terms.
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

#: path offsets and jump counts are int32: an ensemble holds fewer jumps
JUMP_LIMIT = 1 << 31

#: pair terms that one piece of the variational kernels reads
PIECE_PAIRS = 1 << 15

#: paths whose jump cells one chunk of the CellTerms build holds
BUILD_PATHS = 4 * BATCH_SIZE


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
    A path that does not jump takes no space, so the ensemble costs 4 bytes
    a path for its int32 offset plus 8 bytes a jump.  The constructor takes
    the times and the per-path jump counts, and raises ValueError unless
    every count is an even integer >= 0, the counts add up to
    ``times.size``, fewer than ``JUMP_LIMIT`` (2**31) in all, and each
    path's times are sorted and lie in (0, 1].

    Sampled ensembles are fully determined by (seed, count, rate): the draw
    is split into fixed-size batches with one counter-based stream each.
    Derived per-path quantities (the jump-cell terms of the signed cell
    lengths) are memoized on the instance.  The sampler and the overlap
    kernels (``p_n_batch``) run their batches in turn, never on the worker
    pool: they are memory-bound numpy work that two threads on two cores
    ran no faster.  Most jumping paths jump twice (92% at rate 1), and both
    take closed forms for those paths that give the bits of the general
    route (see ``_sample_paths`` and ``_pair_overlaps``).
    """

    def __init__(self, times, counts, rate, seed=None):
        times = np.ascontiguousarray(times, dtype=float)
        counts = np.asarray(counts)
        if counts.dtype.kind not in "iu" and not np.all(np.floor(counts) == counts):
            raise ValueError("every jump count must be an integer")
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
    """The int32 offsets of the paths in ``times``, one more than there are
    paths.

    Raises ValueError unless every count is even and >= 0, the counts add
    up to ``times.size`` and the times of each path are sorted and lie in
    (0, 1], which a NaN does not.  The total count must stay below
    ``JUMP_LIMIT``; it is checked before anything the size of the counts is
    made.  Each check is a pass over the flat arrays.  A jump at t = 1 is a
    jump at the last cell boundary and is accepted.  Besides the offsets,
    the checks hold one bool a jump: the parity and the sign are reductions
    (some count is odd iff the bitwise OR of all is).
    """
    if counts.min(initial=0) < 0:
        raise ValueError("every jump count must be even and >= 0")
    _check_total(counts.sum(dtype=float))
    counts = counts.astype(np.int32, copy=False)
    if np.bitwise_or.reduce(counts) & 1:
        raise ValueError("every jump count must be even and >= 0")
    offsets = np.zeros(counts.size + 1, dtype=np.int32)
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


def _check_total(total):
    """Raise ValueError unless ``total`` jumps, fewer than JUMP_LIMIT, fit
    int32 offsets."""
    if total >= JUMP_LIMIT:
        raise ValueError(f"{total:.0f} jumps: the int32 offsets of an ensemble "
                         f"hold fewer than 2**31")


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
    The batches run in turn.  The counts are int32; a total of
    ``JUMP_LIMIT`` jumps or more raises ValueError before the times are
    made.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    counts = np.empty(count, dtype=np.int32)
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
    total = int(counts.sum())
    _check_total(total)
    times = np.empty(total)

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

    integral_0^1 sigma = (-1)^K + 2 sum_j (-1)^{j-1} t_j, K the jump count,
    the sum added in turn.  Each BATCH_SIZE chunk of paths is padded to its
    own largest count.
    """
    counts = np.asarray(counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    sums = np.empty(counts.size)
    for _, start, stop in batch_ranges(counts.size):
        held = counts[start:stop]
        rows = _padded(times[offsets[start] : offsets[stop]], held, int(held.max()))
        rows *= rows < 1.5  # PAD -> 0
        rows *= _alternating_signs(rows.shape[1])
        sums[start:stop] = _sum_in_turn(rows.T)
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


def _sum_in_turn(rows):
    """The sum of each column of ``rows``, its rows added in turn to 0.0.

    Adding +-0.0 to a sum that starts at +0.0 changes no bit, so rows of
    zeros after the last term leave the sum as it is.  The loop is explicit
    because numpy's ``sum`` adds a long contiguous run pairwise: a row, or
    the one column of a (n, 1) array.
    """
    total = np.zeros(rows.shape[1])
    for row in rows:
        total += row
    return total


def _group_chunks(ensemble, n):
    """The number of consecutive groups of n paths in the ensemble, and the
    (start, stop) group ranges of the chunks of the overlap kernels.

    A chunk pads its jumping paths to its own largest count, at most
    ``max_count``; it has BATCH_SIZE groups, or fewer where most paths jump,
    so that those rows take about OVERLAP_CHUNK_BYTES at most.
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


def _pair_overlaps(times, counts, n):
    """Yield ``(i, a)`` for each spin i < N - 1 of one chunk of groups: a is
    the (N-1-i, n_groups) array of overlaps A_ij, j > i, so the blocks
    follow ``triu_indices``.

    ``times`` and ``counts`` are the flat layout of the chunk's paths, path
    g N + i being spin i of group g.  The product sigma_i sigma_j flips sign
    at every jump of the merged path, so the overlap integral_0^1 sigma_i
    sigma_j dt is an alternating sum of the merged jump times: A = 1 + 2
    sum_k (-1)^{k-1} t_(k) over the sorted union, added in turn.  The
    chunk's jumping paths are padded with PAD to its largest count, and
    only pairs in which both paths jump are merged: their two rows are
    gathered, BATCH_SIZE pairs at a time, into one reused buffer, which is
    sorted; the PAD entries end up last and are zeroed before the sum.
    Against a jumpless partner the merged row is the other path's own row,
    and two jumpless paths give exactly 1.  Every entry is thus bit for bit
    the sum of the full merge, whichever sort algorithm runs: equal keys
    are equal floats.  A pair of two-jump paths skips the buffer
    (``_two_jump_overlaps``), and so does a two-jump path t1 <= t2 against
    a jumpless partner: A = 1 + 2 (t1 - t2).  Only one spin's block is held
    at a time, and its index arrays cover only its pairs.
    """
    n_groups = counts.size // n
    jumping = counts > 0
    movers = np.flatnonzero(jumping)
    held = counts[movers]
    width = int(held.max(initial=0))
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
        columns = width if second is None else 2 * width
        for lo in range(0, first.size, BATCH_SIZE):
            hi = min(lo + BATCH_SIZE, first.size)
            buf = merged[: hi - lo, :columns]
            buf[:, :width] = np.take(rows, first[lo:hi], axis=0)
            if second is not None:
                buf[:, width:] = np.take(rows, second[lo:hi], axis=0)
                buf.sort(axis=1)
            buf *= buf < 1.5  # PAD -> 0
            buf *= signs[:columns]
            values[lo:hi] = 1.0 + 2.0 * _sum_in_turn(buf.T)
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
            t1[first], t2[first], t1[second], t2[second])
        yield i, block


def _two_jump_overlaps(a1, a2, b1, b2):
    """A for pairs of two-jump paths, a1 < a2 against b1 < b2, bit for bit
    as ``_pair_overlaps`` sums their merged row.

    The sorted union is u1 = min(a1, b1), then u2 <= u3, the min and max of
    max(a1, b1) and min(a2, b2), then u4 = max(a2, b2); the signed row is
    u1, -u2, u3, -u4, added in turn.
    """
    u1, u4 = np.minimum(a1, b1), np.maximum(a2, b2)
    inner_lo, inner_hi = np.maximum(a1, b1), np.minimum(a2, b2)
    u2, u3 = np.minimum(inner_lo, inner_hi), np.maximum(inner_lo, inner_hi)
    return 1.0 + 2.0 * (((u1 - u2) + u3) - u4)


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
        for _, pairs in _pair_overlaps(*_chunk(ensemble, start * n, stop * n), n):
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
        for i, pairs in _pair_overlaps(*_chunk(ensemble, start * n, stop * n), n):
            block[:, i, i + 1 :] = pairs.T
            block[:, i + 1 :, i] = pairs.T
    out[:, np.arange(n), np.arange(n)] = 1.0
    return out


# -- signed cell lengths as jump-cell terms -------------------------------


class TermGroup:
    """The terms of the jumping paths that have J jump cells.

    ``rows`` holds the paths' places among the ensemble's jumping paths, in
    path order.  Column k of ``coefs`` holds the coefficients c_p of path
    k's 2J + 1 terms c_p v_(i_p) (see CellTerms): 1 for u_0, then alpha_c
    and gamma_c of its jump cells in increasing c.  Row k of ``pairs`` lists
    the pairs p <= q of these terms as the index i_p (2M + 1) + i_q into a
    flat (2M + 1) x (2M + 1) table; its first 2J + 1 entries pair u_0
    (index 0) with each term, so they are the term indices i_q themselves.
    The pairs' products (c_p f) c_q, f = 2 for p < q, are not stored: the
    kernels make them for one piece of about PIECE_PAIRS pairs at a time,
    one row of n values a pair.  For symmetric A, <z, A z> is the sum of
    the products times (V^T A V) at ``pairs``.
    """

    def __init__(self, rows, pairs, coefs):
        self.rows, self.pairs, self.coefs = rows, pairs, coefs

    @property
    def n_pairs(self):
        """(J + 1)(2J + 1), the number of pairs of a path's terms."""
        terms = self.coefs.shape[0]
        return terms * (terms + 1) // 2

    def pieces(self):
        """Slices of about PIECE_PAIRS pairs that cover the rows in order."""
        size = max(1, PIECE_PAIRS // self.n_pairs)
        return [slice(start, start + size) for start in range(0, self.rows.size, size)]

    def pair_indices(self, rows):
        """The pair indices of ``rows``, laid out like ``pairs``."""
        return self.pairs[rows]

    def put(self, rows, cells, m_cells):
        """Write the pair indices of ``rows``, whose jump cells on m_cells
        cells are ``cells``, one row a jump cell."""
        self.pairs[rows] = _pair_index(_term_ids(cells.T, m_cells), 2 * m_cells + 1)

    def forms(self, table):
        """<z, A z> of every path, for ``table`` = V^T A V flat: its pair
        products times the table at its pairs, added in turn in the order
        of ``pairs``."""
        out = np.empty(self.rows.size)
        for rows in self.pieces():
            values = np.take(table, self.pairs[rows].T)
            values *= _products(self.coefs[:, rows])
            out[rows] = _sum_in_turn(values)
        return out

    def weigh(self, rows, factor, out):
        """Write the pair products of ``rows`` times ``factor``, one value a
        path, to ``out``, one row a path like ``pairs``."""
        products = _products(self.coefs[:, rows])
        products *= factor
        out[:] = products.T

    def squares(self, rows):
        """The pair indices and products, laid out like ``pairs``, of z o z
        for ``rows``: its J + 1 terms are u_0 (1 on every cell, as z_k^2 = 1
        off the jump cells) and (z_c^2 - 1) e_c for each jump cell c.
        z_c = sigma_c + gamma_c, where sigma_c, 1 plus the alphas of the
        earlier jump cells, is the value of sigma on cell c before its
        first jump."""
        coefs = self.coefs[:, rows]
        j = coefs.shape[0] // 2
        level = np.ones((j + 1, coefs.shape[1]))
        np.cumsum(coefs[1:j], axis=0, out=level[2:])
        level[2:] += 1.0
        level[1:] += coefs[j + 1 :]
        level[1:] = np.square(level[1:]) - 1.0
        return self.pair_indices(rows)[:, _square_pairs(j)], _products(level).T


class TwoCellGroup(TermGroup):
    """The TermGroup of the paths with two jump cells, c1 < c2.

    A path with two jumps in two cells has alpha = (-2, 2), so 12 of its 15
    pair products are constants or a power of two times gamma_1 or
    gamma_2 (``_TWO_CELLS``), and only gamma_1^2, 2 gamma_1 gamma_2 and
    gamma_2^2 take a product.  A factor that is a power of two can be
    applied before or after the others without changing a bit, so the
    kernels apply the constants and the gammas apart.  The other paths of
    the group (alpha = (0, 0): four jumps or more) take the products as
    such.

    The pair indices of every path of the group depend on its cells
    (c1, c2) alone, so the group stores no ``pairs``: ``keys`` holds
    c2 (c2 - 1)/2 + c1 for each path, row k of ``key_pairs`` the pair
    indices of key k, and ``pair_indices`` gathers them for one piece.
    ``forms`` scales the table values of every key by the constants once,
    gathers them by key, one row a pair, and adds each path's 15 values in
    turn, as ``TermGroup.forms`` does.
    """

    def __init__(self, rows, coefs, m_cells):
        self.rows, self.coefs = rows, coefs
        c2, c1 = np.tril_indices(m_cells, -1)  # key c2 (c2 - 1)/2 + c1, in order
        self.keys = np.empty(rows.size, np.min_scalar_type(c1.size))
        self.key_pairs = _pair_index(_term_ids(np.stack([c1, c2], 1), m_cells),
                                     2 * m_cells + 1)

    def put(self, rows, cells, m_cells):
        c1, c2 = cells.astype(np.int64)
        self.keys[rows] = c2 * (c2 - 1) // 2 + c1

    def pair_indices(self, rows):
        return np.take(self.key_pairs, self.keys[rows], axis=0)

    def forms(self, table):
        scaled = np.take(table, self.key_pairs.T)
        scaled *= _TWO_CELLS[:, None]
        out = np.empty(self.rows.size)
        for rows in self.pieces():
            coefs = self.coefs[:, rows]
            values = np.take(scaled, self.keys[rows], axis=1)
            gamma = coefs[3:]
            values[3:5] *= gamma
            values[7:9] *= gamma
            values[10:12] *= gamma
            values[12:14] *= gamma * gamma[0]
            values[14] *= np.square(gamma[1])
            other = _alpha_zero(coefs)
            if other.size:
                keys = self.keys[rows][other]
                values[:, other] = np.take(table, self.key_pairs[keys].T)
                values[:, other] *= _products(coefs[:, other])
            out[rows] = _sum_in_turn(values)
        return out

    def weigh(self, rows, factor, out):
        coefs = self.coefs[:, rows]
        gamma = coefs[3:]
        cols = np.empty(out.shape[::-1])  # one row a pair
        cols[0] = factor
        for k in (1, 2, 5, 6, 9):
            np.multiply(factor, _TWO_CELLS[k], out=cols[k])
        both = gamma * factor
        for k in (3, 7, 10):  # gamma_1 and gamma_2 against one term
            np.multiply(both, _TWO_CELLS[k], out=cols[k : k + 2])
        np.multiply(gamma * gamma[0], factor, out=cols[12:14])
        cols[13] *= 2.0
        np.multiply(np.square(gamma[1]), factor, out=cols[14])
        other = _alpha_zero(coefs)
        if other.size:
            cols[:, other] = _products(coefs[:, other]) * factor[other]
        out[:] = cols.T


def _alpha_zero(coefs):
    """The columns of two-cell ``coefs`` whose alpha is (0, 0), not (-2, 2)."""
    return np.flatnonzero(coefs[2] - coefs[1] != 4.0)


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
    A path with two jumps in two cells holds 40 bytes of coefficients, a
    4-byte row and a 2-byte key of its cells (up to M = 362).
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

    def unfold(self, h):
        """V h V^T, an M x M matrix, for h flat like ``table``: u_b adds to
        the cells >= b, so V is a prefix sum over the first M + 1 indices
        plus the last M."""
        m = self.m_cells
        h = h.reshape(2 * m + 1, 2 * m + 1)
        vh = h[: m + 1].cumsum(axis=0)[:m] + h[m + 1 :]
        return vh[:, : m + 1].cumsum(axis=1)[:, :m] + vh[:, m + 1 :]


def _cell_starts(times, counts, m):
    """The cell floor(M t) of every jump of a flat layout on m cells (the
    last cell for t = 1), whether it is the first jump of its cell in its
    path, and the first jump of each jumping path."""
    counts = counts[counts > 0]
    cell = np.minimum((m * times).astype(np.int32), m - 1)  # floor: t >= 0
    starts = np.cumsum(counts) - counts
    first = np.ones(times.size, dtype=bool)
    np.not_equal(cell[1:], cell[:-1], out=first[1:])
    first[starts] = True
    return cell, first, starts


def _jump_cells(times, counts, m):
    """The jump cells of the jumping paths of a flat layout, on m cells.

    Returns the number of jump cells of each jumping path and, for every
    jump cell in path order, the cell c, alpha_c and gamma_c.
    """
    cell, first, starts = _cell_starts(times, counts, m)
    index = np.arange(times.size) - np.repeat(starts, counts[counts > 0])  # j - 1
    a = np.where(index & 1, 2.0, -2.0)
    at = np.flatnonzero(first)
    gamma = np.add.reduceat(a * ((cell + 1) - m * times), at)
    return (np.add.reduceat(first, starts, dtype=np.int64), cell[at],
            np.add.reduceat(a, at), gamma)


@lru_cache(maxsize=64)
def _triangle(n):
    """The pairs p <= q of n terms, and f = 2 for p < q, else 1."""
    p, q = np.triu_indices(n)
    return p, q, np.where(p < q, 2.0, 1.0)


@lru_cache(maxsize=64)
def _square_pairs(j):
    """The places, among the pairs of the 2j + 1 terms of a path with j jump
    cells, of the pairs of its terms u_0, e_(c_1), ..., e_(c_j)."""
    p, q, _ = _triangle(2 * j + 1)
    place = np.zeros((2 * j + 1, 2 * j + 1), np.int64)
    place[p, q] = np.arange(p.size)
    terms = np.r_[0, j + 1 : 2 * j + 1]
    p, q, _ = _triangle(j + 1)
    return place[terms[p], terms[q]]


def _term_ids(cells, m):
    """The term indices u_0, u_(c+1), e_c of rows of jump cells on m cells."""
    ids = np.zeros((cells.shape[0], 2 * cells.shape[1] + 1), np.int32)
    ids[:, 1 : cells.shape[1] + 1] = cells + 1
    ids[:, cells.shape[1] + 1 :] = cells + 1 + m
    return ids


def _pair_index(ids, width):
    """The pairs p <= q of each row's term indices, as i_p width + i_q."""
    p, q, _ = _triangle(ids.shape[1])
    return ids[:, p] * width + ids[:, q]


def _products(coefs):
    """The pairs p <= q of the term coefficients in each column of
    ``coefs``, one row a pair, as (c_p f) c_q."""
    p, q, f = _triangle(coefs.shape[0])
    products = np.take(coefs, p, axis=0)
    products *= f[:, None]
    products *= np.take(coefs, q, axis=0)
    return products


#: the pair products of a path with two jumps in two cells, for gamma = 1:
#: ``_products`` of its coefficients (1, -2, 2, 1, 1), written out because
#: a numpy kernel run at import raises the peak RSS of every command
_TWO_CELLS = np.array([1.0, -4.0, 4.0, 2.0, 2.0, 4.0, -8.0, -4.0, -4.0, 4.0,
                       4.0, 4.0, 1.0, 2.0, 1.0])


def _cell_terms(ensemble, m_cells):
    """The CellTerms of the ensemble on m_cells uniform cells.

    A first pass counts the jump cells of every jumping path, BUILD_PATHS
    paths at a time, which sizes every group; the second finds each chunk's
    jump cells again and writes its terms into its own rows of the groups.
    Only one chunk's jump cells are held.
    """
    m = int(m_cells)
    if m < 1:
        raise ValueError("m_cells must be >= 1")
    width = 2 * m + 1
    def chunks():
        for start in range(0, len(ensemble), BUILD_PATHS):
            yield _chunk(ensemble, start, min(start + BUILD_PATHS, len(ensemble)))

    sizes = [np.add.reduceat(first, starts, dtype=np.int32)  # jump cells a path
             for _, first, starts in (_cell_starts(*chunk, m) for chunk in chunks())]
    top = max((int(n.max(initial=0)) for n in sizes), default=0)
    tally = np.array([np.bincount(n, minlength=top + 1)
                      for n in sizes]).reshape(-1, top + 1)
    before = np.cumsum(tally, axis=0) - tally  # group rows of the earlier chunks
    movers = np.cumsum(tally.sum(axis=1))  # jumping paths up to each chunk
    index = np.min_scalar_type(width * width - 1)  # holds every table index
    groups = {}
    for j, size in enumerate(tally.sum(axis=0)):
        if j and size:
            rows, coefs = np.empty(size, np.int32), np.empty((2 * j + 1, size))
            groups[j] = (TwoCellGroup(rows, coefs, m) if j == 2 else TermGroup(
                rows, np.empty((size, (2 * j + 1) * (j + 1)), index), coefs))

    for chunk, (times, counts) in enumerate(chunks()):
        n, cell, alpha, gamma = _jump_cells(times, counts, m)
        first = np.cumsum(n) - n
        for j, group in groups.items():
            local = np.flatnonzero(n == j)
            rows = slice(before[chunk, j], before[chunk, j] + local.size)
            group.rows[rows] = movers[chunk] - n.size + local
            at = first[local] + np.arange(j)[:, None]  # one row a jump cell
            group.put(rows, cell[at], m)
            coefs = group.coefs[:, rows]
            coefs[0] = 1.0
            coefs[1 : j + 1] = alpha[at]
            coefs[j + 1 :] = gamma[at]
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
