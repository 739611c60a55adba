"""Even-conditioned Poisson jump paths, overlaps, and single-spin kernels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qsk import paths, variational
from qsk.constants import mu
from qsk.paths import (
    PathEnsemble,
    even_jump_count_cdf,
    laplace_conditional,
    sample_ensemble,
    sample_unconditioned,
    signed_totals,
)
from qsk.stats import frequency_with_err, mean_with_err
from qsk.streams import BATCH_SIZE, worker_count
from qsk.variational import GridFunction

from oracles import (
    cell_signed_lengths,
    even_paths,
    form_bounds,
    overlap_integral,
    overlap_matrix_serial,
    p_n_batch_serial,
    p_n_functional,
    padded_matrix,
    poisson_paths,
    quadratic_forms_full,
    sample_even_path,
    sigma_at,
    signed_lengths_broadcast,
    signed_totals_padded,
    sum_in_turn,
    weighted_gram_full,
)


#: rows spanning three full chunks and part of a fourth
MULTI_CHUNK = 3 * BATCH_SIZE + 123
EPS = np.finfo(float).eps


def _path(*times):
    return np.array(times, dtype=float)


def _rows(ens):
    """The jump times of every path of an ensemble, one array per path."""
    return np.split(ens.times, ens.offsets[1:-1])


@st.composite
def jump_paths(draw):
    k = draw(st.integers(min_value=0, max_value=6))
    ts = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0 - 1e-6,
                      exclude_max=True),
            min_size=2 * k, max_size=2 * k, unique=True,
        )
    )
    return _path(*sorted(ts))


# -- paths / sigma_at -----------------------------------------------------


def test_jump_path_validation():
    PathEnsemble(np.empty(0), [0, 0], rate=1.0)  # jump-free paths are fine
    ens = PathEnsemble([0.2, 0.7, 0.1, 1.0], [2, 0, 2], rate=1.0)  # t = 1 is a jump
    assert len(ens) == 3
    assert ens.offsets.tolist() == [0, 2, 2, 4]
    assert np.diff(ens.offsets).tolist() == [2, 0, 2]
    with pytest.raises(ValueError):
        PathEnsemble([0.5], [1], rate=1.0)  # odd count
    with pytest.raises(ValueError):
        PathEnsemble([0.2, 0.7], [2, 2], rate=1.0)  # counts need more times
    with pytest.raises(ValueError):
        PathEnsemble([[0.2, 0.7]], [2], rate=1.0)  # not flat


@pytest.mark.parametrize("jumps, counts, message", [
    ([0.7, 0.2], [2], "sorted"),
    ([2.0, 2.0], [2], "lie in"),  # a padding value given as jump times
    ([0.0, 0.5], [2], "lie in"),
    ([0.5, 1.25], [2], "lie in"),
    ([0.2, 0.7, 0.5, 0.3], [2, 2], "sorted"),  # the second path is unsorted
    ([np.nan], [0], "add up"),
    ([0.2, 0.7, 0.9], [2], "add up"),  # a time with no path
    ([0.2, np.nan], [2], "lie in"),
    ([0.2, 0.7], [4], "add up"),
    ([0.2, 0.7, 0.5, 0.6], [4, -2], "even and >= 0"),
    ([0.2, 0.7, 0.9, 0.95], [1, 3], "even and >= 0"),
    ([0.3, 0.2], [0, 2, 0], "sorted"),  # between jumpless paths
    ([0.2, 0.7], [2.9], "integer"),  # not truncated to a one-path ensemble
])
def test_path_ensemble_rejects_malformed_rows(jumps, counts, message):
    # every kernel reads path k as counts[k] sorted times in (0, 1]
    with pytest.raises(ValueError, match=message):
        PathEnsemble(jumps, counts, rate=1.0)


def test_path_ensemble_refuses_int32_overflow_before_allocating():
    # offsets are int32: the total count is checked before anything the
    # size of the counts is made, so 2**31 jumps are refused at once
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"2\*\*31"):
            PathEnsemble(np.empty(0), [2**30, 2**30], 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak
    ens = PathEnsemble([0.2, 0.7], np.array([2, 0], np.int64), 1.0)
    assert ens.offsets.dtype == np.int32 and ens.offsets.tolist() == [0, 2, 2]


def test_path_ensemble_checks_every_chunk():
    # a bad path after many good ones is found, and a jump at t = 1 is
    # accepted; one path's times may lie below the previous path's
    times = np.concatenate([np.tile([0.2, 0.7], BATCH_SIZE + 3), [0.1, 0.3, 0.6, 1.0]])
    counts = np.append(np.full(BATCH_SIZE + 3, 2), 4)
    PathEnsemble(times, counts, rate=1.0)
    times[-2] = 0.25
    with pytest.raises(ValueError, match="sorted"):
        PathEnsemble(times, counts, rate=1.0)


def test_sigma_at_piecewise():
    p = _path(0.25, 0.75)
    assert sigma_at(p, 0.0) == 1
    assert sigma_at(p, 0.2) == 1
    assert sigma_at(p, 0.3) == -1
    assert sigma_at(p, 0.75) == 1  # right-continuous at the jump
    assert sigma_at(p, 1.0) == 1
    with pytest.raises(ValueError):
        sigma_at(p, 1.2)


# -- even-conditioned jump-count distribution ------------------------------


@pytest.mark.parametrize("rate", [0.3, 1.0, 4.0, 50.0])
def test_even_count_pmf_matches_cosh(rate):
    cdf = even_jump_count_cdf(rate)
    pmf = np.diff(np.concatenate([[0.0], cdf]))
    # P(K=0) = 1/cosh(rate)
    assert pmf[0] == pytest.approx(1.0 / np.cosh(min(rate, 700)), rel=1e-12)
    # E[K] = rate*tanh(rate)
    k = 2.0 * np.arange(pmf.size)
    assert k @ pmf == pytest.approx(rate * np.tanh(rate), rel=1e-10)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-15)


def test_even_count_cdf_edge_cases():
    assert even_jump_count_cdf(0.0) == (1.0,)
    with pytest.raises(ValueError):
        even_jump_count_cdf(400.0)


def test_empirical_even_count_distribution():
    rate, n = 1.3, 40_000
    ens = sample_ensemble(rate, n, seed=5)
    counts = np.diff(ens.offsets)
    assert np.all(counts % 2 == 0)
    est = frequency_with_err(int((counts == 0).sum()), n)
    assert est.agrees_with(1.0 / np.cosh(rate), n_sigma=3.5)
    est_mean = mean_with_err(counts.astype(float))
    assert est_mean.agrees_with(rate * np.tanh(rate), n_sigma=3.5)


def test_sample_even_path_structure():
    ens = sample_ensemble(2.0, 200, seed=3)
    for times in _rows(ens):
        assert times.size % 2 == 0
        if times.size:
            assert 0.0 < times[0]
            assert times[-1] < 1.0
            assert np.all(np.diff(times) > 0)


# -- overlap integral ------------------------------------------------------


def _overlap_reference(a, b):
    """O(k) merge evaluation of int_0^1 sigma_a sigma_b dt."""
    knots = np.concatenate([[0.0], np.sort(np.concatenate([a, b])), [1.0]])
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        mid = 0.5 * (lo + hi)
        total += (hi - lo) * sigma_at(a, mid) * sigma_at(b, mid)
    return total


def test_overlap_hand_value():
    a = _path(0.25, 0.75)
    b = _path()
    # sigma_a = +1 on [0,.25)+[.75,1], -1 between: integral = 0.5 - 0.5 = 0
    assert overlap_integral(a, b) == pytest.approx(0.0, abs=1e-15)
    assert overlap_integral(a, a) == 1.0
    c = _path(0.5, 0.9)
    # product flips at .25,.5,.75,.9: +.25 -.25 +.25 -.15 +.1 = 0.2
    assert overlap_integral(a, c) == pytest.approx(0.2, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(jump_paths(), jump_paths())
def test_overlap_properties(a, b):
    val = overlap_integral(a, b)
    assert val == pytest.approx(_overlap_reference(a, b), abs=1e-12)
    assert abs(val) <= 1.0 + 1e-12
    assert overlap_integral(b, a) == pytest.approx(val, abs=1e-13)
    assert overlap_integral(a, a) == 1.0


def test_overlap_riemann_cross_check():
    rng = np.random.default_rng(7)
    t = (np.arange(2048) + 0.5) / 2048
    for _ in range(10):
        a = sample_even_path(2.0, rng)
        b = sample_even_path(2.0, rng)
        riemann = np.mean([sigma_at(a, u) * sigma_at(b, u) for u in t])
        assert overlap_integral(a, b) == pytest.approx(riemann, abs=4e-3)


# -- ensembles -------------------------------------------------------------


def test_ensemble_deterministic_across_workers():
    # at rate 0 no batch jumps; at rate 0.02 and seed 11 batches 1 and 3 do
    # not jump while batches 0 and 2 do; at rate 3 some 45% of the paths
    # jump more than twice
    for rate in (1.0, 0.0, 0.02, 3.0):
        with worker_count(1):
            e1 = sample_ensemble(rate, MULTI_CHUNK, seed=11)
        with worker_count(4):
            e4 = sample_ensemble(rate, MULTI_CHUNK, seed=11)
        np.testing.assert_array_equal(e1.times, e4.times)
        np.testing.assert_array_equal(e1.offsets, e4.offsets)
        # the same bytes as drawing every batch in turn and sorting every row
        times, counts = even_paths(rate, MULTI_CHUNK, seed=11)
        assert e4.times.tobytes() == times.tobytes()
        assert e4.offsets.dtype == np.int32
        np.testing.assert_array_equal(np.diff(e4.offsets), counts)
        jumps = np.add.reduceat(counts, np.arange(0, MULTI_CHUNK, BATCH_SIZE))
        if rate == 0.0:
            assert not jumps.any()
        elif rate == 0.02:
            assert not jumps.all() and jumps.any()
        else:
            e_other = sample_ensemble(rate, MULTI_CHUNK, seed=12)
            assert not np.array_equal(e1.offsets, e_other.offsets)
        if rate == 3.0:
            assert np.mean(counts > 2) > 0.4 and counts.max() >= 10


def test_unconditioned_sampler_matches_padded_oracle():
    # the same bytes as sorting every padded row of every batch's block,
    # with one-jump rows, which need no sort, and odd counts above 2
    times, counts = sample_unconditioned(1.5, MULTI_CHUNK, seed=19)
    ref_times, ref_counts = poisson_paths(1.5, MULTI_CHUNK, seed=19)
    assert times.tobytes() == ref_times.tobytes()
    assert counts.dtype == np.int32
    np.testing.assert_array_equal(counts, ref_counts)
    assert {1, 3} <= set(counts.tolist())


def test_sigma_matrix_and_total_times():
    ens = sample_ensemble(2.0, 400, seed=9)
    assert np.all(ens.sigma_matrix(0.0) == 1)
    t = 0.37
    direct = np.array([sigma_at(p, t) for p in _rows(ens)])
    np.testing.assert_array_equal(ens.sigma_matrix(t), direct)
    totals = signed_totals(ens.times, np.diff(ens.offsets))
    ref = np.array([_overlap_reference(p, _path()) for p in _rows(ens)])
    np.testing.assert_allclose(totals, ref, atol=1e-12)


def test_sigma_matrix_at_the_ends_and_at_jump_times():
    # sigma is right-continuous: at a jump time it already has the new sign
    ens = PathEnsemble([0.25, 0.75, 0.5, 1.0, 0.1, 0.2, 0.3, 0.4], [2, 0, 2, 4],
                       rate=1.0)
    for t in (0.0, 1.0, 0.1, 0.25, 0.3, 0.5, 0.75):
        direct = np.array([sigma_at(p, t) for p in _rows(ens)])
        np.testing.assert_array_equal(ens.sigma_matrix(t), direct)
    assert ens.sigma_matrix(1.0).tolist() == [1, 1, 1, 1]
    assert ens.sigma_matrix(0.5).tolist() == [-1, 1, -1, 1]


def _kernels(ens, m_cells):
    """The variational kernels on the ensemble's jump-cell terms at a fixed
    random symmetric psi: the terms, psi, the forms, Lambda' and its errors."""
    a = np.random.default_rng(m_cells).uniform(-1.0, 1.0, (m_cells, m_cells))
    psi = GridFunction(0.5 * (a + a.T))
    terms = ens.signed_lengths(m_cells)
    x = variational._quadratic_forms(psi, terms, len(ens))
    grad, err = variational._weighted_gram(terms, x, True)
    return terms, psi, x, grad.values, err.values


def _assert_kernels_match_rows(ens, m_cells, rows):
    """The kernels on the ensemble's terms against the dense kernels on
    ``rows``, one signed-length row per path in path order: every form within
    ``form_bounds``, and Lambda' and its errors within the rounding of sums
    over every path and the 2M + 2 prefix sums (see test_variational)."""
    terms, psi, x, grad, err = _kernels(ens, m_cells)
    jumping = np.diff(ens.offsets) > 0
    full = np.concatenate([rows[jumping], rows[~jumping]])
    x_ref = quadratic_forms_full(psi.values, full)
    bounds = form_bounds(terms, psi.values)
    n = terms.n_jumping
    assert np.all(np.abs(x[:n] - x_ref[:n]) <= bounds[:-1])
    assert np.all(np.abs(x[n:] - x_ref[n:]) <= bounds[-1])
    k, k_err = weighted_gram_full(full, x_ref)
    sums = len(ens) + 2 * m_cells + 2
    np.testing.assert_allclose(grad, k, rtol=0, atol=2 * sums * EPS)
    w = np.exp(x_ref - x_ref.max())
    np.testing.assert_allclose(np.square(err), np.square(k_err), rtol=0,
                               atol=8 * sums * EPS * np.square(w / w.sum()).sum())


def test_cell_signed_lengths_consistency():
    ens = sample_ensemble(2.5, 50, seed=1)
    jumping = [p for p in _rows(ens) if p.size]
    assert 0 < len(jumping) < 50
    totals = np.array([_overlap_reference(p, _path()) for p in jumping])
    for m in (1, 3, 8):
        # one set of terms per path that jumps
        terms = ens.signed_lengths(m)
        assert terms.n_jumping == len(jumping)
        rows = np.array([cell_signed_lengths(p, m) for p in _rows(ens)])
        # each cell's magnitude is bounded by the cell width
        assert np.all(np.abs(rows) <= 1.0 / m + 1e-15)
        _assert_kernels_match_rows(ens, m, rows)
        # at psi = 1 a form is (integral sigma)^2: the terms add up to the
        # full signed time
        x = variational._quadratic_forms(GridFunction(np.ones((m, m))), terms,
                                         len(ens))
        np.testing.assert_allclose(x[: len(jumping)], np.square(totals),
                                   rtol=0, atol=1e-12)


def test_p_n_functional_identity_n2():
    rng = np.random.default_rng(4)
    group = [sample_even_path(1.0, rng) for _ in range(2)]
    a = overlap_integral(group[0], group[1])
    assert p_n_functional(group) == pytest.approx((2 + 2 * a * a) / 4.0,
                                                  rel=1e-13)


def test_p_n_batch_matches_loop():
    n, groups = 3, 40
    ens = sample_ensemble(1.0, n * groups, seed=6)
    rows = _rows(ens)
    batch = paths.p_n_batch(ens, n)
    loop = np.array([
        p_n_functional(rows[g * n:(g + 1) * n])
        for g in range(groups)
    ])
    np.testing.assert_allclose(batch, loop, atol=1e-13)
    mats = paths.overlap_matrix_batch(ens, n)
    assert mats.shape == (groups, n, n)
    np.testing.assert_allclose(mats[:, range(n), range(n)], 1.0, atol=0)
    pairs = np.array([
        [[overlap_integral(rows[g * n + i], rows[g * n + j]) for j in range(n)]
         for i in range(n)]
        for g in range(groups)
    ])
    off = ~np.eye(n, dtype=bool)
    np.testing.assert_allclose(mats[:, off], pairs[:, off], rtol=0, atol=1e-13)
    np.testing.assert_allclose((mats**2).sum(axis=(1, 2)) / n**2, batch,
                               atol=1e-13)


# -- chunked kernels against their serial forms -----------------------------


def _fresh(ens):
    """A fresh copy of ``ens``, with an empty memo."""
    return PathEnsemble(ens.times, np.diff(ens.offsets), ens.rate, seed=ens.seed)


@pytest.mark.parametrize("rate", [0.0, 1.5, 5.0])
def test_signed_lengths_match_serial_kernel_for_any_workers(rate):
    ens = sample_ensemble(rate, MULTI_CHUNK, seed=21)
    assert (ens.times.size == 0) == (rate == 0.0)
    jumping = np.diff(ens.offsets) > 0
    if rate == 5.0:  # drop the 1.3% jumpless paths: every path jumps
        ens = PathEnsemble(ens.times, np.diff(ens.offsets)[jumping], rate)
        jumping = jumping[jumping]
    for m in (1, 7, 64):
        runs = []
        for workers in (1, 2, 4):
            with worker_count(workers):
                runs.append(_kernels(_fresh(ens), m)[2:])
        for workers, run in zip((2, 4), runs[1:]):
            assert all(np.array_equal(a, b) for a, b in zip(runs[0], run)), (
                m, workers)
        ref = signed_lengths_broadcast(
            padded_matrix(ens.times, np.diff(ens.offsets)), m)
        _assert_kernels_match_rows(ens, m, ref)
        # the rows left out are the cell widths, u_0/M up to rounding, and
        # the jumpless paths share one form
        assert np.all(np.abs(ref[~jumping] - 1.0 / m) <= EPS)
        x = runs[0][0]
        assert np.all(x[np.count_nonzero(jumping) :] == x[-1])
    terms = ens.signed_lengths(64)
    assert terms.n_jumping == np.count_nonzero(jumping)
    assert (terms.n_jumping == 0) == (rate == 0.0)


@pytest.mark.parametrize("rate", [0.0, 1.5])
@pytest.mark.parametrize("n_spins, groups",
                         [(3, MULTI_CHUNK), (16, 2 * BATCH_SIZE + 7)])
def test_p_n_batch_matches_serial_kernel_for_any_workers(rate, n_spins, groups):
    ens = sample_ensemble(rate, n_spins * groups, seed=22)
    ref = p_n_batch_serial(padded_matrix(ens.times, np.diff(ens.offsets)), n_spins)
    for workers in (1, 2, 4):
        with worker_count(workers):
            got = paths.p_n_batch(_fresh(ens), n_spins)
        assert np.array_equal(got, ref), workers
    if rate == 0.0:
        assert np.all(ref == 1.0)


def _uniform_paths(counts, rng):
    """A PathEnsemble whose path k has ``counts[k]`` uniform jump times."""
    times = [np.sort(rng.random(k)) for k in counts]
    return PathEnsemble(np.concatenate(times), counts, rate=1.0)


def _spread_paths(counts, rng):
    """A PathEnsemble whose path k has ``counts[k]`` jump times e^(-30 u),
    u uniform: times of many magnitudes, on which a merged row added in
    another order than in turn often rounds apart."""
    times = [np.sort(np.exp(-30.0 * rng.random(k))) for k in counts]
    return PathEnsemble(np.concatenate(times), counts, rate=1.0)


def _overlap_input(kind, n_spins, groups):
    """An ensemble of ``groups`` groups of paths of one of ten kinds."""
    if kind.startswith("rate"):
        return sample_ensemble(float(kind[5:]), n_spins * groups, seed=23)
    rng = np.random.default_rng(24)
    if kind == "two_jumps":
        # every pair takes the closed form, on rows of 4 columns
        return _spread_paths(np.full(groups * n_spins, 2), rng)
    if kind == "width_two":
        # no path jumps more than twice, so no pair is merged
        return _spread_paths(2 * rng.integers(0, 2, size=groups * n_spins), rng)
    counts = 2 * rng.integers(1, 4, size=(groups, n_spins))
    if kind == "first_chunk_still":
        # no path of the first chunk (at most BATCH_SIZE groups) jumps
        counts[:BATCH_SIZE] = 0
    elif kind == "one_jumper":
        # one path per group jumps, so a pair has one jumping path or none
        counts *= np.arange(n_spins) == rng.integers(n_spins, size=(groups, 1))
    elif kind == "one_long":
        # every chunk but the first pads to 6 columns where the oracle's
        # merged rows span 2 * 24: the zeros after a row's last term must
        # change no bit
        counts[0, 0] = 24
    elif kind == "one_very_long":
        # 2 * 66 columns, and times on which a sum in another order than in
        # turn rounds apart
        counts[0, 0] = 66
        return _spread_paths(counts.ravel(), rng)
    return _uniform_paths(counts.ravel(), rng)


@pytest.mark.parametrize("n_spins", [2, 16])
@pytest.mark.parametrize("kind", ["rate_0", "rate_0.2", "rate_1.5", "all_jump",
                                  "first_chunk_still", "one_jumper", "one_long",
                                  "two_jumps", "width_two", "one_very_long"])
def test_overlap_kernels_match_pair_loop_oracle(kind, n_spins):
    groups = 2 * BATCH_SIZE + 7  # two full chunks and part of a third
    ens = _overlap_input(kind, n_spins, groups)
    jumping = (np.diff(ens.offsets) > 0).reshape(groups, n_spins)
    if kind == "rate_0":
        assert not jumping.any()
    elif kind == "first_chunk_still":
        assert not jumping[:BATCH_SIZE].any() and jumping[BATCH_SIZE:].all()
    elif kind == "rate_0.2":
        assert jumping.mean() < 0.05
    elif kind == "all_jump":
        assert jumping.all()
    elif kind == "one_jumper":
        assert np.all(jumping.sum(axis=1) == 1)
    elif kind == "two_jumps":
        assert np.all(np.diff(ens.offsets) == 2)
    elif kind == "width_two":
        assert ens.max_count == 2 and 0.4 < jumping.mean() < 0.6
    elif kind == "one_very_long":
        assert 2 * ens.max_count > 128
    jumps = padded_matrix(ens.times, np.diff(ens.offsets))
    mats = overlap_matrix_serial(jumps, n_spins)
    p_n = p_n_batch_serial(jumps, n_spins)
    for workers in (1, 2, 4):
        with worker_count(workers):
            got_mats = paths.overlap_matrix_batch(ens, n_spins)
            got_p_n = paths.p_n_batch(ens, n_spins)
        assert np.array_equal(got_mats, mats), workers
        assert np.array_equal(got_p_n, p_n), workers


def test_p_n_batch_memory_does_not_grow_with_chunks():
    def traced_peak(chunks):
        ens = sample_ensemble(3.0, 16 * chunks * BATCH_SIZE, seed=25)
        tracemalloc.start()
        try:
            paths.p_n_batch(ens, 16)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with worker_count(2):
        assert traced_peak(8) <= 1.25 * traced_peak(2)


def test_p_n_batch_pads_fewer_groups_where_most_paths_jump():
    # at rate 3, 90% of the paths jump: the padded rows of a chunk of
    # BATCH_SIZE groups at N = 16 alone would take more than the kernel's peak
    ens = sample_ensemble(3.0, 16 * 2 * BATCH_SIZE, seed=25)
    chunk_rows = 8 * ens.max_count * np.count_nonzero(
        np.diff(ens.offsets)[: 16 * BATCH_SIZE])
    tracemalloc.start()
    try:
        with worker_count(1):
            paths.p_n_batch(ens, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < chunk_rows


@pytest.mark.parametrize("rate, n_spins, count",
                         [(3.0, 16, 480_000), (1.0, 8, 800_000)])
def test_sampling_and_p_n_batch_peak_below_one_padded_matrix(rate, n_spins, count):
    # the flat layout and the chunked kernels never hold a (paths x max
    # count) jump matrix, which alone would take count * max(counts) * 8 B
    tracemalloc.start()
    try:
        with worker_count(2):
            ens = sample_ensemble(rate, count, seed=26)
            paths.p_n_batch(ens, n_spins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < count * int(np.diff(ens.offsets).max()) * 8


def test_sampling_holds_one_copy_of_the_paths():
    # every batch draws its counts first, the flat arrays are sized from
    # them, and each batch writes its sorted times into its own slice, so
    # the sampling peak stays below 1.25 times the arrays it returns
    def traced(sample):
        tracemalloc.start()
        try:
            with worker_count(2):
                result = sample(3.0, 480_000, 26)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (times, counts), peak = traced(
        lambda *args: paths._sample_paths(*args, conditioned=True))
    assert peak < 1.25 * (times.nbytes + counts.nbytes), peak
    # the checks of the ensemble add its offsets and one bool a jump
    ens, peak = traced(sample_ensemble)
    assert ens.times.tobytes() == times.tobytes()
    arrays = times.nbytes + counts.nbytes + ens.offsets.nbytes
    assert peak < arrays + 2 * times.size, (peak, arrays)


@pytest.mark.parametrize("m_cells", [3, 4, 8])
def test_signed_lengths_with_jumps_on_cell_boundaries(m_cells):
    # a jump exactly at a boundary k/M (the float the kernel compares with)
    # counts as having happened there: the cell to its right takes the new sign
    b = np.arange(m_cells + 1) / m_cells
    rows = [[b[1], b[2]], [b[1], 0.5 * (b[1] + b[2]), b[2], b[-1]], []]
    repeat = BATCH_SIZE + 1  # three paths repeated: four chunks
    ens = PathEnsemble(np.concatenate([np.tile(r, repeat) for r in rows]),
                       np.repeat([2, 4, 0], repeat), rate=1.0)
    runs = []
    for workers in (1, 2, 4):
        with worker_count(workers):
            runs.append(_kernels(_fresh(ens), m_cells)[2:])
    for workers, run in zip((2, 4), runs[1:]):
        assert all(np.array_equal(a, b) for a, b in zip(runs[0], run)), workers
    ref = signed_lengths_broadcast(
        padded_matrix(ens.times, np.diff(ens.offsets)), m_cells)
    _assert_kernels_match_rows(ens, m_cells, ref)
    w = 1.0 / m_cells
    np.testing.assert_allclose(ref[0], np.where(np.arange(m_cells) == 1, -w, w),
                               rtol=0, atol=1e-15)
    for row, times in enumerate(rows):
        np.testing.assert_allclose(ref[row * repeat],
                                   cell_signed_lengths(np.array(times), m_cells),
                                   rtol=0, atol=1e-15)


@pytest.mark.parametrize("rate", [1.0, 3.0])
@pytest.mark.parametrize("m_cells", [3, 8, 64])
def test_rebuilt_pair_products_match_the_products_bit_for_bit(rate, m_cells):
    # CellTerms keeps each path's 2J + 1 term coefficients; the kernels
    # rebuild the pair products (c_p f) c_q for one piece at a time, with
    # closed forms for two jumps in two cells, and add each form's terms
    # in turn.  Every group, piece and product keeps its bits
    two_cells = paths._products(np.array([[1.0], [-2.0], [2.0], [1.0], [1.0]]))
    assert paths._TWO_CELLS.tobytes() == two_cells[:, 0].tobytes()
    ens = sample_ensemble(rate, MULTI_CHUNK, seed=31)
    terms = ens.signed_lengths(m_cells)
    rng = np.random.default_rng(32)
    a = rng.standard_normal((m_cells, m_cells))
    table = terms.table(a + a.T)
    alphas = set()
    for group in terms.groups:
        forms = group.forms(table)
        for rows in group.pieces():
            coefs = group.coefs[:, rows].T
            p, q = np.triu_indices(coefs.shape[1])
            products = coefs[:, p] * np.where(p < q, 2.0, 1.0) * coefs[:, q]
            out = np.empty(products.shape)
            group.weigh(rows, np.ones(coefs.shape[0]), out)
            assert out.tobytes() == products.tobytes(), (group.rows.size, rows)
            factor = rng.random(coefs.shape[0])
            group.weigh(rows, factor, out)
            assert out.tobytes() == (products * factor[:, None]).tobytes()
            values = np.take(table, group.pair_indices(rows)) * products
            assert forms[rows].tobytes() == sum_in_turn(values).tobytes()
            if coefs.shape[1] == 5:
                alphas |= set(map(tuple, coefs[:, 1:3].tolist()))
    # two jumps in two cells, and (but at rate 1 on 64 cells) paths with an
    # even count of jumps in each of two cells
    expected = {(-2.0, 2.0), (0.0, 0.0)}
    if rate == 1.0 and m_cells == 64:
        expected.remove((0.0, 0.0))
    assert alphas == expected


def test_sum_in_turn_adds_as_a_python_loop():
    # columns of 1 to 300 rows, among them pieces of one column, which
    # numpy's sum(axis=0) would add pairwise; entries of many magnitudes
    # and signed zeros
    rng = np.random.default_rng(33)
    for n_rows in [*range(1, 20), 28, 45, 66, 91, 120, 128, 129, 136, 153, 300]:
        for n_cols in (1, 7):
            rows = rng.standard_normal((n_rows, n_cols))
            rows *= np.exp(rng.uniform(-20, 20, rows.shape))
            rows[::7] = 0.0
            rows[::11] = -0.0
            expected = []
            for column in rows.T.tolist():
                total = 0.0
                for value in column:
                    total += value
                expected.append(total)
            got = paths._sum_in_turn(rows)
            assert got.tobytes() == np.array(expected).tobytes(), (n_rows, n_cols)


# -- closed-form kernels ---------------------------------------------------


def test_laplace_conditional_matrix_oracle():
    # 2x2 oracle: L_s(beta g, beta b) = <s| e^{beta(g Sz + b Sx)} |+>
    rng = np.random.default_rng(8)
    for _ in range(25):
        g = float(rng.standard_normal())
        beta = float(rng.uniform(0.3, 2.0))
        b = float(rng.uniform(0.1, 2.0))
        h = beta * np.array([[g, b], [b, -g]])
        e = expm(h)
        assert laplace_conditional(beta * g, beta * b, 1) == pytest.approx(
            e[0, 0], rel=1e-10)
        assert laplace_conditional(beta * g, beta * b, -1) == pytest.approx(
            e[1, 0], rel=1e-10)


def test_laplace_conditional_limits():
    # b -> 0: no flips possible; even sector is e^g, odd sector dies
    assert laplace_conditional(0.7, 0.0, 1) == pytest.approx(
        np.exp(0.7), rel=1e-12)
    assert laplace_conditional(0.7, 0.0, -1) == 0.0
    # g = 0: pure transverse field
    assert laplace_conditional(0.0, 1.0, 1) == pytest.approx(
        np.cosh(1.0), rel=1e-12)
    assert laplace_conditional(0.0, 1.0, -1) == pytest.approx(
        np.sinh(1.0), rel=1e-12)
    with pytest.raises(ValueError):
        laplace_conditional(0.5, 1.0, 2)
    with pytest.raises(ValueError):
        laplace_conditional(0.5, -1.0, 1)


def test_signed_totals_match_padded_oracle():
    # bit for bit the sums over rows as wide as the largest count: 9, from
    # the first path, while no path in a later chunk has more than 7
    rng = np.random.default_rng(14)
    counts = np.minimum(rng.poisson(1.5, MULTI_CHUNK), 7)
    counts[0] = 9
    rows = np.sort(rng.random((MULTI_CHUNK, 9)), axis=1)
    times = rows[np.arange(9) < counts[:, None]]
    expected = signed_totals_padded(padded_matrix(times, counts), counts)
    assert np.array_equal(signed_totals(times, counts), expected)
    # up to 40 times of many magnitudes a path, which a sum in another
    # order than in turn rounds apart
    rng = np.random.default_rng(15)
    counts = rng.integers(0, 41, MULTI_CHUNK)
    rows = np.sort(np.exp(-30.0 * rng.random((MULTI_CHUNK, 40))), axis=1)
    times = rows[np.arange(40) < counts[:, None]]
    expected = signed_totals_padded(padded_matrix(times, counts), counts)
    assert np.array_equal(signed_totals(times, counts), expected)


def test_laplace_conditional_monte_carlo():
    times, counts = sample_unconditioned(0.9, 60_000, seed=13)
    tot = signed_totals(times, counts)
    for g, s in ((0.7, 1), (-0.4, -1)):
        keep = (1 - 2 * (counts % 2)) == s
        est = mean_with_err(np.exp(0.9 + g * tot) * keep)
        assert est.agrees_with(laplace_conditional(g, 0.9, s),
                               n_sigma=3.5)


def test_sigma_autocorrelation_matches_mu():
    ens = sample_ensemble(1.1, 50_000, seed=17)
    for t, tp in ((0.2, 0.6), (0.45, 0.5), (0.05, 0.95)):
        est = mean_with_err(ens.sigma_matrix(t) * ens.sigma_matrix(tp))
        assert est.agrees_with(mu(t, tp, 1.1), n_sigma=3.5)
