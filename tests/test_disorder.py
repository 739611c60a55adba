"""Disorder studies: quenched means, second moments, the Poincare ratio."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qsk
from qsk import checks, disorder, hilbert, paths, streams
from qsk.constants import ModelParams
from qsk.disorder import (
    DisorderStudyResult,
    generalized_second_moment,
    order_parameter_trend,
    paley_zygmund_witness,
    run_study,
    second_moment_theory_bound,
    study_verdicts,
)
from qsk.hilbert import draw_couplings
from qsk.numerics import LN2, logcosh
from qsk.stats import EstimateWithError
from qsk.streams import BATCH_SIZE, worker_count
from qsk.variational import fixed_point_solve

from oracles import per_sample_study


def test_run_study_no_disorder_limit():
    # lam = 0: Z is deterministic, so every disorder statistic collapses,
    # and the Poincare ratio is 0/0, so a study refuses lam = 0
    params = ModelParams(4, 0.0, 1.0)
    ln_z, beta_f, op = disorder._study_arrays(params, 50, 9)
    expected = -(float(logcosh(1.0)) + LN2)
    assert beta_f == pytest.approx(np.full(50, expected), abs=1e-12)
    assert np.ptp(beta_f) <= 1e-13
    assert disorder._ratio_of_means(ln_z, 9).value == pytest.approx(1.0, abs=1e-12)
    assert op.max() <= 1e-12
    with pytest.raises(ValueError, match="lam must be > 0"):
        run_study(params, 50, 9)


def test_one_eigendecomposition_per_sample(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    params = ModelParams(5, 0.1, 1.0)
    run_study(params, 523, 3)
    # one stacked solve per chunk, as few chunks as the byte budget allows
    # (256 samples of two 16 x 16 blocks), and every sample in exactly one
    assert len(shapes) == math.ceil(523 / (disorder.CHUNK_BYTES // (16 * 16**2)))
    assert [s[1:] for s in shapes] == [(2, 16, 16)] * len(shapes)
    assert sum(s[0] for s in shapes) == 523


#: samples per oracle study: for N <= 4 a chunk straddles the BATCH_SIZE
#: boundary of the coupling draws; the byte budget sets the chunk count, from
#: one chunk at N = 2 to one chunk a sample at N = 9 and 10, and the samples
#: are spread evenly over the chunks (2 chunks of 150 at N = 5, 10 of 60 at 6)
ORACLE_SAMPLES = {2: BATCH_SIZE + 8, 3: BATCH_SIZE + 8, 4: BATCH_SIZE + 8,
                  5: 300, 6: 600, 7: 100, 8: 20, 9: 6, 10: 4}


@pytest.mark.parametrize("b", [0.0, 1.0, 50.0])
@pytest.mark.parametrize("n", range(2, 11))
def test_chunked_study_matches_per_sample_oracle(n, b):
    params = ModelParams(n, 0.245025, 1.1 * b)
    count = ORACLE_SAMPLES[n]
    reference = per_sample_study(params, count, seed=n)
    for workers in (1, 2, 4):
        with worker_count(workers):
            arrays = disorder._study_arrays(params, count, n)
        for got, want in zip(arrays, reference):
            assert np.array_equal(got, want), (n, b, workers)


def test_chunked_study_memory_stays_near_chunk_budget():
    # N = 8 fills a 1 MiB chunk with 4 samples; 64 samples in one stack
    # would hold 16 MiB of blocks
    params = ModelParams(8, 0.1, 1.0)
    with worker_count(2):
        disorder._study_arrays(params, 16, 4)  # fill the table caches
        tracemalloc.start()
        try:
            disorder._study_arrays(params, 64, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 8 * disorder.CHUNK_BYTES


def test_run_study_weak_disorder_sanity():
    params = ModelParams(4, 0.1, 1.0)
    res = run_study(params, 400, 2)
    ratio = res.second_moment_ratio
    c = second_moment_theory_bound(0.1)
    assert 1.0 - 3.5 * ratio.std_err <= ratio.value <= c + 3.5 * ratio.std_err
    assert res.order_parameter.value > 0.0
    poincare = res.poincare_ratio
    assert 0.0 < poincare.value <= 1.0 + 3.5 * poincare.std_err
    assert res.n_disorder == 400


def _spy_map_batches(monkeypatch):
    """Record (chunk count, pool setting) of every map_batches call in disorder."""
    calls = []
    real = disorder.map_batches

    def spy(fn, n_batches):
        calls.append((n_batches, streams._workers))
        return real(fn, n_batches)

    monkeypatch.setattr(disorder, "map_batches", spy)
    return calls


def _per_sample_bytes(result):
    return [a.tobytes() for a in result.per_sample]


def test_run_study_worker_invariance(monkeypatch):
    # every study spreads its samples over several chunks, and N = 10 is
    # large enough that eigh's bits depend on the BLAS thread count unless
    # it is pinned
    calls = _spy_map_batches(monkeypatch)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for n, count in ((5, 300), (6, 300), (10, 12)):
            params = ModelParams(n, 0.1, 1.0)
            runs = {}
            for w in (1, 2, 4):
                with worker_count(w):
                    runs[w] = run_study(params, count, 5)
            for w in (2, 4):
                assert _per_sample_bytes(runs[w]) == _per_sample_bytes(runs[1])
                assert runs[w].quenched_mean == runs[1].quenched_mean
    finally:
        sys.setswitchinterval(switch)
    # the chunking depends on the block size and the sample count alone:
    # the fewest chunks of at most CHUNK_BYTES of blocks (256 samples at
    # N = 5, 64 at N = 6, 1 at N = 10), the same at every worker count;
    # map_batches alone decides whether the chunks then share a pool
    assert calls == [(chunks, w) for chunks in (2, 5, 12) for w in (1, 2, 4)]


def test_blas_thread_context_restores_count():
    handle = streams._openblas_threads()
    if handle is None:
        with streams.single_blas_thread() as pinned:
            assert pinned is False
        return
    get, set_ = handle
    original = get()
    try:
        set_(2)
        with streams.single_blas_thread() as pinned:
            assert pinned is True
            assert get() == 1
            with streams.single_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError):
            with streams.single_blas_thread():
                raise RuntimeError("inside")
        assert get() == 2
    finally:
        set_(original)


def test_study_runs_serially_without_blas_handle(monkeypatch):
    # without the OpenBLAS handle no pool starts, and each pooled routine's
    # output equals its workers = 1 output byte for byte; every input spans
    # several chunks
    params = ModelParams(6, 0.1, 1.0)

    def outputs(workers):
        with worker_count(workers):
            ens = paths.sample_ensemble(1.0, 2 * (BATCH_SIZE + 8), 9)
            report = fixed_point_solve(0.1, 4, ens)
            return [_per_sample_bytes(run_study(params, 130, 8)),
                    ens.times.tobytes(), np.diff(ens.offsets).tobytes(),
                    paths.p_n_batch(ens, 2).tobytes(),
                    report.to_dict(), report.start_lambda]

    reference = outputs(1)
    pools = []

    class CountingPool(streams.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(streams, "ThreadPoolExecutor", CountingPool)
    if streams._openblas_threads() is not None:
        assert outputs(2) == reference
        assert pools and set(pools) == {2}  # with the handle they do pool
        pools.clear()
    monkeypatch.setattr(streams, "_openblas_threads", lambda: None)
    with streams.single_blas_thread() as pinned:
        assert pinned is False
    assert outputs(2) == reference
    assert pools == []


def test_parallel_failures_name_the_global_sample(monkeypatch):
    # 75 samples at N = 6 make two chunks, samples 0-36 and 37-74
    params = ModelParams(6, 0.1, 1.0)
    couplings = draw_couplings(6, 75, 3)
    real_build = disorder.build_hamiltonian
    real_spectrum = disorder.spectrum
    real_weights = hilbert._gibbs_weights
    built = {}  # id of each Hamiltonian -> (it, the couplings it was built from)

    def recording_build(params, stack):
        h = real_build(params, stack)
        built[id(h)] = (h, stack)
        return h

    def rows_of(h, index):
        """Rows of the stack in ``h`` that hold sample ``index``."""
        return np.all(built[id(h)][1] == couplings[index], axis=-1)

    monkeypatch.setattr(disorder, "build_hamiltonian", recording_build)

    # a failing stacked solve is re-solved one sample at a time, so the
    # error names the sample inside the chunk that fails
    def failing_spectrum(h):
        if np.any(rows_of(h, 43)):
            raise np.linalg.LinAlgError("injected")
        return real_spectrum(h)

    monkeypatch.setattr(disorder, "spectrum", failing_spectrum)
    with worker_count(2), pytest.raises(
            RuntimeError, match=r"seed=3, batch=0, index=43\): injected"):
        run_study(params, 75, 3)
    monkeypatch.setattr(disorder, "spectrum", real_spectrum)

    # gibbs_zz_matrix checks |<Sz_i Sz_j>| <= 1 on every sample: Gibbs
    # weight 2 on the all-up state of sample 47 puts 2 in every pair and is
    # caught
    def corrupt_weights(h):
        q = real_weights(h)
        q[rows_of(h, 47)] = 0.0
        q[rows_of(h, 47), 0] = 2.0
        return q

    monkeypatch.setattr(hilbert, "_gibbs_weights", corrupt_weights)
    with worker_count(2), pytest.raises(
            RuntimeError, match=r"index=47\): \|<Sz_i Sz_j>\| = 2 exceeds 1"):
        run_study(params, 75, 3)
    monkeypatch.setattr(hilbert, "_gibbs_weights", real_weights)

    # build_hamiltonian checks that every block is traceless: a pair table
    # that is +1 everywhere breaks each sample, and the first is named
    monkeypatch.setattr(hilbert, "_pair_z_table",
                        lambda n: np.ones((2 ** (n - 1), n * (n - 1) // 2)))
    with worker_count(2), pytest.raises(
            RuntimeError, match=r"index=0\): Hamiltonian block diagonal does not"):
        run_study(params, 75, 3)


def test_study_validation():
    params = ModelParams(11, 0.1, 1.0)
    with pytest.raises(ValueError, match="cap"):
        run_study(params, 50, 1)
    strong = ModelParams(4, 0.2, 1.0)
    with pytest.raises(ValueError, match=r"4\*lam = 0\.800 .*use lam <= 0\.15"):
        run_study(strong, 50, 1)
    weak = ModelParams(4, 0.1, 1.0)
    with pytest.raises(ValueError, match="n_disorder must be >= 10"):
        run_study(weak, 5, 1)
    free = ModelParams(4, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"lam must be > 0: .* is 0/0 at lam = 0"):
        run_study(free, 50, 1)


def test_order_parameter_trend_decreasing():
    base = ModelParams(3, 0.125, 1.0)
    ests = order_parameter_trend(base, [3, 4], 300, seed=21)
    assert len(ests) == 2
    err = 3.5 * math.hypot(ests[0].std_err, ests[1].std_err)
    assert ests[0].value > ests[1].value - err


# -- Gaussian-Poincare ratio -----------------------------------------------


def test_poincare_ratio_value_and_jackknife():
    params = ModelParams(5, 0.1089, 0.88)
    ln_z, _, op = per_sample_study(params, 120, seed=13)
    est = disorder._poincare_ratio(ln_z, op, params, 13)
    scale = 2.0 * params.lam * (params.n_spins - 1)
    assert est.value == pytest.approx(
        np.var(ln_z, ddof=1) / (scale * op.mean()), rel=1e-12)
    keep = ~np.eye(ln_z.size, dtype=bool)
    loo = [np.var(ln_z[k], ddof=1) / (scale * op[k].mean()) for k in keep]
    n = ln_z.size
    se = math.sqrt((n - 1) / n * np.square(np.subtract(loo, np.mean(loo))).sum())
    assert est.std_err == pytest.approx(se, rel=1e-10)
    assert (est.n_samples, est.seed) == (120, 13)
    assert run_study(params, 120, 13).poincare_ratio == est


def test_poincare_verdict_holds_over_seeds():
    # the desk study of check_disorder at 20 seeds, gated at 3.5 errors
    params = ModelParams(5, 0.125, 1.0)
    c = second_moment_theory_bound(0.125)
    for seed in range(20):
        result = run_study(params, 400, seed)
        assert study_verdicts(result, 3.5, c)["poincare_le_one"], seed


def test_poincare_verdict_catches_scaled_correlations():
    # <Sz Sz>^2 scaled by 0.3 moves the ratio from about 0.48 to 1.6
    params = ModelParams(5, 0.125, 1.0)
    result = run_study(params, 400, 777)
    c = second_moment_theory_bound(0.125)
    assert study_verdicts(result, 3.5, c)["poincare_le_one"]
    ln_z, _, op = result.per_sample
    scaled = dataclasses.replace(
        result, poincare_ratio=disorder._poincare_ratio(ln_z, 0.3 * op, params, 777))
    assert not study_verdicts(scaled, 3.5, c)["poincare_le_one"]


# -- second moments --------------------------------------------------------


def test_second_moment_theory_bound_values():
    assert second_moment_theory_bound(0.125) == pytest.approx(
        1.1013906298063674, rel=1e-13)
    assert second_moment_theory_bound(0.0) == 1.0
    assert second_moment_theory_bound(0.2499) > 30.0
    with pytest.raises(ValueError):
        second_moment_theory_bound(0.25)
    with pytest.raises(ValueError):
        second_moment_theory_bound(-0.1)


def test_study_verdicts_edges():
    # ratio 0.975 +- 0.01 against the bound 0.95 and Poincare ratio
    # 1.025 +- 0.01 against 1: each inequality holds at 3 errors and fails at 2
    est = EstimateWithError(0.0, 0.0, 100)
    result = DisorderStudyResult(
        quenched_mean=est, second_moment_ratio=EstimateWithError(0.975, 0.01, 100),
        order_parameter=est, poincare_ratio=EstimateWithError(1.025, 0.01, 100),
        n_disorder=100, per_sample=())
    assert study_verdicts(result, 3, ratio_bound=0.95) == {
        "ratio_le_theory": True, "poincare_le_one": True}
    assert study_verdicts(result, 2, ratio_bound=0.95) == {
        "ratio_le_theory": False, "poincare_le_one": False}


def test_generalized_second_moment_gamma_cancellation():
    # gamma = -lam removes the replica coupling exactly, not just on average:
    # the statistic is the uncoupled ratio of the same paired systems
    params = ModelParams(3, 0.1, 1.0)
    est = generalized_second_moment(params, -0.1, 500, seed=3)
    ens = paths.sample_ensemble(1.0, 2 * 3 * 500, 3)
    a = paths.overlap_matrix_batch(ens, 3).reshape(-1, 2, 3, 3)
    weight = np.exp(0.1 * 3 * np.square(a).sum(axis=(2, 3)) / 9)
    expect = weight.prod(axis=1).mean() / weight.mean() ** 2
    assert est.value == pytest.approx(expect, rel=1e-12)
    assert est.value <= 1.0 + 3.5 * est.std_err


def test_generalized_second_moment_bound():
    params = ModelParams(3, 0.1, 1.0)
    for gamma in (0.0, 0.1):
        est = generalized_second_moment(params, gamma, 2000, seed=7)
        assert est.value <= 1.0 + 3.5 * est.std_err
        assert est.value > 0.5


def test_generalized_second_moment_validation():
    params5 = ModelParams(5, 0.1, 1.0)
    with pytest.raises(ValueError, match="N <= 4"):
        generalized_second_moment(params5, 0.0, 100, seed=1)
    params = ModelParams(3, 0.1, 1.0)
    with pytest.raises(ValueError, match="4"):
        generalized_second_moment(params, 0.15, 100, seed=1)
    with pytest.raises(ValueError):
        generalized_second_moment(params, 0.0, 1, seed=1)


def test_paley_zygmund_witness():
    params = ModelParams(4, 0.1, 1.0)
    result = run_study(params, 300, 17)
    freq, threshold = paley_zygmund_witness(result, 0.1)
    assert threshold == pytest.approx(
        0.25 / second_moment_theory_bound(0.1), rel=1e-15)
    assert freq.n_samples == 300 and freq.seed == 17
    assert freq.value >= threshold - 3.5 * freq.std_err
    # every weak-disorder sample clears the bar, so spread ln Z by hand to
    # see the count: Z_i >= (mean Z)/2, counted directly
    for ln_z in (result.per_sample[0],
                 np.random.default_rng(3).normal(scale=1.5, size=300)):
        spread = dataclasses.replace(result, per_sample=(ln_z, None, None))
        z = np.exp(ln_z)
        hits = np.count_nonzero(z >= z.mean() / 2)
        assert paley_zygmund_witness(spread, 0.1)[0].value == hits / 300
    assert hits < 300


def test_check_disorder_solves_the_witness_study_once(monkeypatch):
    # the witness reads the N = 5 study the check already ran instead of
    # solving 400 more samples
    calls = []
    real = disorder._study_arrays

    def spy(params, n_disorder, *args, **kwargs):
        calls.append((params.n_spins, n_disorder))
        return real(params, n_disorder, *args, **kwargs)

    monkeypatch.setattr(disorder, "_study_arrays", spy)
    ok, detail = checks.check_disorder(11)
    assert ok, detail
    assert calls.count((5, 400)) == 1
    assert sorted(calls) == [(3, 300), (4, 300), (5, 300), (5, 400)]


def test_ratio_of_means_constant_input():
    est = disorder._ratio_of_means(np.full(40, 2.5), 4)
    assert est.value == pytest.approx(1.0, rel=1e-15)
    assert est.std_err == pytest.approx(0.0, abs=1e-15)


_CORRUPT_CORRELATIONS = """
import numpy as np
from qsk import disorder, hilbert
from qsk.constants import ModelParams

def all_up_twice(h):
    q = np.zeros(h.blocks.shape[:-3] + h.blocks.shape[-1:])
    q[..., 0] = 2.0
    return q

hilbert._gibbs_weights = all_up_twice
try:
    disorder.run_study(ModelParams(4, 0.1, 1.0), 20, 1)
except RuntimeError as exc:
    print("raised:", exc)
else:
    print("returned")
"""


def test_spot_checks_survive_optimized_mode():
    # python -O strips assert statements; the invariant checks of the
    # hilbert kernels must still raise
    src = str(Path(qsk.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_CORRELATIONS],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised:"), proc.stdout
    assert "exceeds 1" in proc.stdout
