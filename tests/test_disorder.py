"""Disorder studies: quenched means, second moments, concentration, tails."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qsk
from qsk import disorder, paths, streams
from qsk.constants import ModelParams
from qsk.disorder import (
    DisorderStudyResult,
    concentration_bound,
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
from qsk.streams import BATCH_SIZE
from qsk.variational import fixed_point_solve

from oracles import per_sample_study


def test_run_study_no_disorder_limit():
    # v = 0: Z is deterministic, so every disorder statistic collapses
    params = ModelParams(n_spins=4, beta=1.0, v=0.0, b=1.0)
    res = run_study(params, 50, 9, 0.1)
    expected = -(float(logcosh(1.0)) + LN2)
    assert res.quenched_mean.value == pytest.approx(expected, abs=1e-12)
    assert res.quenched_mean.std_err <= 1e-13
    assert res.second_moment_ratio.value == pytest.approx(1.0, abs=1e-12)
    assert res.order_parameter.value <= 1e-12
    assert res.tail_frequency.value == 0.0


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
    params = ModelParams.from_dimensionless(5, 0.1, 1.0)
    run_study(params, 23, 3, 0.1)
    # one stacked solve per chunk, and every sample in exactly one of them
    assert len(shapes) == disorder.CHUNKS_PER_WORKER
    assert [s[1:] for s in shapes] == [(2, 16, 16)] * len(shapes)
    assert sum(s[0] for s in shapes) == 23


#: samples per oracle study: for N <= 4 a chunk straddles the BATCH_SIZE
#: boundary of the coupling draws; for N >= 5 the chunks hold fewer samples
#: than the byte budget allows, or (N = 6, 7) the budget sets their count
ORACLE_SAMPLES = {2: BATCH_SIZE + 8, 3: BATCH_SIZE + 8, 4: BATCH_SIZE + 8,
                  5: 300, 6: 600, 7: 100, 8: 20, 9: 6, 10: 4}


@pytest.mark.parametrize("b", [0.0, 1.0, 50.0])
@pytest.mark.parametrize("n", range(2, 11))
def test_chunked_study_matches_per_sample_oracle(n, b):
    params = ModelParams(n_spins=n, beta=1.1, v=0.9, b=b)
    count = ORACLE_SAMPLES[n]
    reference = per_sample_study(params, count, seed=n)
    for workers in (1, 2, 4):
        arrays = disorder._study_arrays(params, count, n, workers=workers)
        for got, want in zip(arrays, reference):
            assert np.array_equal(got, want), (n, b, workers)
    ln_z, _, op = disorder._study_arrays(params, count, n, workers=2,
                                         want_pairs=False)
    assert np.array_equal(ln_z, reference[0])
    assert not op.any()


def test_chunked_study_memory_stays_near_chunk_budget():
    # N = 8 fills a 1 MiB chunk with 4 samples; 64 samples in one stack
    # would hold 16 MiB of blocks
    params = ModelParams.from_dimensionless(8, 0.1, 1.0)
    disorder._study_arrays(params, 16, 4, workers=2)  # fill the table caches
    tracemalloc.start()
    try:
        disorder._study_arrays(params, 64, 4, workers=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * disorder.CHUNK_BYTES


def test_run_study_weak_disorder_sanity():
    params = ModelParams.from_dimensionless(4, 0.1, 1.0)
    res = run_study(params, 400, 2, 0.4)
    ratio = res.second_moment_ratio
    c = second_moment_theory_bound(0.1)
    assert 1.0 - 3.5 * ratio.std_err <= ratio.value <= c + 3.5 * ratio.std_err
    assert res.order_parameter.value > 0.0
    bound = concentration_bound(4, 0.4, params.beta_v)
    assert res.tail_frequency.value <= bound + 3.5 * res.tail_frequency.std_err
    assert res.n_disorder == 400


def _spy_map_batches(monkeypatch):
    """Record (chunk count, workers) of every map_batches call in disorder."""
    calls = []
    real = disorder.map_batches

    def spy(fn, n_batches, workers=None):
        calls.append((n_batches, workers))
        return real(fn, n_batches, workers=workers)

    monkeypatch.setattr(disorder, "map_batches", spy)
    return calls


def _per_sample_bytes(result):
    return [a.tobytes() for a in result.per_sample]


def test_run_study_worker_invariance(monkeypatch):
    # N = 3 stays serial (blocks below MIN_PARALLEL_DIM); N = 6 and N = 10
    # spread their samples over several chunks, and N = 10 is large enough
    # that eigh's bits depend on the BLAS thread count unless it is pinned
    calls = _spy_map_batches(monkeypatch)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for n, count in ((3, 120), (6, 300), (10, 12)):
            params = ModelParams.from_dimensionless(n, 0.1, 1.0)
            runs = {w: run_study(params, count, 5, 0.3, workers=w)
                    for w in (1, 2, 4)}
            for w in (2, 4):
                assert _per_sample_bytes(runs[w]) == _per_sample_bytes(runs[1])
                assert runs[w].quenched_mean == runs[1].quenched_mean
    finally:
        sys.setswitchinterval(switch)
    # the chunking depends on the block size, the sample count and the
    # workers only: at least CHUNKS_PER_WORKER chunks per worker, and at
    # most CHUNK_BYTES of blocks (64 samples at N = 6, 1 at N = 10) in each;
    # map_batches alone decides whether the chunks then share a pool
    assert calls == [(4, 1), (4, 1), (4, 1),
                     (5, 1), (8, 2), (16, 4),
                     (12, 1), (12, 2), (12, 4)]


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
    params = ModelParams.from_dimensionless(6, 0.1, 1.0)

    def outputs(workers):
        ens = paths.sample_ensemble(1.0, 2 * (BATCH_SIZE + 8), 9, workers=workers)
        report = fixed_point_solve(0.1, 1.0, 4, ens)
        return [_per_sample_bytes(run_study(params, 40, 8, 0.3, workers=workers)),
                ens.jumps.tobytes(), ens.counts.tobytes(),
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
    params = ModelParams.from_dimensionless(6, 0.1, 1.0)
    couplings = draw_couplings(6, 40, 3)
    real_build = disorder.build_hamiltonian
    real_spectrum = disorder.spectrum
    real_gibbs = disorder.gibbs_zz_matrix
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
        if np.any(rows_of(h, 13)):
            raise np.linalg.LinAlgError("injected")
        return real_spectrum(h)

    monkeypatch.setattr(disorder, "spectrum", failing_spectrum)
    with pytest.raises(RuntimeError,
                       match=r"seed=3, batch=0, index=13\): injected"):
        run_study(params, 40, 3, 0.3, workers=2)
    monkeypatch.setattr(disorder, "spectrum", real_spectrum)

    # the every-tenth-sample checks run on the global index: a corrupt
    # sample 15 passes unchecked, a corrupt sample 20 is caught
    def corrupt_at(index):
        def gibbs(h):
            c = real_gibbs(h)
            c[rows_of(h, index), 0, 1] = 2.0
            return c
        return gibbs

    monkeypatch.setattr(disorder, "gibbs_zz_matrix", corrupt_at(15))
    run_study(params, 40, 3, 0.3, workers=2)
    monkeypatch.setattr(disorder, "gibbs_zz_matrix", corrupt_at(20))
    with pytest.raises(RuntimeError, match=r"index=20\): \|<Sz_i Sz_j>\|"):
        run_study(params, 40, 3, 0.3, workers=2)


def test_study_validation():
    params = ModelParams.from_dimensionless(11, 0.1, 1.0)
    with pytest.raises(ValueError, match="cap"):
        run_study(params, 50, 1, 0.1)
    strong = ModelParams.from_dimensionless(4, 0.2, 1.0)
    with pytest.raises(ValueError, match=r"4\*lam = 0\.800 .*use lam <= 0\.15"):
        run_study(strong, 50, 1, 0.1)
    weak = ModelParams.from_dimensionless(4, 0.1, 1.0)
    with pytest.raises(ValueError, match="n_disorder must be >= 10"):
        run_study(weak, 5, 1, 0.1)
    with pytest.raises(ValueError, match="delta must be positive"):
        run_study(weak, 50, 1, 0.0)


def test_order_parameter_trend_decreasing():
    base = ModelParams.from_dimensionless(3, 0.125, 1.0)
    ests = order_parameter_trend(base, [3, 4], 300, seed=21)
    assert len(ests) == 2
    err = 3.5 * math.hypot(ests[0].std_err, ests[1].std_err)
    assert ests[0].value > ests[1].value - err


# -- concentration ---------------------------------------------------------


def test_concentration_bound_hand_value():
    # 2 exp(-36 * 0.09 / (2 * 5 * 0.49)) at N=6, delta=0.3, beta_v=0.7
    expect = 2.0 * math.exp(-3.24 / 4.9)
    assert concentration_bound(6, 0.3, 0.7) == pytest.approx(expect, rel=1e-15)
    with pytest.raises(ValueError):
        concentration_bound(6, 0.3, 0.0)


def test_concentration_check_agrees_with_bound():
    params = ModelParams.from_dimensionless(5, 0.1, 1.0)
    empirical = run_study(params, 300, 13, 0.35).tail_frequency
    bound = concentration_bound(5, 0.35, params.beta_v)
    assert 0.0 <= empirical.value <= 1.0
    assert empirical.value <= bound + 3.5 * empirical.std_err


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
    # ratio 0.975 +- 0.01 and tail 0.055 +- 0.01 against the bounds 0.95
    # and 0.03: each inequality holds at 3 errors and fails at 2
    est = EstimateWithError(0.0, 0.0, 100)
    result = DisorderStudyResult(
        quenched_mean=est, second_moment_ratio=EstimateWithError(0.975, 0.01, 100),
        order_parameter=est, tail_frequency=EstimateWithError(0.055, 0.01, 100),
        n_disorder=100, per_sample=())
    assert study_verdicts(result, 0.03, 3, ratio_bound=0.95) == {
        "ratio_ge_one": True, "tail_le_bound": True, "ratio_le_theory": True}
    assert study_verdicts(result, 0.03, 2, ratio_bound=0.95) == {
        "ratio_ge_one": False, "tail_le_bound": False, "ratio_le_theory": False}


def test_generalized_second_moment_gamma_cancellation():
    # gamma = -lam removes the replica coupling exactly, not just on average
    params = ModelParams.from_dimensionless(3, 0.1, 1.0)
    est, diag = generalized_second_moment(
        params, -0.1, 500, seed=3, return_diagnostics=True)
    assert diag["coupling_max_dev"] == 0.0
    assert diag["coupling_mean"] == 1.0
    assert est.value <= 1.0 + 3.5 * est.std_err


def test_generalized_second_moment_bound():
    params = ModelParams.from_dimensionless(3, 0.1, 1.0)
    for gamma in (0.0, 0.1):
        est = generalized_second_moment(params, gamma, 2000, seed=7)
        assert est.value <= 1.0 + 3.5 * est.std_err
        assert est.value > 0.5


def test_generalized_second_moment_validation():
    params5 = ModelParams.from_dimensionless(5, 0.1, 1.0)
    with pytest.raises(ValueError, match="N <= 4"):
        generalized_second_moment(params5, 0.0, 100, seed=1)
    params = ModelParams.from_dimensionless(3, 0.1, 1.0)
    with pytest.raises(ValueError, match="4"):
        generalized_second_moment(params, 0.15, 100, seed=1)
    with pytest.raises(ValueError):
        generalized_second_moment(params, 0.0, 1, seed=1)


def test_paley_zygmund_witness():
    params = ModelParams.from_dimensionless(4, 0.1, 1.0)
    freq, threshold = paley_zygmund_witness(params, 300, seed=17)
    assert threshold == pytest.approx(
        0.25 / second_moment_theory_bound(0.1), rel=1e-15)
    assert 0.0 <= freq.value <= 1.0
    assert freq.value >= threshold - 3.5 * freq.std_err


def test_ratio_of_means_constant_input():
    est = disorder._ratio_of_means(np.full(40, 2.5))
    assert est.value == pytest.approx(1.0, rel=1e-15)
    assert est.std_err == pytest.approx(0.0, abs=1e-15)


_CORRUPT_CORRELATIONS = """
import numpy as np
from qsk import disorder
from qsk.constants import ModelParams

disorder.gibbs_zz_matrix = lambda h: np.full(
    h.blocks.shape[:-3] + (4, 4), 2.0)
try:
    disorder.run_study(ModelParams.from_dimensionless(4, 0.1, 1.0), 20, 1, 0.1)
except RuntimeError as exc:
    print("raised:", exc)
else:
    print("returned")
"""


def test_spot_checks_survive_optimized_mode():
    # python -O strips assert statements; the spot checks must still raise
    src = str(Path(qsk.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_CORRELATIONS],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised:"), proc.stdout
    assert "exceeds 1" in proc.stdout
