"""Flip-parity block Hamiltonians, spectra, and Gibbs correlations."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import logsumexp

from qsk import hilbert
from qsk.constants import ModelParams
from qsk.hilbert import (
    build_hamiltonian,
    draw_couplings,
    f2_annealed_exact,
    gibbs_zz,
    gibbs_zz_matrix,
    spectrum,
    two_spin_scaled_spectrum,
)

from oracles import (dense_gibbs_weights, dense_hamiltonian,
                     f2_quenched_exact, z_table)

SZ = np.diag([1.0, -1.0])


def _draw(n, seed):
    """The couplings of one sample, as ``qsk exactdiag`` draws them."""
    return draw_couplings(n, 1, seed)[0]


SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def _kron_chain(ops):
    out = np.array([[1.0]])
    for op in ops:
        out = np.kron(out, op)
    return out


def _dense_reference(params, couplings):
    """Independent Kronecker-product construction of H.

    Spin i lives on bit i of the basis index, so it must be the i-th kron
    factor counted from the right (least significant position).
    """
    n = params.n_spins
    h = np.zeros((2**n, 2**n))
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            ops = [np.eye(2)] * n
            ops[i] = SZ
            ops[j] = SZ
            h -= params.v / np.sqrt(n) * couplings[idx] * _kron_chain(ops[::-1])
            idx += 1
    for i in range(n):
        ops = [np.eye(2)] * n
        ops[i] = SX
        h -= params.b * _kron_chain(ops[::-1])
    return h


def _parity_rotation(n):
    """Orthogonal U with columns (|s> + |s-bar>)/sqrt(2), then (|s> - |s-bar>)/sqrt(2)."""
    dim, half = 2**n, 2 ** (n - 1)
    u = np.zeros((dim, dim))
    reps = np.arange(half)
    u[reps, reps] = u[dim - 1 - reps, reps] = np.sqrt(0.5)
    u[reps, half + reps] = np.sqrt(0.5)
    u[dim - 1 - reps, half + reps] = -np.sqrt(0.5)
    return u


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hamiltonian_matches_kronecker_reference(n):
    rng = np.random.default_rng(n)
    params = ModelParams(n_spins=n, beta=1.3, v=0.8, b=0.6)
    couplings = rng.standard_normal(n * (n - 1) // 2)
    kron = _dense_reference(params, couplings)
    np.testing.assert_allclose(dense_hamiltonian(params, couplings),
                               kron, atol=1e-14)
    # in the flip-parity basis the reference splits into the two blocks
    u = _parity_rotation(n)
    rotated = u.T @ kron @ u
    half = 2 ** (n - 1)
    h = build_hamiltonian(params, couplings)
    assert h.blocks.shape == (2, half, half)
    np.testing.assert_allclose(rotated[:half, :half], h.blocks[0], atol=1e-14)
    np.testing.assert_allclose(rotated[half:, half:], h.blocks[1], atol=1e-14)
    np.testing.assert_allclose(rotated[:half, half:], 0.0, atol=1e-14)
    assert np.array_equal(h.blocks, h.blocks.transpose(0, 2, 1))


@pytest.mark.parametrize("b", [0.0, 0.7, 50.0])
@pytest.mark.parametrize("n", range(2, 9))
def test_blocked_route_matches_dense_oracle(n, b):
    params = ModelParams(n_spins=n, beta=1.1, v=0.9, b=b)
    couplings = _draw(n, seed=n)
    dense = dense_hamiltonian(params, couplings)
    h = build_hamiltonian(params, couplings)
    tol = dict(rtol=1e-12, atol=1e-12)

    res = spectrum(h)
    ref_evals = np.linalg.eigvalsh(dense)
    np.testing.assert_allclose(res.eigenvalues, ref_evals, **tol)
    np.testing.assert_allclose(
        res.ln_z, logsumexp(-params.beta * ref_evals), **tol)

    p = dense_gibbs_weights(dense, params.beta)
    reps = np.arange(2 ** (n - 1))
    np.testing.assert_allclose(hilbert._gibbs_weights(h),
                               p[reps] + p[2**n - 1 - reps], **tol)
    z = z_table(n)
    c = (z * p[:, None]).T @ z
    np.fill_diagonal(c, 1.0)
    np.testing.assert_allclose(gibbs_zz_matrix(h), c, **tol)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_stacked_samples_match_one_sample_calls(n):
    # a stack of k samples gives, row by row, the bytes of k one-sample
    # calls; a stack of one gives those of the plain call
    params = ModelParams(n_spins=n, beta=1.1, v=0.9, b=0.7)
    couplings = draw_couplings(n, 3, seed=n)
    singles = []
    for g in couplings:
        h = build_hamiltonian(params, g)
        singles.append((h.blocks, spectrum(h), gibbs_zz_matrix(h)))
    for stack in (couplings[:1], couplings):
        h = build_hamiltonian(params, stack)
        res = spectrum(h)
        c = gibbs_zz_matrix(h)
        assert h.blocks.shape == (len(stack), 2, 2 ** (n - 1), 2 ** (n - 1))
        assert res.ln_z.shape == (len(stack),)
        for k, (blocks, one, corr) in enumerate(singles[:len(stack)]):
            assert h.blocks[k].tobytes() == blocks.tobytes()
            assert res.eigenvalues[k].tobytes() == one.eigenvalues.tobytes()
            assert res.ln_z[k] == one.ln_z
            assert c[k].tobytes() == corr.tobytes()
    assert isinstance(singles[0][1].ln_z, float)
    with pytest.raises(ValueError):
        build_hamiltonian(params, couplings[None])


def test_trace_structure():
    # block diagonal = coupling-weighted sums of z_i z_j patterns; each pair
    # pattern sums to zero over the representatives, exactly in integer
    # arithmetic
    params = ModelParams(n_spins=5, beta=1.0, v=1.0, b=0.7)
    h = build_hamiltonian(params, _draw(5, seed=1))
    ztab = hilbert._pair_z_table(5)
    assert ztab.dtype.kind in "if"
    np.testing.assert_array_equal(ztab.sum(axis=0), 0.0)
    # each float block trace is then a sum of exactly-cancelling pairs up to
    # rounding
    diag = np.diagonal(h.blocks, axis1=1, axis2=2)
    scale = np.abs(diag).max()
    assert np.abs(diag.sum(axis=1)).max() <= (
        64 * np.finfo(float).eps * max(scale, 1.0))


def test_trace_exact_zero_n2():
    params = ModelParams(n_spins=2, beta=1.0, v=1.0, b=0.9)
    h = build_hamiltonian(params, np.array([0.37]))
    np.testing.assert_array_equal(np.trace(h.blocks, axis1=1, axis2=2), 0.0)


def test_build_errors():
    params = ModelParams(n_spins=4, beta=1.0, v=1.0, b=1.0)
    # couplings drawn for N = 3, one short, one over
    for count in (3, 5, 7):
        with pytest.raises(ValueError, match="expected 6 couplings"):
            build_hamiltonian(params, np.zeros(count))
    for bad in (np.nan, np.inf, -np.inf):
        couplings = np.zeros(6)
        couplings[2] = bad
        with pytest.raises(ValueError, match="finite"):
            build_hamiltonian(params, couplings)
        with pytest.raises(ValueError, match="finite"):
            build_hamiltonian(params, np.stack([np.zeros(6), couplings]))
    big = ModelParams(n_spins=13, beta=1.0, v=1.0, b=1.0)
    with pytest.raises(ValueError, match="cap"):
        build_hamiltonian(big, _draw(13, seed=0))


@pytest.mark.parametrize("seed", range(5))
def test_two_spin_spectrum_closed_form(seed):
    rng = np.random.default_rng(seed)
    lam = float(10 ** rng.uniform(-2, 0.5))
    bb = float(10 ** rng.uniform(-1, 0.7))
    g = float(rng.standard_normal())
    params = ModelParams.from_dimensionless(2, lam, bb)
    h = build_hamiltonian(params, np.array([g]))
    evals = params.beta * spectrum(h).eigenvalues
    np.testing.assert_allclose(evals, two_spin_scaled_spectrum(lam, bb, g),
                               atol=1e-12)


def test_eigh_is_cached_and_solves_concurrently(monkeypatch):
    # a per-class lock (functools.cached_property before Python 3.12) keeps
    # the second solve waiting until the first returns: the barrier breaks
    barrier = threading.Barrier(2, timeout=10)
    real_eigh = np.linalg.eigh
    solves = []

    def meeting_eigh(a):
        solves.append(a.shape)
        barrier.wait()
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", meeting_eigh)
    params = ModelParams.from_dimensionless(4, 0.1, 1.0)
    hams = [build_hamiltonian(params, _draw(4, seed)) for seed in (1, 2)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda h: h.eigh, hams))
    for h, result in zip(hams, results):
        assert h.eigh is result
    assert solves == [(2, 8, 8)] * 2


def test_spectrum_result_consistency():
    params = ModelParams(n_spins=4, beta=2.0, v=0.7, b=0.5)
    h = build_hamiltonian(params, _draw(4, seed=9))
    res = spectrum(h)
    # ln Z against brute-force eigenvalue sum
    brute = np.log(np.sum(np.exp(-params.beta * res.eigenvalues)))
    assert res.ln_z == pytest.approx(brute, rel=1e-12)


def test_f2_exact_frozen_values():
    assert f2_annealed_exact(0.25, 0.75) == pytest.approx(
        -1.0438819927207816, rel=1e-10)
    assert f2_quenched_exact(0.25, 0.75) == pytest.approx(
        -1.0314527632886706, rel=1e-10)
    # Jensen: annealed lower-bounds quenched in beta*f form
    assert f2_annealed_exact(0.25, 0.75) < f2_quenched_exact(0.25, 0.75)


def test_f2_quenched_matches_sampled_average():
    lam, bb = 0.2, 1.0
    params = ModelParams.from_dimensionless(2, lam, bb)
    rng = np.random.default_rng(12)
    vals = []
    for _ in range(4000):
        g = rng.standard_normal()
        h = build_hamiltonian(params, np.array([g]))
        vals.append(-spectrum(h).ln_z / 2)
    err = np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert abs(np.mean(vals) - f2_quenched_exact(lam, bb)) < 3.5 * err


def test_f2_annealed_finite_beyond_weak_disorder():
    # E[Z_2] converges for every lam (exponent grows linearly in |g|)
    val = f2_annealed_exact(2.0, 0.5)
    assert np.isfinite(val)
    assert val < f2_annealed_exact(0.1, 0.5)


def test_gibbs_zz_classical_limit():
    # b = 0, N = 2: <Sz1 Sz2> = tanh(beta v g / sqrt(2))
    params = ModelParams(n_spins=2, beta=1.2, v=0.9, b=0.0)
    g = 0.83
    h = build_hamiltonian(params, np.array([g]))
    expect = np.tanh(1.2 * 0.9 * g / np.sqrt(2))
    assert gibbs_zz(h) == pytest.approx(expect, rel=1e-12)


def test_gibbs_zz_matrix_and_bounds():
    params = ModelParams(n_spins=4, beta=1.0, v=0.8, b=0.7)
    h = build_hamiltonian(params, _draw(4, seed=20))
    q = gibbs_zz_matrix(h)
    np.testing.assert_array_equal(q, q.T)
    np.testing.assert_allclose(np.diag(q), 1.0, atol=0)
    assert np.all(np.abs(q) <= 1.0 + 1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_gibbs_zz_is_the_matrix_entry(n):
    # one correlation kernel: gibbs_zz reads the (1, 2) entry bit for bit;
    # test_blocked_route_matches_dense_oracle checks every pair of the matrix
    params = ModelParams(n_spins=n, beta=1.3, v=0.8, b=0.7)
    h = build_hamiltonian(params, _draw(n, seed=20 + n))
    assert gibbs_zz(h) == gibbs_zz_matrix(h)[0, 1]


def test_gibbs_z_vanishes_by_flip_symmetry():
    params = ModelParams(n_spins=5, beta=1.0, v=1.1, b=0.8)
    couplings = _draw(5, seed=4)
    # full-basis Gibbs probabilities from the dense oracle: <Sz_i> = 0 ...
    p = dense_gibbs_weights(dense_hamiltonian(params, couplings),
                            params.beta)
    for i in (1, 3, 5):
        assert abs(p @ z_table(5)[:, i - 1]) < 1e-13
    # ... because p(s) = p(s-bar), which is what lets the blocked route
    # fold each state onto its representative
    np.testing.assert_allclose(p, p[::-1], rtol=0, atol=1e-13)


def test_x_polarized_limit():
    # beta*b = 50 with tiny coupling: free transverse spins
    params = ModelParams(n_spins=3, beta=1.0, v=1e-8, b=50.0)
    h = build_hamiltonian(params, _draw(3, seed=2))
    res = spectrum(h)
    assert res.ln_z / 3 == pytest.approx(np.log(2 * np.cosh(50.0)), rel=1e-10)
    assert abs(gibbs_zz(h)) < 1e-6


def test_draw_couplings_determinism_and_shape():
    a = draw_couplings(6, 300, seed=7)
    b = draw_couplings(6, 300, seed=7)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (300, 15)
    # crude normality check
    assert abs(a.mean()) < 4.0 / np.sqrt(a.size)
    assert abs(a.std() - 1.0) < 0.02
    np.testing.assert_array_equal(_draw(6, seed=7), a[0])
