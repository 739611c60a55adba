"""Grid kernels, the discretized variational objective, and its fixed point."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (form_bounds, padded_matrix, quadratic_forms_full,
                     signed_lengths_broadcast, weighted_gram_full)
from qsk import checks, paths, variational
from qsk.constants import c0_of, g_n_of, m_of, p_of
from qsk.numerics import QUAD_NODES, REFINE_RTOL
from qsk.stats import log_mean_exp
from qsk.streams import BATCH_SIZE, worker_count
from qsk.variational import (
    FixedPointReport,
    GridFunction,
    discretize_mu,
    fixed_point_solve,
    fixed_point_verdicts,
    lambda_constant,
    lambda_functional,
    lambda_prime,
    static_approximation,
    static_threshold,
    taylor_prediction,
)

ENSEMBLE = paths.sample_ensemble(1.0, 20_000, seed=404)
SMALL_ENSEMBLE = paths.sample_ensemble(1.0, 4_000, seed=405)
#: three full BATCH_SIZE chunks and a partial one
MULTI_CHUNK = paths.sample_ensemble(1.0, 3 * BATCH_SIZE + 50, seed=406)
EPS = np.finfo(float).eps


# -- grid functions --------------------------------------------------------


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        GridFunction(np.zeros((2,)))

def test_grid_function_requires_exact_symmetry():
    with pytest.raises(ValueError, match="exactly symmetric"):
        GridFunction(np.array([[0.0, 1.0], [2.0, 0.0]]))
    # a one-ulp asymmetry is refused too
    a = np.full((3, 3), 0.1)
    a[0, 2] = np.nextafter(0.1, 1.0)
    with pytest.raises(ValueError, match="exactly symmetric"):
        GridFunction(a)
    GridFunction(0.5 * (a + a.T))


def _constant(value, m_cells):
    return GridFunction(np.full((m_cells, m_cells), float(value)))


def test_grid_function_norms():
    gf = _constant(0.5, 8)
    assert gf.norm2() == pytest.approx(0.25, rel=1e-15)
    assert gf.scaled(-2.0).values[0, 0] == -1.0


# -- discretized two-point kernel ------------------------------------------


def test_discretize_mu_single_cell_is_m():
    for bb in (0.2, 1.0, 7.5):
        assert discretize_mu(1, bb).values[0, 0] == pytest.approx(
            m_of(bb), rel=5e-16)


@pytest.mark.parametrize("m_cells", [3, 8, 32])
@pytest.mark.parametrize("beta_b", [0.3, 1.0, 4.0])
def test_discretize_mu_mean_is_m(m_cells, beta_b):
    gf = discretize_mu(m_cells, beta_b)
    assert gf.values.mean() == pytest.approx(m_of(beta_b), abs=1e-13)


def test_discretize_mu_structure():
    gf = discretize_mu(6, 1.3)
    v = gf.values
    assert np.array_equal(v, v.T)
    # Toeplitz: constant along diagonals
    for d in range(6):
        diag = np.diagonal(v, offset=d)
        assert np.all(diag == diag[0])
    assert np.all(v > 0.0)
    assert np.all(v <= 1.0)
    # the diagonal (|t-t'| smallest) dominates every row
    assert np.all(np.argmax(v, axis=1) == np.arange(6))


def test_discretize_mu_against_quadrature():
    # 30-digit adaptive-quadrature references at beta_b = 1.3, M = 4, with
    # the integration split at the |t - t'| kink (plain dblquad misses the
    # diagonal cell by ~4e-9); cells (0,3) and (2,1) agree exactly because
    # mu(d) = mu(1 - d)
    gf = discretize_mu(4, 1.3)
    assert gf.values[0, 0] == pytest.approx(0.845017169153603985, rel=1e-13)
    assert gf.values[0, 3] == pytest.approx(0.640471251788172008, rel=1e-13)
    assert gf.values[2, 1] == pytest.approx(0.640471251788172008, rel=1e-13)


def test_discretize_mu_zero_field_is_ones():
    assert np.abs(discretize_mu(5, 0.0).values - 1.0).max() <= 1e-14


def test_discretize_mu_validation():
    with pytest.raises(ValueError):
        discretize_mu(0, 1.0)
    with pytest.raises(ValueError):
        discretize_mu(4, -0.5)


# -- path functionals ------------------------------------------------------


def test_lambda_functional_at_zero_kernel():
    est = lambda_functional(_constant(0.0, 8), SMALL_ENSEMBLE)
    assert est.value == 0.0
    assert est.std_err == 0.0


def test_lambda_constant_frozen_value():
    assert lambda_constant(0.8, 1.0) == pytest.approx(
        0.6477959117205637, rel=1e-12)
    assert lambda_constant(0.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        lambda_constant(-0.1, 1.0)


def test_lambda_constant_bounds_and_monotonicity():
    for bb in (0.5, 1.0, 3.0):
        m = m_of(bb)
        ys = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
        vals = np.array([lambda_constant(y, bb) for y in ys])
        assert np.all(vals >= ys * m - 1e-9)
        assert np.all(vals <= ys + 1e-9)
        assert np.all(np.diff(vals) > 0)


def test_path_kernels_check_compares_lambda_of_a_constant_kernel(monkeypatch):
    # path-MC Lambda(0.8 * 1) against the quadrature; shifting the quadrature
    # by 0.05, some 15 standard errors at 4000 paths, fails the check
    sizes = dict(mu_points=1, mu_paths=4000, laplace_cases=0, p_n_spins=())
    ok, detail = checks.check_path_kernels(7, **sizes)
    assert ok and "constant_kernel=ok" in detail
    real = variational.lambda_constant
    monkeypatch.setattr(variational, "lambda_constant",
                        lambda y, bb: real(y, bb) + 0.05)
    ok, detail = checks.check_path_kernels(7, **sizes)
    assert not ok and "mu_bad=0" in detail and "constant_kernel=BAD" in detail


def test_path_kernels_check_takes_mu_errors_from_the_exact_variance():
    # at seed 2550 no path of one mu point jumps between t and t' (they lie
    # within 6e-5), so the +-1 products have sample variance 0; the check
    # scales by the exact variance 1 - mu^2 and does not divide by zero
    ok, detail = checks.check_path_kernels(2550)
    assert ok and "mu_bad=0" in detail, detail


def _gradient_with_err(psi, ensemble):
    """Lambda'(psi) and its cellwise errors, as the fixed point's last pass."""
    terms = ensemble.signed_lengths(psi.m_cells)
    x = variational._quadratic_forms(psi, terms, len(ensemble))
    return variational._weighted_gram(terms, x, True)


def test_lambda_prime_at_zero_is_discretized_mu():
    grad, err = _gradient_with_err(_constant(0.0, 8), ENSEMBLE)
    assert np.array_equal(grad.values,
                          lambda_prime(_constant(0.0, 8), ENSEMBLE).values)
    target = discretize_mu(8, 1.0)
    dev = np.abs(grad.values - target.values)
    assert np.all(dev <= 3.5 * err.values + 1e-12)
    assert np.array_equal(grad.values, grad.values.T)
    assert np.all(np.abs(grad.values) <= 1.0 + 1e-12)


def _omega(psi, lam, ensemble):
    """Omega(psi) = ||psi||^2/(4 lam) - Lambda(psi) on the ensemble."""
    return psi.norm2() / (4.0 * lam) - lambda_functional(psi, ensemble).value


def test_omega_composition():
    lam, psi = 0.2, discretize_mu(8, 1.0).scaled(0.4)
    # Omega'(psi) = psi/(2 lam) - Lambda'(psi) is the gradient of Omega:
    # compare its grid pairing with a direction to a central difference
    grad = psi.values / (2 * lam) - lambda_prime(psi, SMALL_ENSEMBLE).values
    d, eps = discretize_mu(8, 0.3).values, 1e-5
    up, down = (_omega(GridFunction(psi.values + s * eps * d),
                       lam, SMALL_ENSEMBLE) for s in (1, -1))
    assert (up - down) / (2 * eps) == pytest.approx((grad * d).sum() / 64,
                                                    abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_empirical_map_is_nonexpansive(seed):
    # ||Lambda'(a) - Lambda'(b)|| <= ||a - b|| in the grid norm, because the
    # path feature sigma x sigma has grid norm <= 1
    rng = np.random.RandomState(seed)
    a = rng.uniform(-1.0, 1.0, (4, 4))
    b = rng.uniform(-1.0, 1.0, (4, 4))
    fa = GridFunction(0.5 * (a + a.T))
    fb = GridFunction(0.5 * (b + b.T))
    diff = np.sqrt(np.square(fa.values - fb.values).sum()) / 4
    ga = lambda_prime(fa, SMALL_ENSEMBLE)
    gb = lambda_prime(fb, SMALL_ENSEMBLE)
    gdiff = np.sqrt(np.square(ga.values - gb.values).sum()) / 4
    assert gdiff <= diff * (1.0 + 1e-10) + 1e-15


# -- fixed point -----------------------------------------------------------


def test_fixed_point_report_small_scale():
    lam, bb = 0.1, 1.0
    report = fixed_point_solve(lam, 16, ENSEMBLE)
    assert isinstance(report, FixedPointReport)
    assert report.converged
    assert report.iterations >= 2
    assert report.residual_norm < 1e-7
    assert report.ess > 1000
    assert all(r <= 2 * lam + 0.02 for r in report.contraction_ratios)
    verdicts = fixed_point_verdicts(report, n_sigma=3.5)
    assert verdicts["converged"] and verdicts["ratio_bound_ok"]
    # below 2 lam < 1 no ratio can exceed 1, so nothing reports one
    assert "non_contractive" not in verdicts.keys() | report.to_dict().keys()
    # the ratio bound 2 lam + 0.02 reads 0.22 at lam = 0.1 and 0.42 at 0.2
    for at_lam, ratio, ok in ((0.1, 0.2199, True), (0.1, 0.2201, False),
                              (0.2, 0.4199, True), (0.2, 0.4201, False)):
        bent = dataclasses.replace(report, contraction_ratios=(0.05, ratio),
                                   lam=at_lam)
        verdicts = fixed_point_verdicts(bent, 3.5)
        assert verdicts["ratio_bound_ok"] is ok
    assert np.array_equal(report.psi.values, report.psi.values.T)
    # psi stays within [2 lam mu, 2 lam] cellwise, up to sampling noise
    start = discretize_mu(16, bb).scaled(2 * lam)
    noise = 3.5 * report.psi_std_err.values
    assert np.all(report.psi.values >= start.values - noise - 1e-12)
    assert np.all(report.psi.values <= 2 * lam + noise + 1e-12)
    # objective bracket in terms of closed-form constants
    inf_g = min(g_n_of(n, lam, bb) / n for n in range(2, 65))
    om = report.omega_value
    assert om.value >= -inf_g - 3.5 * om.std_err
    assert om.value <= -p_of(bb) * lam + 3.5 * om.std_err
    # second-order prediction
    m = m_of(bb)
    budget = (4.0 + 4.0 * m**3 / 3.0) * lam**3 + 3.5 * om.std_err
    assert abs(om.value - taylor_prediction(lam, bb)) <= budget
    # round trip through the report dictionary
    d = report.to_dict()
    assert d["m_cells"] == 16 and d["converged"] is True
    assert np.array_equal(np.array(d["psi"]), report.psi.values)
    # the final iterate's Omega, errors and ESS come from one pass over its
    # quadratic forms and equal their separate evaluations exactly
    forms = variational._quadratic_forms(
        report.psi, ENSEMBLE.signed_lengths(16), len(ENSEMBLE))
    assert forms.size == len(ENSEMBLE)
    assert report.ess == log_mean_exp(forms, "forms")[1]
    lam_est = lambda_functional(report.psi, ENSEMBLE)
    assert report.omega_value.value == _omega(report.psi, lam, ENSEMBLE)
    assert report.omega_value.std_err == lam_est.std_err
    assert report.omega_value.n_samples == lam_est.n_samples
    _, err = _gradient_with_err(report.psi, ENSEMBLE)
    assert np.array_equal(report.psi_std_err.values, err.scaled(2 * lam).values)


def _fresh(ens):
    """A fresh copy of ``ens``, with an empty memo."""
    return paths.PathEnsemble(ens.times, np.diff(ens.offsets), ens.rate,
                              seed=ens.seed)


def _all_jumping(ens):
    """The paths of ``ens`` that jump, as an ensemble with no jumpless path."""
    counts = np.diff(ens.offsets)
    return paths.PathEnsemble(ens.times, counts[counts > 0], ens.rate,
                              seed=ens.seed)


#: ensembles over two or more BATCH_SIZE chunks in which 35% of the paths
#: jump (rate 1), almost none (rate 1e-3), none (rate 0: the atom is every
#: path) or all (n0 = 0)
ATOM_CASES = {
    "rate_1": MULTI_CHUNK,
    "rate_1e-3": paths.sample_ensemble(1e-3, BATCH_SIZE + 50, seed=411),
    "rate_0": paths.sample_ensemble(0.0, BATCH_SIZE + 50, seed=408),
    "rate_5_all_jump": _all_jumping(
        paths.sample_ensemble(5.0, 2 * BATCH_SIZE + 50, seed=409)),
}

#: jumps on the boundaries 1/8 and 1/4 (a boundary at every M tested), at
#: t = 1, and two in one cell, with and without other jumps, and a jumpless
#: path; 40 copies of each keep the effective sample size above its floor
EDGE_CASE = paths.PathEnsemble(
    np.tile([0.125, 0.25, 0.3, 1.0, 0.4, 0.4 + 2**-12,
             0.125, 0.4, 0.4 + 2**-12, 1.0], 40),
    np.tile([2, 2, 2, 4, 0], 40), rate=1.0)


def _oracle_rows(ens, m_cells):
    """Every path's signed lengths in the kernels' order: the paths that jump
    (in path order), then the jumpless ones."""
    counts = np.diff(ens.offsets)
    full = signed_lengths_broadcast(padded_matrix(ens.times, counts), m_cells)
    jumping = counts > 0
    return np.concatenate([full[jumping], full[~jumping]])


@pytest.mark.parametrize("m_cells", [1, 8, 64])
def test_chunked_kernels_match_full_matrix_oracles(m_cells):
    psi = discretize_mu(m_cells, 1.0).scaled(0.4)
    for case, ens in {**ATOM_CASES, "edge": EDGE_CASE}.items():
        terms = ens.signed_lengths(m_cells)
        runs = []
        for workers in (1, 2, 4):
            with worker_count(workers):
                x = variational._quadratic_forms(psi, terms, len(ens))
                grad, err = variational._weighted_gram(terms, x, True)
                grad_only = variational._weighted_gram(terms, x, False)
            runs.append((x, grad.values, err.values, grad_only.values))
        for workers, run in zip((2, 4), runs[1:]):
            assert all(np.array_equal(a, b) for a, b in zip(runs[0], run)), (
                case, workers)
        x, grad, err, grad_only = runs[0]
        assert np.array_equal(grad_only, grad), case
        assert terms.n_jumping == np.count_nonzero(np.diff(ens.offsets)), case
        full = _oracle_rows(ens, m_cells)
        x_ref = quadratic_forms_full(psi.values, full)
        # every form within the bound its pair-term count gives; the
        # jumpless paths share the last one
        bounds = form_bounds(terms, psi.values)
        bounds = np.concatenate([bounds[:-1], np.full(len(ens) - terms.n_jumping,
                                                      bounds[-1])])
        assert np.all(np.abs(x - x_ref) <= bounds), case
        # Lambda (and so Omega, which adds the same ||psi||^2/(4 lam)) is a
        # weighted mean of the forms in the exponent: it moves by at most
        # the largest form error, plus the rounding of the mean
        lam_ref, _ = log_mean_exp(x_ref, "oracle")
        assert abs(lambda_functional(psi, ens).value - lam_ref.value) <= (
            bounds.max() + 64 * EPS), case
        # Each Gram entry is a weighted average of terms in [-1, 1], so
        # either order of addition rounds it by at most about rows * eps.
        # The oracle adds the n0 equal jumpless terms one by one, which
        # drifts by up to ~4e-14 at rate 0 (the kernel adds them as one
        # term and gets the exact 1 there), so the bound counts every path;
        # the kernel's prefix sums over the 2M + 1 table indices add 2M + 2
        # more.  The variance c2 - 2 k c1 + k^2 sum wt^2 adds three such
        # sums, each bounded by sum wt^2.
        rows = len(ens) + 2 * m_cells + 2
        k, k_err = weighted_gram_full(full, x_ref)
        np.testing.assert_allclose(grad, k, rtol=0, atol=2 * rows * EPS,
                                   err_msg=case)
        w = np.exp(x_ref - x_ref.max())
        wt2_sum = np.square(w / w.sum()).sum()
        np.testing.assert_allclose(np.square(err), np.square(k_err), rtol=0,
                                   atol=8 * rows * EPS * wt2_sum,
                                   err_msg=case)


def _oracle_solve(lam, beta_b, m_cells, ens, iterations):
    """``iterations`` steps psi -> 2 lam Lambda'(psi) from 2 lam mu_M with the
    full-matrix kernels on every path's row."""
    full = _oracle_rows(ens, m_cells)
    psi = discretize_mu(m_cells, beta_b).values * (2 * lam)
    for _ in range(iterations):
        k, _ = weighted_gram_full(full, quadratic_forms_full(psi, full))
        psi = 2 * lam * k
    return psi


@pytest.mark.parametrize("case", sorted(ATOM_CASES))
def test_fixed_point_solve_matches_full_matrix_iteration(case):
    ens = ATOM_CASES[case]
    bb = ens.rate
    report = fixed_point_solve(0.1, 8, ens)
    assert report.converged
    ref = _oracle_solve(0.1, bb, 8, ens, report.iterations)
    # each step rounds Lambda' by at most 2 rows eps (see above), scaled by
    # 2 lam; the map contracts, so the steps do not add up beyond twice that
    np.testing.assert_allclose(report.psi.values, ref, rtol=0,
                               atol=8 * 0.1 * len(ens) * EPS)
    assert report.omega_value.n_samples == len(ens)


def test_fixed_point_at_zero_field_is_exact():
    # at beta_b = 0 no path jumps: the atom is every path, sigma = 1, and the
    # fixed point is the constant 2 lam, hit exactly after one step; adding
    # the 5000 equal rows one by one would drift it by ~1e-14
    lam = 0.1
    ens = paths.sample_ensemble(0.0, 5000, seed=410)
    terms = ens.signed_lengths(8)
    assert terms.n_jumping == 0 and terms.groups == ()
    report = fixed_point_solve(lam, 8, ens)
    assert report.converged and report.iterations == 1
    assert np.all(report.psi.values == 2 * lam)
    assert np.all(report.psi_std_err.values == 0.0)
    assert report.omega_value.value == pytest.approx(-lam, rel=4 * EPS)
    assert report.omega_value.std_err == 0.0
    assert report.ess == 5000


def test_fixed_point_solve_is_identical_for_any_workers():
    for case, ens in ATOM_CASES.items():
        reports = []
        for w in (1, 2, 4):
            with worker_count(w):
                reports.append(fixed_point_solve(0.1, 8, _fresh(ens)))
        for workers, rep in zip((2, 4), reports[1:]):
            assert rep.to_dict() == reports[0].to_dict(), (case, workers)
            assert rep.start_lambda == reports[0].start_lambda, (case, workers)


def test_fixed_point_solve_makes_no_full_size_temporaries():
    # numpy reports its buffers to tracemalloc.  The trace covers the build
    # of the memoized jump-cell terms and the solve.  The terms take about
    # 80 bytes a jumping path, 2.8 jumping paths in 8 at rate 1, and the
    # solve a few vectors of 8 bytes a path: about 200 bytes a jumping path
    # in all.  Stored pair products (174 bytes for a two-jump path) made it
    # 330, and the (jumping paths x M) signed-length matrix 512 at M = 64
    with worker_count(2):
        ens = paths.sample_ensemble(1.0, 16 * BATCH_SIZE, seed=407)
        tracemalloc.start()
        try:
            fixed_point_solve(0.1, 64, ens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    bound = np.count_nonzero(np.diff(ens.offsets)) * 256
    assert peak < bound, (peak, bound)


def test_start_kernel_forms_are_computed_once(monkeypatch):
    lam, bb = 0.1, 1.0
    forms, primes = [], []
    quadratic_forms, prime = variational._quadratic_forms, variational.lambda_prime

    def counted_forms(*args):
        forms.append(args[0])
        return quadratic_forms(*args)

    def counted_prime(*args, **kwargs):
        primes.append(args[0])
        return prime(*args, **kwargs)

    monkeypatch.setattr(variational, "_quadratic_forms", counted_forms)
    monkeypatch.setattr(variational, "lambda_prime", counted_prime)
    report = fixed_point_solve(lam, 8, SMALL_ENSEMBLE)
    verdicts = fixed_point_verdicts(report, n_sigma=3)
    # the start kernel, each later iterate through lambda_prime (so tracers
    # see it by name), and the final iterate once more for its errors
    assert report.iterations >= 2
    assert len(forms) == report.iterations + 1
    assert len(primes) == report.iterations - 1
    start = discretize_mu(8, bb).scaled(2 * lam)
    assert np.array_equal(forms[0].values, start.values)
    assert report.start_lambda == lambda_functional(start, SMALL_ENSEMBLE)
    assert verdicts["start_gap"] == (_omega(start, lam, SMALL_ENSEMBLE)
                                     - report.omega_value.value)
    # the verdicts read lam and beta_b (the ensemble's rate) from the report
    assert (report.lam, report.beta_b) == (lam, SMALL_ENSEMBLE.rate)
    assert not {"start_lambda", "lam", "beta_b"} & report.to_dict().keys()


def test_descent_bracket_around_minimum():
    # lam ||Omega'(phi)||^2 <= Omega(phi) - Omega(psi*) <= ||phi-psi*||^2/(4 lam),
    # deterministic facts of the sample-average objective on a fixed ensemble
    lam, bb, m = 0.15, 1.0, 8
    report = fixed_point_solve(lam, m, SMALL_ENSEMBLE)
    psi = report.psi
    om_star = _omega(psi, lam, SMALL_ENSEMBLE)
    for phi in (discretize_mu(m, bb).scaled(2 * lam),
                _constant(2 * lam, m)):
        gap = _omega(phi, lam, SMALL_ENSEMBLE) - om_star
        # Omega'(phi) = phi/(2 lam) - Lambda'(phi)
        grad = phi.values / (2 * lam) - lambda_prime(phi, SMALL_ENSEMBLE).values
        dist2 = np.square(phi.values - psi.values).sum() / m**2
        assert gap >= lam * np.square(grad).sum() / m**2 - 1e-8
        assert gap <= dist2 / (4 * lam) + 1e-8


def test_fixed_point_shrinks_with_lam():
    lam = 1e-4
    report = fixed_point_solve(lam, 8, SMALL_ENSEMBLE)
    assert report.converged and report.iterations <= 5
    start = discretize_mu(8, 1.0).scaled(2 * lam)
    dev = np.abs(report.psi.values - start.values)
    assert np.all(dev <= 3.5 * report.psi_std_err.values + 10 * lam**2)


def test_fixed_point_validation():
    # beta_b is the ensemble's rate, so no rate can mismatch the ensemble
    # (test_start_kernel_forms_are_computed_once reads it back); the solve
    # itself refuses every lam outside 0 < 2 lam < 1, where the iteration
    # is no contraction, and its error names lam
    for lam in (0.0, -0.1, 0.5, 0.7, float("nan")):
        with pytest.raises(ValueError, match=rf"lam = {lam!r}: .* 0 < 2\*lam < 1"):
            fixed_point_solve(lam, 8, SMALL_ENSEMBLE)


# -- static approximation and the Taylor prediction ------------------------


def test_static_frozen_values():
    assert static_approximation(0.05, 1.0) == pytest.approx(
        -0.029394501893852474, rel=1e-10)
    assert static_approximation(0.1, 1.0) == pytest.approx(
        -0.059579133114612374, rel=1e-10)
    assert static_approximation(0.5, 1.0) == pytest.approx(
        -0.32928418153510839, rel=1e-10)
    assert static_approximation(0.0191, 1.0) == pytest.approx(
        -0.011135770616034457, rel=1e-10)


def test_static_bounds():
    for lam in (1e-3, 0.1, 0.5, 2.0):
        for bb in (0.5, 1.0, 3.0):
            j = static_approximation(lam, bb)
            m = m_of(bb)
            assert -lam - 1e-10 <= j <= -m * m * lam + 1e-10
    with pytest.raises(ValueError):
        static_approximation(0.0, 1.0)


def test_static_zero_field_ties_minus_p_lam():
    assert p_of(0.0) == 1.0
    for lam in np.geomspace(1e-4, 20.0, 13):
        assert static_approximation(lam, 0.0) == -lam


def test_static_exceeds_quadratic_lower_bound_below_threshold():
    for bb in (0.5, 1.0, 3.0):
        m, p = m_of(bb), p_of(bb)
        assert static_threshold(bb) == (p - m * m) / (2.0 * p * (1.0 - m))
        lam_star = 0.5 * static_threshold(bb)
        assert static_approximation(lam_star, bb) > -p * lam_star


def test_static_threshold_matches_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60

    def exact(x):
        x = mp.mpf(x)
        m = mp.tanh(x) / x
        p = (1 - mp.tanh(x) ** 2 + m) / 2
        return float((p - m * m) / (2 * p * (1 - m)))

    assert static_threshold(0.0) == 0.0
    # both sides of the switch to the series, densely where the quotient
    # cancels worst just above it
    xs = np.concatenate([np.geomspace(1e-10, 10.0, 101),
                         np.linspace(0.04, 0.16, 241), [np.nextafter(0.1, 0)]])
    worst = max(abs(static_threshold(float(x)) / exact(x) - 1.0) for x in xs)
    assert worst <= 2e-9


@pytest.mark.parametrize("beta_b", [0.5, 1.0, 3.0])
def test_static_quadrature_settled_at_quad_nodes(beta_b, monkeypatch):
    # static_approximation evaluates Lambda at QUAD_NODES without doubling;
    # on the default `qsk static` sweep plus lam = 20, twice the nodes must
    # move J by no more than refine_once's tolerance, taken fully relative
    lams = np.append(np.geomspace(0.01, 1.0, 25), 20.0)
    coarse = np.array([static_approximation(lam, beta_b) for lam in lams])
    monkeypatch.setattr(variational, "QUAD_NODES", 2 * QUAD_NODES)
    fine = np.array([static_approximation(lam, beta_b) for lam in lams])
    assert np.any(coarse != fine)  # the doubled count reached the quadrature
    assert np.all(np.abs(coarse - fine) <= REFINE_RTOL * np.abs(fine))


def test_static_endpoint_slopes():
    m = m_of(1.0)
    assert static_approximation(1e-3, 1.0) / 1e-3 == pytest.approx(
        -m * m, rel=0.02)
    assert static_approximation(20.0, 0.5) / 20.0 == pytest.approx(
        -1.0, rel=0.02)


def test_taylor_prediction_formula():
    for lam, bb in [(0.05, 0.5), (0.2, 2.0)]:
        expect = -p_of(bb) * lam - 2.0 * c0_of(bb) * lam**2
        assert taylor_prediction(lam, bb) == expect
    assert taylor_prediction(0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        taylor_prediction(-0.1, 1.0)
