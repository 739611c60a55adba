"""Annealed path-MC estimators, k(lam), the SK equation, and the region scan."""

import numpy as np
import pytest

from qsk import annealed, disorder, hilbert
from qsk.annealed import (
    annealed_free_energy,
    delta_infinity_bounds,
    estimate_f_n,
    k_of_lambda,
    mean_p_n,
    region_labels,
    region_scan,
)
from qsk.constants import ModelParams, g_n_of, inf_g_n_over_n, p_n_of, w_n_of
from qsk.numerics import (
    QUAD_NODES,
    QuadratureConvergenceWarning,
    logcosh,
    refine_once,
    scan_minimize,
)
from qsk.stats import mean_with_err
from qsk.streams import worker_count

from oracles import k_objective_unfolded, sk_equation_solve


# -- F_N estimator ---------------------------------------------------------


def test_estimate_f2_against_frozen_reference():
    params = ModelParams(2, 0.25, 0.75)
    est = estimate_f_n(params, 20_000, seed=7)
    assert est.agrees_with(0.4349374294760584, n_sigma=3.5)
    assert est.n_samples == 20_000


def test_estimate_f_n_worker_invariance():
    params = ModelParams(3, 0.1, 1.0)
    with worker_count(1):
        a = estimate_f_n(params, 5000, seed=3)
    with worker_count(4):
        b = estimate_f_n(params, 5000, seed=3)
    assert a.value == b.value
    assert a.std_err == b.std_err


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sandwich_bounds_small_scale(n):
    lam, bb = 0.125, 1.0
    params = ModelParams(n, lam, bb)
    est = estimate_f_n(params, 20_000, seed=n)
    lower = n * p_n_of(n, bb) * lam
    upper = min(g_n_of(n, lam, bb), w_n_of(n, lam, bb))
    assert lower - 3.5 * est.std_err <= est.value <= upper + 3.5 * est.std_err


def test_subadditivity_of_f_n():
    # F_{N+M} <= F_N + F_M; compare N=4 against two copies of N=2
    lam, bb = 0.2, 1.0
    f2 = estimate_f_n(ModelParams(2, lam, bb), 30_000, seed=1)
    f4 = estimate_f_n(ModelParams(4, lam, bb), 30_000, seed=2)
    slack = 3.5 * np.hypot(2 * f2.std_err, f4.std_err)
    assert f4.value <= 2 * f2.value + slack


def test_mean_p_n_matches_closed_form():
    params = ModelParams(4, 0.1, 1.0)
    est = mean_p_n(params, 20_000, seed=11)
    assert est.agrees_with(p_n_of(4, 1.0), n_sigma=3.5)


def test_annealed_free_energy_matches_two_spin_exact():
    params = ModelParams(2, 0.15, 0.8)
    est = annealed_free_energy(params, estimate_f_n(params, 30_000, seed=5))
    assert est.agrees_with(hilbert.f2_annealed_exact(0.15, 0.8), n_sigma=3.5)


def test_quenched_dominates_annealed():
    # Jensen at N=4: E[beta f_N] >= beta f_N^ann, and the G_N/N wedge above it
    lam, bb, n = 0.1, 1.0, 4
    params = ModelParams(n, lam, bb)
    quenched = disorder.run_study(params, 400, 3).quenched_mean
    ann = annealed_free_energy(params, estimate_f_n(params, 30_000, seed=4))
    err = 3.5 * np.hypot(quenched.std_err, ann.std_err)
    gap = quenched.value - ann.value
    assert gap >= -err
    # upper wedge: gap <= G_N/N - lam/N (k(lam) = 0 here)
    assert gap <= g_n_of(n, lam, bb) / n - lam / n + err


def test_classical_sk_lower_bound_at_zero_field():
    # E[beta f_N(beta v, 0)] >= k(lam) - lam - ln 2, checked by dense diag
    lam, n = 1.0, 6
    params = ModelParams(n, lam, 0.0)
    # 4 lam = 4 lies outside run_study's plain-mean range
    _, beta_f, _ = disorder._study_arrays(params, 300, 8)
    quenched = mean_with_err(beta_f)
    bound = k_of_lambda(lam) - lam - np.log(2.0)
    assert quenched.value >= bound - 3.5 * quenched.std_err


# -- k(lam) and the SK equation --------------------------------------------


def test_k_zero_in_weak_disorder():
    for lam in (0.0, 0.1, 0.25):
        assert k_of_lambda(lam) == 0.0
    assert k_of_lambda(0.26) > 0.0


def test_k_frozen_values():
    # pinned at the one node count (QUAD_NODES, checked against twice it);
    # the earlier 256-node pins needed the removed quad_nodes parameter
    assert k_of_lambda(0.26) == pytest.approx(1.2875884714998176e-6, rel=1e-8)
    assert k_of_lambda(0.5) == pytest.approx(0.009961506493373018, rel=1e-9)
    assert k_of_lambda(1.0) == pytest.approx(0.1083612902806389, rel=1e-9)
    # 64 and 128 nodes differ by 8e-6 relative here, and the check says so
    with pytest.warns(QuadratureConvergenceWarning):
        assert k_of_lambda(2.0) == pytest.approx(0.493264602373344, rel=1e-9)


@pytest.mark.filterwarnings("ignore::qsk.numerics.QuadratureConvergenceWarning")
def test_k_simple_bounds():
    for lam in (0.3, 0.7, 1.5, 4.0, 10.0):
        k = k_of_lambda(lam)
        assert max(0.0, lam - np.sqrt(8 * lam / np.pi)) - 1e-12 <= k <= lam + 1e-12


def test_k_flags_unsettled_quadrature():
    # far into strong disorder the Hermite rule cannot settle at the default
    # node count (32 nodes are no longer settable); the doubling check must
    # say so
    with pytest.warns(QuadratureConvergenceWarning,
                      match="k_of_lambda did not settle"):
        k_of_lambda(10.0)


@pytest.mark.filterwarnings("ignore::qsk.numerics.QuadratureConvergenceWarning")
def test_folded_k_matches_all_nodes():
    # ln cosh is even and the Hermite rule symmetric, so the positive half
    # with doubled weights reproduces every node; lam as on the default
    # region's x axis
    q = np.linspace(0.0, 1.0, 512)
    for lam in 1.0 / (4.0 * np.linspace(0.05, 2.0, 100) ** 2):
        for nodes in (QUAD_NODES, 2 * QUAD_NODES):
            full = k_objective_unfolded(lam, q, nodes)
            folded = annealed._k_objective(lam, q, nodes)
            assert np.all(np.abs(folded - full) <= 1e-14 * np.maximum(1.0, np.abs(full)))
        if 4.0 * lam > 1.0:
            unfolded, _ = refine_once(
                lambda n: -scan_minimize(lambda x: -k_objective_unfolded(lam, x, n), q),
                "unfolded k")
            assert abs(k_of_lambda(lam) - max(0.0, unfolded)) <= 1e-14, lam


def test_k_derivative_equals_q_squared():
    lam, eps = 1.0, 1e-4
    deriv = (k_of_lambda(lam + eps) - k_of_lambda(lam - eps)) / (2 * eps)
    assert deriv == pytest.approx(sk_equation_solve(lam) ** 2, abs=1e-4)


def test_sk_equation_roots():
    assert sk_equation_solve(0.2) == 0.0
    assert sk_equation_solve(0.25) == 0.0
    assert sk_equation_solve(0.26) == pytest.approx(0.019539604228754589,
                                                    rel=1e-10)
    assert sk_equation_solve(0.5) == pytest.approx(0.30898238488427277,
                                                   rel=1e-10)
    assert sk_equation_solve(1.0) == pytest.approx(0.53036839205079463,
                                                   rel=1e-10)
    assert sk_equation_solve(2.0) == pytest.approx(0.68052476668124979,
                                                   rel=1e-10)
    # q -> 1 with growing disorder
    assert sk_equation_solve(50.0) > 0.9


def test_sk_root_satisfies_fixed_point():
    # independent adaptive-quadrature evaluation of E tanh^2
    from scipy.integrate import quad

    for lam in (0.5, 1.0, 2.0):
        q = sk_equation_solve(lam)
        s = np.sqrt(4 * lam * q)
        rhs, _ = quad(
            lambda y: np.exp(-0.5 * y * y) / np.sqrt(2 * np.pi)
            * np.tanh(s * y) ** 2,
            -np.inf, np.inf,
        )
        assert q == pytest.approx(rhs, abs=1e-10)


def test_sk_root_matches_k_objective_maximizer():
    # the interior maximizer of the k objective is the SK root
    lam = 0.5
    q_root = sk_equation_solve(lam)
    grid = np.linspace(q_root - 0.05, q_root + 0.05, 4001)
    vals = annealed._k_objective(lam, grid, 128)
    i = int(np.argmax(vals))
    # parabolic refinement of the scan argmax
    a, b, c = vals[i - 1], vals[i], vals[i + 1]
    q_scan = grid[i] + 0.5 * (grid[1] - grid[0]) * (a - c) / (a - 2 * b + c)
    assert q_scan == pytest.approx(q_root, abs=1e-6)


# -- gap bracket and region scan -------------------------------------------

@pytest.mark.filterwarnings("ignore::qsk.numerics.QuadratureConvergenceWarning")
def test_delta_bounds_ordering():
    for lam in (0.1, 0.3, 0.8, 2.0):
        for bb in (0.0, 0.5, 1.5):
            lo, hi = delta_infinity_bounds(lam, bb)
            assert 0.0 <= lo <= hi, (lam, bb)
    # strong disorder at zero field certifies a positive gap
    lo, hi = delta_infinity_bounds(1.0, 0.0)
    assert lo > 0.0
    assert lo == pytest.approx(k_of_lambda(1.0), rel=1e-12)


def test_delta_upper_is_inf_g():
    lo, hi = delta_infinity_bounds(0.2, 1.0)
    assert hi == inf_g_n_over_n(0.2, 1.0)[0]


@pytest.mark.filterwarnings("ignore::qsk.numerics.QuadratureConvergenceWarning")
def test_delta_bounds_broadcast_over_beta_b():
    # an array beta_b gives the scalar brackets entry by entry, bit for bit
    bbs = np.array([0.0, 0.4, 1.1, 2.5])
    lower, upper = delta_infinity_bounds(2.0, bbs)
    assert lower.shape == upper.shape == bbs.shape
    for bb, lo, hi in zip(bbs, lower, upper):
        assert delta_infinity_bounds(2.0, float(bb)) == (lo, hi)
    # region_scan reports the bracket of each column unchanged, as row x
    xs, ys = np.array([0.35, 0.6]), np.array([0.0, 0.5, 1.0])
    lower_grid, upper_grid = region_scan(xs, ys)
    for i, x in enumerate(xs):
        lower, upper = delta_infinity_bounds(1.0 / (4.0 * x * x), ys / x)
        assert np.array_equal(lower_grid[i], lower)
        assert np.array_equal(upper_grid[i], upper)


@pytest.mark.filterwarnings("ignore::qsk.numerics.QuadratureConvergenceWarning")
def test_region_scan_grid_and_classification():
    xs = np.linspace(0.4, 1.6, 6)
    ys = np.linspace(0.0, 1.2, 5)
    lower, upper = region_scan(xs, ys)
    # one row per x, one column per y
    assert lower.shape == upper.shape == (6, 5)
    labels = region_labels(xs[:, None], lower)
    assert labels.shape == (6, 5)
    for i, x in enumerate(xs):
        lam = 1.0 / (4 * x**2)
        for j, y in enumerate(ys):
            if x > 1.0:
                expect = "zero"
            elif k_of_lambda(lam) > float(logcosh(y / x)):
                expect = "positive"
            else:
                expect = "unresolved"
            assert labels[i, j] == expect, (x, y)
            assert lower[i, j] <= upper[i, j] + 1e-15
    # the zero-field edge is positive whenever beta*v > 1
    assert all(labels[xs < 1.0, 0] == "positive")


def test_region_scan_validation():
    with pytest.raises(ValueError):
        region_scan([1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        region_scan([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        region_scan([0.5, 1.0], [-0.1, 1.0])


def test_region_point_classification_logic():
    # weak disorder (inv_beta_v > 1) comes first, then delta_lower > 0; both
    # comparisons are strict
    cases = ((1.2, 0.0, "zero"), (1.2, 0.3, "zero"),
             (0.5, 0.2, "positive"), (0.5, 0.0, "unresolved"),
             (1.0, 0.2, "positive"), (1.0, 0.0, "unresolved"))
    for x, lower, expect in cases:
        assert region_labels(x, lower) == expect, (x, lower)
    # the rule broadcasts: the six cases at once, and a column of x
    # against a row of delta_lower
    xs, lowers, expects = map(np.array, zip(*cases))
    assert region_labels(xs, lowers).tolist() == expects.tolist()
    grid = region_labels(np.array([[1.2], [0.5]]), np.array([0.0, 0.3]))
    assert grid.tolist() == [["zero", "zero"], ["unresolved", "positive"]]
