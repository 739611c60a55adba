"""Closed-form constants: moments of mu, sequences p_N / G_N / W_N, c0."""

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from qsk import checks, constants
from qsk.constants import (
    N_MAX,
    W_N_LAYER_BREAKS,
    ModelParams,
    c0_of,
    g_n_of,
    inf_g_n_over_n,
    log_two_p_minus_m,
    m_of,
    moment_inequalities,
    mu,
    p_n_of,
    p_of,
    two_p_minus_m,
    w_n_of,
)
from qsk.numerics import QuadratureConvergenceWarning, gauss_legendre_01, logcosh

from oracles import w_n_gauss_hermite

BB_SWEEP = np.geomspace(1e-3, 1e3, 200)


# -- ModelParams -----------------------------------------------------------


def test_params_validation():
    for n in (1, 0, -3, 2.5):
        with pytest.raises(ValueError, match="n_spins"):
            ModelParams(n, 0.1, 1.0)
    for bad in (np.nan, np.inf, -np.inf, -0.1, -1e-300):
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            ModelParams(4, bad, 1.0)
        with pytest.raises(ValueError, match="beta_b must be finite and >= 0"):
            ModelParams(4, 0.1, bad)
    # both zero limits are models: no disorder, and no transverse field
    assert ModelParams(2, 0.0, 0.0).to_dict() == {
        "n_spins": 2, "lam": 0.0, "beta_b": 0.0}


def test_params_hold_the_triple_bit_for_bit():
    # the stored values are the ones given, also where (2 sqrt(lam))^2 / 4
    # is not lam (0.12500000000000003 at lam = 0.125)
    for lam in (0.125, 0.15, 0.3, 0.1):
        p = ModelParams(4, lam, 1.0)
        assert p.lam == lam and p.to_dict()["lam"] == lam
    assert [f.name for f in fields(ModelParams)] == ["n_spins", "lam", "beta_b"]
    assert replace(p, n_spins=6) == ModelParams(6, 0.1, 1.0)


# -- mu --------------------------------------------------------------------


def test_mu_trivial_values():
    assert mu(0.3, 0.3, 2.0) == 1.0
    assert mu(0.0, 0.5, 1.7) == pytest.approx(1.0 / np.cosh(1.7), rel=1e-14)
    assert mu(0.0, 1.0, 2.2) == pytest.approx(1.0, rel=1e-14)  # periodic ends


def test_mu_symmetry_and_floor():
    rng = np.random.default_rng(0)
    t, tp = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
    for bb in (0.1, 1.0, 5.0):
        a = mu(t, tp, bb)
        b = mu(tp, t, bb)
        np.testing.assert_allclose(a, b, rtol=0, atol=0)
        assert np.all(a >= 1.0 / np.cosh(bb) - 1e-15)
        assert np.all(a <= 1.0 + 1e-15)


def test_mu_domain_errors():
    with pytest.raises(ValueError):
        mu(-0.1, 0.5, 1.0)
    with pytest.raises(ValueError):
        mu(0.1, 1.5, 1.0)


def test_mu_overflow_safe_large_beta_b():
    val = mu(0.25, 0.75, 1e3)
    assert val == pytest.approx(np.exp(-500.0 + np.log1p(np.exp(-1000.0))
                                       - np.log1p(np.exp(-2000.0))), rel=1e-12)


# -- m, p and their quadrature cross-checks --------------------------------


def test_m_p_frozen_values():
    # high-precision reference values
    assert m_of(0.5) == pytest.approx(0.924234314520019517, rel=1e-14)
    assert m_of(1.0) == pytest.approx(0.761594155955764888, rel=1e-14)
    assert m_of(2.0) == pytest.approx(0.482013790037908442, rel=1e-14)
    assert p_of(0.5) == pytest.approx(0.855341023742973464, rel=1e-14)
    assert p_of(1.0) == pytest.approx(0.590784248784895479, rel=1e-14)
    assert p_of(2.0) == pytest.approx(0.276332307445536454, rel=1e-14)


def test_m_small_argument_series():
    assert m_of(1e-12) == pytest.approx(1.0, abs=1e-9)
    assert m_of(0.0) == 1.0
    # series/direct agreement at the switch point
    assert m_of(1e-8) == pytest.approx(np.tanh(1.0001e-8) / 1.0001e-8, rel=1e-8)


def test_m_is_double_integral_of_mu():
    # mu depends on |t - t'| and has a kink on the diagonal; mapping the
    # lower triangle through (t, t') = (a, a b) keeps the integrand smooth,
    # so the tensor Gauss-Legendre rule converges spectrally
    nodes, weights = np.polynomial.legendre.leggauss(40)
    a = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    sep = a[:, None] * (1.0 - a[None, :])  # |t - t'| = a(1 - b)
    for bb in (0.3, 1.0, 2.5):
        grid = mu(np.zeros_like(sep), sep, bb)
        assert 2.0 * w @ (a[:, None] * grid) @ w == pytest.approx(
            m_of(bb), abs=1e-8)
        assert 2.0 * w @ (a[:, None] * grid**2) @ w == pytest.approx(
            p_of(bb), abs=1e-8)


def test_identity_sqrt_two_p_minus_m_times_cosh():
    # cancellation-free evaluation of sqrt(2p-m)*cosh(bb) over the sweep
    product = np.exp(0.5 * log_two_p_minus_m(BB_SWEEP) + logcosh(BB_SWEEP))
    assert np.abs(product - 1.0).max() < 1e-10
    # the stable form agrees with the plain floats where those are conditioned
    cond = BB_SWEEP[BB_SWEEP <= 6.0]
    direct = 2.0 * p_of(cond) - m_of(cond)
    assert np.abs(direct / two_p_minus_m(cond) - 1.0).max() < 1e-10


def test_direct_two_p_minus_m_collapses_at_large_argument():
    # documents why the stable form exists: float p, m lose sech^2 entirely
    assert 2.0 * p_of(50.0) - m_of(50.0) == 0.0
    assert two_p_minus_m(50.0) > 0.0


def test_chain_inequalities_over_sweep():
    for bb in BB_SWEEP:
        checks = moment_inequalities(bb)
        assert all(checks.values()), (bb, checks)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_chain_inequalities_property(bb):
    assert all(moment_inequalities(bb).values())


def test_p_crosses_half_at_known_root():
    root = 1.1996786402577338  # root of x*tanh(x) = 1
    assert p_of(root) == pytest.approx(0.5, abs=1e-10)
    assert p_of(root - 1e-3) > 0.5 > p_of(root + 1e-3)


# -- p_N, G_N, W_N ---------------------------------------------------------


def test_p_n_monotone_toward_p():
    for bb in (0.2, 1.0, 3.0):
        vals = [p_n_of(n, bb) for n in range(1, 30)]
        assert vals[0] == pytest.approx(1.0, rel=1e-15)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > p_of(bb)
        assert p_n_of(10**9, bb) == pytest.approx(p_of(bb), abs=1e-8)
    with pytest.raises(ValueError):
        p_n_of(0, 1.0)


def test_g_1_equals_lam():
    # p_1 = 1 makes G_1 = ln(e^lam) = lam
    for lam in (0.05, 0.7, 3.0):
        assert g_n_of(1, lam, 1.3) == pytest.approx(lam, rel=1e-13)


def test_g_n_frozen_values():
    assert g_n_of(2, 1.0, 1.0) == pytest.approx(1.805301511034485936, rel=1e-13)
    assert g_n_of(3, 0.5, 0.7) == pytest.approx(1.360778628587306764, rel=1e-13)


def test_g_n_corridor():
    # max{0, lam + ln(p_N)/N} <= G_N/N <= lam, strict in exact arithmetic;
    # the lower gap underflows for N*lam >~ 40, hence the 1e-12 slack
    for lam in (0.01, 0.04, 0.15, 0.5, 1.5, 4.0):
        for bb in (1e-3, 0.03, 0.3, 1.0, 3.0, 30.0, 1e3):
            for n in range(2, 65):
                g_over_n = g_n_of(n, lam, bb) / n
                lower = max(0.0, lam + np.log(p_n_of(n, bb)) / n)
                assert lower - 1e-12 <= g_over_n <= lam + 1e-12, (lam, bb, n)


def test_g_n_large_exponent_log_space():
    # N*lam = 700 regime: G_N ~ N lam + ln p_N must not overflow
    val = g_n_of(64, 50.0, 1.0)
    assert val == pytest.approx(64 * 50.0 + np.log(p_n_of(64, 1.0)), rel=1e-12)


def test_inf_g_n_over_n():
    assert N_MAX == 64
    val, argmin = inf_g_n_over_n(0.1, 1.0)
    assert val == pytest.approx(min(g_n_of(n, 0.1, 1.0) / n
                                    for n in range(2, 65)), rel=1e-14)
    assert g_n_of(argmin, 0.1, 1.0) / argmin == pytest.approx(val, rel=1e-14)
    # at lam = 1e-4 the argmin is pinned at the boundary, and the warning
    # names it; at lam = 1e-3 the argmin is 58 and nothing warns
    with pytest.warns(UserWarning, match=r"N_MAX boundary \(N=64\)"):
        assert inf_g_n_over_n(1e-4, 1.0)[1] == N_MAX
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert inf_g_n_over_n(0.001, 1.0)[1] == 58


def _g_n_reference(n, lam, bb):
    # the scalar two-branch formula, kept as the oracle for the broadcast one
    pn = p_of(bb) + (1.0 - p_of(bb)) / n
    x = n * lam
    if x <= 700.0:
        return float(np.log1p(pn * np.expm1(x)))
    return float(x + np.log(pn) + np.log1p((1.0 - pn) * np.exp(-x) / pn))


ORACLE_LAMS = (0.0, 0.1, 100.0)  # 100 puts N*lam past 700 for N >= 8
ORACLE_BBS = np.array([0.0, 1e-9, 1.0, 50.0])


def test_g_n_broadcast_matches_scalar_reference():
    ns = np.arange(1, 65)
    for lam in ORACLE_LAMS:
        grid = g_n_of(ns, lam, ORACLE_BBS[:, None])
        assert grid.shape == (ORACLE_BBS.size, ns.size)
        for i, bb in enumerate(ORACLE_BBS):
            for j, n in enumerate(ns):
                ref = _g_n_reference(int(n), lam, float(bb))
                assert grid[i, j] == ref, (lam, bb, n)
                assert g_n_of(int(n), lam, float(bb)) == ref
    assert isinstance(g_n_of(3, 0.1, 1.0), float)
    assert isinstance(p_n_of(3, 1.0), float)
    assert np.array_equal(p_n_of(ns, 1.0), [p_n_of(int(n), 1.0) for n in ns])


def test_inf_g_n_over_n_broadcast_matches_scalar_loop():
    for lam in ORACLE_LAMS:
        ref = []
        for bb in ORACLE_BBS:
            vals = [g_n_of(n, lam, float(bb)) / n for n in range(2, N_MAX + 1)]
            k = min(range(len(vals)), key=vals.__getitem__)
            ref.append((vals[k], k + 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values, argmins = inf_g_n_over_n(lam, ORACLE_BBS)
            on_boundary = any(a == N_MAX for _, a in ref)
            assert len(caught) == int(on_boundary), lam
            for bb, (v, a) in zip(ORACLE_BBS, ref):
                caught.clear()
                assert inf_g_n_over_n(lam, float(bb)) == (v, a)
                assert len(caught) == int(a == N_MAX)
        assert values.tolist() == [v for v, _ in ref], lam
        assert argmins.tolist() == [a for _, a in ref], lam


def test_bounds_layer_validation():
    with pytest.raises(ValueError):
        g_n_of(np.array([0, 1, 2]), 0.1, 1.0)
    with pytest.raises(ValueError):
        p_n_of(np.array([2, 0]), 1.0)
    with pytest.raises(ValueError):
        g_n_of(2, -0.1, 1.0)
    with pytest.raises(ValueError):
        g_n_of(np.arange(1, 4), 0.1, np.array([1.0, -1.0])[:, None])
    with pytest.raises(ValueError):
        inf_g_n_over_n(0.1, np.array([1.0, -1.0]))


def test_w_2_equals_g_2():
    for lam, bb in ((0.3, 0.8), (0.1, 1.0), (1.0, 1.0)):
        assert w_n_of(2, lam, bb) == pytest.approx(g_n_of(2, lam, bb), rel=5e-13)


def test_w_4_frozen_value_and_w_below_g():
    assert w_n_of(4, 0.2, 1.0) == pytest.approx(0.6004363099742377, rel=1e-11)
    for n in (3, 4, 6):
        for lam, bb in ((0.1, 0.5), (0.2, 1.0), (0.05, 2.0)):
            assert w_n_of(n, lam, bb) <= g_n_of(n, lam, bb) + 1e-12


def test_w_n_validation():
    # the node count is numerics.QUAD_NODES, no longer an argument to refuse
    # (test_refine_once covers the nodes every quadrature uses)
    with pytest.raises(ValueError):
        w_n_of(1, 0.1, 1.0)
    with pytest.raises(ValueError):
        w_n_of(4, -0.1, 1.0)
    with pytest.raises(ValueError):
        w_n_of(4, 0.1, np.array([1.0, -1.0]))


def _t_rule(bb, nodes):
    """The package's t-rule of W_N at one beta_b."""
    if bb > 2.0 * W_N_LAYER_BREAKS[-1]:
        t, wt = constants._graded_t_rule(np.array([bb]), nodes)
        return t[0], wt[0]
    return gauss_legendre_01(nodes)


def test_w_n_closed_form_matches_gauss_hermite():
    # the x-integral in closed form against Gauss-Hermite on the same t-rule
    bbs = np.geomspace(1e-3, 100.0, 25)
    for n in (2, 3, 4, 8, 16):
        for lam in (0.05, 0.1, 0.5, 2.0):
            ref = [w_n_gauss_hermite(n, lam, bb, *_t_rule(bb, 128)) for bb in bbs]
            np.testing.assert_allclose(w_n_of(n, lam, bbs), ref, rtol=1e-13, atol=0)


def test_w_2_equals_g_2_inside_the_boundary_layers():
    # mu(t, 0) has layers of width 1/beta_b at both ends of [0, 1]; the
    # graded t-rule resolves them at both node counts, so nothing warns
    bbs = np.array([500.0, 1000.0, 2000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureConvergenceWarning)
        for lam in (0.1, 1.0):
            np.testing.assert_allclose(w_n_of(2, lam, bbs), g_n_of(2, lam, bbs),
                                       rtol=1e-10, atol=0)
            for n in (4, 16):
                assert np.all(w_n_of(n, lam, bbs) <= g_n_of(n, lam, bbs) + 1e-12)


def test_w_n_at_zero_field_is_n_lam():
    # mu = 1 everywhere: only the k = N term survives, and W_N = G_N = N lam
    assert w_n_of(4, 0.3, 0.0) == pytest.approx(1.2, rel=1e-14)


def test_w_n_and_c0_broadcast_over_beta_b():
    grid = BB_SWEEP.reshape(20, 10)
    w = w_n_of(4, 0.2, grid)
    c0 = c0_of(grid)
    assert w.shape == c0.shape == grid.shape
    for i, j in ((0, 0), (7, 3), (14, 9), (19, 9)):
        assert w[i, j] == pytest.approx(w_n_of(4, 0.2, grid[i, j]), rel=1e-15)
        assert c0[i, j] == c0_of(grid[i, j])
    assert isinstance(w_n_of(4, 0.2, 1.0), float)
    assert isinstance(c0_of(1.0), float)
    checks = moment_inequalities(grid)
    assert all(v.shape == grid.shape and v.all() for v in checks.values())


# -- c0 --------------------------------------------------------------------


def test_c0_frozen_values():
    assert c0_of(0.5) == pytest.approx(0.0453429037662222884, rel=1e-12)
    assert c0_of(1.0) == pytest.approx(0.0686035884915213633, rel=1e-12)
    assert c0_of(2.0) == pytest.approx(0.0233823453744425298, rel=1e-12)


def test_c0_series_matches_direct_at_crossover():
    # the series kicks in below 1e-2; both branches agree around the switch
    for bb in (0.009, 0.00999, 0.0101, 0.02):
        w = two_p_minus_m(bb)
        direct = ((m_of(bb) - p_of(bb)) / (4 * bb * bb) + w / 6.0 - (w / 2.0) ** 2)
        assert c0_of(bb) == pytest.approx(direct, rel=2e-7)


def test_c0_bounds_and_vanishing_limits():
    for bb in BB_SWEEP:
        c0 = c0_of(bb)
        m, p = m_of(bb), p_of(bb)
        assert c0 > 0.0
        lo = (m - p) ** 2 * np.exp(-logcosh(bb))
        assert lo - 1e-15 <= c0 <= p * (m - p) + 1e-15, bb
    assert c0_of(1e-6) < 1e-12
    assert c0_of(500.0) < 1e-2
    with pytest.raises(ValueError):
        c0_of(np.array([0.5, -1e-3]))


def test_c0_maximum_location():
    res = minimize_scalar(lambda x: -c0_of(x), bounds=(0.5, 1.5),
                          method="bounded", options={"xatol": 1e-10})
    assert -res.fun == pytest.approx(0.069571391294736920621, abs=1e-10)
    assert res.x == pytest.approx(0.90897951563012698062, abs=1e-6)


def test_closed_forms_gate_catches_a_small_c0_error(monkeypatch):
    # c0 off by 1e-6 moves its maximum by 1e-6, far below the old 5e-4 gate
    assert checks.check_closed_forms(0)[0]
    c0_of = constants.c0_of
    monkeypatch.setattr(constants, "c0_of", lambda x: c0_of(x) + 1e-6)
    ok, detail = checks.check_closed_forms(0)
    assert not ok
    assert "c0_max=0.0695723912947 " in detail
