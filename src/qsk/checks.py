"""The registry of verification checks run by ``qsk verify`` and the acceptance suite.

Each check is ``check(seed, **sizes) -> (ok, detail)``: a verdict and a
one-line summary.  The keyword defaults are the desk scale that ``qsk
verify`` runs in about a second, with Monte-Carlo comparisons at
``n_sigma = 3.5`` standard errors; ``tests/test_acceptance.py`` runs the
same functions at full scale.  Every sub-seed is a fixed offset of
``seed``, so one seed fixes all randomness at either scale; the checks run
under the caller's pool setting, on which no result depends.
"""

import numpy as np

from . import annealed, constants, disorder, hilbert, paths, variational
from .constants import ModelParams
from .numerics import logcosh
from .stats import mean_with_err

#: (g, beta_b, endpoint sign) of the endpoint-resolved exponential moments
_LAPLACE_CASES = ((0.7, 0.9, 1), (-0.4, 1.2, -1), (1.1, 0.5, 1),
                  (-0.9, 0.8, -1), (0.3, 2.0, 1))


def _failed(checks):
    return ",".join(k for k, v in checks.items() if not v) or "none"


def check_closed_forms(seed):
    """sqrt(2p - m) cosh(beta_b) = 1, the root of p = 1/2 and the maximum of c0."""
    from scipy.optimize import minimize_scalar

    bb = np.geomspace(1e-3, 1e3, 200)
    # sqrt(2p-m)*cosh = exp(0.5*ln(2p-m) + ln cosh); cancellation-free form
    product = np.exp(0.5 * constants.log_two_p_minus_m(bb) + logcosh(bb))
    dev = float(np.abs(product - 1.0).max())
    # tie the stable form to the plain p/m floats where they are conditioned
    # (relative rounding noise of the subtraction stays below ~1e-12 there)
    cond = bb[bb <= 6.0]
    direct = 2.0 * constants.p_of(cond) - constants.m_of(cond)
    tie = float(np.abs(direct / constants.two_p_minus_m(cond) - 1.0).max())
    root = 1.1996786402577338
    p_at_root = constants.p_of(root)
    res = minimize_scalar(lambda x: -constants.c0_of(x), bounds=(0.5, 1.5),
                          method="bounded", options={"xatol": 1e-10})
    ok = (
        dev < 1e-10
        and tie < 1e-10
        and abs(p_at_root - 0.5) < 1e-4
        and abs(-res.fun - 0.069571391294736921) < 5e-4
        and abs(res.x - 0.9089795156301270) < 1e-3
    )
    detail = ("identity_dev=%.3e float_tie_dev=%.3e p_at_root_dev=%.3e "
              "c0_max=%.12g at %.12g"
              % (dev, tie, abs(p_at_root - 0.5), -res.fun, res.x))
    return ok, detail


def check_moment_chain(seed, lams=(0.01, 0.1, 1.0, 4.0), beta_bs=(0.3, 1.0, 3.0)):
    """The moment inequality chain on a beta_b sweep, and the corridor
    max(0, lam + ln(p_N)/N) <= G_N/N <= lam for 2 <= N <= 64."""
    chain = constants.moment_inequalities(np.geomspace(1e-3, 1e3, 200))
    bad = int(np.count_nonzero(~np.all(list(chain.values()), axis=0)))
    corridor_bad = 0
    ns = np.arange(2, 65)
    for lam in lams:
        for bb in beta_bs:
            g = constants.g_n_of(ns, lam, bb) / ns
            lo = np.maximum(0.0, lam + np.log(constants.p_n_of(ns, bb)) / ns)
            corridor_bad += int(np.count_nonzero(
                ~((lo - 1e-12 <= g) & (g <= lam + 1e-12))))
    ok = bad == 0 and corridor_bad == 0
    return ok, f"chain_violations={bad} corridor_violations={corridor_bad}"


def check_two_spin(seed, spectra=200, points=((0.15, 0.8), (0.3, 1.5)),
                   ensembles=20_000, n_sigma=3.5):
    """Exact two-spin spectra at random parameters, and path-MC beta f_2^ann
    against its exact quadrature at ``points`` (lam, beta_b)."""
    rng = np.random.Generator(np.random.Philox(seed))
    worst = 0.0
    for _ in range(spectra):
        lam = float(10 ** rng.uniform(-2, 0.5))
        bb = float(10 ** rng.uniform(-1, 0.7))
        g = float(rng.standard_normal())
        params = ModelParams(2, lam, bb)
        h = hilbert.build_hamiltonian(params, np.array([g]))
        evals = hilbert.spectrum(h).eigenvalues
        ref = hilbert.two_spin_scaled_spectrum(lam, bb, g)
        worst = max(worst, float(np.abs(evals - ref).max()))
    mc_bad = 0
    worst_z = 0.0
    for i, (lam, bb) in enumerate(points):
        params = ModelParams(2, lam, bb)
        est = annealed.annealed_free_energy(
            params, annealed.estimate_f_n(params, ensembles, seed + i))
        exact = hilbert.f2_annealed_exact(lam, bb)
        worst_z = max(worst_z, abs(est.value - exact) / est.std_err)
        mc_bad += not est.agrees_with(exact, n_sigma=n_sigma)
    ok = worst < 1e-10 and mc_bad == 0
    return ok, "spectrum_dev=%.3e mc_bad=%d worst_z=%.2f" % (worst, mc_bad, worst_z)


def check_path_kernels(seed, mu_points=6, mu_paths=20_000, laplace_cases=2,
                       laplace_paths=40_000, p_n_spins=(2, 4),
                       p_n_ensembles=20_000, n_sigma=3.5):
    """Path-MC estimates against closed forms: the two-point kernel mu at
    random (t, t', beta_b), Lambda(0.8 * 1) on the first of those ensembles,
    the first ``laplace_cases`` endpoint-resolved exponential moments, and
    E[P_N] = p_N."""
    rng = np.random.Generator(np.random.Philox(seed + 4))
    mu_bad = 0
    worst_z = 0.0
    for i in range(mu_points):
        bb = float(10 ** rng.uniform(-0.5, 0.6))
        t, tp = sorted(float(u) for u in rng.uniform(0, 1, 2))
        ens = paths.sample_ensemble(bb, mu_paths, seed + 100 + i)
        products = ens.sigma_matrix(t) * ens.sigma_matrix(tp)
        target = float(constants.mu(t, tp, bb))
        # exact variance of the +-1 products: a sample one is 0 without jumps
        err = np.sqrt((1.0 - target * target) / products.size)
        z = abs(products.mean() - target) / err
        worst_z = max(worst_z, z)
        mu_bad += z > n_sigma
        if i == 0:
            kernel = variational.GridFunction(np.full((8, 8), 0.8))
            constant_ok = variational.lambda_functional(kernel, ens).agrees_with(
                variational.lambda_constant(0.8, bb), n_sigma=n_sigma)
    lap_bad = 0
    for i, (g, bb, s) in enumerate(_LAPLACE_CASES[:laplace_cases]):
        times, counts = paths.sample_unconditioned(bb, laplace_paths, seed + 200 + i)
        tot = paths.signed_totals(times, counts)
        keep = 1 - 2 * (counts % 2) == s
        est = mean_with_err(np.exp(bb + g * tot) * keep)
        lap_bad += not est.agrees_with(paths.laplace_conditional(g, bb, s),
                                       n_sigma=n_sigma)
    p_bad = 0
    for n in p_n_spins:
        params = ModelParams(n, 0.1, 1.0)
        est = annealed.mean_p_n(params, p_n_ensembles, seed + 300 + n)
        p_bad += not est.agrees_with(constants.p_n_of(n, 1.0), n_sigma=n_sigma)
    ok = mu_bad == 0 and constant_ok and lap_bad == 0 and p_bad == 0
    return ok, ("mu_bad=%d worst_z=%.2f constant_kernel=%s laplace_bad=%d p_n_bad=%d"
                % (mu_bad, worst_z, "ok" if constant_ok else "BAD", lap_bad, p_bad))


def check_f_bounds(seed, lams=(0.125,), beta_bs=(1.0,), spins=(2, 4),
                   ensembles=20_000, n_sigma=3.5):
    """The sandwich N p_N lam <= F_N <= min(G_N, W_N) for path-MC F_N."""
    bad = 0
    worst_margin = np.inf
    for lam in lams:
        for bb in beta_bs:
            for n in spins:
                params = ModelParams(n, lam, bb)
                f_hat = annealed.estimate_f_n(params, ensembles, seed + n)
                bounds, verdicts = annealed.f_n_sandwich(params, f_hat, n_sigma)
                upper = min(bounds["g_n"], bounds["w_n"])
                margin = min(f_hat.value - bounds["lower_n_p_n_lam"],
                             upper - f_hat.value)
                worst_margin = min(worst_margin, margin / f_hat.std_err)
                bad += not all(verdicts.values())
    return bad == 0, "violations=%d worst_margin=%.2f sigma" % (bad, worst_margin)


def check_fixed_point(seed, points=((0.1, 1.0),), m_cells=32,
                      n_paths=20_000, n_sigma=3.5):
    """The fixed-point solve at ``points`` (lam, beta_b): convergence,
    contraction, 2 lam mu <= psi <= 2 lam, and the bracket, start-gap and
    Taylor bounds on inf Omega."""
    failed = []
    for lam, bb in points:
        ens = paths.sample_ensemble(bb, n_paths, seed + round(100 * lam))
        report = variational.fixed_point_solve(lam, m_cells, ens)
        verdicts = variational.fixed_point_verdicts(report, n_sigma)
        psi = report.psi.values
        noise = n_sigma * report.psi_std_err.values
        mu_grid = variational.discretize_mu(m_cells, bb)
        checks = {
            "converged": verdicts["converged"],
            "ratios": verdicts["ratio_bound_ok"],
            "psi_lower": bool(np.all(psi >= 2 * lam * mu_grid.values - noise)),
            "psi_upper": bool(np.all(psi <= 2 * lam + noise)),
            "omega_bracket": verdicts["omega_bracket_ok"],
            "start_gap": verdicts["start_gap_ok"],
            "taylor": verdicts["taylor_ok"],
        }
        failed += [f"({lam},{bb}):{k}" for k, v in checks.items() if not v]
        del ens, report
    return not failed, "failed=%s" % (",".join(failed) or "none")


def check_static(seed):
    """The static approximation J: J > -p lam below the threshold, J/lam
    decreasing from -m^2 (small lam) towards -1 (large lam)."""
    checks = {}
    for bb in (0.5, 1.0, 3.0):
        p, m = constants.p_of(bb), constants.m_of(bb)
        lam_star = 0.5 * variational.static_threshold(bb)
        checks[f"separation@{bb}"] = (
            variational.static_approximation(lam_star, bb) > -p * lam_star)
        slopes = [variational.static_approximation(lam, bb) / lam
                  for lam in (1e-3, 0.5, 2.0, 20.0)]
        checks[f"small-lam@{bb}"] = abs(slopes[0] + m * m) <= 0.02 * m * m
        checks[f"trend@{bb}"] = all(np.diff(slopes) < 0)
    checks["large-lam@0.5"] = (
        abs(variational.static_approximation(20.0, 0.5) / 20.0 + 1.0) <= 0.02)
    return all(checks.values()), f"failed={_failed(checks)}"


def check_disorder(seed, n_spins=5, samples=400,
                   trend_spins=(3, 4, 5), trend_samples=300, n_sigma=3.5):
    """Exact-diagonalization disorder statistics at lam = 0.125, beta_b = 1:
    E[Z^2]/E[Z]^2 <= c(lam), the Paley-Zygmund witness, the Gaussian-Poincare
    inequality Var(ln Z) <= 2 lam (N-1) E[op] (its ratio and margin in
    standard errors are printed), and an order parameter decreasing in N."""
    lam, bb = 0.125, 1.0
    params = ModelParams(n_spins, lam, bb)
    result = disorder.run_study(params, samples, seed)
    c = disorder.second_moment_theory_bound(lam)
    study = disorder.study_verdicts(result, n_sigma, ratio_bound=c)
    poincare = result.poincare_ratio
    pz, pz_floor = disorder.paley_zygmund_witness(result, lam)
    trend = disorder.order_parameter_trend(params, trend_spins, trend_samples, seed + 2)
    trend_bad = sum(
        not trend[k + 1].value < trend[k].value
        + n_sigma * np.hypot(trend[k].std_err, trend[k + 1].std_err)
        for k in range(len(trend) - 1)
    )
    checks = {
        "ratio_le_c": study["ratio_le_theory"],
        "pz": pz.value >= pz_floor - n_sigma * pz.std_err,
        "poincare": study["poincare_le_one"],
        "trend": trend_bad == 0,
    }
    return all(checks.values()), (
        "ratio=%.4f<=%.4f pz=%.3f>=%.3f poincare=%.3f<=1 margin=%.2f sigma "
        "trend_bad=%d failed=%s"
        % (result.second_moment_ratio.value, c, pz.value, pz_floor,
           poincare.value, (1.0 - poincare.value) / poincare.std_err,
           trend_bad, _failed(checks)))


def check_second_moment(seed, n_paths=4000, n_sigma=3.5):
    """The generalized second moment stays <= 1 at coupling shifts gamma in
    {0, 0.1}; the z-scores against 1 are printed."""
    params = ModelParams(3, 0.1, 1.0)
    zs = []
    bad = 0
    for i, gamma in enumerate((0.0, 0.1)):
        est = disorder.generalized_second_moment(params, gamma, n_paths, seed + i)
        zs.append((est.value - 1.0) / est.std_err)
        bad += not est.value <= 1.0 + n_sigma * est.std_err
    return bad == 0, "violations=%d z_scores=%s" % (
        bad, ",".join("%.2f" % z for z in zs))


def check_region(seed, x_count=30, y_count=30):
    """Each point of a region scan carries the label its rule gives, and the
    zero-field edge below x = 1 has a certified positive gap."""
    xs = np.linspace(0.2, 2.0, x_count)
    ys = np.linspace(0.0, 2.6, y_count)
    lower, _ = annealed.region_scan(xs, ys)
    labels = annealed.region_labels(xs[:, None], lower)
    mislabels = 0
    edge_bad = 0
    for i, x in enumerate(xs):
        k = annealed.k_of_lambda(1.0 / (4.0 * x * x))
        for j, y in enumerate(ys):
            if x > 1.0:
                expect = "zero"
            elif k - float(logcosh(y / x)) > 0.0:
                expect = "positive"
            else:
                expect = "unresolved"
            mislabels += labels[i, j] != expect
            if y == 0.0 and x < 1.0:
                edge_bad += not (labels[i, j] == "positive" and lower[i, j] > 0.0)
    ok = mislabels == 0 and edge_bad == 0
    return ok, f"mislabels={mislabels} edge_mislabels={edge_bad}"


#: check name -> check, in the order ``qsk verify`` runs and prints them
CHECKS = {
    "closed_forms": check_closed_forms,
    "moment_chain": check_moment_chain,
    "two_spin": check_two_spin,
    "path_kernels": check_path_kernels,
    "f_bounds": check_f_bounds,
    "fixed_point": check_fixed_point,
    "static": check_static,
    "disorder": check_disorder,
    "second_moment": check_second_moment,
    "region": check_region,
}
