"""Acceptance suite: one test per headline check, at full stated scale.

Each test prints a single PASS/FAIL line (bypassing capture) with its
runtime, then asserts the substance and the runtime budget.
"""

import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qsk import annealed, cli, constants, disorder, hilbert, paths, variational
from qsk.constants import ModelParams
from qsk.numerics import logcosh

SEED = 123456789

_BB_SWEEP = np.geomspace(1e-3, 1e3, 200)


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def _report(capsys, num, ok, timer, budget, detail):
    with capsys.disabled():
        print(
            "[acceptance %02d] %s (%.1fs / budget %.0fs) %s"
            % (num, "PASS" if ok else "FAIL", timer.elapsed, budget, detail),
            flush=True,
        )
    assert ok, detail
    assert timer.elapsed < budget, f"runtime {timer.elapsed:.1f}s over budget"


def test_acceptance_01_closed_form_identities(capsys):
    with _Timer() as t:
        product = np.exp(
            0.5 * constants.log_two_p_minus_m(_BB_SWEEP) + logcosh(_BB_SWEEP)
        )
        identity_dev = float(np.abs(product - 1.0).max())
        p_dev = abs(constants.p_of(1.19967) - 0.5)
        res = minimize_scalar(lambda x: -constants.c0_of(x), bounds=(0.5, 1.5),
                              method="bounded", options={"xatol": 1e-10})
        c0_max, c0_arg = -float(res.fun), float(res.x)
    ok = (identity_dev < 1e-10 and p_dev < 1e-4
          and abs(c0_max - 0.0695) < 5e-4 and abs(c0_arg - 0.9089) < 1e-3)
    _report(capsys, 1, ok, t, 1.0,
            "identity_dev=%.2e p_dev=%.2e c0_max=%.6f@%.6f"
            % (identity_dev, p_dev, c0_max, c0_arg))


def test_acceptance_02_inequality_chain_and_corridor(capsys):
    with _Timer() as t:
        chain_bad = sum(
            not all(constants.moment_inequalities(bb, slack=1e-12).values())
            for bb in _BB_SWEEP
        )
        corridor_bad = 0
        for lam in (0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0):
            for bb in (1e-3, 0.03, 0.3, 1.0, 3.0, 30.0, 1e3):
                for n in range(2, 65):
                    g_over_n = constants.g_n_of(n, lam, bb) / n
                    lo = max(0.0, lam + np.log(constants.p_n_of(n, bb)) / n)
                    slack = 1e-12 * max(1.0, lam)
                    if not (lo - slack <= g_over_n <= lam + slack):
                        corridor_bad += 1
    ok = chain_bad == 0 and corridor_bad == 0
    _report(capsys, 2, ok, t, 5.0,
            f"chain_bad={chain_bad} corridor_bad={corridor_bad}")


def test_acceptance_03_two_spin_exactness(capsys):
    with _Timer() as t:
        rng = np.random.Generator(np.random.Philox(SEED))
        worst = 0.0
        for _ in range(1000):
            lam = float(10 ** rng.uniform(-2, 0.5))
            bb = float(10 ** rng.uniform(-1, 0.7))
            g = float(rng.standard_normal())
            params = ModelParams.from_dimensionless(2, lam, bb)
            sample = hilbert.DisorderSample(n_spins=2, couplings=np.array([g]))
            h = hilbert.build_hamiltonian(params, sample)
            evals = params.beta * hilbert.spectrum(h).eigenvalues
            ref = hilbert.two_spin_scaled_spectrum(lam, bb, g)
            worst = max(worst, float(np.abs(evals - ref).max()))
        mc_bad = 0
        worst_z = 0.0
        for i, (lam, bb) in enumerate(
            [(0.1, 0.5), (0.15, 0.8), (0.2, 1.0), (0.05, 1.5), (0.225, 2.0)]
        ):
            params = ModelParams.from_dimensionless(2, lam, bb)
            est = annealed.annealed_free_energy(params, 200_000, SEED + i)
            exact = hilbert.f2_annealed_exact(lam, bb)
            worst_z = max(worst_z, abs(est.value - exact) / est.std_err)
            mc_bad += not est.agrees_with(exact, n_sigma=3.0)
    ok = worst < 1e-10 and mc_bad == 0
    _report(capsys, 3, ok, t, 120.0,
            "spectrum_dev=%.2e mc_bad=%d worst_z=%.2f" % (worst, mc_bad, worst_z))


def test_acceptance_04_path_kernel_consistency(capsys):
    from qsk.stats import mean_with_err

    with _Timer() as t:
        rng = np.random.Generator(np.random.Philox(SEED + 4))
        mu_bad = 0
        worst_z = 0.0
        for i in range(20):
            bb = float(10 ** rng.uniform(-0.5, 0.6))
            tt, tp = sorted(float(u) for u in rng.uniform(0, 1, 2))
            ens = paths.sample_ensemble(bb, 40_000, SEED + 100 + i)
            est = mean_with_err(ens.sigma_matrix(tt) * ens.sigma_matrix(tp))
            target = constants.mu(tt, tp, bb)
            worst_z = max(worst_z, abs(est.value - target) / est.std_err)
            mu_bad += not est.agrees_with(target, n_sigma=3.0)
        lap_bad = 0
        for i, (g, bb, s) in enumerate(
            [(0.7, 0.9, 1), (-0.4, 1.2, -1), (1.1, 0.5, 1),
             (-0.9, 0.8, -1), (0.3, 2.0, 1)]
        ):
            jumps, counts = paths.sample_unconditioned(bb, 100_000, SEED + 200 + i)
            tot = paths.signed_totals(jumps, counts)
            keep = 1 - 2 * (counts % 2) == s
            est = mean_with_err(np.exp(bb + g * tot) * keep)
            lap_bad += not est.agrees_with(
                paths.laplace_conditional(g, 1.0, bb, s), n_sigma=3.0)
        p_bad = 0
        for n in (2, 4, 8):
            params = ModelParams.from_dimensionless(n, 0.1, 1.0)
            est = annealed.mean_p_n(params, 50_000, SEED + 300 + n)
            p_bad += not est.agrees_with(constants.p_n_of(n, 1.0), n_sigma=3.0)
    ok = mu_bad == 0 and lap_bad == 0 and p_bad == 0
    _report(capsys, 4, ok, t, 120.0,
            "mu_bad=%d (worst_z=%.2f) laplace_bad=%d p_n_bad=%d"
            % (mu_bad, worst_z, lap_bad, p_bad))


def test_acceptance_05_free_energy_sandwich(capsys):
    with _Timer() as t:
        bad = 0
        worst_margin = np.inf
        for lam in (0.05, 0.125, 0.225):
            for bb in (0.5, 1.0, 2.0):
                for n in (2, 3, 4, 6):
                    params = ModelParams.from_dimensionless(n, lam, bb)
                    f_hat = annealed.estimate_f_n(
                        params, 30_000, SEED + n, workers=2)
                    lower = n * constants.p_n_of(n, bb) * lam
                    upper = min(constants.g_n_of(n, lam, bb),
                                constants.w_n_of(n, lam, bb))
                    lo_ok = f_hat.value >= lower - 3.0 * f_hat.std_err
                    hi_ok = f_hat.value <= upper + 3.0 * f_hat.std_err
                    margin = min(f_hat.value - lower, upper - f_hat.value)
                    worst_margin = min(worst_margin, margin / f_hat.std_err)
                    bad += not (lo_ok and hi_ok)
    ok = bad == 0
    _report(capsys, 5, ok, t, 300.0,
            "violations=%d worst_margin=%.2f sigma" % (bad, worst_margin))


def test_acceptance_06_fixed_point_solver(capsys):
    with _Timer() as t:
        failures = []
        for lam, bb in ((0.1, 1.0), (0.05, 0.5), (0.2, 2.0)):
            ens = paths.sample_ensemble(bb, 200_000, SEED + int(100 * lam))
            report = variational.fixed_point_solve(lam, bb, 64, ens)
            om = report.omega_value
            p, m = constants.p_of(bb), constants.m_of(bb)
            inf_g = constants.inf_g_n_over_n(lam, bb)[0]
            mu_grid = variational.discretize_mu(64, bb)
            om_start = variational.omega(mu_grid.scaled(2 * lam), lam, ens)
            gap = om_start.value - om.value
            gap_err = 3.0 * float(np.hypot(om_start.std_err, om.std_err))
            noise = 3.0 * report.psi_std_err.values
            checks = {
                "ratios": all(r <= 0.22 for r in report.contraction_ratios),
                "psi_lower": bool(np.all(
                    report.psi.values >= 2 * lam * mu_grid.values - noise)),
                "psi_upper": bool(np.all(report.psi.values <= 2 * lam + noise)),
                "omega_bracket": (
                    -inf_g - 3.0 * om.std_err
                    <= om.value
                    <= -p * lam + 3.0 * om.std_err
                ),
                "start_gap": -gap_err <= gap <= 4 * lam**3 + gap_err,
                "taylor": abs(om.value - variational.taylor_prediction(lam, bb))
                <= (4 + 4 * m**3 / 3) * lam**3 + 3.0 * om.std_err,
            }
            failures += [f"({lam},{bb}):{k}" for k, v in checks.items() if not v]
            del ens, report
    ok = not failures
    _report(capsys, 6, ok, t, 600.0,
            "failed_checks=%s" % (",".join(failures) or "none"))


def test_acceptance_07_static_approximation_limits(capsys):
    with _Timer() as t:
        bad = []
        for bb in (0.5, 1.0, 3.0):
            p, m = constants.p_of(bb), constants.m_of(bb)
            lam_star = 0.5 * (p - m * m) / (2 * p * (1 - m))
            if not variational.static_approximation(lam_star, bb) > -p * lam_star:
                bad.append(f"separation@{bb}")
            if abs(variational.static_approximation(1e-3, bb) / 1e-3 + m * m) \
                    > 0.02 * m * m:
                bad.append(f"small-lam@{bb}")
            slopes = [variational.static_approximation(lam, bb) / lam
                      for lam in (1e-3, 0.5, 2.0, 20.0)]
            if not all(np.diff(slopes) < 0):
                bad.append(f"trend@{bb}")
        if abs(variational.static_approximation(20.0, 0.5) / 20.0 + 1.0) > 0.02:
            bad.append("large-lam@0.5")
    ok = not bad
    _report(capsys, 7, ok, t, 30.0, "failed=%s" % (",".join(bad) or "none"))


def test_acceptance_08_disorder_suite(capsys):
    with _Timer() as t:
        lam, bb, n = 0.125, 1.0, 6
        params = ModelParams.from_dimensionless(n, lam, bb)
        delta = 0.3 * params.beta_v / np.sqrt(n)
        config = disorder.DisorderStudyConfig(
            params=params, n_disorder=2000, seed=SEED, delta=delta)
        result = disorder.run_study(config, workers=2)
        c = disorder.second_moment_theory_bound(lam)
        ratio = result.second_moment_ratio
        pz, pz_floor = disorder.paley_zygmund_witness(params, 2000, SEED + 1,
                                                      workers=2)
        bound = disorder.concentration_bound(n, delta, params.beta_v)
        trend = disorder.order_parameter_trend(
            params, (3, 4, 5, 6, 7, 8), 800, SEED + 2, workers=2)
        trend_bad = sum(
            not trend[k + 1].value < trend[k].value
            + 3.0 * np.hypot(trend[k].std_err, trend[k + 1].std_err)
            for k in range(5)
        )
        point_monotone = all(
            trend[k + 1].value < trend[k].value for k in range(5))
        checks = {
            "ratio": ratio.value <= c + 3.0 * ratio.std_err,
            "pz": pz.value >= pz_floor - 3.0 * pz.std_err,
            "tail": result.tail_frequency.value
            <= bound + 3.0 * result.tail_frequency.std_err,
            "trend": trend_bad == 0,
        }
    ok = all(checks.values())
    _report(capsys, 8, ok, t, 900.0,
            "ratio=%.4f<=%.4f pz=%.3f>=%.3f trend_bad=%d point_monotone=%s"
            % (ratio.value, c, pz.value, pz_floor, trend_bad, point_monotone))


def test_acceptance_09_generalized_second_moment(capsys):
    with _Timer() as t:
        params = ModelParams.from_dimensionless(3, 0.1, 1.0)
        zs = []
        bad = 0
        for i, gamma in enumerate((0.0, 0.1)):
            est = disorder.generalized_second_moment(
                params, gamma, 20_000, SEED + i)
            zs.append((est.value - 1.0) / est.std_err)
            bad += not est.value <= 1.0 + 3.0 * est.std_err
    ok = bad == 0
    _report(capsys, 9, ok, t, 300.0,
            "violations=%d z_scores=%s" % (bad, ",".join("%.2f" % z for z in zs)))


@pytest.mark.filterwarnings("ignore::qsk.numerics.QuadratureConvergenceWarning")
def test_acceptance_10_region_csv(capsys, tmp_path):
    with _Timer() as t:
        out = tmp_path / "region.csv"
        rc = cli.main(["region", "--x-min", "0.2", "--x-max", "2.0",
                       "--x-count", "40", "--y-min", "0.0", "--y-max", "2.6",
                       "--y-count", "40", "--seed", str(SEED),
                       "--out", str(out)])
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if not ln.startswith("#")][1:]
        k_cache = {}
        mislabels = 0
        edge_bad = 0
        for x_s, y_s, lo_s, hi_s, label in rows:
            x, y = float(x_s), float(y_s)
            lo = float(lo_s)
            if x not in k_cache:
                k_cache[x] = annealed.k_of_lambda(1.0 / (4.0 * x * x))
            if x > 1.0:
                expect = "zero"
            elif k_cache[x] - float(logcosh(y / x)) > 0.0:
                expect = "positive"
            else:
                expect = "unresolved"
            mislabels += label != expect
            if y == 0.0 and x < 1.0:
                # zero-field edge: the gap is certified positive there
                edge_bad += not (label == "positive" and lo > 0.0)
    ok = rc == 0 and len(rows) == 1600 and mislabels == 0 and edge_bad == 0
    _report(capsys, 10, ok, t, 60.0,
            "rows=%d mislabels=%d edge_bad=%d" % (len(rows), mislabels, edge_bad))


def test_acceptance_11_verify_determinism(capsys, tmp_path):
    with _Timer() as t:
        outs = []
        for i, workers in enumerate((1, 4)):
            f = tmp_path / f"verify_{i}.txt"
            proc = subprocess.run(
                [sys.executable, "-m", "qsk.cli", "verify", "--seed", "777",
                 "--workers", str(workers), "--out", str(f)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(f.read_bytes())
        identical = outs[0] == outs[1]
        all_pass = b"overall failures=0" in outs[0]
    ok = identical and all_pass
    _report(capsys, 11, ok, t, 120.0,
            "byte_identical=%s all_checks_pass=%s" % (identical, all_pass))
