"""Acceptance suite: every check of ``qsk.checks.CHECKS`` at full scale.

``qsk verify`` runs the same checks at their desk-scale defaults with
n_sigma = 3.5.  Here each runs at the sizes of ``FULL_SCALE`` with
n_sigma = 3.0, prints a single PASS/FAIL line (bypassing capture) with its
runtime, then asserts the verdict and the runtime budget.  One test
function per check is generated from the table under a stable name.
"""

import inspect
import time

from qsk import checks, cli
from qsk.streams import worker_count

SEED = 123456789
N_SIGMA = 3.0
WORKERS = 2

#: check -> (acceptance test name, full-scale sizes, runtime budget in s)
FULL_SCALE = {
    "closed_forms": ("closed_form_identities", {}, 1.0),
    "moment_chain": ("inequality_chain_and_corridor", dict(
        lams=(0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0),
        beta_bs=(1e-3, 0.03, 0.3, 1.0, 3.0, 30.0, 1e3)), 5.0),
    "two_spin": ("two_spin_exactness", dict(
        spectra=1000, ensembles=200_000,
        points=((0.1, 0.5), (0.15, 0.8), (0.2, 1.0), (0.05, 1.5), (0.225, 2.0))),
        120.0),
    "path_kernels": ("path_kernel_consistency", dict(
        mu_points=20, mu_paths=40_000, laplace_cases=5, laplace_paths=100_000,
        p_n_spins=(2, 4, 8), p_n_ensembles=50_000), 120.0),
    "f_bounds": ("free_energy_sandwich", dict(
        lams=(0.05, 0.125, 0.225), beta_bs=(0.5, 1.0, 2.0), spins=(2, 3, 4, 6),
        ensembles=30_000), 300.0),
    "fixed_point": ("fixed_point_solver", dict(
        points=((0.1, 1.0), (0.05, 0.5), (0.2, 2.0)), m_cells=64,
        n_paths=200_000), 600.0),
    "static": ("static_approximation_limits", {}, 30.0),
    "disorder": ("disorder_suite", dict(
        n_spins=6, samples=2000, trend_spins=(3, 4, 5, 6, 7, 8),
        trend_samples=800), 900.0),
    "second_moment": ("generalized_second_moment", dict(n_paths=20_000), 300.0),
    "region": ("region_csv", dict(x_count=40, y_count=40), 60.0),
}


def _run_full_scale(name, workers=WORKERS):
    fn = checks.CHECKS[name]
    kwargs = dict(FULL_SCALE[name][1])
    if "n_sigma" in inspect.signature(fn).parameters:
        kwargs["n_sigma"] = N_SIGMA
    with worker_count(workers):
        return fn(SEED, **kwargs)


def _report(capsys, num, ok, elapsed, budget, detail):
    with capsys.disabled():
        print(
            "[acceptance %02d] %s (%.1fs / budget %.0fs) %s"
            % (num, "PASS" if ok else "FAIL", elapsed, budget, detail),
            flush=True,
        )
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s over budget"


def _acceptance_test(num, name):
    def test(capsys):
        t0 = time.perf_counter()
        ok, detail = _run_full_scale(name)
        _report(capsys, num, ok, time.perf_counter() - t0, FULL_SCALE[name][2],
                detail)

    return test


for _num, (_name, (_title, _, _)) in enumerate(FULL_SCALE.items(), 1):
    globals()[f"test_acceptance_{_num:02d}_{_title}"] = _acceptance_test(_num, _name)


def test_acceptance_11_verify_determinism(capsys, tmp_path):
    # The full-scale disorder study (N = 6, flip-parity blocks of 32) runs in
    # chunks on the pool, so it exercises the worker count for real.
    t0 = time.perf_counter()
    outs, studies = [], []
    for workers in (1, 2):
        f = tmp_path / f"verify_{workers}.txt"
        assert cli.main(["verify", "--seed", "777", "--workers", str(workers),
                         "--out", str(f)]) == 0
        outs.append(f.read_bytes())
        studies.append(_run_full_scale("disorder", workers))
    verify_same = outs[0] == outs[1]
    disorder_same = studies[0] == studies[1]
    all_pass = b"overall failures=0" in outs[0]
    _report(capsys, 11, verify_same and disorder_same and all_pass,
            time.perf_counter() - t0, 120.0,
            "verify_identical=%s disorder_identical=%s all_checks_pass=%s"
            % (verify_same, disorder_same, all_pass))


def test_registry_table_and_verify_name_the_same_checks(monkeypatch, capsys):
    assert list(FULL_SCALE) == list(checks.CHECKS)
    for name, (_, sizes, budget) in FULL_SCALE.items():
        inspect.signature(checks.CHECKS[name]).bind(SEED, **sizes)
        assert budget > 0
    for name in checks.CHECKS:
        monkeypatch.setitem(checks.CHECKS, name, lambda seed: (True, "-"))
    assert cli.main(["verify"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if not ln.startswith("#")]
    assert [ln.split()[1] for ln in lines[:-1]] == list(checks.CHECKS)

