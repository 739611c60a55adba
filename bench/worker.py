"""One benchmark measurement in a fresh process: ``python3 bench/worker.py``.

Runs a workload's list of ``qsk`` CLI operations in-process through
``qsk.cli.main(argv)``, one operation at a time (a single closed-loop
client), checks every output and prints one JSON line.  ``bench/run.py``
starts this script; the test in ``bench/tests`` imports it.

Every run starts with one untimed warm-up pass over the same operations at
small sizes (see ``operations``).  Untraced (``--trace 0``): timed passes
until they add up to ``--seconds`` (at least one); reports the median pass
wall and CPU time and the process's peak RSS.  Traced (``--trace 1``): an
untraced pass at ``--workers 2``, the same pass at ``--workers 1`` and a
traced pass at ``--workers 2``; reports the per-layer metrics.  The first
full pass is the one whose outputs are checked; every later pass must
repeat it byte for byte.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
PLAN = json.loads((BENCH_DIR / "plan.json").read_text())
WORKLOADS = [w["name"] for w in PLAN["workloads"]]

#: passed explicitly by every operation: the core count of the 2-core
#: machine the plan was measured on (each result records the machine)
WORKERS = 2
MODEL = ["--lam", "0.125", "--beta-b", "1"]


def operations(workload, seed, workers=WORKERS, warmup=False):
    """The workload's CLI argument lists; the seed fixes every input.

    ``warmup`` gives the same operations at small sizes: enough to start the
    BLAS threads, load scipy's lazy modules and fill the quadrature-node and
    spin-table caches, which is all a first call pays beyond a later one.
    """
    common = ["--seed", str(seed), "--workers", str(workers)]
    if workload == "bounds_scan":
        ops = [["region"], ["constants"], ["static"]]
        if warmup:
            ops = [ops[0] + ["--x-count", "2", "--y-count", "2"],
                   ops[1] + ["--bb-count", "2"], ops[2] + ["--lam-count", "1"]]
    elif workload == "disorder_ed":
        sizes = ((6, 2000), (8, 400), (10, 24))
        ops = [["quenched", "--n-spins", str(n), *MODEL,
                "--n-disorder", str(10 if warmup else k)] for n, k in sizes]
    elif workload == "path_mc":
        sizes = ((2, 200_000), (8, 100_000), (16, 30_000))
        ops = [["annealed", "--n-spins", str(n),
                "--ensembles", str(500 if warmup else k)] for n, k in sizes]
        ops.append(["variational"] + (["--ensembles", "2000"] if warmup else []))
    elif workload == "desk_verify":
        return [["verify", "--seed", str(3 * seed + k), "--workers", str(workers)]
                for k in range(1 if warmup else 3)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [op + common for op in ops]


def import_qsk():
    """Import qsk.cli from this checkout's ``src`` (never an installed copy)."""
    if not (SRC_DIR / "qsk" / "cli.py").is_file():
        raise SystemExit(f"bench: no qsk sources under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import qsk.cli

    if Path(qsk.cli.__file__).resolve().parent != SRC_DIR / "qsk":
        raise SystemExit(f"bench: imported qsk from {qsk.cli.__file__}")
    return qsk.cli


# -- running ------------------------------------------------------------------


def run_op(cli, argv):
    """(exit code, stdout, stderr) of one CLI call; a raised exception is code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue()


def run_pass(cli, ops):
    """Run every operation once; returns (results, wall seconds, CPU seconds)."""
    t0, c0 = time.perf_counter(), time.process_time()
    results = [run_op(cli, argv) for argv in ops]
    return results, time.perf_counter() - t0, time.process_time() - c0


# -- output checks --------------------------------------------------------------


def _data_lines(text):
    """CSV lines of the first table in ``text``: header first, no comments."""
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    stop = next((i for i in range(start, len(lines)) if lines[i].startswith("#")),
                len(lines))
    return [ln.split(",") for ln in lines[start:stop]]


def _check_verdicts(doc):
    """Boolean verdicts that read false (``non_contractive``: that read true)."""
    bad = []
    for key, val in doc["result"].get("verdicts", {}).items():
        expected = key != "non_contractive"
        if isinstance(val, bool) and val is not expected:
            bad.append(f"{key}={val}")
    return bad


def _check_annealed_two_spin(doc):
    from qsk.hilbert import f2_annealed_exact

    opts, est = doc["meta"]["options"], doc["result"]["beta_f_ann"]
    exact = f2_annealed_exact(opts["lam"], opts["beta_b"])
    dev = abs(est["value"] - exact)
    if dev > 3.5 * est["std_err"]:
        return [f"beta_f_ann {est['value']!r} vs exact {exact!r}: "
                f"{dev / est['std_err']:.2f} standard errors"]
    return []


def _check_region(text):
    """Classification rule recomputed on every 9th column x every 7th row."""
    from qsk.annealed import k_of_lambda
    from qsk.numerics import logcosh

    header, *rows = _data_lines(text)
    rows = [(float(r[0]), float(r[1]), r[4]) for r in rows]
    xs = sorted({x for x, _, _ in rows})
    ys = sorted({y for _, y, _ in rows})
    keep_x, keep_y = set(xs[::9]), set(ys[::7])
    k_by_x = {}
    bad = []
    for x, y, label in rows:
        if x not in keep_x or y not in keep_y:
            continue
        if x > 1.0:
            expect = "zero"
        else:
            if x not in k_by_x:
                k_by_x[x] = k_of_lambda(1.0 / (4.0 * x * x))
            expect = ("positive" if k_by_x[x] > float(logcosh(y / x))
                      else "unresolved")
        if label != expect:
            bad.append(f"({x!r}, {y!r}) is {label}, rule says {expect}")
    if len(rows) != len(xs) * len(ys):
        bad.append(f"grid of {len(rows)} rows is not {len(xs)}x{len(ys)}")
    return bad


def check_output(argv, result):
    """Failed checks of one operation's output, as two lists of reasons.

    The first list holds failures no seed can excuse: an unexpected exit
    code, a classification that breaks the region rule, a moment inequality
    that fails.  The second holds failed n-sigma comparisons (JSON verdicts,
    the N=2 exact value, FAIL lines of ``qsk verify``), which a correct
    program fails for a small share of seeds.
    """
    rc, out, err = result
    command = argv[0]
    verify_fails = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    if rc == 1 and command == "verify" and verify_fails:
        return [], verify_fails
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[-300:]}"], []
    if command in ("annealed", "variational", "quenched"):
        doc = json.loads(out)
        chance = _check_verdicts(doc)
        if command == "annealed" and doc["result"]["params"]["n_spins"] == 2:
            chance += _check_annealed_two_spin(doc)
        return [], chance
    if command == "region":
        return _check_region(out), []
    if command == "constants":
        header, *rows = _data_lines(out)
        return [f"beta_b={r[0]} {h}=FAIL" for r in rows
                for h, v in zip(header, r) if v == "FAIL"], []
    if command == "static":
        return ([] if len(_data_lines(out)) > 1 else ["no rows"]), []
    if command == "verify":
        return [], []
    raise ValueError(f"no output check for {command!r}")


def _checked(argv, result):
    try:
        return check_output(argv, result)
    except (ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"malformed output ({type(exc).__name__}: {exc})"], []


class Ledger:
    """Counts attempted and failed operations against the checked first pass.

    ``failed`` counts every operation that failed a check; ``wrong`` only
    those that failed a check no seed can excuse (see ``check_output``).
    """

    def __init__(self, ops, results):
        self.ops = ops
        self.reference = [r[:2] for r in results]
        self.checks = [_checked(argv, r) for argv, r in zip(ops, results)]
        self.attempted = len(ops)
        self.failed = sum(bool(w or c) for w, c in self.checks)
        self.wrong = sum(bool(w) for w, _ in self.checks)
        self.failures = []
        for argv, (wrong, chance) in zip(ops, self.checks):
            if wrong:
                self.failures.append(f"{' '.join(argv)}: {'; '.join(wrong)}")
            if chance:
                self.failures.append(
                    f"{' '.join(argv)}: n-sigma check: {'; '.join(chance)}")

    def add(self, results, label):
        """Account a later pass; its outputs must repeat the checked ones."""
        for argv, ref, (wrong, chance), r in zip(self.ops, self.reference,
                                                  self.checks, results):
            self.attempted += 1
            differs = r[:2] != ref
            if differs:
                self.failures.append(f"{' '.join(argv)}: output differs {label}")
            self.failed += bool(wrong or chance or differs)
            self.wrong += bool(wrong or differs)


# -- measuring ------------------------------------------------------------------


def machine_record():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "QSK_WORKERS")},
    }


def _warm_up(cli, workload, seed):
    for argv in operations(workload, seed, warmup=True):
        run_op(cli, argv)


def measure(workload, seed, seconds):
    """Warm-up, then timed passes for ``seconds``; end-to-end metrics."""
    cli = import_qsk()
    _warm_up(cli, workload, seed)
    ops = operations(workload, seed)
    results, wall, cpu = run_pass(cli, ops)
    ledger = Ledger(ops, results)
    walls, cpus = [wall], [cpu]
    while sum(walls) < seconds:
        results, wall, cpu = run_pass(cli, ops)
        ledger.add(results, "in a later timed pass")
        walls.append(wall)
        cpus.append(cpu)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return ledger, metrics


def measure_traced(workload, seed):
    """Warm-up, untraced and ``--workers 1`` passes, then one traced pass."""
    from tracing import Tracer, layer_metrics

    cli = import_qsk()
    _warm_up(cli, workload, seed)
    ops = operations(workload, seed)
    results, wall, _ = run_pass(cli, ops)
    ledger = Ledger(ops, results)
    results, wall_serial, _ = run_pass(cli, operations(workload, seed, workers=1))
    ledger.add(results, "at --workers 1")
    with Tracer() as tracer:
        results, wall_traced, _ = run_pass(cli, ops)
    ledger.add(results, "with tracing on")
    own = {"streams.parallel_speedup": wall_serial / wall,
           "trace.overhead_s": wall_traced - wall}
    names = [m["name"] for m in PLAN["per_layer"] if m["name"] not in own]
    return ledger, {**layer_metrics(tracer.spans, names), **own}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.trace:
        ledger, metrics = measure_traced(args.workload, args.seed)
    else:
        ledger, metrics = measure(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "wrong": ledger.wrong,
        "failures": ledger.failures,
        "metrics": metrics,
        "machine": machine_record(),
    }))


if __name__ == "__main__":
    main()
