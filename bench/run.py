"""qsk benchmark: ``python3 bench/run.py [--workload NAME|all] [--seed N]
[--seconds S] [--trace 0|1]``, run from the repository root.

For each workload it measures ``setup_s`` (median over fresh interpreters of
the time from launch until ``import qsk.cli`` is done), then starts one fresh
process (``bench/worker.py``) that runs only this workload and reports the
other metrics.  It prints the machine record, one line per metric with its
unit, ``fail_ratio`` (failed / attempted operations), every failed output
check, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts operations
that failed any check; ``correct`` is false only when one failed a check no
seed can excuse, not just an n-sigma comparison (see
``worker.check_output``).  With ``--trace 0`` the metrics are the end-to-end
ones, with ``--trace 1`` the per-layer ones; ``bench/plan.json`` records
which end-to-end metric each should move, and on which workload.  Traced
runs make single passes and ignore ``--seconds``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

from worker import BENCH_DIR, PLAN, SRC_DIR, WORKLOADS

ROOT = BENCH_DIR.parent
UNITS = {m["name"]: m["unit"] for m in PLAN["end_to_end"] + PLAN["per_layer"]}

SETUP_SAMPLES = 5
#: a hung worker is killed inside the 180 s a run may take
CHILD_TIMEOUT_S = 170

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import qsk.cli\n"
    "print(repr(time.perf_counter()))\n"
)


def setup_seconds():
    """Median time from launching a fresh interpreter until qsk.cli is imported.

    ``time.perf_counter`` is the system-wide monotonic clock on Linux, so the
    child's reading after the import is comparable with the parent's before
    the launch.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC_DIR)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        samples.append(float(done.stdout) - t0)
    return statistics.median(samples)


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns the worker's record with its metrics."""
    setup = None if trace else setup_seconds()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench: worker for {workload} exited with {done.returncode}")
    record = json.loads(done.stdout.splitlines()[-1])
    if not trace:
        record["metrics"] = {"setup_s": setup, **record["metrics"]}
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "qsk" / "cli.py").is_file():
        raise SystemExit(f"bench: no qsk sources under {SRC_DIR}")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = wrong = 0
    metrics = {}
    for workload in workloads:
        record = run_workload(workload, args.seed, args.seconds, args.trace)
        if workload == workloads[0]:
            print("machine " + json.dumps(record["machine"], sort_keys=True))
        attempted += record["attempted"]
        failed += record["failed"]
        wrong += record["wrong"]
        print(f"{workload} fail_ratio {record['failed'] / record['attempted']:.6g}"
              f" ratio ({record['failed']}/{record['attempted']} operations)")
        for reason in record["failures"]:
            print(f"{workload} FAILED {reason}")
        for name, value in record["metrics"].items():
            print(f"{workload} {name} {value:.6g} {UNITS[name]}")
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": UNITS[name]}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
