"""Command-line front end: ``qsk <subcommand>``.

Subcommands
-----------
constants    log sweep of the closed-form constants, with inequality verdicts (CSV)
exactdiag    diagonalize one disorder sample at small N: ln Z and spectrum (JSON)
annealed     path-MC estimate of F_N and beta f_N^ann with bound checks (JSON)
variational  fixed-point solve of the discretized variational problem (JSON)
static       log sweep of the static (constant-kernel) approximation J (CSV)
quenched     disorder study: quenched mean, moments, Poincare ratio (JSON)
region       phase-diagram scan of the quenched-annealed gap bounds (CSV)
verify       run the desk-scale verification suite; nonzero exit on failure

Each subcommand's options are declared once, in ``OPTIONS``: an option
``name`` is the flag ``--name-with-dashes``, the only way to set it.  The
model is given as ``--n-spins``, ``--lam`` = (beta v)^2/4 and ``--beta-b``
= beta b, in units with beta = 1, and a result's ``params`` block echoes
those three values as they were given.  Numerical controls with one
setting are module constants, not options: the largest N of the gap bound
inf_N G_N/N (``constants.N_MAX``) and the fixed point's tolerance and
iteration cap (``variational.FIXED_POINT_TOL``, ``FIXED_POINT_MAX_ITER``).
``variational`` refuses a lam outside 0 < 2 lam < 1, where its iteration is
no contraction.

Conventions: each subcommand writes its result once, as one document, to
``--out`` or stdout; only ``quenched --per-sample-out`` adds a second file,
the per-sample arrays that the document does not hold.  All outputs are
deterministic functions of (options, seed) — identical runs give
byte-identical files regardless of worker count; wall clock timings and
warnings (e.g. an unsettled quadrature) go to stderr only.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3
numerical-diagnostic abort: an effective sample size below the floor, in any
subcommand.  In qsk a ``ValueError`` means an argument lies outside its
domain, so ``main`` reports every ``ValueError``, from the options or from
the library, as ``qsk: error: <message>`` with exit code 2; a broken
invariant raises ``RuntimeError`` and ends the run with a traceback.
"""

import argparse
import json
import os
import sys
import time
import warnings

import numpy as np

from . import (__version__, annealed, checks, constants, disorder, hilbert, paths,
               variational)
from .constants import ModelParams
from .stats import EffectiveSampleSizeWarning
from .streams import WORKERS_ENV_VAR, worker_count

DEFAULT_SEED = 123456789


# -- option resolution -----------------------------------------------------


def _resolve(args):
    """The options of ``OPTIONS[args.command]`` as parsed; floats are finite."""
    out = {}
    for name, (conv, _) in OPTIONS[args.command].items():
        val = getattr(args, name)
        if conv is float and not np.isfinite(val):
            raise ValueError(f"option {name} = {val!r} is not a finite number")
        out[name] = val
    return out


#: subcommand -> option name -> (type, default).  Each option is the flag
#: ``--name-with-dashes``.
OPTIONS = {
    "constants": {
        "bb_min": (float, 1e-3),
        "bb_max": (float, 1e3),
        "bb_count": (int, 200),
        "n_spins": (int, 2),
        "lam": (float, 0.1),
    },
    "exactdiag": {
        "n_spins": (int, 4),
        "lam": (float, 0.1),
        "beta_b": (float, 1.0),
    },
    "annealed": {
        "n_spins": (int, 4),
        "lam": (float, 0.1),
        "beta_b": (float, 1.0),
        "ensembles": (int, 200_000),
    },
    "variational": {
        "lam": (float, 0.1),
        "beta_b": (float, 1.0),
        "m_cells": (int, 64),
        "ensembles": (int, 200_000),
    },
    "static": {
        "beta_b": (float, 1.0),
        "lam_min": (float, 0.01),
        "lam_max": (float, 1.0),
        "lam_count": (int, 25),
    },
    "quenched": {
        "n_spins": (int, 5),
        "lam": (float, 0.125),
        "beta_b": (float, 1.0),
        "n_disorder": (int, 2000),
        "per_sample_out": (str, None),
    },
    "region": {
        "x_min": (float, 0.05),
        "x_max": (float, 2.0),
        "x_count": (int, 100),
        "y_min": (float, 0.0),
        "y_max": (float, 2.65),
        "y_count": (int, 100),
    },
    "verify": {},
}


def _model_from(opts):
    return ModelParams(opts["n_spins"], opts["lam"], opts["beta_b"])


def _sweep(lo, hi, count):
    """``count`` points from ``lo`` to ``hi``, even on a log scale."""
    if count < 1:
        raise ValueError(f"a sweep needs at least one point, not {count!r}")
    if lo <= 0:
        raise ValueError(f"a log sweep needs a positive lower end, not {lo!r}")
    return np.geomspace(lo, hi, count)


def _column(values):
    """The cells of one column as text: PASS/FAIL for booleans, floats to 17
    significant digits, anything else by ``str``."""
    a = np.asarray(values)
    items = a.tolist()
    if a.dtype == bool:
        return ["PASS" if v else "FAIL" for v in items]
    if a.dtype.kind == "f":
        return [format(v, ".17g") for v in items]
    return [str(v) for v in items]


def _meta_lines(command, seed, opts):
    echo = " ".join(f"{k}={_column([v])[0]}" for k, v in sorted(opts.items()))
    return [
        f"# qsk {__version__}",
        f"# command: {command}",
        f"# seed: {seed}",
        f"# options: {echo}",
    ]


def _table(header, columns):
    """CSV lines: the header, then the rows of ``columns``, each an array that
    ``_column`` formats once or a list of cells already formatted."""
    cells = [c if isinstance(c, list) else _column(c) for c in columns]
    return [",".join(header)] + [",".join(row) for row in zip(*cells)]


def _csv_lines(args, opts, header, columns):
    return _meta_lines(args.command, args.seed, opts) + _table(header, columns)


def _json_lines(args, opts, payload):
    doc = {
        "meta": {
            "tool": "qsk",
            "version": __version__,
            "command": args.command,
            "seed": args.seed,
            "options": {k: opts[k] for k in sorted(opts)},
        },
        "result": payload,
    }
    return [json.dumps(doc, indent=2, sort_keys=True, default=float)]


def _write(path, lines):
    """Write ``lines`` to the file ``path``, or to stdout when ``path`` is empty."""
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands -----------------------------------------------------------


def cmd_constants(args, opts):
    sweep = _sweep(opts["bb_min"], opts["bb_max"], opts["bb_count"])
    chain_names = ["m_sq_positive", "m_sq_lt_p", "p_lt_m", "m_lt_one",
                   "m_lt_two_p", "two_p_lt_one_plus_p_m"]
    header = ["beta_b", "m", "p", "c0", "p_n", "g_n_over_n", "inf_g_n_over_n",
              "inf_argmin", "w_n"] + chain_names
    n, lam = opts["n_spins"], opts["lam"]
    checks = constants.moment_inequalities(sweep)
    columns = [sweep, constants.m_of(sweep), constants.p_of(sweep),
               constants.c0_of(sweep), constants.p_n_of(n, sweep),
               constants.g_n_of(n, lam, sweep) / n,
               *constants.inf_g_n_over_n(lam, sweep),
               constants.w_n_of(n, lam, sweep)] + [checks[k] for k in chain_names]
    _write(args.out, _csv_lines(args, opts, header, columns))


def cmd_exactdiag(args, opts):
    params = _model_from(opts)
    couplings = hilbert.draw_couplings(params.n_spins, 1, args.seed)[0]
    h = hilbert.build_hamiltonian(params, couplings)
    res = hilbert.spectrum(h)
    zz = hilbert.gibbs_zz(h)
    payload = {
        "params": params.to_dict(),
        "ln_z": res.ln_z,
        "beta_f_n": -res.ln_z / params.n_spins,
        "gibbs_zz_12": zz,
        "eigenvalues": res.eigenvalues.tolist(),
    }
    _write(args.out, _json_lines(args, opts, payload))


def cmd_annealed(args, opts):
    params = _model_from(opts)
    f_hat = annealed.estimate_f_n(params, opts["ensembles"], args.seed)
    bounds, verdicts = annealed.f_n_sandwich(params, f_hat, n_sigma=3)
    payload = {
        "params": params.to_dict(),
        "f_n_hat": f_hat.to_dict(),
        "beta_f_ann": annealed.annealed_free_energy(params, f_hat).to_dict(),
        "bounds": bounds,
        "verdicts": verdicts,
    }
    _write(args.out, _json_lines(args, opts, payload))


def cmd_variational(args, opts):
    lam, bb = opts["lam"], opts["beta_b"]
    ens = paths.sample_ensemble(bb, opts["ensembles"], args.seed)
    report = variational.fixed_point_solve(lam, opts["m_cells"], ens)
    minus_p_lam = -constants.p_of(bb) * lam
    j = variational.static_approximation(lam, bb)
    payload = {
        "report": report.to_dict(),
        "verdicts": variational.fixed_point_verdicts(report, n_sigma=3),
        "static": {
            "j_value": j,
            "minus_p_lam": minus_p_lam,
            "exceeds_minus_p_lam": bool(j > minus_p_lam),
            "strict_regime": bool(lam < variational.static_threshold(bb)),
        },
    }
    _write(args.out, _json_lines(args, opts, payload))


def cmd_static(args, opts):
    lams = _sweep(opts["lam_min"], opts["lam_max"], opts["lam_count"])
    bb = opts["beta_b"]
    minus_p_lam = -constants.p_of(bb) * lams
    j = np.array([variational.static_approximation(float(lam), bb) for lam in lams])
    header = ["lam", "j_value", "j_over_lam", "minus_p_lam",
              "exceeds_minus_p_lam", "below_threshold"]
    columns = [lams, j, j / lams, minus_p_lam,
               np.where(j > minus_p_lam, "yes", "no"),
               np.where(lams < variational.static_threshold(bb), "yes", "no")]
    _write(args.out, _csv_lines(args, opts, header, columns))


def cmd_quenched(args, opts):
    params = _model_from(opts)
    result = disorder.run_study(params, opts["n_disorder"], args.seed)
    theory = disorder.second_moment_theory_bound(params.lam)
    payload = {
        "params": params.to_dict(),
        "quenched_mean": result.quenched_mean.to_dict(),
        "second_moment_ratio": result.second_moment_ratio.to_dict(),
        "order_parameter": result.order_parameter.to_dict(),
        "poincare_ratio": result.poincare_ratio.to_dict(),
        "second_moment_theory_bound": theory,
        "verdicts": disorder.study_verdicts(result, 3, ratio_bound=theory),
    }
    if opts["per_sample_out"]:
        _write(opts["per_sample_out"],
               _meta_lines("quenched.per_sample", args.seed, opts)
               + _table(["index", "ln_z", "beta_f", "order_parameter"],
                        [np.arange(result.n_disorder), *result.per_sample]))
    _write(args.out, _json_lines(args, opts, payload))


def cmd_region(args, opts):
    xs = np.linspace(opts["x_min"], opts["x_max"], opts["x_count"])
    ys = np.linspace(opts["y_min"], opts["y_max"], opts["y_count"])
    lower, upper = annealed.region_scan(xs, ys)
    header = ["inv_beta_v", "b_over_v", "delta_lower", "delta_upper",
              "classification"]
    # row-major: x outer, y inner; each distinct x and y is formatted once
    x_cells, y_cells = _column(xs), _column(ys)
    columns = ([x for x in x_cells for _ in y_cells], y_cells * len(x_cells),
               lower.ravel(), upper.ravel(),
               annealed.region_labels(xs[:, None], lower).ravel())
    _write(args.out, _csv_lines(args, opts, header, columns))


# -- verify ----------------------------------------------------------------


def cmd_verify(args, opts):
    only = set(args.only or [])
    unknown = only - set(checks.CHECKS)
    if unknown:
        raise ValueError(f"unknown check(s): {', '.join(sorted(unknown))}")
    lines = _meta_lines("verify", args.seed, {"only": ",".join(sorted(only)) or "all"})
    failures = 0
    for name, fn in checks.CHECKS.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        ok, detail = fn(args.seed)
        dt = time.perf_counter() - t0
        print(f"[{name}] {dt:.2f}s", file=sys.stderr)
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
        failures += not ok
    lines.append(f"{'PASS' if failures == 0 else 'FAIL'} overall failures={failures}")
    _write(args.out, lines)
    if failures:
        return 1


# -- parser ----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsk",
        description="Weak-disorder laboratory for the transverse-field SK model",
    )
    parser.add_argument("--version", action="version", version=f"qsk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--workers", type=int, default=None,
                       help=f"worker threads (default: ${WORKERS_ENV_VAR} or 1)")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        for name, (conv, default) in options.items():
            p.add_argument("--" + name.replace("_", "-"), type=conv, default=default)
        p.set_defaults(fn=globals()["cmd_" + command])
    sub.choices["verify"].add_argument(
        "--only", action="append", help="run only the named check (repeatable)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ValueError(f"--seed {args.seed} is negative")
        opts = _resolve(args)
        # an output file in a missing directory fails before any computing
        for path in (args.out, opts.get("per_sample_out")):
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"the directory of output file {path} does not exist")
        # the ESS gate: a collapsed effective sample size aborts any subcommand
        with worker_count(args.workers), warnings.catch_warnings():
            warnings.simplefilter("error", EffectiveSampleSizeWarning)
            return args.fn(args, opts) or 0
    except ValueError as exc:
        print(f"qsk: error: {exc}", file=sys.stderr)
        return 2
    except EffectiveSampleSizeWarning as exc:
        print(f"qsk: numerical gate tripped: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
