"""End-to-end command-line behavior: outputs, option handling, exit codes."""

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsk
from qsk import cli, streams
from qsk.streams import BATCH_SIZE

from oracles import csv_cell


def _read_lines(path):
    return path.read_text().splitlines()


def _data_rows(lines):
    """Strip meta comments and the column header."""
    body = [ln for ln in lines if not ln.startswith("#")]
    return body[0].split(","), [ln.split(",") for ln in body[1:]]


# -- constants -------------------------------------------------------------


def test_constants_sweep(tmp_path):
    out = tmp_path / "constants.csv"
    rc = cli.main(["constants", "--bb-count", "7", "--bb-min", "0.1",
                   "--bb-max", "10", "--out", str(out)])
    assert rc == 0
    lines = _read_lines(out)
    assert lines[0].startswith("# qsk ")
    assert lines[1] == "# command: constants"
    assert lines[2] == f"# seed: {cli.DEFAULT_SEED}"
    header, rows = _data_rows(lines)
    assert header[:3] == ["beta_b", "m", "p"]
    assert len(rows) == 7
    for row in rows:
        assert float(row[1]) > 0.0
        # every inequality verdict holds across the sweep
        assert all(v == "PASS" for v in row[-6:])


#: options outside their domain, each with a fragment of its error message
#: (the --quad-nodes, --n-max, --tol and --max-iter cases went with those
#: options, which test_removed_flags_are_rejected refuses outright)
BAD_OPTIONS = [
    ("static --lam-min 0", "log sweep needs a positive lower end"),
    ("region --x-min 0", "inv_beta_v must be > 0"),
    ("variational --m-cells 0", "m_cells must be >= 1"),
    ("constants --bb-count 0", "a sweep needs at least one point, not 0"),
    ("constants --bb-count -1", "a sweep needs at least one point, not -1"),
    ("static --lam-count 0", "a sweep needs at least one point, not 0"),
    ("annealed --ensembles 1", "at least two path configurations"),
    ("annealed --n-spins 40", "N=40 too large"),
    ("quenched --n-disorder 5", "n_disorder must be >= 10"),
    ("quenched --lam 0 --n-disorder 20", "lam must be > 0: the Poincare ratio"),
    ("exactdiag --n-spins 13", "exact-diagonalization cap (12)"),
    ("exactdiag --lam -0.1", "lam must be finite and >= 0, not -0.1"),
    ("annealed --beta-b -0.5", "beta_b must be finite and >= 0, not -0.5"),
    # a float option must be finite, and the seed must not be negative
    ("static --beta-b nan", "option beta_b = nan is not a finite number"),
    ("constants --lam nan", "option lam = nan is not a finite number"),
    ("region --x-min nan", "option x_min = nan is not a finite number"),
    ("variational --beta-b nan", "option beta_b = nan is not a finite number"),
    ("static --lam-max inf", "option lam_max = inf is not a finite number"),
    ("annealed --lam nan", "option lam = nan is not a finite number"),
    ("verify --seed -1", "--seed -1 is negative"),
]


@pytest.mark.parametrize("command, message", BAD_OPTIONS)
def test_out_of_domain_option_is_a_usage_error(command, message, capsys):
    # a ValueError, from the handler or the library, is one line and exit 2
    assert cli.main(command.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("qsk: error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    "constants --quad-nodes 64",
    "annealed --quad-nodes 64",
    "variational --quad-nodes 64",
    "static --quad-nodes 64",
    "region --quad-nodes 64",
    "variational --with-static yes",
    "quenched --delta 0.25",
    "constants --n-max 32",
    "region --n-max 32",
    "variational --tol 1e-6",
    "variational --max-iter 5",
    "variational --allow-noncontractive",
    *(f"{name} --config x.ini" for name in cli.OPTIONS),
    "variational --psi-out psi.json",
    "exactdiag --dump-spectrum spectrum.txt",
    "region --advisory-out advisory.csv",
    "constants --bb-scale linear",
    "static --lam-scale linear",
])
def test_removed_flags_are_rejected(command, capsys):
    # every quadrature runs at numerics.QUAD_NODES, variational always
    # prints its static section, quenched has no tail frequency to count
    # past a delta, the gap bound runs to constants.N_MAX, the fixed point
    # stops at the constants of variational and refuses a lam with
    # 2 lam >= 1 itself, a flag is the only way to set an option, each
    # subcommand writes its result once (psi and the spectrum are in the
    # JSON, and region prints no advisory curve), and a sweep is always on
    # a log scale, so none of these flags is accepted any more
    with pytest.raises(SystemExit) as exc:
        cli.main(command.split())
    assert exc.value.code == 2
    assert "unrecognized arguments: " + command.split(maxsplit=1)[1] in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command", [
    "static --lam-count 1 --out {d}/x.csv",
    "quenched --per-sample-out {d}/per_sample.csv",
], ids=["out", "per-sample-out"])
def test_output_in_a_missing_directory_is_a_usage_error(command, tmp_path,
                                                        capsys, monkeypatch):
    # refused before the subcommand computes anything
    monkeypatch.setattr(cli, "cmd_" + command.split()[0],
                        lambda args, opts: pytest.fail("the subcommand ran"))
    missing = tmp_path / "missing"
    assert cli.main(command.format(d=missing).split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("qsk: error: ") and err.count("\n") == 1
    assert str(missing) in err and "Traceback" not in err
    assert not missing.exists()


def test_no_timestamps_in_output(tmp_path):
    out = tmp_path / "c.csv"
    cli.main(["constants", "--bb-count", "2", "--out", str(out)])
    text = out.read_text().lower()
    assert "time" not in text and "date" not in text


#: each subcommand at a tiny size, and the files besides --out it may write
TINY_RUNS = [
    ("constants --bb-count 2", []),
    ("exactdiag --n-spins 2", []),
    ("annealed --n-spins 2 --ensembles 200", []),
    ("variational --m-cells 2 --ensembles 200", []),
    ("static --lam-count 1", []),
    ("quenched --n-spins 2 --n-disorder 10", []),
    ("quenched --n-spins 2 --n-disorder 10 --per-sample-out per.csv", ["per.csv"]),
    ("region --x-count 2 --y-count 2", []),
    ("verify --only closed_forms", []),
]


@pytest.mark.parametrize("command, extra", TINY_RUNS,
                         ids=[command for command, _ in TINY_RUNS])
def test_out_run_writes_only_that_file(command, extra, tmp_path, monkeypatch,
                                       capsys):
    # each subcommand writes its result once, into --out; only
    # --per-sample-out adds the per-sample arrays that the result lacks
    monkeypatch.chdir(tmp_path)
    assert cli.main(command.split() + ["--out", "result.txt"]) == 0
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["result.txt"] + extra)


# -- the option table ------------------------------------------------------

_COMMON = {
    "seed": (("--seed",), 123456789, "store", "int"),
    "workers": (("--workers",), None, "store", "int"),
    "out": (("--out",), None, "store", "str"),
}

#: every subcommand's flags as they were declared one by one, before they
#: came from ``cli.OPTIONS``: dest -> (option strings, default, action,
#: conversion), where a flag that had no type converts with ``str``.  The
#: defaults are those of the table since a flag became the only way to set
#: an option; the ``--quad-nodes`` flags, ``--with-static``, ``--n-max``,
#: ``--tol``, ``--max-iter``, ``--allow-noncontractive``, ``--config``,
#: ``--psi-out``, ``--dump-spectrum``, ``--advisory-out``, ``--bb-scale``
#: and ``--lam-scale`` were removed; test_removed_flags_are_rejected keeps
#: them out.
RECORDED_FLAGS = {
    "constants": {
        **_COMMON,
        "bb_min": (("--bb-min",), 1e-3, "store", "float"),
        "bb_max": (("--bb-max",), 1e3, "store", "float"),
        "bb_count": (("--bb-count",), 200, "store", "int"),
        "n_spins": (("--n-spins",), 2, "store", "int"),
        "lam": (("--lam",), 0.1, "store", "float"),
    },
    "exactdiag": {
        **_COMMON,
        "n_spins": (("--n-spins",), 4, "store", "int"),
        "lam": (("--lam",), 0.1, "store", "float"),
        "beta_b": (("--beta-b",), 1.0, "store", "float"),
    },
    "annealed": {
        **_COMMON,
        "n_spins": (("--n-spins",), 4, "store", "int"),
        "lam": (("--lam",), 0.1, "store", "float"),
        "beta_b": (("--beta-b",), 1.0, "store", "float"),
        "ensembles": (("--ensembles",), 200_000, "store", "int"),
    },
    "variational": {
        **_COMMON,
        "lam": (("--lam",), 0.1, "store", "float"),
        "beta_b": (("--beta-b",), 1.0, "store", "float"),
        "m_cells": (("--m-cells",), 64, "store", "int"),
        "ensembles": (("--ensembles",), 200_000, "store", "int"),
    },
    "static": {
        **_COMMON,
        "beta_b": (("--beta-b",), 1.0, "store", "float"),
        "lam_min": (("--lam-min",), 0.01, "store", "float"),
        "lam_max": (("--lam-max",), 1.0, "store", "float"),
        "lam_count": (("--lam-count",), 25, "store", "int"),
    },
    "quenched": {
        **_COMMON,
        "n_spins": (("--n-spins",), 5, "store", "int"),
        "lam": (("--lam",), 0.125, "store", "float"),
        "beta_b": (("--beta-b",), 1.0, "store", "float"),
        "n_disorder": (("--n-disorder",), 2000, "store", "int"),
        "per_sample_out": (("--per-sample-out",), None, "store", "str"),
    },
    "region": {
        **_COMMON,
        "x_min": (("--x-min",), 0.05, "store", "float"),
        "x_max": (("--x-max",), 2.0, "store", "float"),
        "x_count": (("--x-count",), 100, "store", "int"),
        "y_min": (("--y-min",), 0.0, "store", "float"),
        "y_max": (("--y-max",), 2.65, "store", "float"),
        "y_count": (("--y-count",), 100, "store", "int"),
    },
    "verify": {
        **_COMMON,
        "only": (("--only",), None, "append", "str"),
    },
}

_ACTIONS = {argparse._StoreAction: "store", argparse._StoreTrueAction: "store_true",
            argparse._AppendAction: "append"}


def _flag_set(parser):
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {}
    for command, p in sub.choices.items():
        flags[command] = {}
        for a in p._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            action = _ACTIONS[type(a)]
            conv = None if action == "store_true" else (a.type or str).__name__
            flags[command][a.dest] = (tuple(a.option_strings), a.default, action, conv)
    return flags


def test_flags_derived_from_the_option_table_are_unchanged():
    assert _flag_set(cli.build_parser()) == RECORDED_FLAGS
    assert list(cli.OPTIONS) == list(RECORDED_FLAGS)


#: a value of each option type, as given on the command line (the boolean
#: type went with --with-static, its only option)
_VALUES = {int: "7", float: "0.25", str: "a"}


@pytest.mark.parametrize("command", list(cli.OPTIONS))
def test_each_option_is_a_flag(command, monkeypatch):
    # --name value reaches the handler as conv(value); no flag gives the
    # table's default
    seen = []

    def handler(args, opts):
        seen.append(opts)
        return 0

    monkeypatch.setattr(cli, "cmd_" + command, handler)
    options = cli.OPTIONS[command]
    flags = [arg for name, (conv, _) in options.items()
             for arg in ("--" + name.replace("_", "-"), _VALUES[conv])]
    assert cli.main([command]) == 0
    assert cli.main([command] + flags) == 0
    assert seen == [{name: default for name, (_, default) in options.items()},
                    {name: conv(_VALUES[conv]) for name, (conv, _) in options.items()}]


# -- the model parameters --------------------------------------------------


#: every model subcommand at lam values that (2 sqrt(lam))^2 / 4 does not
#: return exactly (0.12500000000000003, 0.15000000000000002,
#: 0.29999999999999993); quenched refuses lam = 0.3, outside its plain-mean
#: range 4 lam <= 0.6
MODEL_RUNS = [
    ("exactdiag", "0.125"), ("exactdiag", "0.15"), ("exactdiag", "0.3"),
    ("annealed --ensembles 4000", "0.125"), ("annealed --ensembles 4000", "0.15"),
    ("annealed --ensembles 4000", "0.3"),
    ("quenched --n-disorder 20", "0.125"), ("quenched --n-disorder 20", "0.15"),
]


@pytest.mark.parametrize("command, lam", MODEL_RUNS)
def test_params_block_is_the_model_given(command, lam, tmp_path):
    out = tmp_path / "run.json"
    assert cli.main(command.split() + ["--lam", lam, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    options, params = doc["meta"]["options"], doc["result"]["params"]
    assert params == {key: options[key] for key in ("n_spins", "lam", "beta_b")}
    assert params["lam"] == float(lam)


def test_tables_format_by_column_as_by_cell():
    # each column is formatted once; the bytes are those of a per-cell join
    rows = [
        [True, 3, 0.1, "zero", 1e-300],
        [np.bool_(False), np.int64(-7), 2.0 / 3.0, "positive", float("inf")],
        [np.True_, 0, -0.0, "unresolved", float("nan")],
        [False, np.int64(2**62), 1e22, "x,y", 3.0],
    ]
    header = ["a", "b", "c", "d", "e"]
    columns = [np.array(col) for col in zip(*rows)]
    expected = [",".join(header)] + [",".join(csv_cell(v) for v in row)
                                      for row in rows]
    assert cli._table(header, columns) == expected
    # a list of cells already formatted passes through
    columns[3] = [csv_cell(v) for v in columns[3]]
    assert cli._table(header, columns) == expected
    opts = {"x": 0.1, "n": 7, "path": "a b", "unset": None}
    echo = " ".join(f"{k}={csv_cell(v)}" for k, v in sorted(opts.items()))
    assert cli._meta_lines("c", 1, opts)[-1] == f"# options: {echo}"


# -- exactdiag -------------------------------------------------------------


def test_exactdiag_json(tmp_path):
    out = tmp_path / "diag.json"
    rc = cli.main(["exactdiag", "--n-spins", "3", "--lam", "0.15",
                   "--beta-b", "0.8", "--seed", "5", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["command"] == "exactdiag" and doc["meta"]["seed"] == 5
    res = doc["result"]
    assert res["params"]["n_spins"] == 3
    assert abs(3 * res["beta_f_n"] + res["ln_z"]) < 1e-10
    assert abs(res["gibbs_zz_12"]) <= 1.0
    evals = res["eigenvalues"]
    assert len(evals) == 8 and evals == sorted(evals)
    # ln Z is the log-sum-exp of the negated spectrum of beta H
    assert res["ln_z"] == pytest.approx(np.log(np.exp(-np.array(evals)).sum()),
                                        rel=1e-13)


# -- annealed --------------------------------------------------------------


def test_annealed_json_and_verdicts(tmp_path):
    out = tmp_path / "ann.json"
    rc = cli.main(["annealed", "--n-spins", "2", "--lam", "0.1",
                   "--ensembles", "4000", "--seed", "3", "--out", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())["result"]
    assert res["verdicts"]["lower_ok"] and res["verdicts"]["upper_ok"]
    assert res["bounds"]["lower_n_p_n_lam"] <= res["bounds"]["g_n"]
    assert res["f_n_hat"]["std_err"] > 0.0


def test_annealed_ess_gate(tmp_path, capsys):
    # heavy exponential tilting at large N collapses the weights
    rc = cli.main(["annealed", "--n-spins", "32", "--lam", "0.7",
                   "--ensembles", "1000", "--out", str(tmp_path / "x.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical gate tripped" in err
    assert not (tmp_path / "x.json").exists()  # aborts before writing


def test_variational_ess_gate(tmp_path, capsys):
    # 50 paths cannot reach the ESS floor of 100
    out = tmp_path / "x.json"
    rc = cli.main(["variational", "--ensembles", "50", "--m-cells", "4",
                   "--out", str(out)])
    assert rc == 3
    assert ("qsk: numerical gate tripped: lambda_functional: effective sample "
            "size 49.9 < 100") in capsys.readouterr().err
    assert not out.exists()

@pytest.mark.parametrize("command", [
    ["annealed", "--n-spins", "16"],
    ["variational", "--m-cells", "16"],
])
def test_path_mc_output_does_not_depend_on_workers(command, capsys):
    # the P_N groups (annealed) and the signed-length rows (variational)
    # span four chunks, which run in turn; variational now always adds its
    # deterministic static section
    args = command + ["--ensembles", str(3 * BATCH_SIZE + 50), "--seed", "8"]
    outputs = []
    for workers in ("1", "3"):
        assert cli.main(args + ["--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# -- variational -----------------------------------------------------------


def test_variational_noncontractive_guard(capsys):
    # fixed_point_solve refuses 2 lam >= 1 itself, one usage-error line that
    # names lam; no flag lets the iteration run outside its contraction range
    for lam in ("0.5", "0.7"):
        assert cli.main(["variational", "--lam", lam, "--ensembles", "2000"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"qsk: error: lam = {lam}: ")
        assert "0 < 2*lam < 1" in err


def test_variational_small_run(tmp_path):
    out = tmp_path / "var.json"
    rc = cli.main(["variational", "--lam", "0.1", "--m-cells", "4",
                   "--ensembles", "3000", "--seed", "6", "--out", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())["result"]
    # the static section can no longer be left out (--with-static is gone);
    # test_variational_with_static_section checks its values
    assert "static" in res
    v = res["verdicts"]
    assert v["converged"] and v["ratio_bound_ok"] and v["omega_bracket_ok"]
    # the kernel psi is in the result, an exactly symmetric 4 x 4 grid
    psi = np.array(res["report"]["psi"])
    assert psi.shape == (4, 4) and np.array_equal(psi, psi.T)


def test_variational_with_static_section(tmp_path):
    out = tmp_path / "var.json"
    rc = cli.main(["variational", "--lam", "0.02", "--m-cells", "4",
                   "--ensembles", "3000", "--out", str(out)])
    assert rc == 0
    static = json.loads(out.read_text())["result"]["static"]
    assert static["exceeds_minus_p_lam"] is True
    assert static["strict_regime"] is True
    assert static["j_value"] > static["minus_p_lam"]


# -- static ----------------------------------------------------------------


def test_static_sweep(tmp_path):
    out = tmp_path / "static.csv"
    rc = cli.main(["static", "--lam-count", "5", "--lam-min", "0.01",
                   "--lam-max", "0.5", "--out", str(out)])
    assert rc == 0
    header, rows = _data_rows(_read_lines(out))
    assert header == ["lam", "j_value", "j_over_lam", "minus_p_lam",
                      "exceeds_minus_p_lam", "below_threshold"]
    assert len(rows) == 5
    for row in rows:
        assert float(row[1]) < 0.0
        assert row[4] in ("yes", "no") and row[5] in ("yes", "no")
    # within the strict regime the static value must beat -p*lam
    for row in rows:
        if row[5] == "yes":
            assert row[4] == "yes"


@pytest.mark.parametrize("command", [
    ["static", "--lam-count", "2"],
    ["variational", "--ensembles", "2000", "--m-cells", "4"],
])
def test_zero_field_static_threshold(command, capsys):
    # the threshold is 0 at beta_b = 0, so no lam lies in the strict regime,
    # and J = -lam = -p lam exactly, so J never exceeds -p lam
    assert cli.main(command + ["--beta-b", "0"]) == 0
    out = capsys.readouterr().out
    if command[0] == "static":
        _, rows = _data_rows(out.splitlines())
        assert [r[5] for r in rows] == ["no", "no"]
        assert [r[4] for r in rows] == ["no", "no"]
    else:
        static = json.loads(out)["result"]["static"]
        assert static["strict_regime"] is False
        assert static["exceeds_minus_p_lam"] is False

# -- quenched --------------------------------------------------------------


def test_quenched_json_and_per_sample(tmp_path):
    out = tmp_path / "q.json"
    per = tmp_path / "per.csv"
    rc = cli.main(["quenched", "--n-spins", "4", "--lam", "0.1",
                   "--n-disorder", "100", "--seed", "12",
                   "--per-sample-out", str(per), "--out", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())["result"]
    assert res["verdicts"] == {"ratio_le_theory": True, "poincare_le_one": True}
    assert 0.0 < res["poincare_ratio"]["value"] < 1.0
    assert res["second_moment_theory_bound"] > 1.0
    header, rows = _data_rows(_read_lines(per))
    assert header == ["index", "ln_z", "beta_f", "order_parameter"]
    assert len(rows) == 100
    assert np.isfinite([float(r[1]) for r in rows]).all()


_SCIPY_FREE = """
import sys
import qsk.cli
assert "scipy" not in sys.modules, "import qsk.cli loaded scipy"
runs = [
    ["constants", "--bb-count", "3"],
    ["exactdiag", "--n-spins", "3"],
    ["annealed", "--n-spins", "3", "--ensembles", "2000"],
    ["variational", "--m-cells", "8", "--ensembles", "2000"],
    ["static", "--lam-count", "2"],
    ["quenched", "--n-spins", "6", "--n-disorder", "20"],
    ["region", "--x-count", "3", "--y-count", "3"],
    ["verify"],
]
assert sorted(r[0] for r in runs) == sorted(qsk.cli.OPTIONS)
for argv in runs:
    rc = qsk.cli.main(argv + ["--workers", "2", "--out", sys.argv[1]])
    assert rc == 0, argv
    assert "scipy" not in sys.modules, "qsk %s loaded scipy" % argv[0]
"""


def test_import_and_quenched_leave_scipy_unloaded(tmp_path):
    # quenched and every other subcommand, one after another in one process
    src = str(Path(qsk.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE, str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


def test_quenched_accepts_the_top_of_its_lam_range(capsys):
    # lam = 0.15 is 4 lam = 0.6 exactly, the edge of the plain-mean range
    assert cli.main(["quenched", "--lam", "0.15", "--n-disorder", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["params"]["lam"] == 0.15


def test_quenched_strong_disorder_usage_error(capsys):
    rc = cli.main(["quenched", "--n-spins", "4", "--lam", "0.2",
                   "--n-disorder", "50"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == ("qsk: error: 4*lam = 0.800 exceeds the plain-mean range of "
                   "disorder studies (0.60); use lam <= 0.15\n")
    assert "allow_strong" not in err


# -- region ----------------------------------------------------------------


def test_region_scan_writes_no_sidecar(tmp_path, capsys):
    out = tmp_path / "region.csv"
    rc = cli.main(["region", "--x-count", "4", "--x-min", "0.5",
                   "--x-max", "1.5", "--y-count", "3", "--y-max", "1.0",
                   "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    header, rows = _data_rows(_read_lines(out))
    assert len(rows) == 12
    assert {r[4] for r in rows} <= {"zero", "positive", "unresolved"}
    for r in rows:
        assert float(r[2]) <= float(r[3]) + 1e-15
    # no advisory curve beside the table
    assert [p.name for p in tmp_path.iterdir()] == ["region.csv"]


def test_region_stdout_is_one_table(capsys):
    rc = cli.main(["region", "--x-count", "2", "--y-count", "2",
                   "--x-min", "0.8", "--x-max", "1.2", "--y-max", "0.5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    # one meta block, one header and the 2 x 2 grid, with no advisory block
    assert [ln for ln in lines if ln.startswith("# qsk ")] == [lines[0]]
    assert lines[1] == "# command: region"
    header, rows = _data_rows(lines)
    assert header[0] == "inv_beta_v" and len(rows) == 4


# -- verify ----------------------------------------------------------------


def test_verify_unknown_check(capsys):
    rc = cli.main(["verify", "--only", "nonsense"])
    assert rc == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_subset_worker_invariant(tmp_path, capsys):
    # path_kernels samples 20k-path ensembles, five batches each, in turn
    args = ["verify", "--only", "closed_forms", "--only", "moment_chain",
            "--only", "path_kernels", "--seed", "99"]
    out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    assert cli.main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert cli.main(args + ["--workers", "3", "--out", str(out2)]) == 0
    capsys.readouterr()  # timings go to stderr only
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "PASS closed_forms" in text and "PASS moment_chain" in text
    assert "PASS path_kernels" in text
    assert "PASS overall failures=0" in text


def test_verify_passes_workers_to_the_checks(monkeypatch, capsys):
    # the checks take no worker count: every pool they start has the size
    # that main set for the run, and the setting ends with the run
    if streams._openblas_threads() is None:
        pytest.skip("numpy without its bundled OpenBLAS starts no pool")
    sizes = []

    class RecordingPool(streams.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(streams, "ThreadPoolExecutor", RecordingPool)
    assert cli.main(["verify", "--only", "disorder", "--workers", "3"]) == 0
    capsys.readouterr()
    assert sizes and set(sizes) == {3}
    assert streams._workers is None


@pytest.mark.parametrize("command", [
    ["annealed", "--n-spins", "8", "--ensembles", str(3 * BATCH_SIZE)],
    ["variational", "--m-cells", "8", "--ensembles", str(3 * BATCH_SIZE)],
    ["verify", "--only", "path_kernels"],
])
def test_path_kernels_start_no_pool(command, monkeypatch, capsys):
    # the sampler and the overlap and signed-length kernels run their
    # batches in turn, whatever the worker count: two threads ran these
    # memory-bound kernels no faster on two cores, so only the disorder
    # chunks go through the pool
    started = []

    class RecordingPool(streams.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(streams, "ThreadPoolExecutor", RecordingPool)
    assert cli.main(command + ["--workers", "2"]) == 0
    capsys.readouterr()
    assert started == []


def test_verify_keeps_quadrature_warnings_on_stderr(tmp_path):
    # the ESS gate in main turns only its own warning into an error; the
    # unsettled k_of_lambda quadratures of the region check still print
    src = str(Path(qsk.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "qsk.cli", "verify", "--only", "region",
         "--seed", "777", "--out", str(tmp_path / "v.txt")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert "QuadratureConvergenceWarning: k_of_lambda did not settle" in proc.stderr
    assert "PASS region" in (tmp_path / "v.txt").read_text()


def _is_open(func):
    return (isinstance(func, ast.Name) and func.id == "open"
            or isinstance(func, ast.Attribute) and func.attr == "open")


def test_cli_opens_files_only_in_the_writer():
    # one error route and one writer: cli has no exception class of its
    # own, and every output file of the package goes through cli._write
    openers = []
    for path in sorted(Path(qsk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        openers += [(path.stem, getattr(top, "name", None)) for top in tree.body
                    for node in ast.walk(top)
                    if isinstance(node, ast.Call) and _is_open(node.func)]
    assert openers == [("cli", "_write")]
    tree = ast.parse(Path(cli.__file__).read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]

@pytest.mark.parametrize("flag, env", [(["--workers", "0"], None),
                                       (["--workers", "-2"], None),
                                       ([], "junk"), ([], "0")])
def test_bad_worker_count_is_a_usage_error(flag, env, monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv(streams.WORKERS_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(streams.WORKERS_ENV_VAR, env)
    assert cli.main(["static", "--lam-count", "1"] + flag) == 2
    err = capsys.readouterr().err
    bad = flag[1] if flag else repr(env)
    assert err.startswith("qsk: error: worker count ") and bad in err


def test_empty_worker_env_means_unset(monkeypatch, capsys):
    monkeypatch.setenv(streams.WORKERS_ENV_VAR, "")
    assert cli.main(["static", "--lam-count", "1"]) == 0
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("qsk ")
