"""End-to-end command-line behavior: outputs, config handling, exit codes."""

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


def test_constants_empty_sweep_keeps_header(tmp_path, capsys):
    rc = cli.main(["constants", "--bb-count", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    header, rows = _data_rows(lines)
    assert header[0] == "beta_b" and rows == []


def test_constants_bad_scale_usage_error(capsys):
    rc = cli.main(["constants", "--bb-scale", "cubic"])
    assert rc == 2
    assert "qsk: error:" in capsys.readouterr().err


#: options outside their domain, each with a fragment of its error message
BAD_OPTIONS = [
    ("static --lam-min 0", "log sweep needs a positive lower end"),
    ("static --lam-scale linear --lam-min 0", "lam must be positive"),
    ("static --quad-nodes 0", "at least one node"),
    ("region --x-min 0", "inv_beta_v must be > 0"),
    ("constants --n-max 1", "n_max must be >= 2"),
    ("constants --quad-nodes 5", "quad_nodes must be >= 20"),
    ("variational --m-cells 0", "m_cells must be >= 1"),
    ("variational --tol 0", "tol must be positive"),
    ("annealed --ensembles 1", "at least two path configurations"),
    ("annealed --n-spins 40", "N=40 too large"),
    ("quenched --n-disorder 5", "n_disorder must be >= 10"),
    ("exactdiag --n-spins 13", "exact-diagonalization cap (12)"),
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
    "static --lam-count 1 --out {d}/x.csv",
    "exactdiag --dump-spectrum {d}/spectrum.txt",
    "variational --psi-out {d}/psi.json",
    "quenched --per-sample-out {d}/per_sample.csv",
    "region --advisory-out {d}/advisory.csv",
], ids=["out", "dump-spectrum", "psi-out", "per-sample-out", "advisory-out"])
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


# -- config files ----------------------------------------------------------


def test_config_sections_and_flag_precedence(tmp_path):
    cfg = tmp_path / "qsk.ini"
    cfg.write_text(
        "[constants]\nbb_count = 3\nbb_min = 0.5\nbb_max = 2.0\n"
        "[model]\nlam = 0.2\n"
    )
    out1 = tmp_path / "a.csv"
    assert cli.main(["constants", "--config", str(cfg), "--out", str(out1)]) == 0
    _, rows = _data_rows(_read_lines(out1))
    assert len(rows) == 3
    assert "lam=0.20000000000000001" in _read_lines(out1)[3]
    out2 = tmp_path / "b.csv"
    assert cli.main(["constants", "--config", str(cfg), "--bb-count", "5",
                     "--out", str(out2)]) == 0
    _, rows2 = _data_rows(_read_lines(out2))
    assert len(rows2) == 5  # explicit flag beats the config value


def test_config_bad_value(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[constants]\nbb_count = banana\n")
    rc = cli.main(["constants", "--config", str(cfg)])
    assert rc == 2
    assert "banana" in capsys.readouterr().err


def test_config_missing_file(tmp_path, capsys):
    # verify reads --config like every other subcommand
    for command in (["constants"], ["verify", "--only", "closed_forms"]):
        rc = cli.main(command + ["--config", str(tmp_path / "nope.ini")])
        assert rc == 2
        assert "cannot read config file" in capsys.readouterr().err


# -- the option table ------------------------------------------------------

_COMMON = {
    "seed": (("--seed",), 123456789, "store", "int"),
    "workers": (("--workers",), None, "store", "int"),
    "out": (("--out",), None, "store", "str"),
    "config": (("--config",), None, "store", "str"),
}

#: every subcommand's flags as they were declared one by one, before they
#: came from ``cli.OPTIONS``: dest -> (option strings, default, action,
#: conversion), where a flag that had no type converts with ``str``
RECORDED_FLAGS = {
    "constants": {
        **_COMMON,
        "bb_min": (("--bb-min",), None, "store", "float"),
        "bb_max": (("--bb-max",), None, "store", "float"),
        "bb_count": (("--bb-count",), None, "store", "int"),
        "bb_scale": (("--bb-scale",), None, "store", "str"),
        "n_spins": (("--n-spins",), None, "store", "int"),
        "lam": (("--lam",), None, "store", "float"),
        "n_max": (("--n-max",), None, "store", "int"),
        "quad_nodes": (("--quad-nodes",), None, "store", "int"),
    },
    "exactdiag": {
        **_COMMON,
        "n_spins": (("--n-spins",), None, "store", "int"),
        "lam": (("--lam",), None, "store", "float"),
        "beta_b": (("--beta-b",), None, "store", "float"),
        "dump_spectrum": (("--dump-spectrum",), None, "store", "str"),
    },
    "annealed": {
        **_COMMON,
        "n_spins": (("--n-spins",), None, "store", "int"),
        "lam": (("--lam",), None, "store", "float"),
        "beta_b": (("--beta-b",), None, "store", "float"),
        "ensembles": (("--ensembles",), None, "store", "int"),
        "quad_nodes": (("--quad-nodes",), None, "store", "int"),
    },
    "variational": {
        **_COMMON,
        "lam": (("--lam",), None, "store", "float"),
        "beta_b": (("--beta-b",), None, "store", "float"),
        "m_cells": (("--m-cells",), None, "store", "int"),
        "ensembles": (("--ensembles",), None, "store", "int"),
        "tol": (("--tol",), None, "store", "float"),
        "max_iter": (("--max-iter",), None, "store", "int"),
        "quad_nodes": (("--quad-nodes",), None, "store", "int"),
        "with_static": (("--with-static",), None, "store", "_bool_opt"),
        "allow_noncontractive": (("--allow-noncontractive",), False,
                                 "store_true", None),
        "psi_out": (("--psi-out",), None, "store", "str"),
    },
    "static": {
        **_COMMON,
        "beta_b": (("--beta-b",), None, "store", "float"),
        "lam_min": (("--lam-min",), None, "store", "float"),
        "lam_max": (("--lam-max",), None, "store", "float"),
        "lam_count": (("--lam-count",), None, "store", "int"),
        "lam_scale": (("--lam-scale",), None, "store", "str"),
        "quad_nodes": (("--quad-nodes",), None, "store", "int"),
    },
    "quenched": {
        **_COMMON,
        "n_spins": (("--n-spins",), None, "store", "int"),
        "lam": (("--lam",), None, "store", "float"),
        "beta_b": (("--beta-b",), None, "store", "float"),
        "n_disorder": (("--n-disorder",), None, "store", "int"),
        "delta": (("--delta",), None, "store", "float"),
        "per_sample_out": (("--per-sample-out",), None, "store", "str"),
    },
    "region": {
        **_COMMON,
        "x_min": (("--x-min",), None, "store", "float"),
        "x_max": (("--x-max",), None, "store", "float"),
        "x_count": (("--x-count",), None, "store", "int"),
        "y_min": (("--y-min",), None, "store", "float"),
        "y_max": (("--y-max",), None, "store", "float"),
        "y_count": (("--y-count",), None, "store", "int"),
        "n_max": (("--n-max",), None, "store", "int"),
        "quad_nodes": (("--quad-nodes",), None, "store", "int"),
        "advisory_out": (("--advisory-out",), None, "store", "str"),
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


#: two config values each option type accepts
_VALUES = {int: ("7", "8"), float: ("0.25", "0.5"), str: ("a", "b"),
           cli._bool_opt: ("no", "yes")}


@pytest.mark.parametrize("command", list(cli.OPTIONS))
def test_each_option_is_a_config_key(command, tmp_path, monkeypatch):
    # [command] overrides [model], which overrides the table's default
    seen = []

    def handler(args, opts):
        seen.append(opts)
        return 0

    monkeypatch.setattr(cli, "cmd_" + command, handler)
    options = cli.OPTIONS[command]
    keys = ["".join(f"{name} = {_VALUES[conv][k]}\n"
                    for name, (conv, _) in options.items()) for k in (0, 1)]
    cfg = tmp_path / "qsk.ini"
    assert cli.main([command]) == 0
    cfg.write_text("[model]\n" + keys[0])
    assert cli.main([command, "--config", str(cfg)]) == 0
    cfg.write_text(f"[model]\n{keys[0]}[{command}]\n{keys[1]}")
    assert cli.main([command, "--config", str(cfg)]) == 0
    assert seen == [{name: default for name, (_, default) in options.items()}] + [
        {name: conv(_VALUES[conv][k]) for name, (conv, _) in options.items()}
        for k in (0, 1)]

# -- exactdiag -------------------------------------------------------------


def test_exactdiag_json(tmp_path):
    out = tmp_path / "diag.json"
    spec = tmp_path / "spectrum.txt"
    rc = cli.main(["exactdiag", "--n-spins", "3", "--lam", "0.15",
                   "--beta-b", "0.8", "--seed", "5", "--out", str(out),
                   "--dump-spectrum", str(spec)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["command"] == "exactdiag" and doc["meta"]["seed"] == 5
    res = doc["result"]
    assert res["params"]["n_spins"] == 3
    assert res["trace_abs"] < 1e-10
    assert abs(3 * res["beta_f_n"] + res["ln_z"]) < 1e-10
    assert res["ground_energy"] <= res["max_energy"]
    assert abs(res["gibbs_zz_12"]) <= 1.0
    evals = [float(x) for x in spec.read_text().split()]
    assert len(evals) == 8 and evals == sorted(evals)


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
    ["variational", "--m-cells", "16", "--with-static", "no"],
])
def test_path_mc_output_does_not_depend_on_workers(command, capsys):
    # the P_N groups (annealed) and the signed-length rows (variational)
    # span four chunks, so the pool runs both path kernels
    args = command + ["--ensembles", str(3 * BATCH_SIZE + 50), "--seed", "8"]
    outputs = []
    for workers in ("1", "3"):
        assert cli.main(args + ["--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# -- variational -----------------------------------------------------------


def test_variational_noncontractive_guard(tmp_path, capsys):
    rc = cli.main(["variational", "--lam", "0.5"])
    assert rc == 2
    assert "allow-noncontractive" in capsys.readouterr().err


def test_variational_small_run(tmp_path):
    out = tmp_path / "var.json"
    psi = tmp_path / "psi.json"
    rc = cli.main(["variational", "--lam", "0.1", "--m-cells", "4",
                   "--ensembles", "3000", "--seed", "6", "--tol", "1e-7",
                   "--with-static", "no", "--psi-out", str(psi),
                   "--out", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())["result"]
    assert "static" not in res
    v = res["verdicts"]
    assert v["converged"] and v["ratio_bound_ok"] and v["omega_bracket_ok"]
    with open(psi) as f:
        doc = json.load(f)
    meta = doc["meta"]
    assert doc["m_cells"] == 4 and meta["lam"] == 0.1 and meta["seed"] == 6
    assert doc["symmetric"] is True
    assert np.array_equal(np.array(res["report"]["psi"]), np.array(doc["values"]))


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
    ["variational", "--ensembles", "2000", "--m-cells", "4", "--with-static", "true"],
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
    assert res["verdicts"]["ratio_ge_one"] and res["verdicts"]["tail_le_bound"]
    assert res["verdicts"]["ratio_le_theory"]
    assert res["second_moment_theory_bound"] > 1.0
    header, rows = _data_rows(_read_lines(per))
    assert header == ["index", "ln_z", "beta_f", "order_parameter"]
    assert len(rows) == 100
    assert np.isfinite([float(r[1]) for r in rows]).all()


_SCIPY_FREE = """
import sys
import qsk.cli
assert "scipy" not in sys.modules, "import qsk.cli loaded scipy"
rc = qsk.cli.main(["quenched", "--n-spins", "6", "--n-disorder", "20",
                   "--workers", "2", "--out", sys.argv[1]])
assert rc == 0
assert "scipy" not in sys.modules, "qsk quenched loaded scipy"
"""


def test_import_and_quenched_leave_scipy_unloaded(tmp_path):
    src = str(Path(qsk.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE, str(tmp_path / "q.json")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


def test_quenched_strong_disorder_usage_error(capsys):
    rc = cli.main(["quenched", "--n-spins", "4", "--lam", "0.2",
                   "--n-disorder", "50"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == ("qsk: error: 4*lam = 0.800 exceeds the plain-mean range of "
                   "disorder studies (0.60); use lam <= 0.15\n")
    assert "allow_strong" not in err


# -- region ----------------------------------------------------------------


def test_region_scan_with_advisory_sidecar(tmp_path, capsys):
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
    side = tmp_path / "region.csv.advisory.csv"
    lines = _read_lines(side)
    assert "# non-rigorous reference curve, not a bound" in lines
    _, curve = _data_rows(lines)
    assert len(curve) == 201
    assert float(curve[0][1]) == pytest.approx(1.51)
    assert float(curve[-1][1]) == 0.0


def test_region_explicit_advisory_path(tmp_path):
    adv = tmp_path / "adv.csv"
    rc = cli.main(["region", "--x-count", "2", "--y-count", "2",
                   "--x-min", "0.8", "--x-max", "1.2", "--y-max", "0.5",
                   "--out", str(tmp_path / "r.csv"),
                   "--advisory-out", str(adv)])
    assert rc == 0
    assert adv.exists()
    assert not (tmp_path / "r.csv.advisory.csv").exists()


# -- verify ----------------------------------------------------------------


def test_verify_unknown_check(capsys):
    rc = cli.main(["verify", "--only", "nonsense"])
    assert rc == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_subset_worker_invariant(tmp_path, capsys):
    # path_kernels samples 20k-path ensembles, five batches each on the pool
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
    seen = []
    map_batches = streams.map_batches

    def recording(fn, n_batches, workers=None):
        seen.append(workers)
        return map_batches(fn, n_batches, workers=workers)

    monkeypatch.setattr(streams, "map_batches", recording)
    assert cli.main(["verify", "--only", "path_kernels", "--workers", "3"]) == 0
    capsys.readouterr()
    assert seen and set(seen) == {3}


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


def test_cli_opens_files_only_in_the_config_reader_and_the_writer():
    # one error route and one writer: no exception class of its own, and
    # every output file goes through _write
    tree = ast.parse(Path(cli.__file__).read_text())
    openers = [getattr(top, "name", None) for top in tree.body
               for node in ast.walk(top)
               if isinstance(node, ast.Call) and "open" in ast.unparse(node.func)]
    assert sorted(openers) == ["_load_config", "_write"]
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
