"""Shared numerics, estimate containers, and deterministic stream layout."""

import ast
import inspect
import math
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from qsk import checks, streams
from qsk.numerics import (
    LN2,
    QUAD_NODES,
    QuadratureConvergenceWarning,
    gauss_hermite,
    gauss_legendre_01,
    logcosh,
    logsumexp,
    normal_nodes,
    refine_once,
    scan_minimize,
    sinhc,
)
from qsk.stats import (
    EffectiveSampleSizeWarning,
    EstimateWithError,
    frequency_with_err,
    jackknife_se,
    log_mean_exp,
    mean_with_err,
)
from qsk.streams import (
    BATCH_SIZE,
    batch_generator,
    batch_ranges,
    fill_chunks,
    map_batches,
    resolve_workers,
    worker_count,
)

from test_acceptance import FULL_SCALE


# -- numerics --------------------------------------------------------------


def test_logcosh_matches_naive_in_safe_range():
    x = np.linspace(-20, 20, 41)
    assert np.allclose(logcosh(x), np.log(np.cosh(x)), rtol=1e-14, atol=1e-14)
    assert logcosh(0.0) == 0.0


def test_logcosh_overflow_safe():
    # np.cosh(800) overflows; the log form must not
    assert logcosh(800.0) == pytest.approx(800.0 - LN2, rel=1e-15)
    assert logcosh(-800.0) == logcosh(800.0)


def test_logsumexp_matches_scipy_bit_for_bit():
    # scipy stays the oracle here, off the package's import path
    rng = np.random.default_rng(11)
    cases = [np.array([5.0]), np.array([[-3.0]]), np.array(2.5),
             np.array([700.0, 700.0, -700.0]), np.array([-700.0, -700.0]),
             np.array([1.0, 1.0, 1.0, 1.0]), np.array([-np.inf, 0.0, 3.0]),
             np.array([np.inf, 1.0]), np.array([-np.inf, -np.inf])]
    for k in range(300):
        a = rng.standard_normal((1 + k % 5, 1 + k % 37)) * (1.0, 30.0, 700.0)[k % 3]
        if k % 2:
            a = np.round(a)  # ties at the maximum
        cases.append(a)
    for a in cases:
        for axis in (None, 1) if a.ndim == 2 else (None,):
            expect = scipy.special.logsumexp(a, axis=axis)
            got = logsumexp(a, axis=axis)
            assert type(got) is type(expect)
            np.testing.assert_array_equal(got, expect)
            assert np.shape(got) == np.shape(expect)


def test_sinhc():
    assert sinhc(0.0) == 1.0
    assert sinhc(2.0) == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-15)
    assert sinhc(1e-8) == pytest.approx(1.0, rel=1e-14)
    out = sinhc(np.array([0.0, 1.0, -1.0]))
    assert out.shape == (3,)
    assert out[1] == out[2]


def test_log_mean_from_logs():
    with pytest.warns(EffectiveSampleSizeWarning):
        est, _ = log_mean_exp([1.0, 3.0], "two terms")
    assert est.value == pytest.approx(
        math.log((math.e + math.e**3) / 2), rel=1e-14)
    # huge inputs shift cleanly
    with pytest.warns(EffectiveSampleSizeWarning):
        est, _ = log_mean_exp([1000.0, 1002.0], "two terms")
    assert est.value == pytest.approx(
        1000.0 + math.log((1 + math.e**2) / 2), rel=1e-14)


def test_gauss_legendre_01():
    x, w = gauss_legendre_01(5)
    assert w.sum() == pytest.approx(1.0, rel=1e-15)
    assert (w @ x**3) == pytest.approx(0.25, rel=1e-14)
    assert np.all((x > 0) & (x < 1))
    with pytest.raises(ValueError):
        gauss_legendre_01(0)


def test_gauss_hermite_rules():
    # numpy's rule serves 1 to 256 nodes (no quadrature uses more than 128);
    # other counts are refused
    for n in (64, 128, 256):
        x, w = gauss_hermite(n)
        assert w.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert np.all(np.diff(x) > 0)
    for n in (0, 257):
        with pytest.raises(ValueError):
            gauss_hermite(n)


def test_normal_nodes_moments():
    y, lw = normal_nodes(48)
    w = np.exp(lw)
    assert w.sum() == pytest.approx(1.0, rel=1e-13)
    assert (w @ y**2) == pytest.approx(1.0, rel=1e-13)
    assert (w @ y**4) == pytest.approx(3.0, rel=1e-12)


def test_refine_once():
    # every quadrature runs at QUAD_NODES and twice that, and nowhere else
    seen = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, ok = refine_once(lambda n: seen.append(n) or 42.0, "constant")
    assert value == 42.0 and ok is True
    assert seen == [QUAD_NODES, 2 * QUAD_NODES] == [64, 128]
    with pytest.warns(QuadratureConvergenceWarning, match="mylabel"):
        value, ok = refine_once(lambda n: 1.0 / n, "mylabel")
    assert value == 1.0 / (2 * QUAD_NODES) and ok is False
    # 1 and 1 + 1e-5 agree to four digits, so the message needs nine digits
    # and the relative change to show what moved
    with pytest.warns(QuadratureConvergenceWarning) as record:
        value, ok = refine_once(
            lambda n: 1.0 if n == QUAD_NODES else 1.0 + 1e-5, "mylabel")
    assert value == 1.0 + 1e-5 and ok is False
    message = str(record[0].message)
    assert message.startswith("mylabel did not settle after doubling nodes "
                              "(64 -> 128)")
    assert "1.000000000e+00 vs 1.000010000e+00" in message
    assert "relative change 1.000e-05 > tolerance 1e-06" in message


def test_refine_once_over_arrays():
    # an array value gets an element-wise flag and at most one warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, ok = refine_once(lambda n: np.full((2, 3), 42.0), "flat")
    assert value.shape == ok.shape == (2, 3) and ok.all()

    def evaluate(n):
        coarse = n == QUAD_NODES
        return np.array([-3.0, 1.0 + 1e-3 * coarse, 1.0 + 1e-5 * coarse, 1e4 / n])

    with pytest.warns(QuadratureConvergenceWarning) as record:
        value, ok = refine_once(evaluate, "mylabel")
    assert len(record) == 1
    assert value.tolist() == evaluate(2 * QUAD_NODES).tolist()
    assert ok.tolist() == [True, False, False, False]
    # the last point moves by 0.5 relative to its own scale, the worst change
    assert str(record[0].message) == (
        "mylabel did not settle after doubling nodes (64 -> 128) at 3 of 4 "
        "points: worst relative change 1.000e+00 > tolerance 1e-06")


def test_scan_minimize_parabola():
    # (x - 0.35)^2 + 2 on [0, 1]: the grid misses the minimizer, Brent finds it
    def parabola(x):
        return (x - 0.35) ** 2 + 2.0

    grid = np.linspace(0.0, 1.0, 8)
    assert parabola(grid).min() > 2.0 + 1e-3
    assert scan_minimize(parabola, grid) == pytest.approx(2.0, abs=1e-15)
    # a minimum on the grid's end stays there
    assert scan_minimize(lambda x: x + 1.0, grid) == 1.0
    # the scan picks the deeper of two wells before Brent refines it
    wells = lambda x: np.minimum((x - 0.1) ** 2 + 0.5, (x - 0.8) ** 2)
    assert scan_minimize(wells, grid) == pytest.approx(0.0, abs=1e-15)


# -- estimates -------------------------------------------------------------


def test_estimate_validation():
    with pytest.raises(ValueError):
        EstimateWithError(float("nan"), 0.1, 10)
    with pytest.raises(ValueError):
        EstimateWithError(1.0, -0.1, 10)
    with pytest.raises(ValueError):
        EstimateWithError(1.0, 0.1, 1)
    est = EstimateWithError(1.0, 0.1, 10, seed=3)
    assert est.to_dict() == {"value": 1.0, "std_err": 0.1,
                             "n_samples": 10, "seed": 3}


def test_agrees_with():
    est = EstimateWithError(1.0, 0.1, 100)
    assert est.agrees_with(1.25, n_sigma=3.0)
    assert not est.agrees_with(1.55, n_sigma=3.0)
    assert est.agrees_with(1.55, n_sigma=6.0)
    with pytest.raises(TypeError):
        est.agrees_with(1.25)  # no default width: every caller names its own


def test_mean_with_err():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    est = mean_with_err(x, seed=8)
    assert est.value == 2.5
    assert est.std_err == pytest.approx(x.std(ddof=1) / 2.0, rel=1e-15)
    assert est.n_samples == 4 and est.seed == 8


def test_frequency_with_err():
    est = frequency_with_err(50, 100)
    assert est.value == 0.5
    assert est.std_err == pytest.approx(0.05, rel=1e-15)
    # zero hits keeps a nonzero error floor
    zero = frequency_with_err(0, 100)
    assert zero.value == 0.0 and zero.std_err == pytest.approx(0.01, rel=1e-15)


def test_effective_sample_size():
    # the ESS (sum w)^2 / sum w^2 of the weights w = e^x, shift-invariant
    assert log_mean_exp(np.zeros(250), "flat")[1] == pytest.approx(250.0)
    concentrated = np.array([0.0] + [-500.0] * 99)
    with pytest.warns(EffectiveSampleSizeWarning):
        assert log_mean_exp(concentrated, "one")[1] == pytest.approx(1.0)
    lw = np.random.default_rng(0).normal(size=100)
    with pytest.warns(EffectiveSampleSizeWarning):
        ess = log_mean_exp(lw, "normal")[1]
        shifted = log_mean_exp(lw + 123.0, "shifted")[1]
    assert ess == pytest.approx(shifted, rel=1e-12)


def test_log_mean_exp():
    with pytest.warns(EffectiveSampleSizeWarning):
        est, ess = log_mean_exp(np.log([1.0, 2.0, 3.0, 4.0]), "four terms")
    assert est.value == pytest.approx(math.log(2.5), rel=1e-14)
    assert ess == pytest.approx(25.0 / 7.5, rel=1e-12)
    with pytest.warns(EffectiveSampleSizeWarning):
        const, ess2 = log_mean_exp(np.full(50, 7.0), "constant")
    assert const.value == 7.0 and const.std_err == 0.0
    assert ess2 == pytest.approx(50.0)


def test_log_mean_exp_warning_gate():
    collapsed = np.array([0.0] + [-500.0] * 299)
    with pytest.warns(EffectiveSampleSizeWarning, match="demo: .*unreliable"):
        log_mean_exp(collapsed, "demo")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_mean_exp(np.zeros(100), "demo")  # silent at the floor


def test_jackknife_se():
    assert jackknife_se(np.full(30, 1.23)) <= 1e-12
    loo = np.array([1.0, 2.0, 3.0])
    expect = math.sqrt(2.0 / 3.0 * 2.0)
    assert jackknife_se(loo) == pytest.approx(expect, rel=1e-14)


# -- streams ---------------------------------------------------------------


def test_batch_generator_determinism():
    a = batch_generator(11, 0, 3).random(5)
    b = batch_generator(11, 0, 3).random(5)
    assert np.array_equal(a, b)
    c = batch_generator(11, 1, 3).random(5)
    d = batch_generator(11, 0, 4).random(5)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_batch_ranges():
    assert list(batch_ranges(0)) == []
    assert list(batch_ranges(10)) == [(0, 0, 10)]
    two = list(batch_ranges(BATCH_SIZE + 1))
    assert two == [(0, 0, BATCH_SIZE), (1, BATCH_SIZE, BATCH_SIZE + 1)]


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv(streams.WORKERS_ENV_VAR, raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(4) == 4
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"worker count {bad} "):
            resolve_workers(bad)
    monkeypatch.setenv(streams.WORKERS_ENV_VAR, "7")
    assert resolve_workers() == 7
    assert resolve_workers(2) == 2  # explicit argument wins
    monkeypatch.setenv(streams.WORKERS_ENV_VAR, "")
    assert resolve_workers() == 1  # empty means unset
    for bad in ("junk", "0", "2.5"):
        monkeypatch.setenv(streams.WORKERS_ENV_VAR, bad)
        with pytest.raises(ValueError, match=f"worker count '{bad}' "):
            resolve_workers()
        assert resolve_workers(3) == 3  # never read when the argument is given


def test_map_batches_order():
    with worker_count(4):
        out = map_batches(lambda b: b * b, 8)
        assert out == [b * b for b in range(8)]
        assert map_batches(lambda b: -b, 1) == [0]


def test_worker_count_sets_and_restores_the_pool_size(monkeypatch):
    monkeypatch.setenv(streams.WORKERS_ENV_VAR, "5")
    assert streams._workers is None
    with worker_count(3):
        assert streams._workers == 3
        with pytest.raises(RuntimeError, match="inside"):
            with worker_count(2):
                assert streams._workers == 2
                raise RuntimeError("inside")
        assert streams._workers == 3
        with worker_count(None):  # None reads QSK_WORKERS, as resolve_workers does
            assert streams._workers == 5
    assert streams._workers is None
    with pytest.raises(ValueError, match="worker count 0 "):
        with worker_count(0):
            pass
    assert streams._workers is None


def test_worker_count_reaches_the_pool():
    # two batches at 2 workers run on two threads at once: each waits at a
    # barrier that only the other can release, so a serial run breaks the
    # barrier at its timeout instead of hanging
    if streams._openblas_threads() is None:
        pytest.skip("numpy without its bundled OpenBLAS starts no pool")
    barrier = threading.Barrier(2, timeout=20)

    def batch(b):
        barrier.wait()
        return threading.get_ident()

    with worker_count(2):
        threads = map_batches(batch, 2)
    assert len(set(threads)) == 2


def test_only_streams_starts_pools_or_pins_blas():
    # map_batches alone decides how batches run, so no other module may
    # start a pool or touch the BLAS thread count, and only the command
    # line, where a bad worker count is a usage error, sets the count
    names = ("single_blas_thread", "_openblas_threads", "ThreadPoolExecutor",
             "resolve_workers", "worker_count")
    modules = sorted(Path(streams.__file__).parent.glob("*.py"))
    assert "streams.py" in [m.name for m in modules]
    named = [(m.name, name) for m in modules if m.name != "streams.py"
             for name in names if name in m.read_text()]
    assert named == [("cli.py", "worker_count")]


def test_the_pool_size_lives_in_streams_alone():
    # outside the two streams functions that set the pool size, no function
    # takes a ``workers`` parameter, and no object or class stores one (the
    # command line reads its --workers option as ``args.workers``)
    modules = sorted(Path(streams.__file__).parent.glob("*.py"))
    takers, held = [], []
    for m in modules:
        for node in ast.walk(ast.parse(m.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [
                    a for a in (args.vararg, args.kwarg) if a is not None]
                if "workers" in [a.arg for a in params]:
                    takers.append((m.name, getattr(node, "name", "lambda")))
            elif (isinstance(node, ast.Attribute) and node.attr == "workers"
                  and isinstance(node.ctx, ast.Store)):
                held.append((m.name, ast.unparse(node)))
            elif isinstance(node, ast.ClassDef):
                held += [(m.name, node.name) for stmt in node.body
                         for target in getattr(stmt, "targets", [])
                         if ast.unparse(target) == "workers"]
    assert takers == [("streams.py", "resolve_workers"),
                      ("streams.py", "worker_count")]
    assert held == []


def _defaulted_parameters(module_name, tree):
    """(module, qualified function name, parameter) for every parameter of a
    function or lambda in ``tree`` that has a default value."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, scopes):
                visit(child, prefix)
                continue
            name = prefix + getattr(child, "name", "<lambda>")
            if not isinstance(child, ast.ClassDef):
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]
                found.update((module_name, name, a.arg) for a in defaulted)
            visit(child, name + ".")

    visit(tree, "")
    return found


def test_every_defaulted_parameter_is_on_the_allow_list():
    # a defaulted parameter is a knob, and a knob that every production
    # caller leaves at its default is a constant in disguise (N_MAX, the
    # fixed point's tolerance and cap, QUAD_NODES), so each default must be
    # argued here: an unlabelled estimate (seed=None), a reduction axis,
    # the command line's argv, the worker count that only streams resolves,
    # and the desk-scale sizes of each check, whose full scale is
    # FULL_SCALE (the acceptance suite also passes n_sigma where it is taken)
    allowed = {
        ("stats.py", "mean_with_err", "seed"),
        ("stats.py", "frequency_with_err", "seed"),
        ("stats.py", "log_mean_exp", "seed"),
        ("paths.py", "PathEnsemble.__init__", "seed"),
        ("numerics.py", "logsumexp", "axis"),
        ("cli.py", "main", "argv"),
        ("streams.py", "resolve_workers", "workers"),
    }
    for name, fn in checks.CHECKS.items():
        sizes = set(FULL_SCALE[name][1])
        if "n_sigma" in inspect.signature(fn).parameters:
            sizes.add("n_sigma")
        allowed.update(("checks.py", fn.__name__, key) for key in sizes)
    modules = sorted(Path(streams.__file__).parent.glob("*.py"))
    found = set().union(*(_defaulted_parameters(m.name, ast.parse(m.read_text()))
                          for m in modules))
    assert sorted(found - allowed) == []
    assert sorted(allowed - found) == []


def test_no_module_silences_warnings():
    # an unsettled quadrature or a boundary minimizer must reach stderr
    modules = sorted(Path(streams.__file__).parent.glob("*.py"))
    silenced = [m.name for m in modules
                if 'simplefilter("ignore")' in m.read_text()]
    assert silenced == []


def _names_read(tree, kinds=(ast.Name, ast.Attribute)):
    """Names and attribute names (the nodes of ``kinds``) that the code of
    ``tree`` reads, leaving out each read inside the def or class of the
    same name (recursion)."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, kinds) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in enclosing:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_public_name_has_a_reader_in_the_package():
    # no public function, class, constant, method or property exists only
    # for its own tests: each name in an __all__ is read by code somewhere
    # in the package, and each public member of a class as an attribute
    modules = sorted(Path(streams.__file__).parent.glob("*.py"))
    trees = {m.name: ast.parse(m.read_text()) for m in modules}
    read = set().union(*map(_names_read, trees.values()))
    attributes = set().union(*(_names_read(tree, ast.Attribute)
                               for tree in trees.values()))
    unread = [f"{name}:{entry.value}" for name, tree in trees.items()
              for node in tree.body if isinstance(node, ast.Assign)
              and [ast.unparse(t) for t in node.targets] == ["__all__"]
              for entry in node.value.elts if entry.value not in read]
    unread += [f"{name}:{cls.name}.{member.name}" for name, tree in trees.items()
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for member in cls.body if isinstance(member, ast.FunctionDef)
               and not member.name.startswith("_")
               and member.name not in attributes]
    assert unread == []


def test_fill_chunks_covers_the_batch_layout():
    # each chunk sees its own rows of out, and the last one stops at the
    # row count
    count = 2 * BATCH_SIZE + 5
    seen = []

    def block(start, stop, rows):
        seen.append((start, stop))
        rows[:] = np.arange(start, stop)

    with worker_count(2):
        out = fill_chunks(block, np.full(count, -1), BATCH_SIZE)
    assert sorted(seen) == [(start, stop) for _, start, stop in batch_ranges(count)]
    assert np.array_equal(out, np.arange(count))


@pytest.mark.parametrize("workers", [1, 2])
def test_map_batches_restores_blas_threads_when_a_batch_raises(workers):
    handle = streams._openblas_threads()
    if handle is None:
        pytest.skip("numpy without its bundled OpenBLAS")
    get, set_ = handle
    original = get()
    seen = []

    def batch(b):
        seen.append(get())
        if b == 2:
            raise RuntimeError("batch 2")
        return b

    try:
        set_(2)
        with worker_count(workers), pytest.raises(RuntimeError, match="batch 2"):
            map_batches(batch, 4)
        assert get() == 2
        assert seen and set(seen) == {1}
    finally:
        set_(original)
