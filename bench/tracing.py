"""Span recorder that wraps qsk's layer-boundary functions from outside.

``Tracer.install()`` replaces each function listed in ``TRACED`` by a
wrapper that records a span (name, parent, start, end, counts) and puts the
original back on ``uninstall()``.  Several modules import layer functions by
name (``from .hilbert import spectrum``), so a wrapper is bound under every
qsk module attribute that refers to the original object, not only in the
defining module.

Callbacks handed to ``numerics.refine_once`` (the integrand) and
``streams.map_batches`` (one batch) run as child spans named after the span
that called the higher-order function: integrand and batch time counts as
the caller's own time, and ``refine_once`` / ``map_batches`` keep only their
own overhead (node doubling; pool start-up and waiting).  Such callback
spans are not counted as calls.  A span opened in a pool thread has the
batch span, and through it the enclosing ``map_batches`` span, as parent.

Functions called ~1e5+ times per run (``constants.g_n_of``, the moment
helpers, ``numerics.logcosh``) are deliberately not wrapped: their time
counts toward whichever wrapped function called them.
"""

import functools
import inspect
import itertools
import sys
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field

#: layer -> functions wrapped at that layer's boundary ("Class.method" allowed)
TRACED = {
    "constants": ["inf_g_n_over_n", "w_n_of", "moment_inequalities"],
    "numerics": ["refine_once"],
    "annealed": ["estimate_f_n", "mean_p_n", "annealed_free_energy",
                 "k_of_lambda", "delta_infinity_bounds", "region_scan"],
    "paths": ["sample_ensemble", "sample_unconditioned", "p_n_batch",
              "overlap_matrix_batch", "PathEnsemble.signed_lengths"],
    "variational": ["lambda_prime", "lambda_functional", "fixed_point_solve",
                    "static_approximation", "lambda_constant"],
    "hilbert": ["build_hamiltonian", "spectrum", "gibbs_zz", "gibbs_zz_matrix",
                "f2_annealed_exact"],
    "disorder": ["run_study", "order_parameter_trend",
                 "generalized_second_moment", "paley_zygmund_witness"],
    "streams": ["map_batches"],
    "cli": ["main"],
}

#: wrapped higher-order functions whose first argument is a callback
CALLBACK_TAKERS = ("numerics.refine_once", "streams.map_batches")

#: spans whose process CPU time is recorded as well as wall time
CPU_TIMED = ("streams.map_batches",)


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    t0: float = 0.0
    t1: float = 0.0
    cpu: float = 0.0
    callback: bool = False
    tags: dict = field(default_factory=dict)


class Tracer:
    """Records spans for every call of a ``TRACED`` function while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._memo = {}  # (id(ensemble), m_cells) -> weakref to a returned array
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name, fn, args, kwargs, parent=None, callback=False, tag=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), parent.sid if parent else None, name,
                    callback=callback)
        if name in CALLBACK_TAKERS:
            caller = parent.name if parent else "root"
            args = (self._callback(caller, args[0], span),) + tuple(args[1:])
        stack.append(span)
        cpu0 = time.process_time() if name in CPU_TIMED else 0.0
        span.t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.t1 = time.perf_counter()
            if name in CPU_TIMED:
                span.cpu = time.process_time() - cpu0
            stack.pop()
            self.spans.append(span)
        if tag is not None:
            span.tags = tag(args, kwargs, result)
        return result

    def _callback(self, name, fn, taker):
        def run_callback(*args, **kwargs):
            return self._run(name, fn, args, kwargs, parent=taker, callback=True)

        return run_callback

    def _wrapper(self, name, fn):
        tag = None
        if name in TAGS:
            signature = inspect.signature(fn)

            def tag(args, kwargs, result):
                bound = signature.bind(*args, **kwargs).arguments
                return TAGS[name](self, bound, result)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs, tag=tag)

        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        import qsk.cli  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "qsk" or n.startswith("qsk."))]
        for layer, names in TRACED.items():
            owner = sys.modules["qsk." + layer]
            for dotted in names:
                *cls, attr = dotted.split(".")
                holder = getattr(owner, cls[0]) if cls else owner
                original = holder.__dict__[attr]
                wrapper = self._wrapper(f"{layer}.{attr}", original)
                for target in [holder] if cls else modules:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            self._patches.append((target, key, original))
                            setattr(target, key, wrapper)
        return self

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


# -- counts recorded at span end --------------------------------------------


def _signed_lengths_tag(tracer, a, result):
    """A memo hit returns the very array an earlier call on the ensemble did."""
    key = (id(a["self"]), int(a["m_cells"]))
    seen = tracer._memo.get(key)
    tracer._memo[key] = weakref.ref(result)
    return {"hit": int(seen is not None and seen() is result)}


def _fixed_point_tag(tracer, a, result):
    return {"iterations": result.iterations, "ess": result.ess,
            "paths": len(a["ensemble"])}


def _spins_tag(tracer, a, result):
    return {"n": a["h"].params.n_spins}


#: span name -> f(tracer, bound arguments, result) giving the span's counts
TAGS = {
    "paths.sample_ensemble": lambda t, a, r: {"paths": len(r)},
    "paths.p_n_batch": lambda t, a, r: {"configs": len(r)},
    "paths.signed_lengths": _signed_lengths_tag,
    "variational.fixed_point_solve": _fixed_point_tag,
    "hilbert.spectrum": _spins_tag,
    "hilbert.gibbs_zz_matrix": _spins_tag,
    "disorder.run_study": lambda t, a, r: {"samples": r.n_disorder},
    "streams.map_batches": lambda t, a, r: {"batches": len(r)},
}


# -- per-layer metrics ---------------------------------------------------------


def self_times(spans):
    """sid -> span duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, end = 0.0, s.t0
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, end), min(b, s.t1)
            if b > a:
                covered += b - a
                end = b
        out[s.sid] = (s.t1 - s.t0) - covered
    return out


def layer_metrics(spans, names):
    """Value of every per-layer metric in ``names`` that spans determine.

    ``<layer>.<function>.calls`` counts non-callback spans, ``.self_s`` sums
    self time over all spans of that name (callback spans included), and any
    other suffix sums the count of that name recorded on the spans.  The
    ratios below are spelled out.  A metric whose layer did no work reads 0.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name, key):
        return sum(s.tags.get(key, 0) for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    special = {
        "paths.signed_lengths.hit_ratio": lambda: ratio(
            total("paths.signed_lengths", "hit"),
            len(by_name["paths.signed_lengths"])),
        "variational.fixed_point_solve.ess_ratio": lambda: ratio(
            total("variational.fixed_point_solve", "ess"),
            total("variational.fixed_point_solve", "paths")),
        "streams.map_batches.cpu_per_wall": lambda: ratio(
            sum(s.cpu for s in by_name["streams.map_batches"]),
            sum(s.t1 - s.t0 for s in by_name["streams.map_batches"])),
        "cli.self_s": lambda: sum(selfs[s.sid] for s in by_name["cli.main"]),
    }
    for n in (6, 8, 10):
        special[f"hilbert.diag_ms_per_sample.n{n}"] = functools.partial(
            _diag_ms_per_sample, by_name, n)

    out = {}
    for metric in names:
        if metric in special:
            out[metric] = special[metric]()
            continue
        span_name, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = sum(not s.callback for s in by_name[span_name])
        elif stat == "self_s":
            out[metric] = sum(selfs[s.sid] for s in by_name[span_name])
        else:
            out[metric] = total(span_name, stat)
    return out


def _diag_ms_per_sample(by_name, n):
    """Mean eigensolver time (spectrum + Gibbs correlations) per N-spin sample."""
    diag = [s for name in ("hilbert.spectrum", "hilbert.gibbs_zz_matrix")
            for s in by_name[name] if s.tags.get("n") == n]
    samples = sum(s.tags.get("n") == n for s in by_name["hilbert.spectrum"])
    return 1e3 * sum(s.t1 - s.t0 for s in diag) / samples if samples else 0.0
