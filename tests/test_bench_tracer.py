"""The benchmark's span recorder (``bench/tracing.py``) still installs.

``Tracer.install`` looks up every function named in its ``TRACED`` list and
rebinds it wherever a qsk module refers to it, so renaming or removing a
traced function breaks the benchmark's traced runs.  This checks that in
under a second, without running a workload.
"""

import importlib.util
import sys
from pathlib import Path

import qsk.cli  # noqa: F401  (loads every layer module)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _holders(traced):
    """Every qsk module, and every class that ``traced`` names a method of."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "qsk" or name.startswith("qsk."))]
    classes = [getattr(sys.modules["qsk." + layer], dotted.split(".")[0])
               for layer, names in traced.items() for dotted in names
               if "." in dotted]
    return modules + classes


def test_tracer_installs_every_traced_function_and_restores_them():
    tracing = _load_tracing()
    holders = _holders(tracing.TRACED)
    before = [dict(vars(h)) for h in holders]
    tracer = tracing.Tracer().install()
    try:
        patched = {(id(target), key) for target, key, _ in tracer._patches}
        for layer, names in tracing.TRACED.items():
            owner = sys.modules["qsk." + layer]
            for dotted in names:
                *cls, attr = dotted.split(".")
                holder = getattr(owner, cls[0]) if cls else owner
                assert (id(holder), attr) in patched, f"{layer}.{dotted}"
        for target, key, original in tracer._patches:
            assert vars(target)[key] is not original, (target, key)
    finally:
        tracer.uninstall()
    for holder, attrs in zip(holders, before):
        now = vars(holder)
        changed = [key for key, value in attrs.items() if now.get(key) is not value]
        assert changed == [], (holder, changed)
