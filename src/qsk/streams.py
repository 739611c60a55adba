"""Deterministic random-number streams and the shared worker-pool helper.

Reproducibility contract: every stochastic routine derives its randomness
from counter-based Philox generators keyed by (master seed, domain, batch
index).  Randomness is always drawn in fixed-size batches, and every
result is stored by its batch or sample index, so results are bit-identical
no matter how many workers share the work or in which order they finish.
Path sampling and disorder sampling live in disjoint domains and never
share a stream.

``map_batches``, the one door to the worker pool, runs every batch with
numpy's OpenBLAS on one thread (``single_blas_thread``): pool threads that
each drive a multi-threaded OpenBLAS oversubscribe the cores, and a LAPACK
result that depends on the BLAS thread count would make the output depend
on the machine.  The pool size is one process-wide setting, made by the
``worker_count`` context.  No caller deals with BLAS threads or worker counts.
Only the disorder study's chunks, whose eigensolves are LAPACK-bound, use
the pool; the memory-bound path kernels ran no faster on it and run in turn.
"""

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

#: stream domains (never reuse a domain across different kinds of sampling)
DOMAIN_PATHS = 0
DOMAIN_DISORDER = 1

#: fixed batch size; changing this changes every sampled ensemble
BATCH_SIZE = 4096

WORKERS_ENV_VAR = "QSK_WORKERS"


def batch_generator(seed, domain, batch_index):
    """Philox generator for one (seed, domain, batch) cell of the layout."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(domain), int(batch_index)))
    return np.random.Generator(np.random.Philox(seed=ss))


def batch_ranges(count):
    """Yield (batch_index, start, stop) covering range(count) in fixed batches."""
    for b in range(0, -(-int(count) // BATCH_SIZE)):
        start = b * BATCH_SIZE
        yield b, start, min(start + BATCH_SIZE, int(count))


def resolve_workers(workers=None):
    """Worker count: explicit argument wins, then QSK_WORKERS, then 1.

    Raises ValueError, naming the value, unless it is an integer >= 1; an
    empty QSK_WORKERS counts as unset.
    """
    if workers is None:
        workers = os.environ.get(WORKERS_ENV_VAR) or 1
    try:
        count = int(workers)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"worker count {workers!r} (--workers or "
                         f"{WORKERS_ENV_VAR}) is not an integer >= 1")
    return count


#: the pool size ``worker_count`` set, or None outside any such block
_workers = None


@contextmanager
def worker_count(workers):
    """Run the block with a pool of ``resolve_workers(workers)`` threads.

    The previous setting is restored on exit, also when the block raises.
    Outside any such block ``map_batches`` reads QSK_WORKERS, then 1.
    """
    global _workers
    previous, _workers = _workers, resolve_workers(workers)
    try:
        yield
    finally:
        _workers = previous


def map_batches(fn, n_batches):
    """Apply ``fn(batch_index)`` for each batch (or work chunk), in index order.

    Every batch runs inside ``single_blas_thread``.  The batches share a
    pool of the threads ``worker_count`` set only when OpenBLAS is pinned
    and there is more than one worker and more than one batch; otherwise
    they run in turn.  Results are collected into a list indexed by batch, so they do
    not depend on the worker count or on the order of completion.
    """
    workers = _workers or resolve_workers()
    indices = range(n_batches)
    with single_blas_thread() as pinned:
        if not pinned or workers <= 1 or n_batches <= 1:
            return [fn(b) for b in indices]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, indices))


@lru_cache(maxsize=1)
def _openblas_threads():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None.

    numpy wheels ship OpenBLAS as ``numpy.libs/libscipy_openblas64_*.so``;
    loading that file again returns the library numpy already uses.  None
    when numpy was built against another BLAS.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def single_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread; yields whether it is.

    The previous thread count is restored on exit.  Yields False, changing
    nothing, when the OpenBLAS handle cannot be found; ``map_batches`` then
    runs in turn.  The count is process-wide, so blocks that overlap in
    time from different threads would restore each other's setting.
    """
    handle = _openblas_threads()
    if handle is None:
        yield False
        return
    get, set_ = handle
    previous = get()
    set_(1)
    try:
        yield True
    finally:
        set_(previous)

