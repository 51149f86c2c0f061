"""Threads for per-clip work, bounded by the usable cores.

Two kinds of thread run avcount's work: the clip workers of
``parallel_map``, one clip each, and the helpers that one clip's STFT
borrows through ``lend``. Helpers come only from a count of idle cores. It
starts at usable cores - 1, since the calling thread has a core of its own.
Every clip worker beyond the first holds one core while the map runs, and
``cli.main`` holds back every core beyond ``--jobs`` (``cap``). Claims never
block and are given back in ``finally``. So a batch over many clips stays
one thread per clip, ``--jobs 1`` stays single-threaded, and a single
request gets every idle core. Helpers only change which thread computes a
row, never its value, so outputs do not depend on any of this.

The count and the pool are process-wide, as the cores are. The helper
pool has usable cores - 1 threads, started on first use. A forked child
starts with a fresh pool and a full count.

OpenBLAS's own threads are another matter: their count does change the
last bits of a matrix product, so ``blas_threads`` reports it for records
such as the feature cache.
"""

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager


def usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _openblas_threads_getter():
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter
    return None


def blas_threads():
    """Thread count of numpy's bundled scipy-openblas; None on any other BLAS."""
    getter = _openblas_threads_getter()
    return None if getter is None else getter()


def _reset(cores=None):
    """Full idle count and no pool: at import and in a forked child."""
    global _lock, _cores, _idle, _pool
    _lock = threading.Lock()
    _cores = usable_cores() if cores is None else cores
    _idle = _cores - 1
    _pool = None


_reset()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset)


@contextmanager
def hold(n):
    """Take ``n`` cores from the idle count while the block runs.

    The count may go below zero: a hold never waits and never fails, it
    only keeps helpers away.
    """
    _release(-n)
    try:
        yield
    finally:
        _release(n)


def cap(jobs):
    """Hold every core beyond ``jobs`` threads (``--jobs`` of a command).

    ``None`` (a command without ``--jobs``) holds nothing.
    """
    return hold(0 if jobs is None else max(0, _cores - max(jobs, 1)))


def _claim(most):
    global _idle
    with _lock:
        n = max(0, min(most, _idle))
        _idle -= n
    return n


def _release(n):
    global _idle
    with _lock:
        _idle += n


def _helper_pool():
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_cores - 1, thread_name_prefix="avcount-helper")
        return _pool


def lend(work, most):
    """Run ``work()`` on this thread and on up to ``most`` idle cores.

    ``work`` takes its items from a source shared by every caller and
    returns when none is left, so each thread does whatever share it gets.
    A helper that has not started when this thread's share is done is
    cancelled. Returns once every started helper has finished, and raises
    the first error of any of them.
    """
    n = _claim(most)
    if n == 0:
        return work()
    try:
        futures = [_helper_pool().submit(work) for _ in range(n)]
        try:
            work()
        finally:
            for f in futures:
                f.cancel()
            wait(futures)
        for f in futures:
            if not f.cancelled():
                f.result()
    finally:
        _release(n)


def parallel_map(fn, items, jobs):
    """``[fn(item) for item in items]`` on up to ``jobs`` threads, in order.

    Every worker beyond the first holds an idle core while the map runs, so
    the work inside ``fn`` borrows no helpers from those cores.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(it) for it in items]
    with hold(workers - 1), ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
