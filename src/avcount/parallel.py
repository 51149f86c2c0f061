"""Threads for avcount's work, bounded by the usable cores.

One map shares out all work, ``parallel_map``: the calling thread and
helpers of one process-wide pool take its items in turn, and each helper
runs on a core claimed from a count of idle cores. The count starts at
usable cores - 1 (the calling thread has a core of its own), and
``cli.main`` holds back every core beyond ``--jobs`` (``cap``). Claims
never block and are given back in ``finally``. A map inside a map, such as
a clip's front end in a clip map, finds the outer map's cores busy and runs
inline. So a batch over many clips stays one thread per clip, ``--jobs 1``
stays single-threaded, and a single request gets every idle core for its
front end. Which thread computes an item never changes its value, so outputs do
not depend on any of this.

The count and the pool (usable cores - 1 threads, started on first use)
are process-wide, as the cores are; a forked child starts with a fresh
pool and a full count.

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
    """Hold every core beyond ``jobs`` threads (``--jobs``); ``None`` holds nothing."""
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


def parallel_map(fn, items, jobs):
    """``[fn(item) for item in items]`` on this thread and up to ``jobs - 1`` idle cores.

    Each thread takes the next item until none is left, and the results
    come back in item order. A helper not started by the time this thread
    runs out of items is cancelled. After a failure no thread takes another
    item, and once the started helpers have finished, the error of the
    lowest failing index is raised, as the serial loop would raise it.
    """
    n = _claim(min(jobs, len(items)) - 1)
    results, failed = [None] * len(items), {}
    todo, take = iter(enumerate(items)), threading.Lock()

    def work():
        while True:
            with take:
                i, item = (None, None) if failed else next(todo, (None, None))
            if i is None:
                return
            try:
                results[i] = fn(item)
            except BaseException as exc:  # raised below, once the helpers are done
                failed[i] = exc

    futures = []
    try:
        for _ in range(n):
            futures.append(_helper_pool().submit(work))
        work()
    finally:
        for f in futures:
            f.cancel()
        wait(futures)
        _release(n)
    if failed:
        raise failed[min(failed)]
    return results
