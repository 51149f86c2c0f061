"""Shared test helpers: finite-difference gradient checks, one BLAS thread,
exact report comparison."""

import ctypes
import glob
import os
from contextlib import contextmanager
from dataclasses import fields

import numpy as np
import pytest


def fd_mismatch(fd, g, zero_tol=1e-7):
    """Mismatch score between a central difference and an analytic gradient.

    Returns the relative error where at least one side is measurable.
    Components where both are below zero_tol are genuine zeros (batch norm
    makes some bias directions exact loss symmetries); there the central
    difference carries only rounding noise (~1e-11) and a relative error is
    meaningless, so agreement within zero_tol counts as an exact match.
    """
    denom = max(abs(fd), abs(g))
    if denom <= zero_tol:
        return 0.0
    return abs(fd - g) / denom


def one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread; skip on any other BLAS."""
    return blas_thread_count(1)


@contextmanager
def blas_thread_count(n):
    """Run numpy's bundled OpenBLAS on ``n`` threads; skip on any other BLAS."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            before = getter()
            setter(n)
            try:
                yield
            finally:
                setter(before)
            return
    pytest.skip("needs numpy's bundled OpenBLAS to set its thread count")


def reports_equal(a, b):
    """Exact equality of two MetricsReports: arrays by np.array_equal, scalars by ==."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y):
            return False
    return True
