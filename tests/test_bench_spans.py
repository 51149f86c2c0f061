"""The benchmark's per-layer tracing wraps package functions by name.

``bench/bench.py --trace 1`` looks up every ``module.function`` listed in
``bench/spans.py``'s ``TRACED`` table with ``getattr``; a rename or removal
in the package would break that run, so this test names the missing ones.
"""

import importlib
import os
import runpy

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def test_every_traced_name_resolves():
    spans = runpy.run_path(SPANS_PATH, run_name="bench_spans")
    for module in spans["PACKAGE_MODULES"]:
        importlib.import_module(f"avcount.{module}")
    missing = [
        f"{module}.{name}"
        for module, names in spans["TRACED"].items()
        for name in names
        if not callable(getattr(importlib.import_module(f"avcount.{module}"), name, None))
    ]
    assert not missing, f"bench/spans.py traces names avcount no longer has: {missing}"
