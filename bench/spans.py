"""Spans around calls into avcount's public functions, recorded from outside.

A ``Tracer`` replaces selected module-level functions of the package with
wrappers that record one span per call: name, start, end, the span that
caused it (per thread), the operation it belongs to, and a few counts taken
from the call's arguments or result. Every module global that refers to a
wrapped function is rebound, so calls made inside the package (``distreg``
calling ``nn_core.train``, ``cli`` calling an imported ``load_clip``) are
traced as well. Nothing under ``src/`` is edited; ``uninstall`` restores the
original bindings.
"""

import importlib
import os
import threading
import time
from dataclasses import dataclass, field

PACKAGE_MODULES = (
    "synthgen",
    "dataio",
    "features",
    "nn_core",
    "distreg",
    "deepcount",
    "peakdet",
    "metrics",
    "experiments",
    "cli",
)


def _standardize_attrs(args, kwargs, result):
    stats = args[1] if len(args) > 1 else kwargs.get("stats")
    return {"fit": stats is None}


def _train_attrs(args, kwargs, result):
    spec, x = args[0], args[1]
    return {
        "rows": len(x),
        "cols": x.shape[1],
        "itemsize": x.dtype.itemsize,
        "epochs": spec.epochs,
        "batch_size": spec.batch_size,
    }


# layer boundaries: module -> {function: counts taken from (args, kwargs, result)}
TRACED = {
    "synthgen": {"generate_scene": None},
    "dataio": {
        "load_clip": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
        "load_corpus": None,
    },
    "features": {
        "extract_features": lambda a, k, r: {"frames": r.frames},
        "hf_lms": None,
        "stft_power": None,
        "stack_context": None,
        "standardize": _standardize_attrs,
    },
    "nn_core": {
        "train": _train_attrs,
        "forward": lambda a, k, r: {"rows": len(r)},
        "loss_and_gradients": lambda a, k, r: {"rows": len(a[1])},
    },
    "distreg": {
        "train_pipeline": None,
        "train_stage1": None,
        "train_stage2": None,
        "predict_distance": None,
        "predict_stage1": None,
        "save_pipeline": None,
        "load_pipeline": None,
    },
    "deepcount": {"train_counter": lambda a, k, r: {"epochs": a[0].epochs}},
    "peakdet": {
        "peak_candidates": lambda a, k, r: {"n": len(r)},
        "detect_vehicles": lambda a, k, r: {"n": len(r)},
    },
    "metrics": {
        "build_intervals": lambda a, k, r: {"n": len(r)},
        "compute_curve": None,
    },
    "experiments": {
        "grid_search": lambda a, k, r: {"cells": len(r[1])},
        "run_ablation": None,
    },
    "cli": {"main": lambda a, k, r: {"command": a[0][0]}},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    op: str
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def under(self, name: str) -> bool:
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = ""
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, attrs_fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.op)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
            if attrs_fn is not None:
                span.attrs = attrs_fn(args, kwargs, result)
            tracer.spans.append(span)  # a call that raised leaves no span
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [importlib.import_module(f"avcount.{m}") for m in PACKAGE_MODULES]
        for modname, functions in TRACED.items():
            owner = importlib.import_module(f"avcount.{modname}")
            for fname, attrs_fn in functions.items():
                fn = getattr(owner, fname)
                wrapped = self._wrap(f"{modname}.{fname}", fn, attrs_fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def named(self, name, under=None, ops=None):
        return [
            s
            for s in self.spans
            if s.name == name
            and (under is None or s.under(under))
            and (ops is None or s.op in ops)
        ]
