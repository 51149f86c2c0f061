"""avcount benchmark: one command, one process, three workloads.

    python3 bench/bench.py --workload {train,count,evaluate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout. Inputs are generated from ``--seed`` inside a temporary
directory under ``.bench_work/``, which is removed before the command ends.
With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics from
spans recorded around calls into each module, plus the tracing overhead.
Lines before it give every metric with its unit and sample count, the
operation outputs that were checked, and the environment. See README.md.
"""

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse
import json
import os
import platform
import shutil
import statistics
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
BATCH_SHARE = 0.4  # share of the measured time the count workload spends on batch passes
NPROC = len(os.sched_getaffinity(0))


def import_package():
    """Import avcount from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    import avcount

    if not os.path.abspath(avcount.__file__).startswith(SRC + os.sep):
        raise ImportError(f"avcount imported from {avcount.__file__}, not {SRC}")


def blas_info():
    import ctypes
    import glob

    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": NPROC,
        "jobs": NPROC,
        "machine": platform.machine(),
    }


class Tally:
    """Ops attempted and failed; a failure is printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        from workloads import FAILURES

        self.attempted += 1
        try:
            return fn(*args)
        except FAILURES as exc:
            self.failed += 1
            print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


def p90(samples):
    """The 90th percentile (inclusive method); the sample itself if alone."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def run_setups(workload, workdir, repeats):
    """Set up ``repeats`` times, keeping the last; returns the set-up seconds."""
    times = []
    for k in range(repeats):
        directory = os.path.join(workdir, f"setup{k}")
        start = time.perf_counter()
        workload.setup(directory)
        times.append(time.perf_counter() - start)
        if k + 1 < repeats:
            shutil.rmtree(directory, ignore_errors=True)
    return times


def measure(workload, tally, seconds, tracer=None):
    """Closed loop over the workload's ops for ``seconds``, after a warm-up.

    Returns (kind, result) pairs, kind being "op", "traced" or "batch".
    Warm-up ops are checked and counted like any other but not timed. With a
    tracer, ops alternate untraced and traced, and each pair shares its
    input set.
    """
    batch = getattr(workload, "batch", None)
    for index in range(workload.warmup_ops):
        tally.run(workload.op, index)
    if batch:
        tally.run(batch)

    results = []
    op_seconds = seconds * (1 - BATCH_SHARE) if batch else seconds
    deadline = time.perf_counter() + op_seconds
    index = 0
    while index < 4 or time.perf_counter() < deadline:
        if tracer is not None and index % 2 == 1:
            tracer.op = f"op{index}"
            with tracer:
                result = tally.run(workload.op, index // 2)
            kind = "traced"
        else:
            result = tally.run(workload.op, index // 2 if tracer else index)
            kind = "op"
        if result is not None:
            results.append((kind, result))
        index += 1
    if batch:
        deadline = time.perf_counter() + seconds - op_seconds
        passes = 0
        while passes < 2 or time.perf_counter() < deadline:
            if tracer is not None and passes == 0:
                tracer.op = "batch"
                with tracer:
                    result = tally.run(batch)
            else:
                result = tally.run(batch)
            if result is not None:
                results.append(("batch", result))
            passes += 1
    return results


def op_ms(result):
    """An op's latency: the sum of its timed parts (train + eval on `train`)."""
    return sum(result.times.values()) * 1e3


def end_to_end(workload, setup_times, results):
    """The end-to-end metrics, plus detail figures printed but not gated.

    Latencies are reported at their minimum: the cost of an op when the
    shared machine is not contended (see README.md).
    """
    latencies = [op_ms(r) for kind, r in results if kind == "op"]
    if workload.rate_key:
        passes = [r.times[workload.rate_key] for _, r in results if workload.rate_key in r.times]
    else:
        passes = [ms / 1e3 for ms in latencies]
    if not latencies or not passes:
        raise RuntimeError("no timed op succeeded; see the failures above")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "op_min_ms": (min(latencies), "ms", len(latencies)),
        "audio_x": (workload.rate_audio_s / min(passes), "x", len(passes)),
    }
    detail = {
        "op_p50_ms": (statistics.median(latencies), "ms", len(latencies)),
        "op_p90_ms": (p90(latencies), "ms", len(latencies)),
    }
    if workload.name == "train":
        for key in ("train_s", "eval_s"):
            values = [r.times[key] for kind, r in results if kind == "op"]
            detail[f"{key[:-2]}_min_s"] = (min(values), "s", len(values))
            detail[f"{key[:-2]}_p50_s"] = (statistics.median(values), "s", len(values))
    return metrics, detail


def per_layer(tracer, results, directory, seed):
    """Per-layer metrics from the traced ops and set-up; a replay fills gaps."""
    from layers import LAYER_METRICS, layer_samples, replay

    own_ops = {s.op for s in tracer.spans}
    samples = layer_samples(tracer, own_ops)
    source = {name: "workload" for name, values in samples.items() if values}
    if len(source) < len(samples):
        for tag in ("replay-warmup", "replay"):  # the first pass runs cold
            tracer.op = tag
            with tracer:
                replay(os.path.join(directory, tag), seed, NPROC)
        for name, values in layer_samples(tracer, {"replay"}).items():
            if not samples[name] and values:
                samples[name], source[name] = values, "replay"
    metrics = {}
    for name, (unit, _) in LAYER_METRICS.items():
        values = samples[name]
        if not values:
            raise RuntimeError(f"no samples for layer metric {name}")
        metrics[name] = (statistics.median(values), unit, len(values))

    untraced = [op_ms(r) for kind, r in results if kind == "op"]
    traced = [op_ms(r) for kind, r in results if kind == "traced"]
    if not untraced or not traced:
        raise RuntimeError("no timed op succeeded; see the failures above")
    base = min(untraced)
    overhead = min(traced) - base
    n = min(len(traced), len(untraced))
    metrics["bench.trace_overhead_ms"] = (overhead, "ms", n)
    metrics["bench.trace_overhead_pct"] = (100.0 * overhead / base, "%", n)
    return metrics, source


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "count", "evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    os.environ.pop("AVC_SEED", None)  # the config files carry the seeds
    # `--jobs nproc` workers with one BLAS thread each stay within nproc
    # threads; it must be set before numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import avcount from {SRC}: {exc}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=base)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, NPROC)
        tally = Tally()
        if args.trace:
            tracer = Tracer()
            tracer.op = "setup"
            with tracer:
                run_setups(workload, workdir, 1)
            results = measure(workload, tally, args.seconds, tracer)
            metrics, source = per_layer(tracer, results, os.path.join(workdir, "replay"), args.seed)
            detail = {}
        else:
            setup_times = run_setups(workload, workdir, SETUP_REPEATS)
            results = measure(workload, tally, args.seconds)
            metrics, detail = end_to_end(workload, setup_times, results)
            source = {}
    except Exception:
        traceback.print_exc()
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    for name, (value, unit, n) in {**metrics, **detail}.items():
        where = f" ({source[name]})" if name in source else ""
        print(f"{name:34s} {value:14.6g} {unit:6s} n={n}{where}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "checked_outputs": workload.checked_outputs(),
        "samples": {name: n for name, (_, _, n) in {**metrics, **detail}.items()},
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
