"""Per-layer metrics derived from a traced run's spans.

Each metric is a list of samples (one per span, or one per run for a ratio)
and is reported as the median with its sample count. Self time is a span's
duration minus the durations of its traced children.
"""

import math
import os
from dataclasses import replace

from avcount import dataio, distreg, experiments, peakdet

from workloads import (
    A5_SCENE,
    COUNT_DETECTOR,
    T_D,
    make_corpora,
    run_cli,
    write_config,
)


def _ms(spans):
    return [s.duration * 1e3 for s in spans]


def _kept_ratio(t):
    detections = t("peakdet.detect_vehicles")
    candidates = sum(s.attrs["n"] for s in t("peakdet.peak_candidates", under="peakdet.detect_vehicles"))
    if not detections or candidates == 0:
        return []
    return [sum(s.attrs["n"] for s in detections) / candidates]


def _command(t, command):
    return [s.duration for s in t("cli.main") if s.attrs["command"] == command]


def _stage1_train(t):
    return t("nn_core.train", under="distreg.train_stage1")


# name -> (unit, samples from a span query t(name, under=None))
LAYER_METRICS = {
    "synthgen.generate_scene_ms": ("ms", lambda t: _ms(t("synthgen.generate_scene"))),
    "dataio.load_clip_ms": ("ms", lambda t: _ms(t("dataio.load_clip"))),
    "dataio.wav_bytes_read": ("bytes", lambda t: [s.attrs["bytes"] for s in t("dataio.load_clip")]),
    "dataio.load_corpus_s": ("s", lambda t: [s.duration for s in t("dataio.load_corpus")]),
    "features.stft_power_ms": ("ms", lambda t: _ms(t("features.stft_power"))),
    "features.mel_log_self_ms": ("ms", lambda t: [s.self_time * 1e3 for s in t("features.hf_lms")]),
    "features.stack_context_ms": ("ms", lambda t: _ms(t("features.stack_context"))),
    "features.frames_per_clip": ("count", lambda t: [s.attrs["frames"] for s in t("features.extract_features")]),
    "features.standardize_fit_ms": ("ms", lambda t: _ms(s for s in t("features.standardize") if s.attrs["fit"])),
    "nn_core.stage1_epoch_ms": ("ms", lambda t: [s.duration * 1e3 / s.attrs["epochs"] for s in _stage1_train(t)]),
    "nn_core.stage2_epoch_ms": (
        "ms",
        lambda t: [s.duration * 1e3 / s.attrs["epochs"] for s in t("nn_core.train", under="distreg.train_stage2")],
    ),
    "nn_core.loss_and_gradients_ms": (
        "ms",
        lambda t: _ms(s for s in t("nn_core.loss_and_gradients", under="distreg.train_stage1") if s.attrs["rows"] == 256),
    ),
    "nn_core.train_rows": ("count", lambda t: [s.attrs["rows"] for s in _stage1_train(t)]),
    "nn_core.batches_per_epoch": (
        "count",
        lambda t: [math.ceil(s.attrs["rows"] / s.attrs["batch_size"]) for s in _stage1_train(t)],
    ),
    "nn_core.stage1_matrix_bytes": (
        "bytes",
        lambda t: [s.attrs["rows"] * s.attrs["cols"] * s.attrs["itemsize"] for s in _stage1_train(t)],
    ),
    "nn_core.forward_infer_ms": ("ms", lambda t: _ms(t("nn_core.forward", under="distreg.predict_stage1"))),
    "distreg.train_pipeline_s": ("s", lambda t: [s.duration for s in t("distreg.train_pipeline")]),
    "distreg.save_pipeline_ms": ("ms", lambda t: _ms(t("distreg.save_pipeline"))),
    "distreg.predict_distance_ms": ("ms", lambda t: _ms(t("distreg.predict_distance"))),
    "distreg.load_pipeline_ms": ("ms", lambda t: _ms(t("distreg.load_pipeline"))),
    "deepcount.train_counter_epoch_ms": (
        "ms",
        lambda t: [s.duration * 1e3 / s.attrs["epochs"] for s in t("deepcount.train_counter")],
    ),
    "peakdet.peak_candidates_ms": ("ms", lambda t: _ms(t("peakdet.peak_candidates"))),
    "peakdet.detect_vehicles_ms": ("ms", lambda t: _ms(t("peakdet.detect_vehicles"))),
    "peakdet.candidates_per_clip": ("count", lambda t: [s.attrs["n"] for s in t("peakdet.peak_candidates")]),
    "peakdet.kept_ratio": ("ratio", _kept_ratio),
    "metrics.build_intervals_ms": ("ms", lambda t: _ms(t("metrics.build_intervals"))),
    "metrics.compute_curve_ms": ("ms", lambda t: _ms(t("metrics.compute_curve"))),
    "metrics.intervals_per_clip": ("count", lambda t: [s.attrs["n"] for s in t("metrics.build_intervals")]),
    "experiments.grid_search_ms": ("ms", lambda t: _ms(t("experiments.grid_search"))),
    "experiments.run_ablation_ms": ("ms", lambda t: _ms(t("experiments.run_ablation"))),
    "experiments.grid_cells": ("count", lambda t: [s.attrs["cells"] for s in t("experiments.grid_search")]),
    "cli.train_s": ("s", lambda t: _command(t, "train")),
    "cli.eval_s": ("s", lambda t: _command(t, "eval")),
    "cli.count_s": ("s", lambda t: _command(t, "count")),
}


def layer_samples(tracer, ops):
    """Samples of every layer metric from the spans of the given operations."""

    def query(name, under=None):
        return tracer.named(name, under=under, ops=ops)

    return {name: list(fn(query)) for name, (_, fn) in LAYER_METRICS.items()}


def replay(directory, seed, jobs):
    """A small pass over every layer, for the layers a workload never calls.

    Trains a one-epoch bundle and deep counter on four A5-scene clips with
    two vehicles each, evaluates it on two held-out clips, counts them one
    at a time and as a batch, and grid-searches the held-out predictions.
    Run under the tracer with its own op tag.
    """
    # two vehicles per clip: eval rejects a held-out set without vehicles
    scene = replace(A5_SCENE, n_vehicles=2)
    train_dir, heldout_dir = make_corpora(directory, 2_000_000 + seed, 4, 2, scene)
    config = write_config(
        os.path.join(directory, "config.json"),
        {"seed": 0, "epochs": 1, "deep": {"epochs": 1}},
    )
    model = os.path.join(directory, "model")
    reports = os.path.join(directory, "reports")
    for argv in (
        ["train", "--config", config, "--data", train_dir, "--out", model, "--deep"],
        ["eval", "--model", model, "--data", heldout_dir, "--out", reports],
        ["count", "--model", model, "--audio", heldout_dir],
    ):
        code, _, _ = run_cli(argv + ["--jobs", str(jobs)])
        if code != 0:
            raise RuntimeError(f"replay {argv[0]} exited with code {code}")
    pipeline = distreg.load_pipeline(model)
    clips, anns = dataio.load_corpus(heldout_dir)
    series = [distreg.predict_distance(pipeline, c) for c in clips]
    for s in series:
        peakdet.count_at_threshold(peakdet.detect_vehicles(s, COUNT_DETECTOR), T_D)
    experiments.grid_search(series, anns, experiments.GridSpec(), T_D)
