"""Two-stage distance regression: features -> coarse distance -> refined.

Stage 1 regresses the clipped distance from stacked HF-LMS features,
frame by frame. Stage 2 refines it from a window of 2k+1 consecutive
Stage-1 outputs centered on the frame. Stage 2 trains on Stage-1
predictions for the same training clips (not on reference distances), so
it learns to fix the actual Stage-1 error distribution. All emitted
distances are clamped to [0, t_d].
"""

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import nn_core
from .dataio import DEFAULT_T_D, AudioClip, DataError, DistanceSeries
from .features import (
    DEFAULT_CONTEXT_STRIDE,
    DEFAULT_Q,
    FeatureMatrix,
    FeatureStats,
    SpectrogramConfig,
    _context_rows,
    extract_features,
    standardize,
)
from .nn_core import NetworkSpec, TrainedModel, check_int, check_keys, check_real, spec_from_json

DEFAULT_K = 15
STAGE1_L2 = 1e-4
STAGE2_L2 = 5e-6
_BUNDLE_KEYS = {"t_d", "k", "q", "stride", "spectrogram"}


def stage1_spec(input_dim: int = 528, epochs: int = 100, seed: int = 0, **kw) -> NetworkSpec:
    return NetworkSpec(
        layer_sizes=(input_dim, 64, 64, 1),
        l2_factor=STAGE1_L2,
        loss="mse",
        epochs=epochs,
        seed=seed,
        **kw,
    )


def stage2_spec(k: int = DEFAULT_K, epochs: int = 100, seed: int = 0, **kw) -> NetworkSpec:
    return NetworkSpec(
        layer_sizes=(2 * k + 1, 31, 15, 1),
        l2_factor=STAGE2_L2,
        loss="mse",
        epochs=epochs,
        seed=seed,
        **kw,
    )


@dataclass(frozen=True)
class RegressionPipeline:
    stage1: TrainedModel
    stage2: TrainedModel
    feature_stats: FeatureStats
    spectrogram: SpectrogramConfig
    q: int = DEFAULT_Q
    stride: int = DEFAULT_CONTEXT_STRIDE
    k: int = DEFAULT_K
    t_d: float = DEFAULT_T_D

    def __post_init__(self):
        width = (2 * self.q + 1) * self.spectrogram.n_mel
        if self.stage1.spec.layer_sizes[0] != width:
            raise ValueError(f"stage1 input size must equal (2q+1)*n_mel = {width}")
        if self.stage2.spec.layer_sizes[0] != 2 * self.k + 1:
            raise ValueError("stage2 input size must equal 2k+1")
        if self.feature_stats.mean.shape != (width,):
            raise ValueError(
                f"feature statistics have shape {self.feature_stats.mean.shape}, "
                f"expected ({width},)"
            )


def _check_aligned(frame_counts, targets, t_d):
    """One input frame count per target series, each equal to its length."""
    if len(frame_counts) != len(targets):
        raise ValueError("input and target clip counts differ")
    for n, ds in zip(frame_counts, targets):
        if n != ds.n_frames:
            raise ValueError(
                f"clip {ds.clip_id!r}: {n} input frames vs {ds.n_frames} target frames"
            )
        if np.any(ds.values < 0) or np.any(ds.values > t_d):
            raise ValueError(f"clip {ds.clip_id!r}: targets outside [0, {t_d}]")


def train_stage1(x, targets, spec: NetworkSpec, t_d: float = DEFAULT_T_D) -> TrainedModel:
    """Train the coarse regressor on all frames of all clips pooled.

    ``x`` holds the clips' standardized feature rows one clip after
    another, in the order of ``targets``.
    """
    y = np.concatenate([ds.values for ds in targets])
    if len(x) != y.size:
        raise ValueError(f"{len(x)} input frames vs {y.size} target frames")
    if np.any(y < 0) or np.any(y > t_d):
        raise ValueError(f"targets outside [0, {t_d}]")
    return nn_core.train(spec, x, y)


def predict_stage1(stage1: TrainedModel, features: FeatureMatrix, t_d: float = DEFAULT_T_D) -> DistanceSeries:
    """Per-frame coarse prediction, clamped to [0, t_d]."""
    raw = nn_core.forward(stage1, features.data)[:, 0]
    return DistanceSeries(
        clip_id=features.clip_id,
        values=np.clip(raw, 0.0, t_d),
        frame_period=features.frame_period,
        t_d=t_d,
    )


def stage2_windows(coarse: DistanceSeries, k: int) -> np.ndarray:
    """Rows of 2k+1 consecutive coarse values centered per frame, edges replicated."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _context_rows(coarse.values, np.arange(-k, k + 1))


def train_stage2(coarse_list, targets, spec: NetworkSpec, k: int = DEFAULT_K, t_d: float = DEFAULT_T_D) -> TrainedModel:
    """Train the refiner on windows of Stage-1 predictions for the train clips."""
    coarse_list, targets = list(coarse_list), list(targets)
    _check_aligned([c.n_frames for c in coarse_list], targets, t_d)
    x = np.concatenate([stage2_windows(c, k) for c in coarse_list], axis=0)
    y = np.concatenate([ds.values for ds in targets])
    return nn_core.train(spec, x, y)


def predict_stage2(stage2: TrainedModel, coarse: DistanceSeries, k: int = DEFAULT_K, t_d: float = DEFAULT_T_D) -> DistanceSeries:
    raw = nn_core.forward(stage2, stage2_windows(coarse, k))[:, 0]
    return DistanceSeries(
        clip_id=coarse.clip_id,
        values=np.clip(raw, 0.0, t_d),
        frame_period=coarse.frame_period,
        t_d=t_d,
    )


def train_pipeline(
    features,
    targets,
    spectrogram: SpectrogramConfig,
    s1_spec: NetworkSpec,
    s2_spec: NetworkSpec,
    q: int = DEFAULT_Q,
    stride: int = DEFAULT_CONTEXT_STRIDE,
    k: int = DEFAULT_K,
    t_d: float = DEFAULT_T_D,
) -> RegressionPipeline:
    """Fit standardization, Stage 1, then Stage 2 on the cascade outputs.

    ``features`` are raw (unstandardized) per-clip matrices; standardization
    statistics are fitted here and stored on the pipeline. Stage 1 trains
    on the pooled matrix that fitting standardizes in place, and predicts
    each clip from its row view of it.

    Returns (pipeline, coarse): ``coarse`` holds the Stage-1 series of the
    training clips, in order, on which Stage 2 trained.
    """
    features, targets = list(features), list(targets)
    _check_aligned([fm.frames for fm in features], targets, t_d)
    std_features, stats = standardize(features)
    stage1 = train_stage1(std_features[0].data.base, targets, s1_spec, t_d)
    coarse = [predict_stage1(stage1, fm, t_d) for fm in std_features]
    stage2 = train_stage2(coarse, targets, s2_spec, k, t_d)
    pipeline = RegressionPipeline(
        stage1=stage1,
        stage2=stage2,
        feature_stats=stats,
        spectrogram=spectrogram,
        q=q,
        stride=stride,
        k=k,
        t_d=t_d,
    )
    return pipeline, coarse


def cascade(pipeline: RegressionPipeline, raw_features):
    """Run the trained cascade on raw (unstandardized) per-clip features.

    Standardizes with the pipeline's statistics, then Stage 1, then Stage 2
    on windows of the Stage-1 output. Returns parallel lists (coarse, fine)
    of DistanceSeries, one per input clip.
    """
    std_features, _ = standardize(list(raw_features), pipeline.feature_stats)
    coarse = [predict_stage1(pipeline.stage1, fm, pipeline.t_d) for fm in std_features]
    fine = [predict_stage2(pipeline.stage2, c, pipeline.k, pipeline.t_d) for c in coarse]
    return coarse, fine


def predict_distance(pipeline: RegressionPipeline, clip: AudioClip) -> DistanceSeries:
    """Full cascade: features -> standardize -> Stage 1 -> Stage 2 -> clamp."""
    fm = extract_features(clip, pipeline.spectrogram, pipeline.q, pipeline.stride)
    _, (fine,) = cascade(pipeline, [fm])
    return fine


# --- pipeline bundle on disk -------------------------------------------------


def save_pipeline(pipeline: RegressionPipeline, directory):
    os.makedirs(directory, exist_ok=True)
    nn_core.save_model(pipeline.stage1, os.path.join(directory, "stage1.ckpt"))
    nn_core.save_model(pipeline.stage2, os.path.join(directory, "stage2.ckpt"))
    nn_core.write_checkpoint(
        os.path.join(directory, "stats.bin"),
        "feature_stats",
        {},
        [("mean", pipeline.feature_stats.mean), ("std", pipeline.feature_stats.std)],
    )
    meta = {
        "t_d": pipeline.t_d,
        "k": pipeline.k,
        "q": pipeline.q,
        "stride": pipeline.stride,
        "spectrogram": asdict(pipeline.spectrogram),
    }
    with open(os.path.join(directory, "pipeline.json"), "w") as fh:
        json.dump(meta, fh, sort_keys=True, separators=(",", ":"))


def load_pipeline(directory) -> RegressionPipeline:
    """Load a bundle written by save_pipeline.

    A bundle with a missing or malformed file, settings of the wrong type,
    statistics without ``mean`` and ``std``, weights or statistics that hold
    NaN or infinity, a ``std`` that is not positive, or parts whose widths
    disagree raises DataError.
    """
    try:
        with open(os.path.join(directory, "pipeline.json")) as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read pipeline bundle in {directory}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise DataError(f"corrupt pipeline.json in {directory}: {exc}") from exc
    stage1 = nn_core.load_model(os.path.join(directory, "stage1.ckpt"))
    stage2 = nn_core.load_model(os.path.join(directory, "stage2.ckpt"))
    stats_path = os.path.join(directory, "stats.bin")
    _, _, blocks = nn_core.read_checkpoint(stats_path, "feature_stats")
    named = dict(blocks)
    if set(named) != {"mean", "std"}:
        raise DataError(f"{stats_path}: blocks {sorted(named)}, expected ['mean', 'std']")
    for name, block in named.items():
        if not np.all(np.isfinite(block)):
            raise DataError(f"{stats_path}: block {name!r} holds NaN or infinity")
    if not np.all(named["std"] > 0):
        raise DataError(f"{stats_path}: block 'std' holds a value <= 0")
    try:
        check_keys(meta, _BUNDLE_KEYS, "pipeline.json", _BUNDLE_KEYS)
        spectrogram = spec_from_json(
            SpectrogramConfig, meta["spectrogram"], "spectrogram", complete=True
        )
        check_int("q", meta["q"], 0)
        check_int("stride", meta["stride"], 1)
        check_int("k", meta["k"], 0)
        check_real("t_d", meta["t_d"], positive=True)
        return RegressionPipeline(
            stage1=stage1,
            stage2=stage2,
            feature_stats=FeatureStats(mean=named["mean"], std=named["std"]),
            spectrogram=spectrogram,
            q=meta["q"],
            stride=meta["stride"],
            k=meta["k"],
            t_d=float(meta["t_d"]),
        )
    except (TypeError, ValueError) as exc:
        raise DataError(f"invalid pipeline bundle in {directory}: {exc}") from exc
