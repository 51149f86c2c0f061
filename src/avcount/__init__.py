"""Acoustic vehicle counting from one-channel audio.

Pipeline: HF-LMS features -> two-stage neural distance regression ->
local-minima detection with a magnitude-or-prominence rule -> counting and
error curves. A synthetic scene generator makes the whole chain runnable
without the original recordings.
"""

from .dataio import (
    AudioClip,
    DataError,
    DatasetSplit,
    DistanceSeries,
    PassByAnnotation,
    load_annotations,
    load_clip,
    load_corpus,
    reference_distance,
    save_wav,
    split_dataset,
)
from .features import (
    FeatureMatrix,
    FeatureStats,
    SpectrogramConfig,
    extract_features,
    hf_lms,
    mel_filterbank,
    stack_context,
    standardize,
    stft_power,
)
from .nn_core import NetworkSpec, NumericError, TrainedModel, forward, train
from .distreg import (
    RegressionPipeline,
    cascade,
    load_pipeline,
    predict_distance,
    save_pipeline,
    train_pipeline,
)
from .peakdet import (
    Detections,
    DetectorSpec,
    SmootherSpec,
    count_at_threshold,
    detect_vehicles,
    moving_average_cascade,
    prominence,
)
from .metrics import (
    MetricsReport,
    build_intervals,
    compute_curve,
    confidence_interval,
    rvce,
)
from .deepcount import ConvCounterSpec, DeepCounter, conv_forward, predict_count, train_counter
from .synthgen import SceneSpec, generate_corpus, generate_scene
from .experiments import (
    EvalContext,
    GridSpec,
    RunResult,
    TUNED_DETECTORS,
    grid_search,
    multi_run,
    run_ablation,
)

__version__ = "0.1.0"
