"""Experiment orchestration: grid search, ablation variants, multi-run bands.

Variants mirror the method family: the full two-stage counter, the
Stage-1-only counter, the full-frequency-features retrain (f_min = 0), the
prominence-only detectors (magnitude clause disabled via m_frac = 1), and
the deep counter. Each variant is pure data: a detector spec plus which
predicted series it consumes.

The grid search finds the peak candidates once per smoother and scores
every (M, P) cell of it in one array pass. Each ablation report runs its
own detection; nothing is memoized between calls.
"""

import os
import re
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import deepcount, distreg, metrics, parallel
from .dataio import (
    DEFAULT_T_D,
    corpus_annotations,
    load_clip,
    reference_distance,
    split_dataset,
    wav_paths,
)
from .features import FeatureMatrix, log_mel, read_feature_cache, stack_context, stft_power
from .metrics import MetricsReport, compute_curve, confidence_interval
from .nn_core import NumericError, check_real
from .peakdet import DetectorSpec, SmootherSpec, check_lengths, detect_vehicles, peak_candidates

if TYPE_CHECKING:  # config imports GridSpec from here
    from .config import ToolConfig

# tuned detection parameters per variant (smoother lengths, M, P as fractions of t_d)
TUNED_DETECTORS = {
    "VCNN": DetectorSpec(SmootherSpec((5, 3)), m_frac=0.40, p_frac=0.20),
    "VCNN_S1": DetectorSpec(SmootherSpec((7, 3)), m_frac=0.45, p_frac=0.25),
    "VCNN_f0": DetectorSpec(SmootherSpec((5, 3)), m_frac=0.45, p_frac=0.20),
}

def pp_detector(p_frac: float) -> DetectorSpec:
    """Prominence-only detection: m_frac = 1 disables the magnitude clause."""
    return DetectorSpec(SmootherSpec((5, 3)), m_frac=1.0, p_frac=p_frac)


@dataclass(frozen=True)
class GridSpec:
    smoothers: tuple = ((5, 3), (7, 3), (7, 5, 3))
    m_fracs: tuple = (0.35, 0.40, 0.45, 0.50)
    p_fracs: tuple = (0.10, 0.15, 0.20, 0.25)
    objective_lo: float = 0.5  # objective range as fractions of t_d
    objective_hi: float = 1.0

    def __post_init__(self):
        if not (self.smoothers and self.m_fracs and self.p_fracs):
            raise ValueError("grid axes must be nonempty")
        for lengths in self.smoothers:
            check_lengths(lengths)
        for name in ("m_fracs", "p_fracs"):
            for value in getattr(self, name):
                check_real(name, value, low=0.0, high=1.0)
        check_real("objective_lo", self.objective_lo, low=0.0)
        check_real("objective_hi", self.objective_hi, low=self.objective_lo, high=1.0)


def grid_search(predictions, annotations, grid: GridSpec, t_d: float):
    """Exhaustive (smoother, M, P) search minimizing mean |RVCE|.

    The objective averages |RVCE| over the threshold grid points inside
    [objective_lo*t_d, objective_hi*t_d]. Ties break toward fewer filter
    taps, then smaller M, then smaller P. Returns (best DetectorSpec,
    score table).
    """
    predictions, annotations = list(predictions), list(annotations)
    if not predictions:
        raise ValueError("empty tuning set")
    if len(predictions) != len(annotations):
        raise ValueError("need one annotation per predicted series")
    n_true = sum(a.n_vehicles for a in annotations)
    if n_true == 0:
        raise ValueError("no true vehicles in the evaluation set")
    thresholds = np.linspace(0.0, t_d, 100)
    lo, hi = grid.objective_lo * t_d - 1e-12, grid.objective_hi * t_d + 1e-12
    in_range = (lo <= thresholds) & (thresholds <= hi)
    if not in_range.any():
        raise ValueError(f"objective range {lo:.6g}..{hi:.6g} s holds no threshold point")
    m_thresh = np.array(grid.m_fracs, dtype=np.float64)[:, None, None] * t_d
    p_thresh = np.array(grid.p_fracs, dtype=np.float64)[None, :, None] * t_d
    table = []
    best = None
    for lengths in grid.smoothers:
        smoother = SmootherSpec(tuple(lengths))
        # RVCE compares N_true with N_est = TP + FP, the detections below a
        # threshold wherever they fall, so a cell needs no interval matching:
        # only the distances of its kept candidates, pooled over all clips
        # and sorted once per smoother
        cands = [peak_candidates(s, smoother) for s in predictions]
        distance = np.concatenate([c.distance for c in cands])
        order = np.argsort(distance)
        distance = distance[order]
        magnitude = np.concatenate([c.magnitude for c in cands])[order]
        prominence = np.concatenate([c.prominence for c in cands])[order]
        # every (M, P) cell at once: the candidates below a threshold are a
        # prefix of the sorted pool, so a cell's count below it is its kept
        # count over that prefix
        keep = (magnitude > m_thresh) | (prominence > p_thresh)
        kept_before = np.zeros(keep.shape[:2] + (distance.size + 1,), dtype=np.intp)
        np.cumsum(keep, axis=2, out=kept_before[..., 1:])
        # np.take keeps each cell's thresholds contiguous, so the mean sums
        # them in the order a 1-D mean of one cell does; fancy indexing
        # would lay the threshold axis out first and round differently
        prefix = np.searchsorted(distance, thresholds[in_range], side="left")
        below = np.take(kept_before, prefix, axis=2)
        scores = np.mean(np.abs(metrics.rvce(n_true, below)), axis=2)
        for i, m_frac in enumerate(grid.m_fracs):
            for j, p_frac in enumerate(grid.p_fracs):
                score = float(scores[i, j])
                table.append(
                    {
                        "smoother": tuple(lengths),
                        "m_frac": m_frac,
                        "p_frac": p_frac,
                        "mean_abs_rvce": score,
                    }
                )
                key = (score, smoother.total_taps, m_frac, p_frac)
                if best is None or key < best[0]:
                    best = (key, DetectorSpec(smoother, m_frac, p_frac))
    return best[1], table


@dataclass
class EvalContext:
    """Predicted series and ground truth for one evaluation set."""

    annotations: dict
    stage2: dict
    stage1: dict | None = None
    f0_stage2: dict | None = None
    t_d: float = DEFAULT_T_D
    detector: DetectorSpec = TUNED_DETECTORS["VCNN"]  # the VCNN variant's detector


_PP_VARIANT = re.compile(r"VCNN_PP(\d+(?:\.\d+)?)")
# the EvalContext field each named variant reads
_VARIANT_SERIES = {"VCNN": "stage2", "VCNN_S1": "stage1", "VCNN_f0": "f0_stage2"}


def parse_variant(name):
    """(detector, EvalContext series field) of the variant ``name``.

    The variants are the TUNED_DETECTORS keys and VCNN_PP<n>, the
    prominence-only detector at n percent of t_d with 0 < n <= 100, which
    reads Stage 2. VCNN's detector is None: it runs the context's
    ``detector``. Any other name raises ValueError.
    """
    if isinstance(name, str):
        if name in _VARIANT_SERIES:
            return (None if name == "VCNN" else TUNED_DETECTORS[name]), _VARIANT_SERIES[name]
        match = _PP_VARIANT.fullmatch(name)
        if match and 0 < (pct := float(match.group(1))) <= 100:
            return pp_detector(pct / 100.0), "stage2"
    raise ValueError(
        f"unknown variant {name!r} (known: {', '.join(TUNED_DETECTORS)}, "
        "VCNN_PP<n> with 0 < n <= 100)"
    )


def run_ablation(variant: str, ctx: EvalContext) -> MetricsReport:
    """Evaluate one variant on the context's clips."""
    det, field_name = parse_variant(variant)
    series_by_id = getattr(ctx, field_name)
    if series_by_id is None:
        raise ValueError(f"{variant} needs {field_name} series in the context")
    det = ctx.detector if det is None else det
    per_clip = []
    for clip_id, ann in ctx.annotations.items():
        series = series_by_id[clip_id]
        per_clip.append(
            (metrics.build_intervals(ann, ctx.t_d), detect_vehicles(series, det))
        )
    return compute_curve(per_clip, ctx.t_d)


@dataclass
class RunResult:
    run_seed: int
    stage1_mse: float
    stage2_mse: float
    reports: dict = field(default_factory=dict)  # variant -> MetricsReport
    deep_rvce: float | None = None


def _f0_config(cfg: "ToolConfig") -> "ToolConfig":
    """``cfg`` with the full-frequency spectrogram (f_min = 0) of VCNN_f0."""
    return replace(cfg, spectrogram=replace(cfg.spectrogram, f_min=0.0))


def prepare_corpus(cfg: "ToolConfig", data_dir, jobs, cache_dir=None, f0=False):
    """Extract raw features of the corpus in ``data_dir`` and build targets.

    The corpus loader of the commands that train (``train``, ``gridsearch``,
    ``experiment``); inference holds no corpus. The clips (``wav_paths``)
    stream through up to ``jobs`` clip workers: each loads its WAV, reads
    its features from ``<cache_dir>/<id>.avcf`` when that file exists, and
    otherwise runs one ``stft_power`` that feeds ``log_mel`` +
    ``stack_context`` for each setting: the configured one, plus VCNN_f0's
    f_min = 0 when ``f0`` is set. A worker drops the samples once its clip
    is done, so only one clip per worker is held at a time. Pass
    ``cache_dir`` or ``f0``, not both: a cache holds the configured setting.
    The annotations come from ``corpus_annotations``, once every clip has
    loaded; a clip that fails to load raises the ``DataError`` of the first
    failing path, in path order.

    Returns (ids, features_by_id, targets_by_id, anns_by_id, f0 features by
    id or None).
    """
    specs = [cfg.spectrogram] + ([_f0_config(cfg).spectrogram] if f0 else [])

    def extract(clip):
        if cache_dir is not None:
            path = os.path.join(cache_dir, clip.id + ".avcf")
            if os.path.exists(path):
                return [read_feature_cache(path, clip, cfg.spectrogram, cfg.q, cfg.stride)]
        power = stft_power(clip, cfg.spectrogram)
        lms = [(log_mel(power, s, clip.sample_rate), s.frame_period) for s in specs]
        return [FeatureMatrix(clip.id, stack_context(m, cfg.q, cfg.stride), fp) for m, fp in lms]

    def one(path):
        clip = load_clip(path)
        return clip.id, clip.duration, extract(clip)

    ids, durations, sets = zip(*parallel.parallel_map(one, wav_paths(data_dir), jobs))
    anns = corpus_annotations(data_dir, dict(zip(ids, durations)))
    features = {i: fms[0] for i, fms in zip(ids, sets)}
    f0_features = {i: fms[1] for i, fms in zip(ids, sets)} if f0 else None
    targets = {}
    for a in anns:
        fm = features[a.clip_id]
        targets[a.clip_id] = reference_distance(a, fm.frames, fm.frame_period, cfg.t_d)
    return list(ids), features, targets, {a.clip_id: a for a in anns}, f0_features


def train_and_predict(cfg: "ToolConfig", ids, features, targets, seed: int):
    """Split, train the cascade on the train part, run it on the val part.

    The split comes from ``cfg.seed`` and stays fixed; ``seed`` seeds the
    networks. Returns (split, pipeline, train_coarse, coarse, fine):
    ``train_coarse`` lists the Stage-1 series of the train clips in split
    order, and ``coarse`` and ``fine`` are dicts keyed by validation clip id.
    """
    split = split_dataset(ids, cfg.split_ratio, cfg.seed)
    s1, s2 = cfg.stage_specs(seed)
    pipeline, train_coarse = distreg.train_pipeline(
        [features[i] for i in split.train_ids],
        [targets[i] for i in split.train_ids],
        cfg.spectrogram,
        s1,
        s2,
        q=cfg.q,
        stride=cfg.stride,
        k=cfg.k,
        t_d=cfg.t_d,
    )
    coarse, fine = distreg.cascade(pipeline, [features[i] for i in split.val_ids])
    coarse, fine = dict(zip(split.val_ids, coarse)), dict(zip(split.val_ids, fine))
    return split, pipeline, train_coarse, coarse, fine


def mean_mse(series_by_id, targets) -> float:
    """Mean over clips of each clip's MSE against its reference distance."""
    return float(
        np.mean([np.mean((s.values - targets[i].values) ** 2) for i, s in series_by_id.items()])
    )


def train_deep_counter(spec, pipeline, train_coarse, anns_by_id, train_ids, seed: int):
    """Fit the deep counter on Stage 2 run over the train clips' Stage-1 series."""
    k, t_d = pipeline.k, pipeline.t_d
    fine = [distreg.predict_stage2(pipeline.stage2, c, k, t_d) for c in train_coarse]
    return deepcount.train_counter(
        replace(spec, seed=seed), [s.values for s in fine], [anns_by_id[i].n_vehicles for i in train_ids]
    )


def single_run(cfg: "ToolConfig", dataset, run_seed: int) -> RunResult:
    """One full train + evaluate pass; eval set is the held-out split."""
    ids, features, targets, anns_by_id, f0_features = dataset
    split, pipeline, train_coarse, stage1, stage2 = train_and_predict(
        cfg, ids, features, targets, run_seed
    )
    eval_ids = split.val_ids
    ctx = EvalContext(
        annotations={i: anns_by_id[i] for i in eval_ids},
        stage2=stage2,
        stage1=stage1,
        t_d=cfg.t_d,
        detector=cfg.detector,
    )
    if f0_features is not None:
        *_, ctx.f0_stage2 = train_and_predict(_f0_config(cfg), ids, f0_features, targets, run_seed)

    result = RunResult(
        run_seed=run_seed, stage1_mse=mean_mse(stage1, targets), stage2_mse=mean_mse(stage2, targets)
    )
    for variant in cfg.variants:
        result.reports[variant] = run_ablation(variant, ctx)

    if cfg.deep is not None:
        counter = train_deep_counter(
            cfg.deep, pipeline, train_coarse, anns_by_id, split.train_ids, run_seed
        )
        n_true = sum(anns_by_id[i].n_vehicles for i in eval_ids)
        n_est = sum(deepcount.predict_count(counter, stage2[i].values) for i in eval_ids)
        result.deep_rvce = metrics.rvce(n_true, n_est)
    return result


def multi_run(cfg: "ToolConfig"):
    """Seeded repeats seed..seed+n_runs-1 with per-threshold bands.

    Each run reshuffles initialization and batch order through its seed; the
    train/validation split stays fixed. Returns (results, failures, bands)
    where bands[variant] is a list of (t_det, mean, low, high) and failures
    holds (seed, message) for runs that diverged.
    """
    dataset = prepare_corpus(
        cfg, cfg.paths["data_dir"], parallel.usable_cores(), f0="VCNN_f0" in cfg.variants
    )
    results, failures = [], []
    for r in range(cfg.n_runs):
        seed = cfg.seed + r
        try:
            results.append(single_run(cfg, dataset, seed))
        except NumericError as exc:
            failures.append((seed, str(exc)))
    bands = {}
    if len(results) >= 2:
        for variant in cfg.variants:
            t_det = results[0].reports[variant].t_det.tolist()
            runs = np.stack([res.reports[variant].rvce for res in results], axis=1)
            bands[variant] = [(t, *confidence_interval(row)) for t, row in zip(t_det, runs)]
    return results, failures, bands
