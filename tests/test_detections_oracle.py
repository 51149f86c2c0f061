"""Array detections against the per-peak object path they replaced.

The oracle below keeps the earlier representation: one frozen ``Peak`` per
candidate, a Python filter per (M, P) cell, and an interval matcher that
rebuilds its arrays from the ``Peak`` fields. Every result of the array path
(candidates, grid-search table and winner, ablation reports, counts and
classifications) must equal the oracle's with ``==``,
on the benchmark's reference series set plus 20 seeded sets made the same
way (dense 120 s scenes with noisy reference distances).
"""

import os
import runpy
from dataclasses import dataclass

import numpy as np
import pytest
from numeric_checks import classify_detections, reports_equal
from scipy import signal

from avcount import experiments, metrics, peakdet
from avcount.dataio import DistanceSeries, PassByAnnotation

WORKLOADS = runpy.run_path(
    os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py"),
    run_name="bench_workloads",
)
T_D = WORKLOADS["T_D"]
VARIANTS = WORKLOADS["ABLATION_VARIANTS"]
SET_SEEDS = {"reference": WORKLOADS["REFERENCE_SCENE_SEED"]}
SET_SEEDS.update((f"seed{s}", WORKLOADS["scene_seed"](s)) for s in range(1, 21))


@dataclass(frozen=True)
class Peak:
    frame_index: int
    time: float
    magnitude: float
    prominence: float
    distance: float


def old_peak_candidates(series, smoother):
    smoothed = peakdet.moving_average_cascade(series.values, smoother)
    inverted = series.t_d - smoothed
    idx = peakdet.peak_indices(inverted)
    prom = signal.peak_prominences(inverted, idx)[0]
    return [
        Peak(frame_index=i, time=i * series.frame_period, magnitude=m, prominence=p, distance=d)
        for i, m, p, d in zip(
            idx.tolist(), inverted[idx].tolist(), prom.tolist(), smoothed[idx].tolist()
        )
    ]


def old_filter(peaks, m_th, p_th):
    return [p for p in peaks if p.magnitude > m_th or p.prominence > p_th]


def old_detect_vehicles(series, det):
    cands = old_peak_candidates(series, det.smoother)
    return old_filter(cands, det.m_frac * series.t_d, det.p_frac * series.t_d)


def old_interval_minima(intervals, detections):
    times = np.array([p.time for p in detections], dtype=np.float64)
    values = np.array([p.distance for p in detections], dtype=np.float64)
    starts = np.array(intervals[:, 0], dtype=np.float64)
    ends = np.array(intervals[:, 1], dtype=np.float64)
    k = np.searchsorted(ends, times, side="left")
    hit = k < ends.size
    hit[hit] = starts[k[hit]] <= times[hit]
    best = np.full(ends.size, np.inf)
    np.minimum.at(best, k[hit], values[hit])
    return best, values


def old_pooled_counts(per_clip, t_d, n_points=100):
    all_best, all_values, n_true = [], [], 0
    for intervals, detections in per_clip:
        best, values = old_interval_minima(intervals, detections)
        n_true += len(intervals)
        all_best.append(best)
        all_values.append(values)
    if n_true == 0:
        raise ValueError("no true vehicles in the evaluation set")
    best = np.sort(np.concatenate(all_best))
    values = np.sort(np.concatenate(all_values))
    thresholds = np.linspace(0.0, t_d, n_points)
    tp = np.searchsorted(best, thresholds, side="left").astype(np.float64)
    below = np.searchsorted(values, thresholds, side="left").astype(np.float64)
    return thresholds, tp, below, n_true


def old_grid_search(predictions, annotations, grid, t_d):
    intervals = [metrics.build_intervals(a, t_d) for a in annotations]
    lo, hi = grid.objective_lo * t_d - 1e-12, grid.objective_hi * t_d + 1e-12
    table, best = [], None
    for lengths in grid.smoothers:
        smoother = peakdet.SmootherSpec(tuple(lengths))
        candidates = [old_peak_candidates(s, smoother) for s in predictions]
        for m_frac in grid.m_fracs:
            for p_frac in grid.p_fracs:
                per_clip = [
                    (iv, old_filter(cands, m_frac * t_d, p_frac * t_d))
                    for iv, cands in zip(intervals, candidates)
                ]
                thresholds, tp, below, n_true = old_pooled_counts(per_clip, t_d)
                rvce = (n_true - (tp + (below - tp))) / n_true * 100.0
                in_range = (lo <= thresholds) & (thresholds <= hi)
                score = float(np.mean(np.abs(rvce[in_range])))
                table.append(
                    {"smoother": tuple(lengths), "m_frac": m_frac, "p_frac": p_frac,
                     "mean_abs_rvce": score}
                )
                key = (score, smoother.total_taps, m_frac, p_frac)
                if best is None or key < best[0]:
                    best = (key, peakdet.DetectorSpec(smoother, m_frac, p_frac))
    return best[1], table


def as_fields(detections):
    """A Detections' fields as lists, in the Peak-list layout."""
    return [
        (i, t, m, p, d)
        for i, t, m, p, d in zip(
            detections.frame_index.tolist(), detections.time.tolist(),
            detections.magnitude.tolist(), detections.prominence.tolist(),
            detections.distance.tolist(),
        )
    ]


def peak_fields(peaks):
    return [(p.frame_index, p.time, p.magnitude, p.prominence, p.distance) for p in peaks]


@pytest.fixture(scope="module", params=list(SET_SEEDS.values()), ids=list(SET_SEEDS))
def series_set(request):
    return WORKLOADS["make_series_set"](request.param, WORKLOADS["EVAL_CLIPS"])


def test_grid_search_equals_peak_oracle(series_set):
    s = series_set
    grid = experiments.GridSpec()
    for lengths in grid.smoothers:
        smoother = peakdet.SmootherSpec(lengths)
        for series in s.stage2:
            new = peakdet.peak_candidates(series, smoother)
            assert as_fields(new) == peak_fields(old_peak_candidates(series, smoother))
    best, table = experiments.grid_search(s.stage2, s.annotations, grid, T_D)
    want_best, want_table = old_grid_search(s.stage2, s.annotations, grid, T_D)
    assert best == want_best
    assert table == want_table


def test_ablation_reports_equal_peak_oracle(series_set, monkeypatch):
    ctx = series_set.context
    got = {v: experiments.run_ablation(v, ctx) for v in VARIANTS}
    with monkeypatch.context() as m:
        m.setattr(experiments, "detect_vehicles", old_detect_vehicles)
        m.setattr(metrics, "pooled_counts", old_pooled_counts)
        want = {v: experiments.run_ablation(v, ctx) for v in VARIANTS}
    assert got.keys() == want.keys()
    assert all(reports_equal(got[v], want[v]) for v in VARIANTS)


def test_counts_and_classes_equal_peak_oracle(series_set):
    ctx = series_set.context
    thresholds = np.linspace(0.0, T_D, 100).tolist()
    for v in VARIANTS:
        det, field_name = experiments.parse_variant(v)
        det, series_by_id = det or ctx.detector, getattr(ctx, field_name)
        for clip_id, ann in ctx.annotations.items():
            intervals = metrics.build_intervals(ann, T_D)
            new = peakdet.detect_vehicles(series_by_id[clip_id], det)
            old = old_detect_vehicles(series_by_id[clip_id], det)
            assert as_fields(new) == peak_fields(old)
            best, values = old_interval_minima(intervals, old)
            for t in thresholds:
                assert peakdet.count_at_threshold(new, t) == sum(1 for p in old if p.distance < t)
                tp, below = int(np.sum(best < t)), int(np.sum(values < t))
                want = (tp, below - tp, len(intervals) - tp)
                assert classify_detections(intervals, new, t) == want


def exact_level(th):
    """A series value whose inverted height t_d - value is exactly th, if any."""
    near = T_D - th
    return next((v for v in (near, np.nextafter(near, 0), np.nextafter(near, 1)) if T_D - v == th),
                None)


def tie_series_set():
    """One clip whose peaks sit exactly on the default grid's M and P values.

    Unsmoothed (smoother (1,)), so each peak's magnitude is t_d minus the
    series value. An M tie is a shoulder beside a tall peak: magnitude equal
    to M, prominence 0.01. A P tie is a lone peak on a flat t_d series:
    magnitude and prominence both equal to P, below every M. The last peak's
    distance equals a point of the curves' threshold grid. A vehicle sits at
    every other peak, so some intervals hold only a rejected peak.
    """
    grid = experiments.GridSpec(smoothers=((1,),))
    fp, values, peak_frames = 0.1, [], []
    m_ties = [m * T_D for m in grid.m_fracs]
    p_ties = [p * T_D for p in grid.p_fracs if exact_level(p * T_D) is not None]
    assert len(p_ties) >= 2
    for th in m_ties:
        shoulder = T_D - (th - 0.01)
        values += [T_D] * 20 + [T_D - 0.7, shoulder, exact_level(th)]
        peak_frames.append(len(values) - 1)
        values.append(shoulder)
    for th in p_ties:
        values += [T_D] * 20 + [exact_level(th)]
        peak_frames.append(len(values) - 1)
    values += [T_D] * 20 + [np.linspace(0.0, T_D, 100)[60]] + [T_D] * 20
    peak_frames.append(len(values) - 21)
    series = DistanceSeries("tie", np.array(values), fp, T_D)
    instants = tuple(i * fp for i in peak_frames[::2])
    return grid, series, PassByAnnotation("tie", instants, len(values) * fp)


def test_threshold_ties_equal_peak_oracle(monkeypatch):
    grid, series, ann = tie_series_set()
    cands = peakdet.peak_candidates(series, peakdet.SmootherSpec((1,)))
    ties = {m * T_D for m in grid.m_fracs} | {p * T_D for p in grid.p_fracs}
    assert sum(m in ties for m in cands.magnitude.tolist()) >= 6  # the ties exist
    best, table = experiments.grid_search([series], [ann], grid, T_D)
    assert (best, table) == old_grid_search([series], [ann], grid, T_D)
    intervals = metrics.build_intervals(ann, T_D)
    for cell in table:
        det = peakdet.DetectorSpec(peakdet.SmootherSpec((1,)), cell["m_frac"], cell["p_frac"])
        new, old = peakdet.detect_vehicles(series, det), old_detect_vehicles(series, det)
        assert as_fields(new) == peak_fields(old)
        got = metrics.compute_curve([(intervals, new)], T_D)
        with monkeypatch.context() as m:
            m.setattr(metrics, "pooled_counts", old_pooled_counts)
            assert reports_equal(got, metrics.compute_curve([(intervals, old)], T_D))
