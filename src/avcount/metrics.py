"""Counting-error evaluation: TP/FP/FN curves, EFP points, RVCE, intervals.

A detected minimum is a true positive when it falls inside the pass-by
interval of some vehicle and below the detection threshold, with at most
one minimum credited per interval. Intervals are [t_k - t_d, t_k + t_d]
clipped to the clip bounds; where neighbors overlap, the boundary is the
midpoint between the two instants, so intervals partition and every
instant owns exactly one interval. All three probabilities are normalized
by the true vehicle count, which is what makes FPs and FNs cancel exactly
at the equal-false-probability point.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy import stats as _scipy_stats

from .dataio import PassByAnnotation


@dataclass(frozen=True)
class PassByInterval:
    clip_id: str
    start: float
    end: float
    center: float

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError("need start < end")
        if not self.start <= self.center <= self.end:
            raise ValueError("center must lie inside the interval")


@dataclass(frozen=True)
class CurvePoint:
    t_det: float
    p_tp: float
    p_fp: float
    p_fn: float


@dataclass(frozen=True)
class MetricsReport:
    curve: tuple
    area_ptp: float
    efp_tdet: float | None
    efp_value: float | None
    rvce_by_tdet: tuple  # (t_det, signed percent) pairs


def build_intervals(ann: PassByAnnotation, t_d: float) -> list:
    """Pass-by intervals around each instant; overlaps split at midpoints."""
    instants = ann.instants
    out = []
    for i, t in enumerate(instants):
        start = t - t_d
        end = t + t_d
        if i > 0:
            start = max(start, 0.5 * (instants[i - 1] + t))
        if i + 1 < len(instants):
            end = min(end, 0.5 * (t + instants[i + 1]))
        start = max(start, 0.0)
        end = min(end, ann.duration)
        out.append(PassByInterval(clip_id=ann.clip_id, start=start, end=end, center=t))
    return out


def _interval_minima(intervals, detections):
    """Per interval, the smallest detection distance inside it (inf if none).

    Also returns every detection's distance value. Each detection is matched
    to the first interval containing its time. The intervals must be sorted
    and disjoint apart from shared endpoints, as build_intervals makes them:
    the first interval ending at or after a time is then the only candidate,
    and at a shared endpoint it is the earlier of the two.
    """
    times, values = detections.time, detections.distance
    starts = np.array([iv.start for iv in intervals], dtype=np.float64)
    ends = np.array([iv.end for iv in intervals], dtype=np.float64)
    k = np.searchsorted(ends, times, side="left")
    hit = k < ends.size
    hit[hit] = starts[k[hit]] <= times[hit]
    best = np.full(ends.size, np.inf)
    np.minimum.at(best, k[hit], values[hit])
    return best, values


def classify_detections(intervals, detections, t_det: float):
    """(tp, fp, fn) at one threshold; strict inequality, one TP per interval."""
    best, values = _interval_minima(intervals, detections)
    tp = int(np.sum(best < t_det))
    below = int(np.sum(values < t_det))
    return tp, below - tp, len(intervals) - tp


def pooled_counts(per_clip, t_d: float, n_points: int = 100):
    """Counts pooled over clips at equidistant thresholds in [0, t_d].

    ``per_clip`` holds (intervals, Detections) pairs. Returns (thresholds,
    tp, below, n_true): per threshold, the intervals whose best detection
    lies below it and the detections below it (as float arrays), plus the
    number of true vehicles. FPs are ``below - tp``.
    """
    all_best = []
    all_values = []
    n_true = 0
    for intervals, detections in per_clip:
        best, values = _interval_minima(intervals, detections)
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


def compute_curve(per_clip, t_d: float, n_points: int = 100) -> MetricsReport:
    """Pooled pTP/pFP/pFN over equidistant thresholds in [0, t_d].

    ``per_clip`` holds (intervals, detections) pairs. The EFP point is the
    pFP/pFN crossing located by linear interpolation on the grid; with no
    crossing it is reported as absent.
    """
    thresholds, tp, below, n_true = pooled_counts(per_clip, t_d, n_points)
    p_tp = tp / n_true
    p_fp = (below - tp) / n_true
    p_fn = 1.0 - p_tp

    curve = tuple(
        CurvePoint(t_det=float(t), p_tp=float(a), p_fp=float(b), p_fn=float(c))
        for t, a, b, c in zip(thresholds, p_tp, p_fp, p_fn)
    )
    rvce_by_tdet = tuple(
        (float(t), float((n_true - (a + b)) / n_true * 100.0))
        for t, a, b in zip(thresholds, tp, below - tp)
    )

    efp_tdet = efp_value = None
    diff = p_fp - p_fn
    for i in range(n_points):
        if diff[i] == 0.0:
            efp_tdet, efp_value = float(thresholds[i]), float(p_fp[i])
            break
        if i + 1 < n_points and (diff[i] < 0.0 < diff[i + 1] or diff[i] > 0.0 > diff[i + 1]):
            frac = diff[i] / (diff[i] - diff[i + 1])
            efp_tdet = float(thresholds[i] + frac * (thresholds[i + 1] - thresholds[i]))
            efp_value = float(p_fp[i] + frac * (p_fp[i + 1] - p_fp[i]))
            break

    return MetricsReport(
        curve=curve,
        area_ptp=float(p_tp.mean()),
        efp_tdet=efp_tdet,
        efp_value=efp_value,
        rvce_by_tdet=rvce_by_tdet,
    )


def rvce(n_true: int, n_est: int) -> float:
    """Signed relative counting error in percent; positive = undercounting."""
    if n_true <= 0:
        raise ValueError("n_true must be positive")
    return (n_true - n_est) / n_true * 100.0


def confidence_interval(values, level: float = 0.95):
    """Student-t interval for the mean -> (mean, low, high)."""
    x = np.asarray(list(values), dtype=np.float64)
    if x.size < 2:
        raise ValueError("need at least 2 values")
    mean = float(x.mean())
    s = float(x.std(ddof=1))
    half = float(_scipy_stats.t.ppf(0.5 + level / 2.0, x.size - 1)) * s / np.sqrt(x.size)
    return mean, mean - half, mean + half


def write_curve_csv(path, report: MetricsReport):
    rv = dict(report.rvce_by_tdet)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_det", "p_tp", "p_fp", "p_fn", "rvce"])
        for pt in report.curve:
            writer.writerow(
                [
                    f"{pt.t_det:.6f}",
                    f"{pt.p_tp:.6f}",
                    f"{pt.p_fp:.6f}",
                    f"{pt.p_fn:.6f}",
                    f"{rv[pt.t_det]:.6f}",
                ]
            )


def write_summary_csv(path, report: MetricsReport):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["area_ptp", "efp_tdet", "efp_value"])
        writer.writerow(
            [
                f"{report.area_ptp:.6f}",
                "" if report.efp_tdet is None else f"{report.efp_tdet:.6f}",
                "" if report.efp_value is None else f"{report.efp_value:.6f}",
            ]
        )
