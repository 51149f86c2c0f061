"""Counting-error evaluation: TP/FP/FN curves, EFP points, RVCE, intervals.

A detected minimum is a true positive when it falls inside the pass-by
interval of some vehicle and below the detection threshold, with at most
one minimum credited per interval. Intervals are [t_k - t_d, t_k + t_d]
clipped to the clip bounds; where neighbors overlap, the boundary is the
midpoint between the two instants, so intervals partition and every
instant owns exactly one interval. A clip's intervals are one (n, 2) array
of [start, end] rows, and a MetricsReport holds the curves as arrays over
the threshold grid. All three probabilities are normalized by the true
vehicle count, which is what makes FPs and FNs cancel exactly at the
equal-false-probability point.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np
from scipy import stats as _scipy_stats

from .dataio import PassByAnnotation


@dataclass(frozen=True, eq=False)
class MetricsReport:
    """Pooled curves as arrays over the threshold grid ``t_det``; ``rvce`` in percent."""

    t_det: np.ndarray
    p_tp: np.ndarray
    p_fp: np.ndarray
    p_fn: np.ndarray
    rvce: np.ndarray
    area_ptp: float
    efp_tdet: float | None
    efp_value: float | None


def build_intervals(ann: PassByAnnotation, t_d: float) -> np.ndarray:
    """(n_vehicles, 2) array of [start, end] rows; overlaps split at midpoints."""
    t = np.asarray(ann.instants, dtype=np.float64)
    starts = np.maximum(t - t_d, 0.0)
    ends = np.minimum(t + t_d, ann.duration)
    mid = 0.5 * (t[:-1] + t[1:])
    np.maximum(starts[1:], mid, out=starts[1:])
    np.minimum(ends[:-1], mid, out=ends[:-1])
    return np.column_stack((starts, ends))


def _interval_minima(intervals, detections):
    """Per interval, the smallest detection distance inside it (inf if none).

    Also returns every detection's distance value. Each detection is matched
    to the first interval containing its time. The intervals must be sorted
    and disjoint apart from shared endpoints, as build_intervals makes them:
    the first interval ending at or after a time is then the only candidate,
    and at a shared endpoint it is the earlier of the two.
    """
    times, values = detections.time, detections.distance
    starts, ends = intervals[:, 0], intervals[:, 1]
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

    # the first grid point where pFP equals pFN, or after which their
    # difference changes sign
    efp_tdet = efp_value = None
    diff = p_fp - p_fn
    sign = np.sign(diff)
    hit = sign == 0.0
    hit[:-1] |= sign[:-1] * sign[1:] < 0.0
    first = np.flatnonzero(hit)
    if first.size:
        i = first[0]
        if diff[i] == 0.0:
            efp_tdet, efp_value = float(thresholds[i]), float(p_fp[i])
        else:
            frac = diff[i] / (diff[i] - diff[i + 1])
            efp_tdet = float(thresholds[i] + frac * (thresholds[i + 1] - thresholds[i]))
            efp_value = float(p_fp[i] + frac * (p_fp[i + 1] - p_fp[i]))

    return MetricsReport(
        t_det=thresholds,
        p_tp=p_tp,
        p_fp=p_fp,
        p_fn=p_fn,
        rvce=(n_true - below) / n_true * 100.0,
        area_ptp=float(p_tp.mean()),
        efp_tdet=efp_tdet,
        efp_value=efp_value,
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


def write_csv(out, header, rows):
    """Write ``header`` and then ``rows`` as CSV to the file ``out`` or to the path ``out``."""
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w", newline="") as fh:
            return write_csv(fh, header, rows)
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)


def cell(value):
    """The CSV text of a number: six decimals, or empty for None."""
    return "" if value is None else f"{value:.6f}"


def write_curve_csv(path, report: MetricsReport):
    columns = (report.t_det, report.p_tp, report.p_fp, report.p_fn, report.rvce)
    rows = ([cell(x) for x in row] for row in zip(*(c.tolist() for c in columns)))
    write_csv(path, ["t_det", "p_tp", "p_fp", "p_fn", "rvce"], rows)


def write_summary_csv(path, report: MetricsReport):
    values = (report.area_ptp, report.efp_tdet, report.efp_value)
    write_csv(path, ["area_ptp", "efp_tdet", "efp_value"], [[cell(v) for v in values]])
