"""Vehicle detection from a predicted distance series.

The series is smoothed with a cascade of centered moving-average filters,
inverted (y = t_d - value), and local maxima are found. A peak counts as a
vehicle when its magnitude exceeds M or its prominence exceeds P (strict
inequalities); both thresholds are fractions of t_d. Prominence is the
vertical distance between the peak and its lowest contour line: extend from
the peak on each side to the nearest strictly higher value (or the sequence
end), take the minimum on each stretch, and subtract the higher of the two
minima from the peak height.

Plateaus of equal values bounded by strictly smaller neighbors yield one
peak at the plateau middle (left-middle for even lengths); sequence
endpoints are never peaks. ``scipy.signal.find_peaks`` and
``peak_prominences`` follow exactly these rules; the tests check them
against a brute-force contour oracle.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy import signal as _signal

from .dataio import DistanceSeries


@dataclass(frozen=True)
class SmootherSpec:
    """Cascade of centered MA filters, applied in order; lengths must be odd."""

    lengths: tuple = (5, 3)

    def __post_init__(self):
        lengths = tuple(int(l) for l in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if any(l < 1 or l % 2 == 0 for l in lengths):
            raise ValueError("MA lengths must be odd and >= 1")

    @property
    def total_taps(self) -> int:
        return sum(self.lengths)


@dataclass(frozen=True)
class DetectorSpec:
    smoother: SmootherSpec = SmootherSpec((5, 3))
    m_frac: float = 0.40  # magnitude threshold M as a fraction of t_d
    p_frac: float = 0.20  # prominence threshold P as a fraction of t_d

    def __post_init__(self):
        if not (0 <= self.m_frac <= 1 and 0 <= self.p_frac <= 1):
            raise ValueError("m_frac and p_frac must lie in [0, 1]")


@dataclass(frozen=True)
class Peak:
    """A detected inverted-distance maximum. distance = t_d - magnitude."""

    frame_index: int
    time: float
    magnitude: float
    prominence: float
    distance: float = float("nan")


def _ma_single(values: np.ndarray, length: int) -> np.ndarray:
    """Centered MA; edge frames average only the in-range samples."""
    if length % 2 == 0:
        raise ValueError("MA length must be odd")
    if length == 1:
        return values.copy()
    n = values.size
    half = length // 2
    csum = np.concatenate(([0.0], np.cumsum(values)))
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half, n - 1) + 1
    return (csum[hi] - csum[lo]) / (hi - lo)


def moving_average_cascade(series, spec: SmootherSpec):
    """Apply the MA cascade; accepts a DistanceSeries or a bare array."""
    if isinstance(series, DistanceSeries):
        out = moving_average_cascade(series.values, spec)
        return DistanceSeries(
            clip_id=series.clip_id,
            values=out,
            frame_period=series.frame_period,
            t_d=series.t_d,
        )
    values = np.asarray(series, dtype=np.float64)
    if values.size == 0:
        raise ValueError("series must be nonempty")
    for length in spec.lengths:
        values = _ma_single(values, length)
    return values


def peak_indices(values) -> np.ndarray:
    """Indices of local maxima under the plateau-middle rule."""
    return _signal.find_peaks(np.asarray(values, dtype=np.float64))[0]


def prominence(values, peak_index: int) -> float:
    """Prominence of a single peak; raises on a non-peak index."""
    v = np.asarray(values, dtype=np.float64)
    if not np.any(peak_indices(v) == peak_index):
        raise ValueError(f"index {peak_index} is not a peak")
    return float(_signal.peak_prominences(v, [int(peak_index)])[0][0])


def peak_candidates(series: DistanceSeries, smoother: SmootherSpec) -> list:
    """All inverted-distance peaks with magnitude and prominence, unthresholded.

    Shared by detect_vehicles and the grid search, which filters one
    candidate set per smoother under many (M, P) pairs.
    """
    smoothed = moving_average_cascade(series.values, smoother)
    inverted = series.t_d - smoothed
    idx = peak_indices(inverted)
    prom = _signal.peak_prominences(inverted, idx)[0]
    return [
        Peak(frame_index=i, time=i * series.frame_period, magnitude=m, prominence=p, distance=d)
        for i, m, p, d in zip(
            idx.tolist(), inverted[idx].tolist(), prom.tolist(), smoothed[idx].tolist()
        )
    ]


def detect_vehicles(series: DistanceSeries, det: DetectorSpec) -> list:
    """Peaks whose magnitude exceeds M or prominence exceeds P, by time."""
    m_thresh = det.m_frac * series.t_d
    p_thresh = det.p_frac * series.t_d
    return [
        p
        for p in peak_candidates(series, det.smoother)
        if p.magnitude > m_thresh or p.prominence > p_thresh
    ]


def count_at_threshold(detections, t_det: float) -> int:
    """Detections whose smoothed distance value falls below t_det (strict)."""
    return sum(1 for p in detections if p.distance < t_det)


def export_detections_csv(path, detections_by_clip: dict):
    """Write clip_id,time_s,distance_s,magnitude_s,prominence_s rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["clip_id", "time_s", "distance_s", "magnitude_s", "prominence_s"]
        )
        for clip_id in sorted(detections_by_clip):
            for p in detections_by_clip[clip_id]:
                writer.writerow(
                    [
                        clip_id,
                        f"{p.time:.6f}",
                        f"{p.distance:.6f}",
                        f"{p.magnitude:.6f}",
                        f"{p.prominence:.6f}",
                    ]
                )
