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

from dataclasses import dataclass, fields

import numpy as np
from scipy import signal as _signal

from .dataio import DistanceSeries
from .nn_core import check_int, check_real


def check_lengths(lengths) -> tuple:
    """MA lengths as a tuple of ints; each must be an odd integer >= 1."""
    lengths = tuple(lengths)
    for l in lengths:
        check_int("MA length", l, 1)
        if l % 2 == 0:
            raise ValueError(f"MA lengths must be odd, got {l}")
    return tuple(map(int, lengths))


@dataclass(frozen=True)
class SmootherSpec:
    """Cascade of centered MA filters, applied in order; lengths must be odd."""

    lengths: tuple = (5, 3)

    def __post_init__(self):
        object.__setattr__(self, "lengths", check_lengths(self.lengths))

    @property
    def total_taps(self) -> int:
        return sum(self.lengths)


@dataclass(frozen=True)
class DetectorSpec:
    smoother: SmootherSpec = SmootherSpec((5, 3))
    m_frac: float = 0.40  # magnitude threshold M as a fraction of t_d
    p_frac: float = 0.20  # prominence threshold P as a fraction of t_d

    def __post_init__(self):
        if not isinstance(self.smoother, SmootherSpec):
            object.__setattr__(self, "smoother", SmootherSpec(self.smoother))
        check_real("m_frac", self.m_frac, low=0.0, high=1.0)
        check_real("p_frac", self.p_frac, low=0.0, high=1.0)


@dataclass(frozen=True, eq=False)
class Detections:
    """Inverted-distance peaks as parallel 1-D arrays, in frame order.

    ``distance`` is the smoothed series at each peak, so distance = t_d -
    magnitude. ``len()`` is the peak count; indexing with a boolean mask
    selects a subset.
    """

    frame_index: np.ndarray
    time: np.ndarray
    magnitude: np.ndarray
    prominence: np.ndarray
    distance: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            dtype = np.intp if f.name == "frame_index" else np.float64
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=dtype))
        shapes = {getattr(self, f.name).shape for f in fields(self)}
        if len(shapes) != 1 or self.frame_index.ndim != 1:
            raise ValueError("detection fields must be 1-D arrays of one length")

    def __len__(self) -> int:
        return self.frame_index.size

    def __getitem__(self, mask) -> "Detections":
        return Detections(*(getattr(self, f.name)[mask] for f in fields(self)))


def _ma_single(values: np.ndarray, length: int) -> np.ndarray:
    """Centered MA; edge frames average only the in-range samples."""
    if length == 1:
        return values.copy()
    n = values.size
    half = length // 2
    csum = np.concatenate(([0.0], np.cumsum(values)))
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half, n - 1) + 1
    return (csum[hi] - csum[lo]) / (hi - lo)


def moving_average_cascade(values, spec: SmootherSpec) -> np.ndarray:
    """Apply the MA cascade to a 1-D array of values."""
    values = np.asarray(values, dtype=np.float64)
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


def peak_candidates(series: DistanceSeries, smoother: SmootherSpec) -> Detections:
    """All inverted-distance peaks with magnitude and prominence, unthresholded.

    Shared by detect_vehicles and the grid search, which masks one
    candidate set per smoother under many (M, P) pairs.
    """
    smoothed = moving_average_cascade(series.values, smoother)
    inverted = series.t_d - smoothed
    idx = peak_indices(inverted)
    prom = _signal.peak_prominences(inverted, idx)[0]
    return Detections(idx, idx * series.frame_period, inverted[idx], prom, smoothed[idx])


def detect_vehicles(series: DistanceSeries, det: DetectorSpec) -> Detections:
    """Peaks whose magnitude exceeds M or prominence exceeds P, by time."""
    cands = peak_candidates(series, det.smoother)
    m_thresh = det.m_frac * series.t_d
    p_thresh = det.p_frac * series.t_d
    return cands[(cands.magnitude > m_thresh) | (cands.prominence > p_thresh)]


def count_at_threshold(detections: Detections, t_det: float) -> int:
    """Detections whose smoothed distance value falls below t_det (strict)."""
    return int(np.count_nonzero(detections.distance < t_det))

