"""High-frequency log-mel spectrogram (HF-LMS) features with context stacking.

The spectrogram uses a 4096-sample Hamming window with a 1634-sample hop
(940 ms / 37 ms at 44.1 kHz), centered frames via reflect padding, and a
48-band mel filterbank restricted to [f_min, f_max]. Dropping the filters
below 1 kHz is what turns the LMS into the HF-LMS. Feature vectors stack
the spectra at q=5 surrounding instants with a stride of 2, giving
(2q+1) * n_mel = 528 dimensions.

``stft_power`` windows, transforms and squares the frames in blocks of 64,
writing each block's power straight into the output matrix. The blocks are
shared out between the calling thread and the cores that are idle
(``avcount.parallel``): a library call on one clip may use every usable
core, a command never more than ``--jobs`` threads, and the bytes depend on
neither, since each block is transformed alone. Each thread has one
reusable scratch buffer. Frames that lie inside the clip are read as views
of its samples; only the few that overhang an edge read a reflect-padded
copy of the first or last window. Each mel filterbank is built once per
setting and cached read-only, and the mel projection stays one
``power @ fb.T`` over all frames (a blocked product would round
differently). The result is bit-identical to the direct ``np.pad`` +
full-array ``rfft`` formula; for a 20 s clip the peak working memory of
``extract_features`` is ~13 MB on one thread and ~17 MB with one helper,
most of it the 8.8 MB power matrix.
"""

import functools
import hashlib
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import nn_core, parallel
from .dataio import AudioClip, DataError

DEFAULT_Q = 5
DEFAULT_CONTEXT_STRIDE = 2
_BLOCK_FRAMES = 64  # frames windowed, transformed and squared per pass


@dataclass(frozen=True)
class SpectrogramConfig:
    """Spectrogram and mel filterbank parameters (window is always Hamming)."""

    window_len: int = 4096
    hop: int = 1634
    n_mel: int = 48
    f_min: float = 1000.0
    f_max: float = 22050.0
    log_floor: float = 1e-10
    sample_rate: int = 44100

    def __post_init__(self):
        for name in ("window_len", "hop", "n_mel", "sample_rate"):
            nn_core.check_int(name, getattr(self, name), 1)
        for name in ("f_min", "f_max", "log_floor"):
            nn_core.check_real(name, getattr(self, name))
        if not (0 <= self.f_min < self.f_max and 2 * self.f_max <= self.sample_rate):
            raise ValueError("need 0 <= f_min < f_max <= sample_rate/2")
        if not self.window_len > self.hop:
            raise ValueError("need window_len > hop")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")

    @property
    def frame_period(self) -> float:
        return self.hop / self.sample_rate

    @property
    def n_bins(self) -> int:
        return self.window_len // 2 + 1


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-clip feature rows, one per frame."""

    clip_id: str
    data: np.ndarray
    frame_period: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 2 or data.size == 0:
            raise ValueError("data must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(data)):
            raise ValueError("feature entries must be finite")
        if self.frame_period <= 0:
            raise ValueError("frame_period must be positive")

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class FeatureStats:
    """Per-dimension standardization statistics fitted on the training set."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean/std must be matching 1-D vectors")

    def apply(self, data: np.ndarray) -> np.ndarray:
        return (np.asarray(data, dtype=np.float64) - self.mean) / self.std


def n_frames_for(n_samples: int, hop: int) -> int:
    return (n_samples - 1) // hop + 1


def _frame_runs(x: np.ndarray, cfg: SpectrogramConfig, n_frames: int):
    """(first frame, frames view) runs covering frames 0..n_frames-1.

    Frame m is padded[m*hop : m*hop + window_len] of the reflect-padded
    signal. Frames wholly inside the clip are read as views of ``x``; only
    the ones that overhang an edge read a padded copy of the first or last
    window. A clip shorter than one window is padded whole, since np.pad
    then reflects more than once.
    """
    w, hop, half, n = cfg.window_len, cfg.hop, cfg.window_len // 2, x.size

    def frames(src, count):
        return np.lib.stride_tricks.sliding_window_view(src, w)[::hop][:count]

    if n < w:
        return [(0, frames(np.pad(x, half, mode="reflect"), n_frames))]
    lo = -(-half // hop)  # first frame that starts inside the clip
    hi = (n + half - w) // hop + 1  # first frame that ends past it
    runs = [(0, frames(np.pad(x[:w], (half, 0), mode="reflect"), lo))]
    if hi > lo:
        runs.append((lo, frames(x[lo * hop - half :], hi - lo)))
    if n_frames > hi:
        tail = np.pad(x[n - w :], (0, half), mode="reflect")
        runs.append((hi, frames(tail[hi * hop - half - (n - w) :], n_frames - hi)))
    return runs


def stft_power(clip: AudioClip, cfg: SpectrogramConfig) -> np.ndarray:
    """Power spectrogram, frames x (window_len/2+1) bins.

    Frame m is centered at sample m*hop; the signal is reflect-padded by
    window_len/2 on both ends so the count is floor((n-1)/hop)+1. The
    blocks of frames are shared out between this thread and any idle cores
    (``parallel.lend``); each block is transformed alone, so the bytes do
    not depend on which thread takes it.
    """
    if clip.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"clip rate {clip.sample_rate} != configured {cfg.sample_rate}"
        )
    x = clip.samples
    if x.size < cfg.hop:
        raise ValueError("clip shorter than one hop")
    n_frames = n_frames_for(x.size, cfg.hop)
    window = np.hamming(cfg.window_len)
    power = np.empty((n_frames, cfg.n_bins))
    blocks = []  # (rows of power, frames) pairs
    for first, frames in _frame_runs(x, cfg, n_frames):
        for s in range(0, len(frames), _BLOCK_FRAMES):
            rows = frames[s : s + _BLOCK_FRAMES]
            blocks.append((power[first + s : first + s + len(rows)], rows))
    todo, take = iter(blocks), threading.Lock()

    def work():
        windowed = np.empty((min(_BLOCK_FRAMES, n_frames), cfg.window_len))
        while True:
            with take:
                out, rows = next(todo, (None, None))
            if out is None:
                return
            k = len(rows)
            np.multiply(rows, window, out=windowed[:k])
            np.abs(np.fft.rfft(windowed[:k], axis=1), out=out)
            np.square(out, out=out)

    parallel.lend(work, len(blocks) - 1)
    return power


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(cfg: SpectrogramConfig, sample_rate: int) -> np.ndarray:
    """Triangular mel filters, n_mel x bins, each row peak-normalized to 1.

    Centers are equally spaced on the mel scale between mel(f_min) and
    mel(f_max); triangles are linear in mel. Filters are zero outside
    [f_min, f_max]. Built once per setting; the returned array is shared
    and read-only.
    """
    bins = cfg.n_bins
    bin_freqs = np.arange(bins) * sample_rate / cfg.window_len
    bin_mels = hz_to_mel(bin_freqs)
    edges = np.linspace(hz_to_mel(cfg.f_min), hz_to_mel(cfg.f_max), cfg.n_mel + 2)
    left, center, right = edges[:-2], edges[1:-1], edges[2:]
    rising = (bin_mels[None, :] - left[:, None]) / (center - left)[:, None]
    falling = (right[:, None] - bin_mels[None, :]) / (right - center)[:, None]
    fb = np.maximum(0.0, np.minimum(rising, falling))
    peaks = fb.max(axis=1)
    if np.any(peaks <= 0):
        raise ValueError(
            "n_mel too large for the bin resolution (empty mel filter)"
        )
    fb /= peaks[:, None]
    fb.flags.writeable = False
    return fb


def log_mel(power: np.ndarray, cfg: SpectrogramConfig, sample_rate: int) -> np.ndarray:
    """log(filterbank @ power + log_floor), natural log, frames x n_mel.

    ``power`` is stft_power's matrix; configs that differ only in their mel
    settings (f_min, f_max, n_mel, log_floor) can share it.
    """
    mel = power @ mel_filterbank(cfg, sample_rate).T
    mel += cfg.log_floor
    return np.log(mel, out=mel)


def hf_lms(clip: AudioClip, cfg: SpectrogramConfig) -> np.ndarray:
    """HF-LMS of one clip: log_mel of its stft_power."""
    return log_mel(stft_power(clip, cfg), cfg, clip.sample_rate)


def _context_rows(rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``rows[m + offsets]`` for every row m, indices clipped so edges replicate."""
    n = rows.shape[0]
    return rows[np.clip(np.arange(n)[:, None] + offsets[None, :], 0, n - 1)]


def stack_context(lms: np.ndarray, q: int, stride: int) -> np.ndarray:
    """Concatenate rows m + j*stride for j = -q..q; edges replicate.

    Output is frames x (2q+1)*width with the frame count unchanged.
    """
    lms = np.asarray(lms, dtype=np.float64)
    if lms.ndim != 2 or lms.size == 0:
        raise ValueError("lms must be a non-empty 2-D matrix")
    if q < 0 or stride < 1:
        raise ValueError("need q >= 0 and stride >= 1")
    return _context_rows(lms, np.arange(-q, q + 1) * stride).reshape(lms.shape[0], -1)


def extract_features(
    clip: AudioClip,
    cfg: SpectrogramConfig,
    q: int = DEFAULT_Q,
    stride: int = DEFAULT_CONTEXT_STRIDE,
) -> FeatureMatrix:
    """HF-LMS + context stacking for one clip."""
    stacked = stack_context(hf_lms(clip, cfg), q, stride)
    return FeatureMatrix(
        clip_id=clip.id, data=stacked, frame_period=cfg.frame_period
    )


def standardize(features, stats: FeatureStats | None = None):
    """Per-dimension z-score; fits stats on the list when none are given.

    Returns (standardized feature list, stats). The std is floored at 1e-8
    so constant dimensions map to zero. To fit, the clips are pooled into
    one matrix, which is standardized in place: the returned matrices are
    consecutive row views of it, and their ``data.base`` is that matrix.
    """
    features = list(features)
    if stats is not None:
        return [
            FeatureMatrix(clip_id=fm.clip_id, data=stats.apply(fm.data), frame_period=fm.frame_period)
            for fm in features
        ], stats
    if not features:
        raise ValueError("cannot fit statistics on an empty training list")
    pooled = np.concatenate([fm.data for fm in features], axis=0)
    stats = FeatureStats(mean=pooled.mean(axis=0), std=np.maximum(pooled.std(axis=0), 1e-8))
    pooled -= stats.mean  # stats.apply, in place
    pooled /= stats.std
    rows = np.split(pooled, np.cumsum([fm.frames for fm in features])[:-1])
    return [
        FeatureMatrix(clip_id=fm.clip_id, data=r, frame_period=fm.frame_period)
        for fm, r in zip(features, rows)
    ], stats


# --- feature cache files ----------------------------------------------------


def _blas_build():
    """(name, version) of the BLAS numpy was built with; None for what numpy does not say.

    An older NumPy whose ``show_config`` takes no ``mode`` gives (None, None).
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None, None
    return blas.get("name"), blas.get("version")


def _cache_settings(clip: AudioClip, cfg: SpectrogramConfig, q: int, stride: int) -> dict:
    settings = {f"spectrogram.{k}": v for k, v in asdict(cfg).items()}
    blas_name, blas_version = _blas_build()
    settings.update(
        clip_id=clip.id,
        n_samples=int(clip.samples.size),
        samples_sha256=hashlib.sha256(clip.samples.tobytes()).hexdigest(),
        q=q,
        stride=stride,
        # the mel product rounds by the BLAS and its thread count
        blas_name=blas_name,
        blas_version=blas_version,
        blas_threads=parallel.blas_threads(),
    )
    return settings


def write_feature_cache(
    path, clip: AudioClip, fm: FeatureMatrix, cfg: SpectrogramConfig, q: int, stride: int
):
    """Features ``fm`` of ``clip`` as an ``AVCNN1`` container of kind ``features``.

    The spec records the clip id, its sample count and a SHA-256 of its
    samples, the frame period, the settings the features were extracted
    with, the name and version of numpy's BLAS and its thread count
    (``parallel.blas_threads``), so a reader can refuse a stale cache.
    """
    spec = _cache_settings(clip, cfg, q, stride)
    spec["frame_period"] = fm.frame_period
    nn_core.write_checkpoint(path, "features", spec, [("data", fm.data)])


def read_feature_cache(path, clip: AudioClip, cfg: SpectrogramConfig, q: int, stride: int) -> FeatureMatrix:
    """Load a cache written for ``clip`` under the given settings.

    A cache of another kind, for another clip id, for other audio under the
    same id, or built with any other spectrogram, q or stride setting, BLAS
    or BLAS thread count raises DataError naming the mismatch.
    """
    _, spec, blocks = nn_core.read_checkpoint(path, "features")
    want = _cache_settings(clip, cfg, q, stride)
    stale = [k for k in want if spec.get(k) != want[k]]
    if stale:
        raise DataError(
            f"{path}: feature cache built from other audio or settings: "
            + ", ".join(f"{k} {spec.get(k)!r} (expected {want[k]!r})" for k in stale)
        )
    try:
        return FeatureMatrix(
            clip_id=clip.id, data=dict(blocks)["data"], frame_period=spec["frame_period"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: corrupt feature cache ({exc})") from exc
