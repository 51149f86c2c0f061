"""High-frequency log-mel spectrogram (HF-LMS) features with context stacking.

The spectrogram uses a 4096-sample Hamming window with a 1634-sample hop
(940 ms / 37 ms at 44.1 kHz), centered frames via reflect padding, and a
48-band mel filterbank restricted to [f_min, f_max]. Dropping the filters
below 1 kHz is what turns the LMS into the HF-LMS. Feature vectors stack
the spectra at q=5 surrounding instants with a stride of 2, giving
(2q+1) * n_mel = 528 dimensions.

``log_mels`` is the front end. It splits a clip's frames into blocks of 64
(the last block takes the short tail) and hands them to
``parallel.parallel_map``: a library call on one clip may use every usable
core, a command never more than ``--jobs`` threads. Each block windows,
transforms and squares its frames (``stft_power`` of the range). On one
BLAS thread the same thread then projects that power onto the mel bands of
every requested setting (``log_mel``), straight into the frames x n_mel
outputs. A BLAS with threads of its own would fight the other blocks'
transforms for the cores, so there the blocks are mapped eight at a time
into a group power matrix and the calling thread projects each group after
its map. Either way no frames x bins matrix is built. Frames that lie
inside the clip are read as views of its samples; a block that overhangs an
edge reads a reflect-padded copy of the samples it spans. The Hamming
window and each mel filterbank are built once per setting and cached
read-only, and each thread keeps its windowed-frames and power work
matrices between calls (``_scratch``). Each frame is transformed alone, and
a row block of the mel product rounds as the whole product does under the
same BLAS thread count, so the result is bit-identical to the direct
``np.pad`` + full-array ``rfft`` + one ``power @ fb.T`` formula.
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
_BLOCK_FRAMES = 64  # frames per front-end block and rows per standardization pass
_GROUP_BLOCKS = 8  # blocks mapped at a time on a threaded BLAS
_BLOCK_ROWS = 2 * _BLOCK_FRAMES - 1  # most frames in one block
_GROUP_ROWS = (_GROUP_BLOCKS + 1) * _BLOCK_FRAMES - 1  # most frames in one group


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


def _frames(x: np.ndarray, cfg: SpectrogramConfig, start: int, stop: int) -> np.ndarray:
    """Frames start..stop-1 of the reflect-padded clip, (stop-start) x window_len.

    Frame m is padded[m*hop : m*hop + window_len] of the signal padded by
    window_len/2 on both ends. A range wholly inside the clip is read as a
    view of ``x``; one that overhangs an edge reads a padded copy of just
    the samples it spans, at least one window, so np.pad reflects once as
    it does on the whole clip. A clip shorter than one window is padded
    whole, since np.pad then reflects more than once.
    """
    w, hop, half, n = cfg.window_len, cfg.hop, cfg.window_len // 2, x.size
    begin, end = start * hop - half, (stop - 1) * hop + w - half  # the span in x
    src = x
    if n < w:
        src, begin = np.pad(x, half, mode="reflect"), begin + half
    elif begin < 0 or end > n:
        lo, hi = max(0, min(begin, n - w)), min(n, max(end, w))
        left, right = half * (begin < 0), half * (end > n)
        src = np.pad(x[lo:hi], (left, right), mode="reflect")
        begin += left - lo
    step = src.strides[0]
    return np.lib.stride_tricks.as_strided(
        src[begin:], (stop - start, w), (hop * step, step), writeable=False
    )


@functools.lru_cache(maxsize=4)
def _hamming(window_len: int) -> np.ndarray:
    """np.hamming(window_len), built once per length and shared read-only."""
    window = np.hamming(window_len)
    window.flags.writeable = False
    return window


def stft_power(
    clip: AudioClip, cfg: SpectrogramConfig, start: int = 0, stop: int | None = None, out=None
) -> np.ndarray:
    """Power spectrogram of frames start..stop-1 (all by default), x (window_len/2+1) bins.

    Frame m is centered at sample m*hop; the signal is reflect-padded by
    window_len/2 on both ends so the count is floor((n-1)/hop)+1. Each
    frame is transformed alone, so a frame's row does not depend on the
    range it is computed in. The result goes into ``out`` when given.
    """
    if clip.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"clip rate {clip.sample_rate} != configured {cfg.sample_rate}"
        )
    x = clip.samples
    if x.size < cfg.hop:
        raise ValueError("clip shorter than one hop")
    n_frames = n_frames_for(x.size, cfg.hop)
    stop = n_frames if stop is None else stop
    if not 0 <= start < stop <= n_frames:
        raise ValueError(f"frame range {start}..{stop} outside 0..{n_frames}")
    frames = _frames(x, cfg, start, stop)
    windowed = _scratch("windowed", *frames.shape, _BLOCK_ROWS)
    np.multiply(frames, _hamming(cfg.window_len), out=windowed)
    power = np.abs(np.fft.rfft(windowed, axis=1), out=out)
    return np.square(power, out=power)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


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


def log_mel(power: np.ndarray, cfg: SpectrogramConfig, sample_rate: int, out=None) -> np.ndarray:
    """log(filterbank @ power + log_floor), natural log, frames x n_mel.

    ``power`` holds rows of stft_power; the result goes into ``out`` when
    given. Row blocks of the product round as the whole product does on the
    same BLAS thread count.
    """
    mel = np.matmul(power, mel_filterbank(cfg, sample_rate).T, out=out)
    mel += cfg.log_floor
    return np.log(mel, out=mel)


def _frame_blocks(n_frames: int) -> list:
    """(start, stop) ranges of _BLOCK_FRAMES frames; the last one takes the short tail."""
    stops = list(range(_BLOCK_FRAMES, n_frames - _BLOCK_FRAMES + 1, _BLOCK_FRAMES)) + [n_frames]
    return list(zip([0] + stops[:-1], stops))


def log_mels(clip: AudioClip, cfgs) -> list:
    """log_mel of stft_power for each setting in ``cfgs``, one frames x n_mel matrix each.

    The settings share their window, hop and sample rate and differ only in
    their mel bands. The frames go in blocks (``_frame_blocks``) to
    ``parallel.parallel_map``, and each block's power is computed once for
    every setting, so no frames x bins matrix is built. On one BLAS thread
    the thread that transformed a block projects it. A BLAS with threads of
    its own would take the cores the other blocks are transforming on, so
    there the blocks are mapped ``_GROUP_BLOCKS`` at a time and this thread
    projects each group after its map.
    """
    cfg = cfgs[0]
    blocks = _frame_blocks(n_frames_for(clip.samples.size, cfg.hop))
    outs = [np.empty((blocks[-1][1], c.n_mel)) for c in cfgs]

    def project(power, start, stop):
        for c, out in zip(cfgs, outs):
            log_mel(power, c, clip.sample_rate, out=out[start:stop])

    if parallel.blas_threads() == 1:

        def block(bounds):
            rows = _scratch("block_power", bounds[1] - bounds[0], cfg.n_bins, _BLOCK_ROWS)
            project(stft_power(clip, cfg, *bounds, out=rows), *bounds)

        parallel.parallel_map(block, blocks, len(blocks))
        return outs
    power = _scratch("group_power", _GROUP_ROWS, cfg.n_bins, _GROUP_ROWS)
    for g in range(0, len(blocks), _GROUP_BLOCKS):
        group = blocks[g : g + _GROUP_BLOCKS]
        start, stop = group[0][0], group[-1][1]

        def transform(bounds, start=start):
            stft_power(clip, cfg, *bounds, out=power[bounds[0] - start : bounds[1] - start])

        parallel.parallel_map(transform, group, len(group))
        project(power[: stop - start], start, stop)
    return outs


_work = threading.local()


def _scratch(name: str, rows: int, cols: int, capacity: int) -> np.ndarray:
    """rows x cols of this thread's work matrix ``name``, kept between calls.

    Made and freed per block or group, the front end's 1-9 MB temporaries
    went back to the system and were faulted in again, 1,300 to 2,400 page
    faults per 20 s clip. More than ``capacity`` rows get a matrix of their
    own, which is not kept.
    """
    if rows > capacity:
        return np.empty((rows, cols))
    work = getattr(_work, name, None)
    if work is None or work.shape != (capacity, cols):
        work = np.empty((capacity, cols))
        setattr(_work, name, work)
    return work[:rows]


def hf_lms(clip: AudioClip, cfg: SpectrogramConfig) -> np.ndarray:
    """HF-LMS of one clip, frames x n_mel: ``log_mels`` for one setting."""
    return log_mels(clip, [cfg])[0]


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
    The squares are summed row by row in blocks that carry the running sum:
    ``pooled.std(axis=0)`` bit for bit, without its full-size temporary.
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
    mean = pooled.mean(axis=0)
    pooled -= mean  # stats.apply, in place
    squares = np.zeros(pooled.shape[1])
    for s in range(0, len(pooled), _BLOCK_FRAMES):
        block = np.square(pooled[s : s + _BLOCK_FRAMES])
        squares = np.add.reduce(np.concatenate([squares[None], block]))
    stats = FeatureStats(mean=mean, std=np.maximum(np.sqrt(squares / len(pooled)), 1e-8))
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
