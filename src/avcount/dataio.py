"""Audio and annotation loading, reference distance targets, dataset splits.

WAV support covers PCM 8/16/24/32-bit integer and 32-bit float, mono or
multichannel (averaged down to mono). Annotations are plain CSV with a
``clip_id,instant_s`` header. The reference distance target is the clipped
vehicle-to-microphone distance: per vehicle, |t - t_k| saturated at t_d,
minimized over vehicles.
"""

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

DEFAULT_T_D = 0.75  # distance clip threshold, seconds


class DataError(Exception):
    """Unreadable, malformed or unsupported input data."""


@dataclass(frozen=True)
class AudioClip:
    """Mono audio, samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int
    id: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class PassByAnnotation:
    """Per-clip vehicle pass-by instants, sorted ascending, in seconds."""

    clip_id: str
    instants: tuple
    duration: float

    def __post_init__(self):
        instants = tuple(float(t) for t in self.instants)
        object.__setattr__(self, "instants", instants)
        if not 0 < self.duration < np.inf:
            raise ValueError("duration must be positive and finite")
        if not np.all(np.isfinite(instants)):
            raise ValueError("instants must be finite")
        if any(b <= a for a, b in zip(instants, instants[1:])):
            raise ValueError("instants must be strictly increasing")
        if instants and (instants[0] < 0 or instants[-1] > self.duration):
            raise ValueError("instants must lie in [0, duration]")

    @property
    def n_vehicles(self) -> int:
        return len(self.instants)


@dataclass(frozen=True)
class DistanceSeries:
    """Per-frame clipped distance in seconds; frame m sits at t = m*frame_period."""

    clip_id: str
    values: np.ndarray
    frame_period: float
    t_d: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if self.frame_period <= 0:
            raise ValueError("frame_period must be positive")
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D sequence")
        if not np.all((values >= 0) & (values <= self.t_d)):  # NaN fails too
            raise ValueError("distance values must lie in [0, t_d]")

    @property
    def n_frames(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class DatasetSplit:
    train_ids: tuple
    val_ids: tuple

    def __post_init__(self):
        if len(set(self.train_ids) | set(self.val_ids)) != len(self.train_ids) + len(self.val_ids):
            raise ValueError("train and val ids must be distinct")


# --- WAV I/O ------------------------------------------------------------

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


def _find_chunks(data: bytes):
    """Walk RIFF chunks, return {id: (offset, size)} for the first occurrence."""
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise DataError("not a RIFF/WAVE file")
    chunks = {}
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        chunks.setdefault(cid, (pos + 8, size))
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    return chunks


def load_clip(path, clip_id: str | None = None) -> AudioClip:
    """Load a PCM WAV file as a mono AudioClip.

    Multichannel input is averaged to mono. Integer PCM is scaled by
    2^(bits-1), so -32768 maps to -1.0 (8-bit PCM is unsigned and is
    offset by 128 first); 16-, 24- and 32-bit samples are multiplied by the
    power-of-two reciprocal in one pass, which is exact like the division. A
    ``fmt `` or ``data`` chunk that declares more bytes than the file holds
    raises DataError. Every DataError names the file: ``<path>: <reason>``.
    """
    try:
        x, sample_rate = _read_wav(path)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if clip_id is None:
        clip_id = os.path.splitext(os.path.basename(str(path)))[0]
    return AudioClip(samples=x, sample_rate=sample_rate, id=clip_id)


def _read_wav(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read ({exc.strerror or exc})") from exc

    chunks = _find_chunks(data)
    if b"fmt " not in chunks or b"data" not in chunks:
        raise DataError("missing fmt or data chunk")
    off, size = chunks[b"fmt "]
    if size < 16:
        raise DataError("fmt chunk too short")
    if size > len(data) - off:
        raise DataError(f"fmt chunk declares {size} bytes but the file holds {len(data) - off}")
    fmt_code, n_channels, sample_rate, _, block_align, bits = struct.unpack_from(
        "<HHIIHH", data, off
    )
    if fmt_code == _WAVE_FORMAT_EXTENSIBLE:
        if size < 40:
            raise DataError("truncated WAVE_FORMAT_EXTENSIBLE header")
        # sub-format GUID starts with the ordinary format code
        (fmt_code,) = struct.unpack_from("<H", data, off + 24)
    if fmt_code not in (_WAVE_FORMAT_PCM, _WAVE_FORMAT_IEEE_FLOAT):
        raise DataError(f"unsupported encoding (format code {fmt_code}); PCM only")
    if n_channels < 1:
        raise DataError("invalid channel count")
    if sample_rate == 0:
        raise DataError("sample rate 0 in fmt chunk")

    doff, dsize = chunks[b"data"]
    if dsize > len(data) - doff:
        raise DataError(
            f"data chunk declares {dsize} bytes but the file holds "
            f"{len(data) - doff} (truncated file?)"
        )
    raw = memoryview(data)[doff : doff + dsize]  # a view: slicing bytes would copy the payload
    if fmt_code == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise DataError(f"unsupported float width {bits}")
        x = np.frombuffer(raw[: len(raw) // 4 * 4], dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(x)):  # integer PCM cannot hold NaN or infinity
            raise DataError("audio holds non-finite samples (NaN or infinity)")
    elif bits == 8:
        x = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
        x = (x - 128.0) / 128.0
    elif bits == 16:
        ints = np.frombuffer(raw[: len(raw) // 2 * 2], dtype="<i2")
        x = np.multiply(ints, 2.0**-15, dtype=np.float64)
    elif bits == 24:
        # each sample into the top three bytes of an int32; >> 8 sign-extends
        b = np.zeros((len(raw) // 3, 4), dtype=np.uint8)
        b[:, 1:] = np.frombuffer(raw[: b.shape[0] * 3], dtype=np.uint8).reshape(-1, 3)
        x = np.multiply(b.view("<i4")[:, 0] >> 8, 2.0**-23, dtype=np.float64)
    elif bits == 32:
        ints = np.frombuffer(raw[: len(raw) // 4 * 4], dtype="<i4")
        x = np.multiply(ints, 2.0**-31, dtype=np.float64)
    else:
        raise DataError(f"unsupported PCM width {bits}")

    if x.size == 0:
        raise DataError("zero-length audio")
    if n_channels > 1:
        x = x[: x.size // n_channels * n_channels]
        x = x.reshape(-1, n_channels).mean(axis=1)
        if x.size == 0:
            raise DataError("zero-length audio")
    return x, sample_rate


def save_wav(path, samples, sample_rate: int, bits: int = 16, float32: bool = False):
    """Write mono samples in [-1, 1] as a WAV file.

    Integer widths quantize with round(x * 2^(bits-1)) clipped to range,
    the inverse of the load_clip scaling.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("samples must be a non-empty 1-D sequence")
    if float32:
        payload = x.astype("<f4").tobytes()
        fmt_code, width = _WAVE_FORMAT_IEEE_FLOAT, 32
    elif bits == 8:
        q = np.clip(np.round(x * 128.0) + 128.0, 0, 255).astype(np.uint8)
        payload = q.tobytes()
        fmt_code, width = _WAVE_FORMAT_PCM, 8
    elif bits == 16:
        q = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
        payload = q.tobytes()
        fmt_code, width = _WAVE_FORMAT_PCM, 16
    elif bits == 24:
        q = np.clip(np.round(x * float(1 << 23)), -(1 << 23), (1 << 23) - 1).astype(
            np.int32
        )
        b = np.empty((q.size, 3), dtype=np.uint8)
        b[:, 0] = q & 0xFF
        b[:, 1] = (q >> 8) & 0xFF
        b[:, 2] = (q >> 16) & 0xFF
        payload = b.tobytes()
        fmt_code, width = _WAVE_FORMAT_PCM, 24
    elif bits == 32:
        q = np.clip(np.round(x * float(1 << 31)), -(1 << 31), (1 << 31) - 1).astype(
            "<i4"
        )
        payload = q.tobytes()
        fmt_code, width = _WAVE_FORMAT_PCM, 32
    else:
        raise ValueError(f"unsupported bit width {bits}")

    block_align = width // 8
    byte_rate = sample_rate * block_align
    fmt = struct.pack(
        "<HHIIHH", fmt_code, 1, sample_rate, byte_rate, block_align, width
    )
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        body += b"\x00"
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


# --- annotations ----------------------------------------------------------


def load_annotations(path, durations) -> list:
    """Load a ``clip_id,instant_s`` CSV into PassByAnnotations.

    ``durations`` maps clip_id to clip duration in seconds. Clips present in
    the mapping but absent from the CSV get an empty annotation, which is
    how zero-vehicle files are represented. Every DataError names the file:
    ``<path>: line N: <reason>``.
    """
    try:
        return _read_annotations(path, durations)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_annotations(path, durations) -> list:
    by_clip: dict = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header[:2]] != [
                "clip_id",
                "instant_s",
            ]:
                raise DataError("expected header clip_id,instant_s")
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise DataError(f"line {lineno}: expected 2 columns")
                clip_id = row[0].strip()
                try:
                    instant = float(row[1])
                except ValueError as exc:
                    raise DataError(f"line {lineno}: bad instant {row[1]!r}") from exc
                if not np.isfinite(instant):
                    raise DataError(f"line {lineno}: non-finite instant")
                if instant < 0:
                    raise DataError(f"line {lineno}: negative instant")
                seen = by_clip.setdefault(clip_id, [])
                if instant in seen:
                    raise DataError(
                        f"line {lineno}: duplicate instant for {clip_id}"
                    )
                seen.append(instant)
    except OSError as exc:
        raise DataError(f"cannot read ({exc.strerror or exc})") from exc

    all_ids = sorted(set(by_clip) | set(durations))
    out = []
    for cid in all_ids:
        if cid not in durations:
            raise DataError(f"no duration known for clip {cid!r}")
        instants = sorted(by_clip.get(cid, []))
        try:
            out.append(
                PassByAnnotation(
                    clip_id=cid, instants=tuple(instants), duration=durations[cid]
                )
            )
        except ValueError as exc:
            raise DataError(f"clip {cid!r}: {exc}") from exc
    return out


def wav_paths(directory):
    """Paths of the *.wav files in a directory, sorted by name; one per clip id."""
    try:
        names = sorted(f for f in os.listdir(directory) if f.lower().endswith(".wav"))
    except OSError as exc:
        raise DataError(f"cannot list {directory}: {exc}") from exc
    if not names:
        raise DataError(f"no wav files in {directory}")
    paths, by_id = [os.path.join(directory, f) for f in names], {}
    for name, path in zip(names, paths):
        other = by_id.setdefault(os.path.splitext(name)[0], path)
        if other != path:  # e.g. a.wav and a.WAV
            raise DataError(f"{other} and {path} map to one clip id")
    return paths


def corpus_annotations(directory, durations) -> list:
    """Annotations of a corpus's clips, in the order of ``durations``.

    ``durations`` maps each clip id to its duration in seconds. They come
    from the directory's annotations.csv (``load_annotations``); clips
    without a CSV row, and every clip when there is no annotations.csv,
    become zero-vehicle annotations.
    """
    ann_path = os.path.join(directory, "annotations.csv")
    if not os.path.exists(ann_path):
        return [PassByAnnotation(cid, (), d) for cid, d in durations.items()]
    anns = {a.clip_id: a for a in load_annotations(ann_path, durations)}
    return [anns[cid] for cid in durations]


def load_corpus(directory):
    """Load every *.wav in a directory (``wav_paths``) plus its annotations.

    Returns (clips, annotations) as parallel id-sorted lists; the
    annotations come from ``corpus_annotations``.
    """
    clips = [load_clip(p) for p in wav_paths(directory)]
    return clips, corpus_annotations(directory, {c.id: c.duration for c in clips})


# --- reference distance ---------------------------------------------------


def reference_distance(
    ann: PassByAnnotation, n_frames: int, frame_period: float, t_d: float
) -> DistanceSeries:
    """Clipped vehicle-to-microphone distance sampled on the frame grid.

    Value at frame m (time t = m*frame_period) is min over vehicles of
    min(|t - t_k|, t_d); with no vehicles the series is constant t_d.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if t_d <= 0:
        raise ValueError("t_d must be positive")
    times = np.arange(n_frames) * frame_period
    if ann.instants:
        gaps = np.abs(times[:, None] - np.asarray(ann.instants)[None, :])
        values = np.minimum(gaps.min(axis=1), t_d)
    else:
        values = np.full(n_frames, t_d)
    return DistanceSeries(
        clip_id=ann.clip_id, values=values, frame_period=frame_period, t_d=t_d
    )


def split_dataset(ids, ratio: float, seed: int) -> DatasetSplit:
    """Deterministic shuffled train/val split with |train| = round(ratio*n)."""
    ids = list(ids)
    if not 0 < ratio < 1:
        raise ValueError("ratio must be in (0, 1)")
    if len(ids) < 2:
        raise ValueError("need at least 2 ids to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    n_train = int(np.floor(ratio * len(ids) + 0.5))
    n_train = min(max(n_train, 1), len(ids) - 1)
    shuffled = [ids[i] for i in order]
    return DatasetSplit(train_ids=tuple(shuffled[:n_train]), val_ids=tuple(shuffled[n_train:]))
