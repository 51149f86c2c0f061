"""Synthetic labeled traffic scenes: band-noise vehicles over a quiet bed.

Each vehicle is a burst of band-limited noise (band above 1 kHz so the
HF-LMS features carry the cue) amplitude-modulated by 1/(1 + ((t-t_k)/w)^2)
to mimic approach and recede. Event instants sit exactly on the feature
frame grid (multiples of hop/sample_rate), so the reference distance dips
to exactly zero at each event frame. Scenes are deterministic under the
spec seed.

Events are placed in groups: singles, and optionally pairs two close
instants apart (pair_fraction > 0) for stressing close-vehicle counting.
min_gap separates groups; the pair gap is pair_gap, snapped to whole
frames.
"""

import os
from dataclasses import dataclass, replace

import numpy as np

from . import parallel
from .dataio import AudioClip, PassByAnnotation, save_wav
from .metrics import write_csv
from .nn_core import check_int, check_real

_U32_MAX = 2**32 - 1
_MAX_WAV_SAMPLES = (_U32_MAX - 36) // 2  # 2 bytes each after the 36 header bytes RIFF counts


def _check_pair(name, pair, positive=False):
    """Reject anything but two numbers 0 <= lo <= hi (0 < lo if positive)."""
    if not isinstance(pair, (tuple, list)) or len(pair) != 2:
        raise ValueError(f"{name} must be two numbers, got {pair!r}")
    check_real(f"{name}[0]", pair[0], low=0.0, positive=positive)
    check_real(f"{name}[1]", pair[1], low=pair[0])


@dataclass(frozen=True)
class SceneSpec:
    duration: float = 20.0
    n_vehicles: int | None = None  # fixed count, or None to draw Poisson(rate)
    rate: float = 1.5
    min_gap: float = 2.0
    noise_level: float = 0.005
    band: tuple = (1500.0, 8000.0)  # vehicle noise band, Hz
    envelope_width: float = 0.2  # seconds to half amplitude
    width_range: tuple | None = None  # per-event width drawn uniformly when set
    amp_range: tuple = (0.15, 0.3)
    pair_fraction: float = 0.0
    pair_gap: float = 0.8
    edge_margin: float = 1.2
    sample_rate: int = 44100
    hop: int = 1634  # feature frame grid the instants snap to
    seed: int = 0

    def __post_init__(self):
        for name in ("duration", "envelope_width", "pair_gap"):
            check_real(name, getattr(self, name), positive=True)
        for name in ("rate", "min_gap", "noise_level", "edge_margin"):
            check_real(name, getattr(self, name), low=0.0)
        check_real("pair_fraction", self.pair_fraction, low=0.0, high=1.0)
        for name in ("sample_rate", "hop"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0)
        # 16-bit mono WAVs have 32-bit byte rate and sizes; a small sample_rate cannot overflow a float
        if 2 * self.sample_rate > _U32_MAX or self.duration * self.sample_rate > _MAX_WAV_SAMPLES:
            raise ValueError(f"a {self.duration} s scene at {self.sample_rate} Hz does not fit a 16-bit WAV")
        if self.n_vehicles is not None:
            check_int("n_vehicles", self.n_vehicles, 0)
        _check_pair("band", self.band)
        if 2 * self.band[1] > self.sample_rate:
            raise ValueError(f"band must end at or below sample_rate / 2, got {self.band}")
        _check_pair("amp_range", self.amp_range)
        if self.width_range is not None:
            _check_pair("width_range", self.width_range, positive=True)

    @property
    def frame_period(self) -> float:
        return self.hop / self.sample_rate


def _plan_groups(spec: SceneSpec, n_events: int, rng):
    """Group the events into singles/pairs and return group widths."""
    widths = []
    remaining = n_events
    pair_width = round(spec.pair_gap / spec.frame_period) * spec.frame_period
    while remaining > 0:
        if remaining >= 2 and rng.random() < spec.pair_fraction:
            widths.append(pair_width)
            remaining -= 2
        else:
            widths.append(0.0)
            remaining -= 1
    return widths


def _place_instants(spec: SceneSpec, rng):
    """Choose frame-snapped event instants; returns a sorted list."""
    if spec.n_vehicles is not None:
        n = spec.n_vehicles
    else:
        n = int(rng.poisson(spec.rate))
    fp = spec.frame_period
    # one frame of slack keeps min_gap intact after snapping
    gap = spec.min_gap + fp

    def usable(widths):
        span = sum(widths) + gap * (len(widths) - 1) if widths else 0.0
        return spec.duration - 2 * spec.edge_margin - span

    widths = _plan_groups(spec, n, rng)
    if spec.n_vehicles is not None and widths and usable(widths) < 0:
        raise ValueError(
            f"infeasible scene: {n} vehicles with min_gap {spec.min_gap}"
            f" do not fit in {spec.duration} s"
        )
    while widths and usable(widths) < 0:  # Poisson draw too big: shed events
        widths.pop()
    if not widths:
        return []

    free = usable(widths)
    offsets = np.sort(rng.uniform(0.0, free, size=len(widths)))
    instants = []
    cursor = 0.0
    for i, w in enumerate(widths):
        start = spec.edge_margin + offsets[i] + i * gap + cursor
        snapped = round(start / fp) * fp
        instants.append(snapped)
        if w > 0:
            instants.append(snapped + w)
        cursor += w
    return sorted(instants)


def generate_scene(spec: SceneSpec):
    """One labeled scene -> (AudioClip, PassByAnnotation).

    Each full-length pass writes into a reused buffer, and the time axis and
    the envelope term are dropped before the FFT, so a 20 s 44.1 kHz scene
    peaks at ~35 MB of working memory (about five sample-length float64
    arrays), once per clip worker of ``generate_corpus``.
    """
    rng = np.random.default_rng(spec.seed)
    instants = _place_instants(spec, rng)
    n_samples = int(round(spec.duration * spec.sample_rate))
    t = np.arange(n_samples) / spec.sample_rate

    envelope = np.zeros(n_samples)
    term = np.empty(n_samples)
    for tk in instants:
        amp = rng.uniform(*spec.amp_range)
        width = (
            rng.uniform(*spec.width_range)
            if spec.width_range is not None
            else spec.envelope_width
        )
        # envelope += amp / (1.0 + ((t - tk) / width) ** 2), pass by pass
        np.subtract(t, tk, out=term)
        term /= width
        np.square(term, out=term)
        term += 1.0
        np.divide(amp, term, out=term)
        envelope += term
    del t, term

    signal = rng.standard_normal(n_samples)
    signal *= spec.noise_level
    if instants:
        spectrum = np.fft.rfft(rng.standard_normal(n_samples))
        freqs = np.fft.rfftfreq(n_samples, 1.0 / spec.sample_rate)
        lo, hi = spec.band
        ramp = 200.0
        spectrum *= np.clip((freqs - (lo - ramp)) / ramp, 0.0, 1.0) * np.clip(
            ((hi + ramp) - freqs) / ramp, 0.0, 1.0
        )
        del freqs
        carrier = np.fft.irfft(spectrum, n=n_samples)
        del spectrum
        carrier /= carrier.std()
        carrier *= envelope
        signal += carrier

    peak = max(signal.max(), -signal.min())  # max |x| without an |x| copy
    if peak > 0.99:
        signal *= 0.99 / peak

    clip = AudioClip(samples=signal, sample_rate=spec.sample_rate, id="")
    ann = PassByAnnotation(
        clip_id="", instants=tuple(instants), duration=spec.duration
    )
    return clip, ann


def generate_corpus(spec: SceneSpec, n_clips: int, out_dir):
    """Write n_clips scenes as WAV + annotations.csv + manifest.csv.

    Per-clip seeds are spec.seed + index, so corpora are reproducible
    bit-for-bit. Clips are generated and written on up to usable-cores clip
    workers (``parallel.parallel_map``), and the rows are collected in index
    order, so no byte depends on the worker count. A clip that fails raises
    the error of the first failing index, and then neither CSV is written.
    Returns [(clip_id, n_vehicles), ...].
    """
    if n_clips < 1:
        raise ValueError("n_clips must be >= 1")
    os.makedirs(out_dir, exist_ok=True)

    def one(i):
        clip, ann = generate_scene(replace(spec, seed=spec.seed + i))
        save_wav(os.path.join(out_dir, f"clip{i:04d}.wav"), clip.samples, spec.sample_rate)
        return ann.instants

    manifest = []
    ann_rows = []
    for i, instants in enumerate(parallel.parallel_map(one, range(n_clips), parallel.usable_cores())):
        clip_id = f"clip{i:04d}"
        ann_rows.extend((clip_id, f"{tk:.3f}") for tk in instants)  # 1 ms precision
        manifest.append((clip_id, len(instants)))
    write_csv(os.path.join(out_dir, "annotations.csv"), ["clip_id", "instant_s"], ann_rows)
    write_csv(os.path.join(out_dir, "manifest.csv"), ["clip_id", "n_vehicles"], manifest)
    return manifest
