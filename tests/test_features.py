import hashlib
import tracemalloc

import numpy as np
import pytest

from avcount import features
from avcount.dataio import AudioClip, reference_distance, PassByAnnotation
from avcount.features import (
    FeatureMatrix,
    SpectrogramConfig,
    extract_features,
    hf_lms,
    hz_to_mel,
    mel_filterbank,
    n_frames_for,
    read_feature_cache,
    stack_context,
    standardize,
    stft_power,
    write_feature_cache,
)
from avcount.synthgen import SceneSpec, generate_scene
from numeric_checks import blas_thread_count, mel_to_hz, one_blas_thread


def tone_clip(freq, n=882000, rate=44100, amp=0.5, clip_id="tone"):
    t = np.arange(n) / rate
    return AudioClip(samples=amp * np.sin(2 * np.pi * freq * t), sample_rate=rate, id=clip_id)


def noise_clip(seed=0, n=882000, rate=44100, amp=0.3, clip_id="noise"):
    rng = np.random.default_rng(seed)
    return AudioClip(samples=amp * rng.uniform(-1, 1, n), sample_rate=rate, id=clip_id)


CFG = SpectrogramConfig()


class TestStft:
    def test_540_frames_for_20s(self):
        p = stft_power(AudioClip(np.zeros(882000) + 1e-6, 44100, "a"), CFG)
        assert p.shape == (540, CFG.window_len // 2 + 1)

    def test_zero_clip_zero_power(self):
        p = stft_power(AudioClip(np.zeros(4000), 44100, "a"), CFG)
        assert np.all(p == 0)

    def test_sinusoid_at_bin_center_peaks_there(self):
        # 5512.5 Hz falls exactly on bin 512 of the 4096-point transform;
        # cosine with whole cycles keeps the reflect padding kink-free
        n = 44097
        t = np.arange(n) / 44100
        clip = AudioClip(0.5 * np.cos(2 * np.pi * 5512.5 * t), 44100, "tone")
        p = stft_power(clip, CFG)
        assert np.all(np.argmax(p, axis=1) == 512)

    def test_matches_direct_fourier_sum(self):
        # one frame against the O(N^2) definition of the DFT
        clip = noise_clip(seed=3, n=20000)
        p = stft_power(clip, CFG)
        half = CFG.window_len // 2
        padded = np.pad(clip.samples, half, mode="reflect")
        m = 4
        frame = padded[m * CFG.hop : m * CFG.hop + CFG.window_len] * np.hamming(
            CFG.window_len
        )
        n = CFG.window_len
        ks = np.arange(CFG.window_len // 2 + 1)
        oracle = np.empty(ks.size)
        for k in ks:  # direct sum, no FFT
            basis = np.exp(-2j * np.pi * k * np.arange(n) / n)
            oracle[k] = np.abs(np.dot(frame, basis)) ** 2
        assert np.allclose(p[m], oracle, rtol=1e-9, atol=1e-12)

    def test_too_short_clip_rejected(self):
        with pytest.raises(ValueError):
            stft_power(AudioClip(np.zeros(100) + 0.1, 44100, "a"), CFG)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stft_power(AudioClip(np.zeros(48000) + 0.1, 48000, "a"), CFG)

    def test_frame_count_when_hop_divides_length(self):
        n = CFG.hop * 4
        p = stft_power(AudioClip(np.zeros(n) + 0.1, 44100, "a"), CFG)
        assert p.shape[0] == n_frames_for(n, CFG.hop) == 4


def direct_stft_power(x, cfg):
    """The unblocked formula: pad the whole clip, frame it, one full-array rfft."""
    padded = np.pad(x, cfg.window_len // 2, mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.window_len)
    frames = frames[:: cfg.hop][: n_frames_for(x.size, cfg.hop)]
    return np.abs(np.fft.rfft(frames * np.hamming(cfg.window_len), axis=1)) ** 2


def _length_for_frames(n_frames, hop=CFG.hop):
    """Shortest clip with the given frame count."""
    return (n_frames - 1) * hop + 1


BLOCK = features._BLOCK_FRAMES
W = CFG.window_len


class TestBlockedStft:
    @pytest.mark.parametrize(
        "n",
        [CFG.hop, W // 2 - 1, W // 2 + 1, W - 1, W + 1]
        + [_length_for_frames(m * BLOCK + d) for m in (1, 2) for d in (-1, 0, 1)],
    )
    def test_equals_direct_formula(self, n):
        x = noise_clip(seed=n, n=n).samples
        p = stft_power(AudioClip(x, 44100, "a"), CFG)
        assert np.array_equal(p, direct_stft_power(x, CFG))

    @pytest.mark.parametrize("window_len,hop", [(64, 10), (63, 31), (17, 16), (16, 1)])
    def test_equals_direct_formula_for_other_geometries(self, window_len, hop):
        # every length up to three windows plus a few past a block boundary
        cfg = SpectrogramConfig(window_len=window_len, hop=hop)
        rng = np.random.default_rng(window_len * 100 + hop)
        lengths = list(range(hop, 3 * window_len + 2))
        lengths += [_length_for_frames(BLOCK + d, hop) for d in (-1, 0, 1, BLOCK)]
        for n in lengths:
            x = rng.uniform(-1, 1, n)
            p = stft_power(AudioClip(x, 44100, "a"), cfg)
            assert np.array_equal(p, direct_stft_power(x, cfg)), n

    def test_cached_filterbank_is_read_only(self):
        fb = mel_filterbank(CFG, 44100)
        assert fb is mel_filterbank(CFG, 44100)
        with pytest.raises(ValueError, match="read-only"):
            fb[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            fb *= 2.0

    def test_needs_only_the_numpy1_rfft_signature(self, monkeypatch):
        # pyproject allows numpy>=1.24, whose rfft takes no out= argument
        rfft = np.fft.rfft

        def rfft_numpy1(a, n=None, axis=-1, norm=None):
            return rfft(a, n=n, axis=axis, norm=norm)

        monkeypatch.setattr(np.fft, "rfft", rfft_numpy1)
        x = noise_clip(seed=3, n=W * 20).samples
        p = stft_power(AudioClip(x, 44100, "a"), CFG)
        monkeypatch.undo()
        assert np.array_equal(p, direct_stft_power(x, CFG))


# SHA-256 of the front end's output bytes for one seeded synthgen clip
GOLDEN_STFT = "333468cc5836d8e4d171a726822a83b27280183d36ea8b33924b4821ad4b997e"
GOLDEN_FEATURES = {
    1000.0: "f13b8c6e243f8178138646ebd1d93ebdd8700e6fc91c0382d0eaf14620d7bdeb",
    0.0: "dc5d283562308693f1d4fb925d83f377dac226227f9aa1acecbe74f7118c61b0",
}


def _golden_clip():
    clip, _ = generate_scene(SceneSpec(duration=5.0, n_vehicles=2, seed=7))
    return AudioClip(clip.samples, clip.sample_rate, "golden")


def test_stft_power_bytes_are_pinned():
    power = stft_power(_golden_clip(), CFG)
    assert hashlib.sha256(power.tobytes()).hexdigest() == GOLDEN_STFT


@pytest.mark.parametrize("f_min", sorted(GOLDEN_FEATURES))
def test_extract_features_bytes_are_pinned(f_min):
    # the mel product is a BLAS matmul, which rounds by thread count
    with one_blas_thread():
        fm = extract_features(_golden_clip(), SpectrogramConfig(f_min=f_min))
    assert fm.data.shape == (135, 528)
    assert hashlib.sha256(fm.data.tobytes()).hexdigest() == GOLDEN_FEATURES[f_min]


class TestMelFilterbank:
    def test_no_weight_below_f_min(self):
        fb = mel_filterbank(CFG, 44100)
        freqs = np.arange(fb.shape[1]) * 44100 / CFG.window_len
        assert np.all(fb[:, freqs < 1000.0] == 0)

    def test_single_filter_peaks_at_mel_midpoint(self):
        cfg = SpectrogramConfig(n_mel=1)
        fb = mel_filterbank(cfg, 44100)
        assert fb.shape[0] == 1
        assert fb.max() == 1.0
        freqs = np.arange(fb.shape[1]) * 44100 / cfg.window_len
        mid_hz = mel_to_hz((hz_to_mel(1000.0) + hz_to_mel(22050.0)) / 2)
        peak_hz = freqs[int(np.argmax(fb[0]))]
        assert abs(peak_hz - mid_hz) < 44100 / cfg.window_len

    def test_row_sums_strictly_positive_for_paper_config(self):
        fb = mel_filterbank(CFG, 44100)
        assert np.all(fb.sum(axis=1) > 0)

    def test_rows_nonnegative_unimodal_bounded(self):
        fb = mel_filterbank(CFG, 44100)
        assert np.all(fb >= 0)
        assert np.all(fb.max(axis=1) == 1.0)
        for row in fb:
            inside = np.flatnonzero(row > 0)
            segment = row[inside[0] : inside[-1] + 1]
            d = np.diff(segment)
            # one rising then one falling stretch
            signs = np.sign(d[d != 0])
            flips = np.sum(np.diff(signs) != 0)
            assert flips <= 1

    def test_zero_outside_f_range(self):
        cfg = SpectrogramConfig(f_min=2000.0, f_max=9000.0)
        fb = mel_filterbank(cfg, 44100)
        freqs = np.arange(fb.shape[1]) * 44100 / cfg.window_len
        assert np.all(fb[:, (freqs < 2000.0) | (freqs > 9000.0)] == 0)

    def test_empty_filter_rejected(self):
        cfg = SpectrogramConfig(n_mel=2000)
        with pytest.raises(ValueError):
            mel_filterbank(cfg, 44100)

    def test_f_min_zero_supported(self):
        cfg = SpectrogramConfig(f_min=0.0)
        fb = mel_filterbank(cfg, 44100)
        assert fb.shape[0] == 48


class TestHfLms:
    def test_all_zero_clip_hits_log_floor(self):
        lms = hf_lms(AudioClip(np.zeros(5000), 44100, "a"), CFG)
        assert np.allclose(lms, np.log(CFG.log_floor))

    def test_output_width_48(self):
        lms = hf_lms(noise_clip(n=20000), CFG)
        assert lms.shape[1] == 48

    def test_doubling_amplitude_adds_log4(self):
        clip = noise_clip(seed=9, n=40000)
        loud = AudioClip(samples=2 * clip.samples, sample_rate=44100, id="loud")
        delta = hf_lms(loud, CFG) - hf_lms(clip, CFG)
        assert np.allclose(delta, np.log(4.0), atol=1e-6)

    def test_low_frequency_tone_invisible(self):
        # Hamming sidelobes put a floor on how much of a 200 Hz tone leaks
        # past 1 kHz; at this amplitude the leakage bound is 1e-6 in log
        # units while full-band features still see the tone >1000x larger.
        base = noise_clip(seed=4, n=441 * 136 + 1)
        t = np.arange(base.samples.size) / 44100
        spiked = AudioClip(
            samples=base.samples + 2e-5 * np.cos(2 * np.pi * 200.0 * t),
            sample_rate=44100,
            id="spiked",
        )
        delta_hf = np.abs(hf_lms(spiked, CFG) - hf_lms(base, CFG))
        assert delta_hf.max() <= 1e-6
        full = SpectrogramConfig(f_min=0.0)
        delta_full = np.abs(hf_lms(spiked, full) - hf_lms(base, full))
        assert delta_full.max() >= 1e-3

    def test_frame_alignment_with_reference_distance(self):
        clip = noise_clip(seed=2, n=882000)
        lms = hf_lms(clip, CFG)
        ann = PassByAnnotation("noise", (3.0, 9.5), clip.duration)
        ref = reference_distance(ann, n_frames_for(882000, CFG.hop), CFG.frame_period, 0.75)
        assert lms.shape[0] == ref.n_frames == 540


class TestStackContext:
    def test_paper_dimensions(self):
        lms = np.zeros((540, 48))
        assert stack_context(lms, 5, 2).shape == (540, 528)

    def test_q_zero_is_identity(self):
        lms = np.random.default_rng(0).normal(size=(30, 8))
        assert np.array_equal(stack_context(lms, 0, 2), lms)

    def test_constant_rows_replicate_at_edges(self):
        row = np.arange(6.0)
        lms = np.tile(row, (40, 1))
        stacked = stack_context(lms, 5, 2)
        expected = np.tile(row, (40, 11))
        assert np.array_equal(stacked, expected)

    def test_interior_rows_are_strided_copies(self):
        rng = np.random.default_rng(1)
        lms = rng.normal(size=(50, 4))
        stacked = stack_context(lms, 2, 3)
        m = 25
        expected = np.concatenate([lms[m + j * 3] for j in range(-2, 3)])
        assert np.array_equal(stacked[m], expected)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stack_context(np.zeros((0, 4)), 2, 1)


class TestStandardize:
    def _mats(self, rng, n=3):
        return [
            FeatureMatrix(clip_id=f"c{i}", data=rng.normal(2.0, 3.0, size=(40, 6)), frame_period=0.05)
            for i in range(n)
        ]

    def test_training_set_becomes_zero_mean_unit_std(self):
        out, _ = standardize(self._mats(np.random.default_rng(0)))
        pooled = np.concatenate([fm.data for fm in out])
        assert np.allclose(pooled.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(pooled.std(axis=0), 1.0, atol=1e-12)

    def test_constant_dimension_maps_to_zero(self):
        fm = FeatureMatrix(clip_id="c", data=np.full((30, 2), 7.0), frame_period=0.05)
        out, _ = standardize([fm])
        assert np.all(out[0].data == 0.0)

    def test_saved_stats_equal_direct_formula(self):
        rng = np.random.default_rng(3)
        _, stats = standardize(self._mats(rng))
        held_out = rng.normal(size=(25, 6))
        fm = FeatureMatrix(clip_id="h", data=held_out, frame_period=0.05)
        out, _ = standardize([fm], stats)
        assert np.array_equal(out[0].data, (held_out - stats.mean) / stats.std)

    def test_empty_training_list_rejected(self):
        with pytest.raises(ValueError):
            standardize([])

    def test_fit_returns_row_views_of_one_pooled_matrix(self):
        mats = self._mats(np.random.default_rng(4))
        out, stats = standardize(mats)
        pooled = out[0].data.base
        assert all(fm.data.base is pooled for fm in out)
        assert np.array_equal(pooled, np.concatenate([fm.data for fm in out]))
        for fm, raw in zip(out, mats):
            assert fm.clip_id == raw.clip_id
            assert np.array_equal(fm.data, (raw.data - stats.mean) / stats.std)

    @pytest.mark.parametrize("rows,dim", [(5400, 528), (2700, 528), (777, 31), (5, 528), (1, 7)])
    def test_fit_equals_numpy_mean_and_std(self, rows, dim):
        rng = np.random.default_rng(rows)
        data = rng.normal(2.0, 3.0, size=(rows, dim)) * rng.uniform(0.1, 10.0, dim)
        parts = np.array_split(data, min(rows, 3))
        _, stats = standardize([FeatureMatrix(f"c{i}", p, 0.05) for i, p in enumerate(parts)])
        assert np.array_equal(stats.mean, data.mean(axis=0))
        assert np.array_equal(stats.std, np.maximum(data.std(axis=0), 1e-8))  # the formula it replaced

    def test_fit_allocates_no_second_full_size_matrix(self):
        rng = np.random.default_rng(5)
        mats = [FeatureMatrix(f"c{i}", rng.normal(size=(450, 528)), 0.05) for i in range(6)]
        tracemalloc.start()
        try:
            standardize(mats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 6 * 450 * 528 * 8  # the pooled matrix and a quarter more


def test_extract_features_shape_contract():
    clip = noise_clip(seed=11, n=882000)
    fm = extract_features(clip, CFG)
    assert fm.frames == 540
    assert fm.dim == 528
    assert fm.frame_period == CFG.frame_period


def cache_clip(clip_id="clip x", n=4000, seed=0):
    return noise_clip(seed=seed, n=n, clip_id=clip_id)


def test_feature_cache_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    fm = FeatureMatrix(clip_id="clip x", data=rng.normal(size=(17, 5)), frame_period=0.037)
    path = tmp_path / "c.avcf"
    write_feature_cache(path, cache_clip(), fm, CFG, 5, 2)
    back = read_feature_cache(path, cache_clip(), CFG, 5, 2)
    assert back.clip_id == fm.clip_id
    assert back.frame_period == fm.frame_period
    assert np.array_equal(back.data, fm.data)


@pytest.mark.parametrize(
    "clip_id,cfg,q,stride,setting",
    [
        ("other", CFG, 5, 2, "clip_id"),
        ("clip x", SpectrogramConfig(f_min=0.0), 5, 2, "spectrogram.f_min"),
        ("clip x", CFG, 4, 2, "q"),
        ("clip x", CFG, 5, 3, "stride"),
    ],
)
def test_feature_cache_rejects_other_settings(tmp_path, clip_id, cfg, q, stride, setting):
    from avcount.dataio import DataError

    fm = FeatureMatrix(clip_id="clip x", data=np.ones((3, 5)), frame_period=0.037)
    path = tmp_path / "c.avcf"
    write_feature_cache(path, cache_clip(), fm, CFG, 5, 2)
    with pytest.raises(DataError, match=setting):
        read_feature_cache(path, cache_clip(clip_id), cfg, q, stride)


@pytest.mark.parametrize(
    "clip,settings",
    [
        (cache_clip(seed=1), ["samples_sha256"]),
        (cache_clip(n=4001), ["n_samples", "samples_sha256"]),
    ],
    ids=["same length", "other length"],
)
def test_feature_cache_rejects_other_audio_under_same_id(tmp_path, clip, settings):
    from avcount.dataio import DataError

    fm = FeatureMatrix(clip_id="clip x", data=np.ones((3, 5)), frame_period=0.037)
    path = tmp_path / "c.avcf"
    write_feature_cache(path, cache_clip(), fm, CFG, 5, 2)
    with pytest.raises(DataError) as exc:
        read_feature_cache(path, clip, CFG, 5, 2)
    named = [k for k in ("clip_id", "n_samples", "samples_sha256") if f"{k} " in str(exc.value)]
    assert named == settings


def test_feature_cache_rejects_another_blas_thread_count(tmp_path):
    from avcount.dataio import DataError

    fm = FeatureMatrix(clip_id="clip x", data=np.ones((3, 5)), frame_period=0.037)
    path = tmp_path / "c.avcf"
    with one_blas_thread():
        write_feature_cache(path, cache_clip(), fm, CFG, 5, 2)
        read_feature_cache(path, cache_clip(), CFG, 5, 2)
    with blas_thread_count(2):
        with pytest.raises(DataError, match=r"blas_threads 1 \(expected 2\)$"):
            read_feature_cache(path, cache_clip(), CFG, 5, 2)


def test_feature_cache_rejects_another_blas(tmp_path, monkeypatch):
    from avcount import features
    from avcount.dataio import DataError

    fm = FeatureMatrix(clip_id="clip x", data=np.ones((3, 5)), frame_period=0.037)
    path = tmp_path / "c.avcf"
    monkeypatch.setattr(features, "_blas_build", lambda: ("scipy-openblas", "0.3.31"))
    write_feature_cache(path, cache_clip(), fm, CFG, 5, 2)
    read_feature_cache(path, cache_clip(), CFG, 5, 2)
    monkeypatch.setattr(features, "_blas_build", lambda: ("mkl", "2024.1"))
    with pytest.raises(DataError, match=(
        r"blas_name 'scipy-openblas' \(expected 'mkl'\), "
        r"blas_version '0.3.31' \(expected '2024.1'\)$"
    )):
        read_feature_cache(path, cache_clip(), CFG, 5, 2)
    monkeypatch.setattr(features, "_blas_build", lambda: ("scipy-openblas", "0.3.32"))
    with pytest.raises(DataError, match=r"blas_version '0.3.31' \(expected '0.3.32'\)$"):
        read_feature_cache(path, cache_clip(), CFG, 5, 2)


def test_blas_build_reads_numpy_build_config(monkeypatch):
    from avcount import features

    name, version = features._blas_build()
    assert isinstance(name, str) and isinstance(version, str)

    def show_config_without_mode():  # an older NumPy's signature
        return None

    monkeypatch.setattr(np, "show_config", show_config_without_mode)
    assert features._blas_build() == (None, None)


def test_feature_cache_rejects_garbage(tmp_path):
    path = tmp_path / "bad.avcf"
    path.write_bytes(b"nonsense")
    from avcount.dataio import DataError

    with pytest.raises(DataError):
        read_feature_cache(path, cache_clip("bad"), CFG, 5, 2)
    from avcount.nn_core import write_checkpoint

    write_checkpoint(path, "feature_stats", {}, [("mean", np.zeros(5))])
    with pytest.raises(DataError, match="checkpoint kind 'feature_stats', expected 'features'"):
        read_feature_cache(path, cache_clip("bad"), CFG, 5, 2)
