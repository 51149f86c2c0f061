import hashlib
import threading
from dataclasses import replace

import numpy as np
import pytest

from avcount import parallel, synthgen
from avcount.dataio import load_corpus, reference_distance
from avcount.features import SpectrogramConfig, mel_filterbank, stft_power
from avcount.synthgen import SceneSpec, generate_corpus, generate_scene


class TestGenerateScene:
    def test_zero_vehicles_pure_noise(self):
        clip, ann = generate_scene(SceneSpec(n_vehicles=0, seed=1))
        assert ann.instants == ()
        assert np.max(np.abs(clip.samples)) < 0.05  # noise bed only

    def test_min_gap_respected(self):
        for seed in range(8):
            _, ann = generate_scene(SceneSpec(n_vehicles=5, min_gap=2.0, seed=seed))
            gaps = np.diff(ann.instants)
            assert np.all(gaps >= 2.0)

    def test_pairs_use_pair_gap_between_members(self):
        spec = SceneSpec(n_vehicles=4, pair_fraction=1.0, pair_gap=0.8, seed=3)
        _, ann = generate_scene(spec)
        gaps = np.diff(ann.instants)
        near = np.isclose(gaps, 0.8, atol=spec.frame_period)
        far = gaps >= spec.min_gap
        assert np.all(near | far)
        assert near.sum() == 2  # two pairs

    def test_instants_on_frame_grid(self):
        spec = SceneSpec(n_vehicles=3, seed=5)
        _, ann = generate_scene(spec)
        fp = spec.frame_period
        for t in ann.instants:
            assert abs(t / fp - round(t / fp)) < 1e-9

    def test_reference_distance_dips_to_zero_at_event_frames(self):
        spec = SceneSpec(n_vehicles=4, seed=9)
        clip, ann = generate_scene(spec)
        n_frames = (clip.samples.size - 1) // spec.hop + 1
        ref = reference_distance(ann, n_frames, spec.frame_period, 0.75)
        for t in ann.instants:
            assert ref.values[round(t / spec.frame_period)] == 0.0

    def test_deterministic_under_seed(self):
        a_clip, a_ann = generate_scene(SceneSpec(n_vehicles=2, seed=11))
        b_clip, b_ann = generate_scene(SceneSpec(n_vehicles=2, seed=11))
        assert np.array_equal(a_clip.samples, b_clip.samples)
        assert a_ann.instants == b_ann.instants

    def test_random_widths_change_audio_not_instants(self):
        fixed_clip, fixed_ann = generate_scene(SceneSpec(n_vehicles=2, seed=13))
        wide_clip, wide_ann = generate_scene(
            SceneSpec(n_vehicles=2, seed=13, width_range=(0.3, 0.5))
        )
        assert fixed_ann.instants == wide_ann.instants
        assert not np.array_equal(fixed_clip.samples, wide_clip.samples)

    def test_infeasible_fixed_count_rejected(self):
        with pytest.raises(ValueError):
            generate_scene(SceneSpec(n_vehicles=30, min_gap=2.0, duration=20.0, seed=0))

    def test_poisson_draw_is_capped_not_failed(self):
        clip, ann = generate_scene(
            SceneSpec(n_vehicles=None, rate=50.0, min_gap=2.0, duration=20.0, seed=0)
        )
        assert ann.n_vehicles <= 9  # whatever fits

    def test_samples_stay_in_range(self):
        for seed in range(5):
            clip, _ = generate_scene(SceneSpec(n_vehicles=6, min_gap=1.0, seed=seed))
            assert np.max(np.abs(clip.samples)) <= 0.99 + 1e-12

    def test_vehicle_band_energy_dominates_at_event(self):
        # >= 10 dB of high-frequency energy at the pass-by versus background
        spec = SceneSpec(n_vehicles=1, seed=21)
        clip, ann = generate_scene(spec)
        cfg = SpectrogramConfig()
        clip = type(clip)(samples=clip.samples, sample_rate=44100, id="s")
        power = stft_power(clip, cfg)
        fb = mel_filterbank(cfg, 44100)
        hf_power = (power @ fb.T).sum(axis=1)
        event_frame = round(ann.instants[0] / spec.frame_period)
        background = np.median(hf_power)
        assert 10 * np.log10(hf_power[event_frame] / background) >= 10.0


class TestGenerateCorpus:
    def test_round_trip_matches_manifest(self, tmp_path):
        spec = SceneSpec(seed=31)
        manifest = generate_corpus(spec, 6, tmp_path)
        clips, anns = load_corpus(tmp_path)
        counts = {a.clip_id: a.n_vehicles for a in anns}
        assert {cid: n for cid, n in manifest} == counts
        assert sum(counts.values()) == sum(n for _, n in manifest)

    def test_instants_survive_csv_at_millisecond_precision(self, tmp_path):
        spec = SceneSpec(seed=32, n_vehicles=3)
        manifest = generate_corpus(spec, 3, tmp_path)
        _, anns = load_corpus(tmp_path)
        by_id = {a.clip_id: a for a in anns}
        for i in range(3):
            _, direct = generate_scene(
                SceneSpec(seed=32 + i, n_vehicles=3)
            )
            loaded = by_id[f"clip{i:04d}"].instants
            assert len(loaded) == len(direct.instants)
            for a, b in zip(loaded, direct.instants):
                assert abs(a - b) <= 5e-4 + 1e-12

    def test_bitwise_deterministic(self, tmp_path):
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        generate_corpus(SceneSpec(seed=33), 3, d1)
        generate_corpus(SceneSpec(seed=33), 3, d2)
        for name in sorted(p.name for p in d1.iterdir()):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_manifest_and_annotation_files_written(self, tmp_path):
        generate_corpus(SceneSpec(seed=34), 2, tmp_path)
        assert (tmp_path / "manifest.csv").exists()
        assert (tmp_path / "annotations.csv").exists()
        header = (tmp_path / "manifest.csv").read_text().splitlines()[0]
        assert header == "clip_id,n_vehicles"

    def test_zero_clip_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_corpus(SceneSpec(seed=0), 0, tmp_path)


# clip seeds 4-7: one vehicle, a pair rescaled to the 0.99 peak, no vehicle,
# another rescaled pair; every event draws its own width
GOLDEN_SCENE = SceneSpec(
    duration=8.0,
    rate=0.6,
    min_gap=1.5,
    pair_fraction=0.5,
    pair_gap=0.6,
    edge_margin=1.0,
    width_range=(0.1, 0.4),
    amp_range=(0.2, 0.6),
    sample_rate=16000,
    hop=400,
    band=(1500.0, 6000.0),
    seed=4,
)
GOLDEN_CORPUS_SHA256 = {
    "annotations.csv": "d7e952d9fc32efe6bc908d12bc574057cd5c92119f4cf165c57d04df415e6ce5",
    "clip0000.wav": "1d3046d0aaf6c980f28735f180048098fe0b13ba1f6cdfc4233c20ff5047c8d9",
    "clip0001.wav": "e7baf05d234e4be56193d4dc1a0e924bbdc667ad2c052b60695a161d6dddf3db",
    "clip0002.wav": "a45f182a8ff4c4bc432534cb76360814473b2035e455d7208d72a32f18381fb4",
    "clip0003.wav": "be20782b36cf4ba1cca28e3acad3cf1861a545e4f23ab84b0daa53f1f65490c3",
    "manifest.csv": "df0140db4c2da1fd24fb968d058598fe46aa66cf5c99dc6d632629db19fa179d",
}
# the benchmark's dense evaluate scene: 120 s, 40 vehicles, 1 kHz
DENSE_SCENE = SceneSpec(
    duration=120.0,
    n_vehicles=40,
    pair_fraction=0.5,
    sample_rate=1000,
    hop=37,
    band=(250.0, 300.0),
    seed=100,
)
DENSE_SAMPLES_SHA256 = "61d4d38b764f7e7961c42b789a9ce568e6f920f832399abe6c04a5e988623650"


def _file_digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


class TestGolden:
    """Synthesized bytes pinned by SHA-256, so a faster synthesizer must
    reproduce every sample, not just agree with itself."""

    def test_corpus_files(self, tmp_path):
        manifest = generate_corpus(GOLDEN_SCENE, 4, tmp_path)
        assert [n for _, n in manifest] == [1, 2, 0, 2]
        for i in (1, 3):  # the pairs hit the peak rescale
            clip, _ = generate_scene(replace(GOLDEN_SCENE, seed=GOLDEN_SCENE.seed + i))
            assert np.max(np.abs(clip.samples)) == pytest.approx(0.99, abs=1e-12)
        assert _file_digests(tmp_path) == GOLDEN_CORPUS_SHA256

    def test_dense_scene_samples(self):
        clip, ann = generate_scene(DENSE_SCENE)
        assert ann.n_vehicles == 40 and clip.samples.dtype == np.float64
        assert hashlib.sha256(clip.samples.tobytes()).hexdigest() == DENSE_SAMPLES_SHA256


class TestWorkerCount:
    """generate_corpus runs on usable_cores() clip workers; none of its
    output may depend on how many there are."""

    def _use_cores(self, monkeypatch, cores):
        monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
        threads = set()

        def spy(spec):
            threads.add(threading.get_ident())
            return generate_scene(spec)

        monkeypatch.setattr(synthgen, "generate_scene", spy)
        return threads

    def test_bytes_equal_for_one_and_four_workers(self, tmp_path, monkeypatch):
        digests = {}
        for cores in (1, 4):
            threads = self._use_cores(monkeypatch, cores)
            generate_corpus(GOLDEN_SCENE, 6, tmp_path / str(cores))
            assert (len(threads) == 1) == (cores == 1)
            digests[cores] = _file_digests(tmp_path / str(cores))
        assert digests[1] == digests[4]
        assert len(digests[1]) == 8

    def test_first_failing_clip_raises_and_no_csv_is_written(self, tmp_path, monkeypatch):
        # clip seeds 2-5: two scenes fit six vehicles with two pairs, the
        # third and fourth plan one pair too few and cannot fit
        spec = replace(GOLDEN_SCENE, n_vehicles=6, min_gap=1.5, width_range=None, seed=2)
        message = "infeasible scene: 6 vehicles with min_gap 1.5 do not fit in 8.0 s"
        for cores in (1, 4):
            self._use_cores(monkeypatch, cores)
            out = tmp_path / str(cores)
            with pytest.raises(ValueError) as exc:
                generate_corpus(spec, 4, out)
            assert str(exc.value) == message
            assert sorted(p.name for p in out.iterdir()) == ["clip0000.wav", "clip0001.wav"]


def test_spec_validation():
    for kw, error in [
        ({"duration": 0.0}, ValueError),
        ({"pair_fraction": 1.5}, ValueError),
        ({"n_vehicles": -1}, ValueError),
        ({"noise_level": "a"}, TypeError),
        ({"duration": float("nan")}, ValueError),
        ({"sample_rate": 0}, ValueError),
        ({"hop": 0}, ValueError),
        ({"n_vehicles": 1.5}, TypeError),
        ({"seed": -1}, ValueError),
        ({"amp_range": (1,)}, ValueError),
        ({"amp_range": (0.3, 0.1)}, ValueError),
        ({"width_range": (0.0, 0.5)}, ValueError),
        ({"band": (1500.0, 30000.0)}, ValueError),
    ]:
        with pytest.raises(error):
            SceneSpec(**kw)


def test_scene_must_fit_a_16_bit_wav():
    # 2 bytes per sample plus 36 header bytes must fit RIFF's 32-bit size field
    SceneSpec(duration=48600.0)  # 2,143,260,000 samples at 44.1 kHz
    with pytest.raises(ValueError, match="does not fit a 16-bit WAV"):
        SceneSpec(duration=48700.0)  # 2,147,670,000 samples
    SceneSpec(sample_rate=2**31 - 1, duration=0.5)  # the byte rate is 32-bit too
    for sample_rate in (2**31, 10**11, 10**400):
        with pytest.raises(ValueError, match="does not fit a 16-bit WAV"):
            SceneSpec(sample_rate=sample_rate, duration=1e-6)
