import struct

import numpy as np
import pytest

from avcount.dataio import (
    DataError,
    DistanceSeries,
    PassByAnnotation,
    load_annotations,
    load_clip,
    load_corpus,
    reference_distance,
    save_wav,
    split_dataset,
)


def write_raw_wav(path, payload, fmt_code=1, channels=1, rate=44100, bits=16):
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_code, channels, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


class TestLoadClip:
    def test_duration_times_rate(self, tmp_path):
        path = tmp_path / "a.wav"
        save_wav(path, np.zeros(882000), 44100)
        clip = load_clip(path)
        assert clip.samples.size == 882000
        assert clip.sample_rate == 44100
        assert clip.id == "a"

    def test_opposite_stereo_channels_cancel(self, tmp_path):
        x = (np.sin(np.linspace(0, 20, 4000)) * 0.5).astype(np.float64)
        inter = np.empty(2 * x.size, dtype="<i2")
        q = np.clip(np.round(x * 32768), -32768, 32767).astype("<i2")
        inter[0::2] = q
        inter[1::2] = -q
        path = tmp_path / "stereo.wav"
        write_raw_wav(path, inter.tobytes(), channels=2)
        clip = load_clip(path)
        assert np.max(np.abs(clip.samples)) <= 1.0 / 65536

    def test_int16_scaling_extremes(self, tmp_path):
        payload = np.array([-32768, 0, 32767], dtype="<i2").tobytes()
        path = tmp_path / "ext.wav"
        write_raw_wav(path, payload)
        clip = load_clip(path)
        assert clip.samples[0] == -1.0
        assert clip.samples[1] == 0.0
        assert clip.samples[2] == 32767 / 32768

    @pytest.mark.parametrize("bits", [8, 16, 24, 32])
    def test_int_round_trip(self, tmp_path, bits):
        # quantize once, then the decode/encode loop must be exact
        rng = np.random.default_rng(bits)
        x = rng.uniform(-1, 1, 500)
        p1 = tmp_path / "one.wav"
        save_wav(p1, x, 44100, bits=bits)
        first = load_clip(p1)
        p2 = tmp_path / "two.wav"
        save_wav(p2, first.samples, 44100, bits=bits)
        second = load_clip(p2)
        assert np.array_equal(first.samples, second.samples)
        assert np.max(np.abs(first.samples - x)) <= 1.5 * 2.0 ** -(bits - 1)

    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 300).astype(np.float32).astype(np.float64)
        path = tmp_path / "f.wav"
        save_wav(path, x, 44100, float32=True)
        clip = load_clip(path)
        assert np.array_equal(clip.samples, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_float_sample_rejected(self, tmp_path, bad):
        path = tmp_path / "nan.wav"
        save_wav(path, [0.1, bad, -0.2], 44100, float32=True)
        with pytest.raises(DataError, match="non-finite"):
            load_clip(path)

    def test_zero_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "rate0.wav"
        write_raw_wav(path, struct.pack("<3h", 0, 1000, -1000), rate=0, bits=16)
        with pytest.raises(DataError, match="sample rate 0"):
            load_clip(path)

    def test_loading_idempotent(self, tmp_path):
        path = tmp_path / "a.wav"
        save_wav(path, np.random.default_rng(1).uniform(-1, 1, 1000), 44100)
        a = load_clip(path)
        b = load_clip(path)
        assert np.array_equal(a.samples, b.samples)

    def test_zero_length_rejected(self, tmp_path):
        path = tmp_path / "z.wav"
        write_raw_wav(path, b"")
        with pytest.raises(DataError):
            load_clip(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "alaw.wav"
        write_raw_wav(path, b"\x00\x00\x00\x00", fmt_code=6)
        with pytest.raises(DataError):
            load_clip(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "g.wav"
        path.write_bytes(b"not a wav at all")
        with pytest.raises(DataError):
            load_clip(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_clip(tmp_path / "nope.wav")


class TestAnnotations:
    def test_rows_grouped_and_sorted(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("clip_id,instant_s\na,3.1\na,1.2\n")
        anns = load_annotations(path, {"a": 20.0})
        assert anns[0].instants == (1.2, 3.1)

    def test_registered_clip_without_rows_is_empty(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("clip_id,instant_s\na,3.1\n")
        anns = load_annotations(path, {"a": 20.0, "b": 20.0})
        by_id = {a.clip_id: a for a in anns}
        assert by_id["b"].instants == ()

    def test_negative_instant_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("clip_id,instant_s\na,-0.5\n")
        with pytest.raises(DataError):
            load_annotations(path, {"a": 20.0})

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("clip_id,instant_s\na,1.0\na,1.0\n")
        with pytest.raises(DataError):
            load_annotations(path, {"a": 20.0})

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("clip_id,instant_s\na,xyz\n")
        with pytest.raises(DataError):
            load_annotations(path, {"a": 20.0})

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("id,when\na,1.0\n")
        with pytest.raises(DataError):
            load_annotations(path, {"a": 20.0})

    @pytest.mark.parametrize("instant", ["nan", "inf", "-inf"])
    def test_non_finite_instant_rejected(self, tmp_path, instant):
        path = tmp_path / "ann.csv"
        path.write_text(f"clip_id,instant_s\na,1.0\na,{instant}\na,3.0\n")
        with pytest.raises(DataError, match="line 3: non-finite instant"):
            load_annotations(path, {"a": 20.0})

    def test_instant_beyond_duration_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("clip_id,instant_s\na,25.0\n")
        with pytest.raises(DataError):
            load_annotations(path, {"a": 20.0})


class TestReferenceDistance:
    def test_zero_at_pass_by_instant(self):
        ann = PassByAnnotation("a", (2.0,), 10.0)
        ds = reference_distance(ann, 21, 0.5, 0.75)
        assert ds.values[4] == 0.0  # frame 4 sits at t = 2.0

    def test_saturates_far_from_vehicles(self):
        ann = PassByAnnotation("a", (5.0,), 20.0)
        ds = reference_distance(ann, 10, 0.1, 0.75)
        # frames cover t <= 0.9, all at least 4.1 s from the instant
        assert np.all(ds.values == 0.75)

    def test_two_vehicle_hand_value(self):
        # midpoint between instants 5.0 and 6.0: both give 0.5
        ann = PassByAnnotation("a", (5.0, 6.0), 20.0)
        ds = reference_distance(ann, 12, 0.5, 0.75)
        assert ds.values[11] == 0.5

    def test_zero_vehicles_constant(self):
        ann = PassByAnnotation("a", (), 20.0)
        ds = reference_distance(ann, 540, 1634 / 44100, 0.75)
        assert np.all(ds.values == 0.75)

    def test_min_decomposition_over_vehicles(self):
        rng = np.random.default_rng(5)
        instants = tuple(sorted(rng.uniform(0, 20, 4)))
        ann = PassByAnnotation("a", instants, 20.0)
        combined = reference_distance(ann, 100, 0.2, 0.75)
        singles = [
            reference_distance(PassByAnnotation("a", (t,), 20.0), 100, 0.2, 0.75)
            for t in instants
        ]
        stacked = np.stack([s.values for s in singles])
        assert np.array_equal(combined.values, stacked.min(axis=0))

    def test_adding_vehicle_never_increases(self):
        base = PassByAnnotation("a", (4.0,), 20.0)
        more = PassByAnnotation("a", (4.0, 9.0), 20.0)
        d0 = reference_distance(base, 120, 0.15, 0.75).values
        d1 = reference_distance(more, 120, 0.15, 0.75).values
        assert np.all(d1 <= d0)

    def test_preconditions(self):
        ann = PassByAnnotation("a", (), 20.0)
        with pytest.raises(ValueError):
            reference_distance(ann, 0, 0.5, 0.75)
        with pytest.raises(ValueError):
            reference_distance(ann, 5, 0.5, 0.0)


class TestSplit:
    def test_250_ids_80_20(self):
        split = split_dataset([f"c{i}" for i in range(250)], 0.8, 0)
        assert len(split.train_ids) == 200
        assert len(split.val_ids) == 50

    def test_deterministic(self):
        ids = [f"c{i}" for i in range(40)]
        assert split_dataset(ids, 0.8, 7) == split_dataset(ids, 0.8, 7)

    def test_five_ids(self):
        split = split_dataset(list("abcde"), 0.8, 1)
        assert len(split.train_ids) == 4
        assert len(split.val_ids) == 1

    def test_disjoint(self):
        split = split_dataset([f"c{i}" for i in range(30)], 0.5, 3)
        assert not set(split.train_ids) & set(split.val_ids)

    def test_too_few_ids(self):
        with pytest.raises(ValueError):
            split_dataset(["only"], 0.8, 0)


def test_load_corpus_round_trip(tmp_path):
    save_wav(tmp_path / "x.wav", np.zeros(44100) + 0.1, 44100)
    save_wav(tmp_path / "y.wav", np.zeros(44100) + 0.1, 44100)
    (tmp_path / "annotations.csv").write_text("clip_id,instant_s\nx,0.4\n")
    clips, anns = load_corpus(tmp_path)
    assert [c.id for c in clips] == ["x", "y"]
    assert anns[0].instants == (0.4,)
    assert anns[1].instants == ()


def test_annotation_invariants():
    with pytest.raises(ValueError):
        PassByAnnotation("a", (2.0, 1.0), 10.0)
    with pytest.raises(ValueError):
        PassByAnnotation("a", (2.0, 2.0), 10.0)
    with pytest.raises(ValueError, match="duration must be positive"):
        PassByAnnotation("a", (0.0,), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected(bad):
    with pytest.raises(ValueError, match="instants must be finite"):
        PassByAnnotation("a", (1.0, bad), 10.0)
    with pytest.raises(ValueError, match="duration must be positive and finite"):
        PassByAnnotation("a", (1.0,), bad)
    with pytest.raises(ValueError, match=r"\[0, t_d\]"):
        DistanceSeries("a", np.array([0.1, bad, 0.2]), 0.1, 0.75)
