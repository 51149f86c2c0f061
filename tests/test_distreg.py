import json

import numpy as np
import pytest

from avcount import nn_core
from avcount.dataio import AudioClip, DataError, DistanceSeries, PassByAnnotation, reference_distance
from avcount.distreg import (
    RegressionPipeline,
    cascade,
    load_pipeline,
    predict_distance,
    predict_stage1,
    predict_stage2,
    save_pipeline,
    stage1_spec,
    stage2_spec,
    stage2_windows,
    train_pipeline,
    train_stage1,
    train_stage2,
)
from avcount.features import FeatureMatrix, SpectrogramConfig, extract_features, standardize
from avcount.nn_core import DenseLayer, NetworkSpec, init_model
from avcount.synthgen import SceneSpec, generate_scene

T_D = 0.75
FP = 1634 / 44100


def fm(data, clip_id="c"):
    return FeatureMatrix(clip_id=clip_id, data=np.asarray(data, dtype=np.float64), frame_period=FP)


def ds(values, clip_id="c"):
    return DistanceSeries(clip_id=clip_id, values=np.asarray(values, dtype=np.float64),
                          frame_period=FP, t_d=T_D)


def identity_stage2(k):
    """A stage-2 net whose output is the center of the window."""
    spec = NetworkSpec(layer_sizes=(2 * k + 1, 1), epochs=1)
    model = init_model(spec)
    w = np.zeros((1, 2 * k + 1))
    w[0, k] = 1.0
    model.layers[0] = DenseLayer(w, np.zeros(1))
    return model


class TestSpecs:
    def test_stage1_architecture(self):
        spec = stage1_spec()
        assert spec.layer_sizes == (528, 64, 64, 1)
        assert spec.l2_factor == 1e-4
        assert spec.loss == "mse"
        assert spec.epochs == 100

    def test_stage2_architecture(self):
        spec = stage2_spec()
        assert spec.layer_sizes == (31, 31, 15, 1)
        assert spec.l2_factor == 5e-6


class TestStage1:
    def test_constant_target_fit(self):
        rng = np.random.default_rng(0)
        features = [fm(rng.normal(size=(80, 6)), f"c{i}") for i in range(3)]
        targets = [ds(np.full(80, T_D), f"c{i}") for i in range(3)]
        spec = NetworkSpec(
            layer_sizes=(6, 8, 1), epochs=200, batch_size=32,
            learning_rate=5e-3, seed=0,
        )
        model = train_stage1(np.concatenate([f.data for f in features]), targets, spec, T_D)
        pred = predict_stage1(model, features[0], T_D)
        assert np.allclose(pred.values, T_D, atol=0.05)

    def test_target_out_of_range_rejected(self):
        bad = [DistanceSeries(clip_id="c", values=np.full(10, 0.9), frame_period=FP, t_d=0.9)]
        spec = NetworkSpec(layer_sizes=(4, 1), epochs=1)
        with pytest.raises(ValueError):
            train_stage1(np.zeros((10, 4)), bad, spec, T_D)

    def test_misaligned_lengths_rejected(self):
        targets = [ds(np.zeros(11))]
        spec = NetworkSpec(layer_sizes=(3, 1), epochs=1)
        with pytest.raises(ValueError, match="10 input frames vs 11 target frames"):
            train_stage1(np.zeros((10, 3)), targets, spec, T_D)
        with pytest.raises(ValueError, match="10 input frames vs 11 target frames"):
            train_stage2([ds(np.zeros(10))], targets, spec, 1, T_D)
        with pytest.raises(ValueError, match="clip counts differ"):
            train_stage2([], targets, spec, 1, T_D)

    def test_predictions_clamped_and_framed(self):
        rng = np.random.default_rng(1)
        model = init_model(NetworkSpec(layer_sizes=(4, 3, 1), epochs=1, seed=2))
        x = fm(rng.normal(0, 50, size=(30, 4)))  # drive outputs far out of range
        pred = predict_stage1(model, x, T_D)
        assert pred.n_frames == 30
        assert np.all(pred.values >= 0) and np.all(pred.values <= T_D)

    def test_zero_model_predicts_zero(self):
        model = init_model(NetworkSpec(layer_sizes=(4, 1), epochs=1))
        model.layers[0] = DenseLayer(np.zeros((1, 4)), np.zeros(1))
        pred = predict_stage1(model, fm(np.ones((5, 4))), T_D)
        assert np.all(pred.values == 0.0)


class TestStage2Windows:
    def test_paper_width(self):
        win = stage2_windows(ds(np.linspace(0, 0.75, 100)), 15)
        assert win.shape == (100, 31)

    def test_k_zero_is_column(self):
        values = np.linspace(0, 0.7, 20)
        win = stage2_windows(ds(values), 0)
        assert np.array_equal(win[:, 0], values)
        assert win.shape == (20, 1)

    def test_constant_series_constant_rows(self):
        win = stage2_windows(ds(np.full(40, 0.3)), 15)
        assert np.all(win == 0.3)

    def test_interior_rows_are_exact_subsequences(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0, T_D, 60)
        win = stage2_windows(ds(values), 5)
        for m in range(5, 55):
            assert np.array_equal(win[m], values[m - 5 : m + 6])

    def test_edges_replicate(self):
        values = np.arange(10) / 20.0
        win = stage2_windows(ds(values), 3)
        assert np.array_equal(win[0], values[[0, 0, 0, 0, 1, 2, 3]])
        assert np.array_equal(win[-1], values[[6, 7, 8, 9, 9, 9, 9]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stage2_windows(ds(np.array([])), 3)


class TestStage2Predict:
    def test_identity_stage2_reproduces_clamped_coarse(self):
        rng = np.random.default_rng(3)
        coarse = ds(rng.uniform(0, T_D, 50))
        model = identity_stage2(15)
        fine = predict_stage2(model, coarse, 15, T_D)
        assert np.allclose(fine.values, coarse.values, atol=1e-12)

    def test_output_clamped(self):
        model = identity_stage2(2)
        model.layers[0].bias = np.array([10.0])
        fine = predict_stage2(model, ds(np.full(20, 0.1)), 2, T_D)
        assert np.all(fine.values == T_D)


@pytest.fixture(scope="module")
def tiny_trained():
    """A small but real end-to-end training on synthetic scenes."""
    cfg = SpectrogramConfig()
    clips, annotations = [], []
    for i in range(8):
        clip, ann = generate_scene(
            SceneSpec(seed=200 + i, n_vehicles=2, noise_level=0.02,
                      amp_range=(0.15, 0.3), envelope_width=0.12)
        )
        clip = AudioClip(samples=clip.samples, sample_rate=44100, id=f"c{i}")
        clips.append(clip)
        annotations.append(PassByAnnotation(f"c{i}", ann.instants, ann.duration))
    features = [extract_features(c, cfg) for c in clips]
    targets = [
        reference_distance(a, f.frames, cfg.frame_period, T_D)
        for a, f in zip(annotations, features)
    ]
    s1 = stage1_spec(epochs=100, seed=0, batch_size=128)
    s2 = stage2_spec(epochs=100, seed=1, batch_size=128)
    pipeline, _ = train_pipeline(features[:6], targets[:6], cfg, s1, s2)
    return pipeline, clips, features, targets


class TestPipeline:
    def test_prediction_beats_constant_baseline(self, tiny_trained):
        pipeline, clips, features, targets = tiny_trained
        held_x, held_y = features[6:], targets[6:]
        std, _ = standardize(held_x, pipeline.feature_stats)
        mse_model = np.mean(
            [
                np.mean((predict_stage1(pipeline.stage1, f, T_D).values - t.values) ** 2)
                for f, t in zip(std, held_y)
            ]
        )
        train_mean = np.mean(np.concatenate([t.values for t in targets[:6]]))
        mse_const = np.mean(
            [np.mean((train_mean - t.values) ** 2) for t in held_y]
        )
        assert mse_model < mse_const

    def test_predict_distance_shape_and_range(self, tiny_trained):
        pipeline, clips, _, _ = tiny_trained
        series = predict_distance(pipeline, clips[7])
        assert series.n_frames == 540
        assert np.all(series.values >= 0) and np.all(series.values <= T_D)

    def test_deterministic_prediction(self, tiny_trained):
        pipeline, clips, _, _ = tiny_trained
        a = predict_distance(pipeline, clips[7])
        b = predict_distance(pipeline, clips[7])
        assert np.array_equal(a.values, b.values)

    def test_frame_conservation(self, tiny_trained):
        pipeline, clips, features, _ = tiny_trained
        (coarse,), _ = cascade(pipeline, [features[6]])
        fine = predict_distance(pipeline, clips[6])
        assert coarse.n_frames == fine.n_frames == features[6].frames

    def test_cascade_equals_per_clip_stage_loop(self, tiny_trained):
        pipeline, _, features, _ = tiny_trained
        coarse, fine = cascade(pipeline, features[5:])
        std, _ = standardize(features[5:], pipeline.feature_stats)
        assert len(coarse) == len(fine) == 3
        for fm_std, c, f in zip(std, coarse, fine):
            want_c = predict_stage1(pipeline.stage1, fm_std, pipeline.t_d)
            want_f = predict_stage2(pipeline.stage2, want_c, pipeline.k, pipeline.t_d)
            assert np.array_equal(c.values, want_c.values)
            assert np.array_equal(f.values, want_f.values)
            assert (c.clip_id, f.clip_id) == (fm_std.clip_id, fm_std.clip_id)

    def test_bundle_round_trip(self, tiny_trained, tmp_path):
        pipeline, clips, _, _ = tiny_trained
        save_pipeline(pipeline, tmp_path / "bundle")
        back = load_pipeline(tmp_path / "bundle")
        a = predict_distance(pipeline, clips[7])
        b = predict_distance(back, clips[7])
        assert np.array_equal(a.values, b.values)
        assert back.k == pipeline.k and back.t_d == pipeline.t_d
        assert back.spectrogram == pipeline.spectrogram

    @pytest.mark.parametrize("field", ["log_floor", "sample_rate"])
    def test_bundle_spectrogram_without_field_rejected(self, tiny_trained, field, tmp_path):
        pipeline, _, _, _ = tiny_trained
        save_pipeline(pipeline, tmp_path)
        path = tmp_path / "pipeline.json"
        meta = json.loads(path.read_text())
        del meta["spectrogram"][field]
        path.write_text(json.dumps(meta))
        with pytest.raises(DataError, match=f"missing .*'{field}'"):
            load_pipeline(tmp_path)

    def test_deeply_nested_pipeline_json_rejected(self, tmp_path):
        (tmp_path / "pipeline.json").write_text("[" * 100_000)
        with pytest.raises(DataError, match="corrupt pipeline.json"):
            load_pipeline(tmp_path)

    def test_stage2_checkpoint_loads_into_stage2_slot(self, tiny_trained, tmp_path):
        pipeline, _, _, _ = tiny_trained
        path = tmp_path / "s2.ckpt"
        nn_core.save_model(pipeline.stage2, path)
        loaded = nn_core.load_model(path)
        rebuilt = RegressionPipeline(
            stage1=pipeline.stage1,
            stage2=loaded,
            feature_stats=pipeline.feature_stats,
            spectrogram=pipeline.spectrogram,
            k=pipeline.k,
            t_d=pipeline.t_d,
        )
        assert rebuilt.stage2.spec.layer_sizes == (31, 31, 15, 1)

    def test_stage2_k_mismatch_rejected(self, tiny_trained):
        pipeline, _, _, _ = tiny_trained
        with pytest.raises(ValueError):
            RegressionPipeline(
                stage1=pipeline.stage1,
                stage2=pipeline.stage2,
                feature_stats=pipeline.feature_stats,
                spectrogram=pipeline.spectrogram,
                k=7,
                t_d=T_D,
            )
