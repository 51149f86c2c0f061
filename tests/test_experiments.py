import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from numeric_checks import reports_equal

from avcount import experiments
from avcount.config import ToolConfig
from avcount.dataio import DistanceSeries, PassByAnnotation, load_corpus, reference_distance
from avcount.experiments import (
    TUNED_DETECTORS,
    EvalContext,
    GridSpec,
    grid_search,
    multi_run,
    pp_detector,
    prepare_corpus,
    run_ablation,
    single_run,
)
from avcount.features import extract_features, stft_power
from avcount.metrics import write_curve_csv, write_summary_csv
from avcount.peakdet import DetectorSpec
from avcount.synthgen import SceneSpec, generate_corpus

T_D = 0.75
FP = 1634 / 44100


def series(values, clip_id="c"):
    return DistanceSeries(clip_id=clip_id, values=np.asarray(values, dtype=np.float64),
                          frame_period=FP, t_d=T_D)


def v_shape(center_frame, n=540, depth=T_D):
    """A reference-like V dip at one frame."""
    t = np.arange(n) * FP
    return np.minimum(np.abs(t - center_frame * FP), T_D)


class TestTable1:
    def test_vcnn_parameters(self):
        det = TUNED_DETECTORS["VCNN"]
        assert det.smoother.lengths == (5, 3)
        assert det.m_frac == 0.40 and det.p_frac == 0.20

    def test_vcnn_is_the_detector_default(self):
        # a config without a detector section evaluates VCNN as tuned
        assert DetectorSpec() == TUNED_DETECTORS["VCNN"]
        assert EvalContext(annotations={}, stage2={}).detector == TUNED_DETECTORS["VCNN"]

    def test_vcnn_s1_parameters(self):
        det = TUNED_DETECTORS["VCNN_S1"]
        assert det.smoother.lengths == (7, 3)
        assert det.m_frac == 0.45 and det.p_frac == 0.25

    def test_vcnn_f0_parameters(self):
        det = TUNED_DETECTORS["VCNN_f0"]
        assert det.smoother.lengths == (5, 3)
        assert det.m_frac == 0.45 and det.p_frac == 0.20

    def test_pp_variants(self):
        det = pp_detector(0.15)
        assert det.m_frac == 1.0  # magnitude clause disabled
        assert det.p_frac == 0.15
        assert det.smoother.lengths == (5, 3)


class TestGridSearch:
    def test_default_grid_axes(self):
        grid = GridSpec()
        assert grid.smoothers == ((5, 3), (7, 3), (7, 5, 3))
        assert grid.m_fracs == (0.35, 0.40, 0.45, 0.50)
        assert grid.p_fracs == (0.10, 0.15, 0.20, 0.25)
        assert len(grid.smoothers) * len(grid.m_fracs) * len(grid.p_fracs) == 48

    def test_degenerate_grid_returns_its_cell(self):
        ann = PassByAnnotation("c", (5.0,), 20.0)
        pred = series(v_shape(round(5.0 / FP)))
        grid = GridSpec(smoothers=((3,),), m_fracs=(0.4,), p_fracs=(0.2,))
        best, table = grid_search([pred], [ann], grid, T_D)
        assert best.smoother.lengths == (3,)
        assert best.m_frac == 0.4 and best.p_frac == 0.2
        assert len(table) == 1

    def test_known_zero_rvce_cell_selected(self):
        # distance capped at 0.5325 away from the vehicles, with ripples
        # dipping to 0.465: inverted, the ripples are (0.285, 0.0675)
        # peaks. M = 0.35 (threshold 0.2625) admits them as false
        # positives; M = 0.40 (threshold 0.30) rejects them, and their
        # prominence also stays below P = 0.10 (threshold 0.075)
        ann = PassByAnnotation("c", (5.0, 12.0), 20.0)
        values = np.minimum(v_shape(round(5.0 / FP)), v_shape(round(12.0 / FP)))
        values = np.minimum(values, 0.5325)
        for rf in (round(8.5 / FP), round(16.0 / FP)):
            values[rf] = 0.465  # inverted magnitude 0.285 = 0.38 * t_d
        grid = GridSpec(smoothers=((1,),), m_fracs=(0.35, 0.40), p_fracs=(0.10,))
        best, table = grid_search([series(values)], [ann], grid, T_D)
        assert best.m_frac == 0.40
        scores = {(r["m_frac"]): r["mean_abs_rvce"] for r in table}
        assert scores[0.40] == 0.0
        assert scores[0.35] > 0.0

    def test_argmin_reproducible_from_table(self):
        rng = np.random.default_rng(0)
        anns, preds = [], []
        for c in range(4):
            instants = tuple(np.sort(rng.uniform(2, 18, 2)))
            anns.append(PassByAnnotation(f"c{c}", instants, 20.0))
            values = np.minimum(v_shape(round(instants[0] / FP)), v_shape(round(instants[1] / FP)))
            values = np.clip(values + rng.normal(0, 0.02, values.size), 0, T_D)
            preds.append(series(values, f"c{c}"))
        grid = GridSpec()
        best, table = grid_search(preds, anns, grid, T_D)
        def key(row):
            return (row["mean_abs_rvce"], sum(row["smoother"]), row["m_frac"], row["p_frac"])
        manual = min(table, key=key)
        assert manual["smoother"] == best.smoother.lengths
        assert manual["m_frac"] == best.m_frac
        assert manual["p_frac"] == best.p_frac

    def test_tie_break_prefers_fewer_taps_then_smaller_thresholds(self):
        # a clean series scores zero everywhere: the tie-break must pick
        # the smallest cell in (taps, M, P) order
        ann = PassByAnnotation("c", (5.0,), 20.0)
        pred = series(v_shape(round(5.0 / FP)))
        grid = GridSpec()
        best, _ = grid_search([pred], [ann], grid, T_D)
        assert best.smoother.lengths == (5, 3)
        assert best.m_frac == 0.35
        assert best.p_frac == 0.10

    def test_empty_tuning_set_rejected(self):
        with pytest.raises(ValueError):
            grid_search([], [], GridSpec(), T_D)

    def test_tuning_set_without_vehicles_rejected(self):
        ann = PassByAnnotation("c", (), 20.0)
        with pytest.raises(ValueError, match="no true vehicles"):
            grid_search([series(np.full(540, T_D))], [ann], GridSpec(), T_D)

    def test_objective_range_without_threshold_point_rejected(self):
        ann = PassByAnnotation("c", (5.0,), 20.0)
        grid = GridSpec(objective_lo=0.505, objective_hi=0.505)  # between two grid points
        with pytest.raises(ValueError, match="holds no threshold point"):
            grid_search([series(v_shape(round(5.0 / FP)))], [ann], grid, T_D)

    @pytest.mark.parametrize(
        "kw, error",
        [
            ({"objective_lo": 0.9, "objective_hi": 0.1}, ValueError),
            ({"objective_lo": -0.1}, ValueError),
            ({"objective_hi": 1.5}, ValueError),
            ({"m_fracs": (0.4, "a")}, TypeError),
            ({"p_fracs": (float("nan"),)}, ValueError),
            ({"smoothers": ((5, 4),)}, ValueError),
            ({"smoothers": ((5.0,),)}, TypeError),
        ],
        ids=repr,
    )
    def test_invalid_grid_rejected(self, kw, error):
        with pytest.raises(error):
            GridSpec(**kw)

    def test_unpaired_annotations_rejected(self):
        ann = PassByAnnotation("c", (5.0,), 20.0)
        pred = series(v_shape(round(5.0 / FP)))
        with pytest.raises(ValueError, match="one annotation per"):
            grid_search([pred], [ann, ann], GridSpec(), T_D)


class TestRunAblation:
    def _ctx(self):
        ann = PassByAnnotation("c", (5.0,), 20.0)
        fine = series(v_shape(round(5.0 / FP)))
        coarse = series(np.clip(fine.values + 0.05, 0, T_D))
        return EvalContext(annotations={"c": ann}, stage2={"c": fine}, stage1={"c": coarse})

    def test_vcnn_report(self):
        report = run_ablation("VCNN", self._ctx())
        assert report.area_ptp > 0.9

    def test_stage1_variant_uses_stage1_series(self):
        ctx = self._ctx()
        report = run_ablation("VCNN_S1", ctx)
        assert report.area_ptp > 0.5
        ctx.stage1 = None
        with pytest.raises(ValueError):
            run_ablation("VCNN_S1", ctx)

    def test_f0_variant_needs_retrain_artifacts(self):
        with pytest.raises(ValueError):
            run_ablation("VCNN_f0", self._ctx())

    def test_pp_variant_parses_percentage(self):
        report = run_ablation("VCNN_PP15", self._ctx())
        assert report.area_ptp > 0.9

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_ablation("VCNN_XX", self._ctx())

    def test_reports_are_pure_data(self):
        ctx = self._ctx()
        a = run_ablation("VCNN", ctx)
        b = run_ablation("VCNN", ctx)
        assert reports_equal(a, b)


GOLDEN_VARIANTS = ("VCNN", "VCNN_S1", "VCNN_PP5", "VCNN_PP10", "VCNN_PP15")
GOLDEN_SHA256 = {
    "VCNN_curve.csv": "c497e5cca58d9d9582877302e12062ce68175e61e12dd481a5a3f4f8bfc550f7",
    "VCNN_summary.csv": "45e8232ea5b89f3e56141fa639fad1ae4b751f1a7d994dd0deb210e407b60983",
    "VCNN_S1_curve.csv": "9536e156f248f8bb2f204f88b9fdff0030a48163f103d409f3d60dcf7bfc36fd",
    "VCNN_S1_summary.csv": "585ac0bc675ce40d7fd374169b2b4cc1b0c23445eaa508f92bb740aed305e88a",
    "VCNN_PP5_curve.csv": "ddd79e437ceaf501d9b264c846784fb14f5c9f804de4178af5f1562c56cd0eda",
    "VCNN_PP5_summary.csv": "24970505f02e6c11faa8689746596bd2b7cea5d3ec67b83331a38a35143f2190",
    "VCNN_PP10_curve.csv": "b90ccc086a7d11e057ccf3d2f0f351902de3d109ff62b41dfb905b13e0d85a77",
    "VCNN_PP10_summary.csv": "24970505f02e6c11faa8689746596bd2b7cea5d3ec67b83331a38a35143f2190",
    "VCNN_PP15_curve.csv": "40e532b05defe1e6df60ea8c4d5832c72edefd713ea526f518f0880f3a72e231",
    "VCNN_PP15_summary.csv": "24970505f02e6c11faa8689746596bd2b7cea5d3ec67b83331a38a35143f2190",
}


def golden_context():
    """Seeded clips whose series are the reference distance plus noise.

    Neighbouring instants often lie closer than 2 t_d, so intervals split at
    midpoints; one clip has vehicles at 0 and at its duration, one has none.
    """
    rng = np.random.default_rng(8)
    anns, stage1, stage2 = {}, {}, {}
    for c in range(5):
        duration = 60.0
        instants = np.cumsum(rng.uniform(0.3, 6.0, 20))
        instants = instants[instants < duration]
        if c == 1:
            instants = np.concatenate(([0.0], instants, [duration]))
        elif c == 3:
            instants = instants[:0]
        ann = PassByAnnotation(f"clip{c}", tuple(instants.tolist()), duration)
        n_frames = int(duration / FP) + 1
        ref = reference_distance(ann, n_frames, FP, T_D)
        anns[ann.clip_id] = ann
        for out, sd in ((stage1, 0.15), (stage2, 0.10)):
            noisy = np.clip(ref.values + sd * rng.standard_normal(n_frames), 0.0, T_D)
            out[ann.clip_id] = replace(ref, values=noisy)
    return EvalContext(annotations=anns, stage2=stage2, stage1=stage1, t_d=T_D)


def test_report_bytes_golden(tmp_path):
    """The curve and summary CSVs of every ablation variant, pinned by SHA-256."""
    ctx = golden_context()
    digests = {}
    for variant in GOLDEN_VARIANTS:
        report = run_ablation(variant, ctx)
        for kind, write in (("curve", write_curve_csv), ("summary", write_summary_csv)):
            path = tmp_path / f"{variant}_{kind}.csv"
            write(path, report)
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == GOLDEN_SHA256


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    spec = SceneSpec(seed=300, noise_level=0.02, amp_range=(0.15, 0.3),
                     envelope_width=0.12, rate=1.5)
    generate_corpus(spec, 10, out)
    return str(out)


@pytest.fixture(scope="module")
def tiny_config(tiny_corpus):
    return ToolConfig(
        paths={"data_dir": tiny_corpus},
        epochs=8,
        seed=0,
        n_runs=2,
        variants=("VCNN", "VCNN_S1"),
    )


@pytest.mark.parametrize("jobs", [1, 2])
class TestPrepareCorpus:
    @pytest.fixture
    def f0_config(self, tiny_config):
        return replace(tiny_config, variants=("VCNN", "VCNN_f0"))

    def test_feature_sets_equal_extract_features(self, f0_config, jobs):
        ids, features, targets, _, f0_features = prepare_corpus(
            f0_config, f0_config.paths["data_dir"], jobs, f0=True
        )
        clips, anns = load_corpus(f0_config.paths["data_dir"])
        f0_spec = replace(f0_config.spectrogram, f_min=0.0)
        assert ids == [c.id for c in clips]
        for clip, ann in zip(clips, anns):
            for spec, got in ((f0_config.spectrogram, features), (f0_spec, f0_features)):
                want = extract_features(clip, spec, f0_config.q, f0_config.stride)
                assert got[clip.id].clip_id == want.clip_id
                assert got[clip.id].frame_period == want.frame_period
                assert np.array_equal(got[clip.id].data, want.data)
            fm = features[clip.id]  # equal to extract_features, checked above
            want = reference_distance(ann, fm.frames, fm.frame_period, f0_config.t_d)
            assert targets[clip.id].frame_period == want.frame_period
            assert np.array_equal(targets[clip.id].values, want.values)

    def test_stft_runs_once_per_clip(self, f0_config, monkeypatch, jobs):
        calls = []

        def counting_stft_power(clip, cfg):
            calls.append(clip.id)
            return stft_power(clip, cfg)

        monkeypatch.setattr(experiments, "stft_power", counting_stft_power)
        ids, *_ = prepare_corpus(f0_config, f0_config.paths["data_dir"], jobs, f0=True)
        assert sorted(calls) == sorted(ids) and len(ids) == 10

    def test_no_f0_features_without_the_variant(self, tiny_config, jobs):
        assert prepare_corpus(tiny_config, tiny_config.paths["data_dir"], jobs)[4] is None


class TestMultiRun:
    def test_two_runs_produce_bands(self, tiny_config):
        results, failures, bands = multi_run(tiny_config)
        assert len(results) == 2 and not failures
        assert set(bands) == {"VCNN", "VCNN_S1"}
        rows = bands["VCNN"]
        assert len(rows) == 100
        for t_det, mean, lo, hi in rows:
            assert lo <= mean <= hi

    def test_single_run_equals_direct_evaluation(self, tiny_config):
        results, _, bands = multi_run(replace(tiny_config, n_runs=1))
        dataset = prepare_corpus(tiny_config, tiny_config.paths["data_dir"], 1)
        direct = single_run(tiny_config, dataset, tiny_config.seed)
        assert reports_equal(results[0].reports["VCNN"], direct.reports["VCNN"])
        assert results[0].stage1_mse == direct.stage1_mse
        assert bands == {}  # bands need at least two runs

    def test_identical_seeds_give_zero_width_bands(self, tiny_config):
        dataset = prepare_corpus(tiny_config, tiny_config.paths["data_dir"], 1)
        a = single_run(tiny_config, dataset, 5)
        b = single_run(tiny_config, dataset, 5)
        assert reports_equal(a.reports["VCNN"], b.reports["VCNN"])
        assert a.stage2_mse == b.stage2_mse

    def test_diverged_runs_name_epoch_and_batch(self, tiny_config):
        diverging = replace(tiny_config, stage1_overrides={"learning_rate": 1e200})
        with np.errstate(all="ignore"):
            results, failures, bands = multi_run(diverging)
        assert results == [] and bands == {}
        assert [seed for seed, _ in failures] == [0, 1]
        for _, message in failures:
            assert re.search(r"at epoch \d+, batch \d+$", message), message

    def test_run_seeds_are_consecutive(self, tiny_config):
        results, _, _ = multi_run(tiny_config)
        assert [r.run_seed for r in results] == [0, 1]

    def test_deep_counter_branch(self, tiny_corpus):
        from avcount.deepcount import ConvCounterSpec

        config = ToolConfig(
            paths={"data_dir": tiny_corpus},
            epochs=5,
            seed=0,
            n_runs=1,
            variants=("VCNN",),
            deep=ConvCounterSpec(conv_layers=((4, 5, 2),), epochs=5),
        )
        results, failures, _ = multi_run(config)
        assert not failures
        assert results[0].deep_rvce is not None
        assert np.isfinite(results[0].deep_rvce)
