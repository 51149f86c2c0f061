import hashlib
import json
import os
import shutil
import struct

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcount.cli import build_parser, main
from avcount.config import ToolConfig, load_config, parse_config
from avcount.dataio import DataError
from avcount.deepcount import ConvCounterSpec
from avcount.experiments import GridSpec
from avcount.features import SpectrogramConfig
from avcount.nn_core import NetworkSpec, read_checkpoint, write_checkpoint
from avcount.peakdet import DetectorSpec
from avcount.synthgen import SceneSpec
from numeric_checks import one_blas_thread


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    """Config tuned for plumbing tests: tiny corpus, few epochs."""
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(
        json.dumps(
            {
                "seed": 7,
                "epochs": 4,
                "n_clips": 6,
                "scene": {
                    "noise_level": 0.02,
                    "amp_range": [0.15, 0.3],
                    "envelope_width": 0.12,
                    "rate": 1.5,
                },
            }
        )
    )
    return str(path)


@pytest.fixture(scope="module")
def corpus_dir(fast_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--spec", fast_config, "--out", str(out)]) == 0
    return str(out)


@pytest.fixture(scope="module")
def model_dir(fast_config, corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    code = main(
        ["train", "--config", fast_config, "--data", corpus_dir, "--out", str(out), "--jobs", "1"]
    )
    assert code == 0
    return str(out)


class TestConfig:
    def test_empty_config_is_all_defaults(self):
        cfg = parse_config({})
        assert cfg.t_d == 0.75 and cfg.k == 15 and cfg.epochs == 100
        assert cfg.spectrogram.window_len == 4096

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(DataError):
            parse_config({"windowlen": 4096})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(DataError):
            parse_config({"spectrogram": {"hop_len": 10}})
        with pytest.raises(DataError):
            parse_config({"detector": {"m": 0.3}})
        with pytest.raises(DataError):  # read by no command
            parse_config({"paths": {"model_dir": "model"}})

    def test_invalid_value_rejected(self):
        with pytest.raises(DataError):
            parse_config({"spectrogram": {"f_min": -5.0}})

    def test_detector_section_parsed(self):
        cfg = parse_config({"detector": {"smoother": [7, 3], "m_frac": 0.45}})
        assert cfg.detector.smoother.lengths == (7, 3)
        assert cfg.detector.m_frac == 0.45

    def test_stage_sections_override_specs(self):
        cfg = parse_config({"epochs": 9, "stage1": {"loss": "l1", "l2_factor": 0.0}, "stage2": {"epochs": 2}})
        s1, s2 = cfg.stage_specs(4)
        assert (s1.loss, s1.l2_factor, s1.epochs, s1.seed) == ("l1", 0.0, 9, 4)
        assert (s2.loss, s2.l2_factor, s2.epochs, s2.seed) == ("mse", 5e-6, 2, 5)
        assert s1.layer_sizes[0] == 528

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("AVC_SEED", "99")
        cfg = parse_config({"seed": 1})
        assert cfg.seed == 99
        monkeypatch.setenv("AVC_SEED", "zzz")
        with pytest.raises(DataError):
            parse_config({})

    def test_negative_env_seed_rejected(self, monkeypatch):
        monkeypatch.setenv("AVC_SEED", "-1")
        with pytest.raises(DataError, match="AVC_SEED must be a nonnegative integer, got '-1'"):
            parse_config({})

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(DataError):
            load_config(tmp_path / "absent.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            load_config(path)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("n_runs", 0, "n_runs must be >= 1"),
            ("split_ratio", 1.5, r"split_ratio must be in \(0, 1\)"),
            ("variants", ("bogus",), "unknown variant 'bogus'"),
            ("stage1_overrides", {"nope": 1}, r"unknown key\(s\) in stage1: \['nope'\]"),
        ],
        ids=repr,
    )
    def test_config_built_in_code_is_checked(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ToolConfig(**{field: value})


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["VCNN", "VCNN_PP10", "mse", "l1"]),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)
_SECTION_KEYS = {
    name: [f.name for f in fields(cls)]
    for name, cls in [
        ("spectrogram", SpectrogramConfig),
        ("stage1", NetworkSpec),
        ("stage2", NetworkSpec),
        ("detector", DetectorSpec),
        ("grid", GridSpec),
        ("scene", SceneSpec),
        ("deep", ConvCounterSpec),
    ]
}
_SECTION_KEYS["paths"] = ["data_dir", "out_dir"]
_SCALAR_KEYS = ["seed", "t_d", "k", "q", "stride", "epochs", "split_ratio", "n_clips", "n_runs", "variants"]
_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        **{key: _JSON_VALUES for key in _SCALAR_KEYS + ["unknown"]},
        **{
            name: st.dictionaries(st.sampled_from(keys + ["unknown"]), _JSON_VALUES, max_size=4)
            | _JSON_VALUES
            for name, keys in _SECTION_KEYS.items()
        },
    },
)


@settings(max_examples=500, deadline=None)
@given(raw=_CONFIGS)
def test_any_json_object_parses_or_is_data_error(raw):
    try:
        cfg = parse_config(raw)
    except DataError:
        return
    assert isinstance(cfg, ToolConfig)


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["synth"]) == 1  # missing --out
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_1(self):
        assert main(["frobnicate"]) == 1

    def test_data_error_is_2(self, tmp_path, capsys):
        code = main(["predict", "--model", str(tmp_path / "none"), "--audio", str(tmp_path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg",
        [
            {"k": "15"},
            {"t_d": "0.75"},
            {"seed": 1.5},
            {"epochs": 1.5},
            {"seed": True},
            {"split_ratio": 1.0},
            {"n_runs": 0},
            {"stage1": {"epochs": 1.5}},
            {"stage2": {"batch_size": True}},
            {"stage1": {"learning_rate": "0.001"}},
            {"deep": {"epochs": 1.5}},
            {"deep": {"conv_layers": [[16, 7.5, 2]]}},
            {"deep": {"learning_rate": 0}},
        ],
        ids=repr,
    )
    def test_mistyped_config_value_is_2(self, cfg, corpus_dir, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["train", "--config", str(path), "--data", corpus_dir, "--out", str(tmp_path / "m")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: invalid config value") and "Traceback" not in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("synth", {"scene": {"noise_level": "a"}}),
            ("synth", {"scene": {"duration": float("nan")}}),
            ("synth", {"scene": {"sample_rate": 0}}),
            ("synth", {"scene": {"hop": 0}}),
            ("synth", {"scene": {"n_vehicles": 1.5}}),
            ("synth", {"scene": {"amp_range": [1]}}),
            ("gridsearch", {"grid": {"m_fracs": ["a"]}}),
            ("gridsearch", {"grid": {"objective_lo": "x"}}),
            ("gridsearch", {"grid": {"objective_lo": 0.9, "objective_hi": 0.1}}),
            ("experiment", {"paths": {"data_dir": [1], "out_dir": "reports"}}),
        ],
        ids=repr,
    )
    def test_malformed_section_value_is_2(self, command, cfg, corpus_dir, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", "--spec", str(path), "--out", str(out)],
            "gridsearch": ["gridsearch", "--config", str(path), "--data", corpus_dir, "--out", str(out)],
            "experiment": ["experiment", "--config", str(path)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: invalid config value") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sample_rate", [10**400, 10**11], ids=["400 digits", "1e11"])
    def test_scene_too_large_for_a_wav_is_2(self, sample_rate, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_clips": 1, "scene": {"sample_rate": sample_rate}}))
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: invalid config value") and "does not fit a 16-bit WAV" in err
        assert not out.exists()

    def test_deeply_nested_config_is_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[" * 100_000)
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: config {path} is not valid JSON")
        assert not out.exists()

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["train", "--help"]) == 0


class TestHelpDocumentsEveryFlag:
    @pytest.mark.parametrize(
        "command,flags",
        [
            ("synth", ["--spec", "--out"]),
            ("extract", ["--config", "--audio", "--out", "--jobs"]),
            ("train", ["--config", "--data", "--out", "--deep", "--cache", "--jobs"]),
            ("predict", ["--model", "--audio", "--out", "--jobs"]),
            ("count", ["--model", "--audio", "--tdet", "--config", "--jobs"]),
            ("eval", ["--model", "--data", "--out", "--config", "--jobs"]),
            ("gridsearch", ["--config", "--data", "--out", "--jobs"]),
            ("experiment", ["--config"]),
        ],
    )
    def test_flags_in_help(self, command, flags, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text


class TestPipelineCommands:
    def test_synth_reproducible_byte_for_byte(self, fast_config, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--spec", fast_config, "--out", str(d1)]) == 0
        assert main(["synth", "--spec", fast_config, "--out", str(d2)]) == 0
        for name in sorted(os.listdir(d1)):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_synth_seed_env_changes_output(self, fast_config, tmp_path, monkeypatch):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--spec", fast_config, "--out", str(d1)]) == 0
        monkeypatch.setenv("AVC_SEED", "1234")
        assert main(["synth", "--spec", fast_config, "--out", str(d2)]) == 0
        wavs = [n for n in os.listdir(d1) if n.endswith(".wav")]
        assert any(
            (d1 / n).read_bytes() != (d2 / n).read_bytes() for n in wavs
        )

    def test_extract_writes_cache_per_clip(self, fast_config, corpus_dir, tmp_path):
        out = tmp_path / "cache"
        code = main(["extract", "--config", fast_config, "--audio", corpus_dir, "--out", str(out), "--jobs", "1"])
        assert code == 0
        files = sorted(os.listdir(out))
        assert len(files) == 6
        assert all(f.endswith(".avcf") for f in files)
        from avcount.dataio import load_clip
        from avcount.features import SpectrogramConfig, read_feature_cache

        clip = load_clip(os.path.join(corpus_dir, files[0][: -len(".avcf")] + ".wav"))
        fm = read_feature_cache(out / files[0], clip, SpectrogramConfig(), 5, 2)
        assert fm.dim == 528 and fm.frames == 540

    def test_train_writes_bundle(self, model_dir):
        names = sorted(os.listdir(model_dir))
        assert names == ["pipeline.json", "stage1.ckpt", "stage2.ckpt", "stats.bin"]

    def test_train_from_feature_cache_matches_direct(self, fast_config, corpus_dir, tmp_path):
        cache = tmp_path / "cache"
        main(["extract", "--config", fast_config, "--audio", corpus_dir, "--out", str(cache), "--jobs", "1"])
        direct = tmp_path / "direct"
        cached = tmp_path / "cached"
        main(["train", "--config", fast_config, "--data", corpus_dir, "--out", str(direct), "--jobs", "1"])
        main(["train", "--config", fast_config, "--data", corpus_dir, "--out", str(cached), "--cache", str(cache), "--jobs", "1"])
        # one clip missing from the cache: hits and misses in one corpus
        partial_cache, partial = tmp_path / "partial_cache", tmp_path / "partial"
        shutil.copytree(cache, partial_cache)
        os.remove(partial_cache / sorted(os.listdir(partial_cache))[0])
        main(["train", "--config", fast_config, "--data", corpus_dir, "--out", str(partial), "--cache", str(partial_cache), "--jobs", "1"])
        for name in ("stage1.ckpt", "stage2.ckpt", "stats.bin", "pipeline.json"):
            assert (direct / name).read_bytes() == (cached / name).read_bytes()
            assert (direct / name).read_bytes() == (partial / name).read_bytes()

    def test_train_rejects_cache_built_with_other_settings(self, fast_config, corpus_dir, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["extract", "--audio", corpus_dir, "--out", str(cache), "--jobs", "1"]) == 0
        cfg = json.loads(open(fast_config).read())
        cfg["spectrogram"] = {"f_min": 0}
        cfg_path = tmp_path / "f0.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        code = main(["train", "--config", str(cfg_path), "--data", corpus_dir, "--out", str(tmp_path / "m"), "--cache", str(cache), "--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error") and "spectrogram.f_min" in err[0]
        assert not (tmp_path / "m").exists()

    def test_train_rejects_cache_of_other_audio_with_same_ids(self, fast_config, corpus_dir, tmp_path, capsys):
        cfg = json.loads(open(fast_config).read())
        cfg["seed"] += 1
        cfg_path = tmp_path / "other_seed.json"
        cfg_path.write_text(json.dumps(cfg))
        other = tmp_path / "other"
        assert main(["synth", "--spec", str(cfg_path), "--out", str(other)]) == 0
        assert sorted(os.listdir(other)) == sorted(os.listdir(corpus_dir))
        cache = tmp_path / "cache"
        assert main(["extract", "--config", fast_config, "--audio", corpus_dir, "--out", str(cache), "--jobs", "1"]) == 0
        capsys.readouterr()
        code = main(["train", "--config", fast_config, "--data", str(other), "--out", str(tmp_path / "m"), "--cache", str(cache), "--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error") and "samples_sha256" in err[0]
        assert not (tmp_path / "m").exists()

    def test_predict_row_count(self, model_dir, corpus_dir, tmp_path):
        out = tmp_path / "pred.csv"
        code = main(["predict", "--model", model_dir, "--audio", corpus_dir, "--out", str(out), "--jobs", "1"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "clip_id,frame,t_s,d_hat_s"
        assert len(lines) == 1 + 6 * 540  # 540 frames per 20 s clip

    def test_predict_reproducible(self, model_dir, corpus_dir, tmp_path):
        o1, o2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        main(["predict", "--model", model_dir, "--audio", corpus_dir, "--out", str(o1), "--jobs", "1"])
        main(["predict", "--model", model_dir, "--audio", corpus_dir, "--out", str(o2), "--jobs", "2"])
        assert o1.read_bytes() == o2.read_bytes()

    def test_count_defaults_to_t_d(self, model_dir, corpus_dir, capsys):
        assert main(["count", "--model", model_dir, "--audio", corpus_dir, "--jobs", "1"]) == 0
        with_default = capsys.readouterr().out
        assert main(["count", "--model", model_dir, "--audio", corpus_dir, "--tdet", "0.75", "--jobs", "1"]) == 0
        explicit = capsys.readouterr().out
        assert with_default == explicit
        lines = with_default.strip().splitlines()
        assert lines[-1].startswith("TOTAL,")
        assert len(lines) == 7  # 6 clips + total

    def test_count_rejects_out_of_range_tdet(self, model_dir, corpus_dir):
        code = main(["count", "--model", model_dir, "--audio", corpus_dir, "--tdet", "2.0", "--jobs", "1"])
        assert code == 2

    def test_eval_writes_reports(self, model_dir, corpus_dir, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main(["eval", "--model", model_dir, "--data", corpus_dir, "--out", str(out), "--jobs", "1"])
        assert code == 0
        assert sorted(os.listdir(out)) == ["VCNN_curve.csv", "VCNN_summary.csv"]
        curve = (out / "VCNN_curve.csv").read_text().strip().splitlines()
        assert len(curve) == 101

    def test_eval_honours_detector_section(self, model_dir, corpus_dir, tmp_path):
        default, custom = tmp_path / "default", tmp_path / "custom"
        cfg_path = tmp_path / "det.json"
        cfg_path.write_text(json.dumps({"variants": ["VCNN"], "detector": {"m_frac": 1.0, "p_frac": 1.0}}))
        assert main(["eval", "--model", model_dir, "--data", corpus_dir, "--out", str(default), "--jobs", "1"]) == 0
        assert main(["eval", "--model", model_dir, "--data", corpus_dir, "--out", str(custom), "--config", str(cfg_path), "--jobs", "1"]) == 0
        name = "VCNN_curve.csv"
        assert (default / name).read_bytes() != (custom / name).read_bytes()

    @pytest.mark.parametrize("instant", ["nan", "inf", "-inf"])
    def test_eval_rejects_non_finite_instant(self, instant, model_dir, corpus_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(corpus_dir, data)
        clip_id = sorted(os.listdir(data))[0].rsplit(".", 1)[0]
        with open(data / "annotations.csv", "a") as fh:
            fh.write(f"{clip_id},{instant}\n")
        out = tmp_path / "reports"
        code = main(["eval", "--model", model_dir, "--data", str(data), "--out", str(out), "--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error") and "non-finite instant" in err
        assert f"{data / 'annotations.csv'}: line " in err
        assert not out.exists()

    def test_train_names_the_unreadable_wav(self, fast_config, corpus_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(corpus_dir, data)
        fmt = struct.pack("<HHIIHH", 1, 1, 44100, 88200, 2, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", 0)
        (data / "empty.wav").write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        out = tmp_path / "m"
        code = main(["train", "--config", fast_config, "--data", str(data), "--out", str(out), "--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"data error: {data / 'empty.wav'}: zero-length audio\n"
        assert not out.exists()

    def test_gridsearch_emits_table(self, fast_config, corpus_dir, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        # tiny grid via a dedicated config to keep runtime down
        cfg_path = tmp_path / "grid_cfg.json"
        cfg = json.loads(open(fast_config).read())
        cfg["grid"] = {"smoothers": [[5, 3]], "m_fracs": [0.4], "p_fracs": [0.2]}
        cfg_path.write_text(json.dumps(cfg))
        code = main(["gridsearch", "--config", str(cfg_path), "--data", corpus_dir, "--out", str(out), "--jobs", "1"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "smoother,m_frac,p_frac,mean_abs_rvce"
        assert len(lines) == 3  # header + 1 cell + best row
        assert lines[-1].startswith("BEST")

    def test_experiment_full_protocol(self, corpus_dir, tmp_path):
        out_dir = tmp_path / "exp"
        cfg_path = tmp_path / "exp_cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "epochs": 3,
                    "n_runs": 2,
                    "variants": ["VCNN"],
                    "paths": {"data_dir": corpus_dir, "out_dir": str(out_dir)},
                }
            )
        )
        assert main(["experiment", "--config", str(cfg_path)]) == 0
        names = sorted(os.listdir(out_dir))
        assert "summary.csv" in names
        assert "VCNN_bands.csv" in names
        assert "run3_VCNN_curve.csv" in names and "run4_VCNN_curve.csv" in names
        summary = (out_dir / "summary.csv").read_text().strip().splitlines()
        assert summary[0] == "run_seed,stage1_mse,stage2_mse,VCNN_area_ptp,VCNN_efp"
        assert len(summary) == 3

    def test_experiment_honours_stage_sections(self, corpus_dir, tmp_path):
        def stage1_mse(name, extra):
            out_dir = tmp_path / name
            cfg = {"seed": 3, "epochs": 3, "n_runs": 1, "variants": ["VCNN"],
                   "paths": {"data_dir": corpus_dir, "out_dir": str(out_dir)}, **extra}
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert main(["experiment", "--config", str(cfg_path)]) == 0
            summary = (out_dir / "summary.csv").read_text().strip().splitlines()
            return summary[1].split(",")[1]

        assert stage1_mse("default", {}) != stage1_mse("short", {"stage1": {"epochs": 1}})

    def test_experiment_requires_paths(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text("{}")
        assert main(["experiment", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize(
        "variants",
        [[5], "VCNN", ["VCNN_PP0"], ["VCNN_PP101"], ["VCNN_PP"], ["VCNN_PPx"], ["VCNN_PP-5"], ["vcnn"], [["VCNN"]]],
        ids=repr,
    )
    def test_unknown_variant_is_2_before_reading_audio(self, variants, corpus_dir, tmp_path, capsys, monkeypatch):
        def no_audio(*args):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr("avcount.experiments.load_clip", no_audio)  # prepare_corpus's clip loader
        out_dir = tmp_path / "exp"
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(
            json.dumps({"variants": variants, "paths": {"data_dir": corpus_dir, "out_dir": str(out_dir)}})
        )
        assert main(["experiment", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: invalid config value") and "variant" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("variants", [[], ["VCNN", "VCNN"], ["VCNN_S1", "VCNN_PP10", "VCNN_S1"]], ids=repr)
    @pytest.mark.parametrize("command", ["eval", "experiment"])
    def test_empty_or_repeated_variants_are_2_before_reading_audio(
        self, command, variants, model_dir, corpus_dir, tmp_path, capsys, monkeypatch
    ):
        def no_audio(*args):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr("avcount.experiments.load_clip", no_audio)  # prepare_corpus's clip loader
        out_dir = tmp_path / "out"
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(
            json.dumps({"variants": variants, "paths": {"data_dir": corpus_dir, "out_dir": str(out_dir)}})
        )
        argv = ["--config", str(cfg_path)]
        if command == "eval":
            argv += ["--model", model_dir, "--data", corpus_dir, "--out", str(out_dir), "--jobs", "1"]
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: invalid config value") and "variants" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("variant", ["VCNN", "VCNN_S1", "VCNN_f0", "VCNN_PP1", "VCNN_PP7.5", "VCNN_PP100"])
    def test_known_variant_accepted(self, variant):
        assert parse_config({"variants": [variant]}).variants == (variant,)


def _rewrite_json(name, edit):
    def mutate(bundle):
        path = bundle / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))

    return mutate


def _rewrite_stats(edit):
    def mutate(bundle):
        path = bundle / "stats.bin"
        _, spec, blocks = read_checkpoint(path)
        write_checkpoint(path, "feature_stats", spec, edit(dict(blocks)))

    return mutate


MALFORMED_BUNDLES = {
    "pipeline {}": _rewrite_json("pipeline.json", lambda meta: {}),
    "pipeline []": _rewrite_json("pipeline.json", lambda meta: []),
    "q as string": _rewrite_json("pipeline.json", lambda meta: {**meta, "q": "5"}),
    "k negative": _rewrite_json("pipeline.json", lambda meta: {**meta, "k": -1}),
    "q of another width": _rewrite_json("pipeline.json", lambda meta: {**meta, "q": 4}),
    "spectrogram []": _rewrite_json("pipeline.json", lambda meta: {**meta, "spectrogram": []}),
    "spectrogram without hop": _rewrite_json(
        "pipeline.json", lambda meta: {**meta, "spectrogram": {k: v for k, v in meta["spectrogram"].items() if k != "hop"}}
    ),
    "fractional window": _rewrite_json(
        "pipeline.json", lambda meta: {**meta, "spectrogram": {**meta["spectrogram"], "window_len": 4096.5}}
    ),
    "stats without mean": _rewrite_stats(lambda blocks: [("std", blocks["std"])]),
    "stats of another width": _rewrite_stats(
        lambda blocks: [("mean", blocks["mean"][:-1]), ("std", blocks["std"][:-1])]
    ),
    "stats of unequal shapes": _rewrite_stats(
        lambda blocks: [("mean", blocks["mean"]), ("std", np.ones(3))]
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BUNDLES))
def test_malformed_bundle_is_2(case, model_dir, corpus_dir, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(model_dir, bundle)
    MALFORMED_BUNDLES[case](bundle)
    capsys.readouterr()
    assert main(["count", "--model", str(bundle), "--audio", corpus_dir, "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "Traceback" not in err


def _poison(name, block, value):
    def mutate(bundle):
        path = bundle / name
        kind, spec, blocks = read_checkpoint(path)
        blocks = [(n, np.full_like(a, value) if n == block else a) for n, a in blocks]
        write_checkpoint(path, kind, spec, blocks)

    return mutate


NON_FINITE_BUNDLES = {
    "stage2 weights NaN": ("stage2.ckpt", "layer0.weights", np.nan),
    "stage1 running variance inf": ("stage1.ckpt", "layer1.running_var", np.inf),
    "stats mean NaN": ("stats.bin", "mean", np.nan),
    "stats std zero": ("stats.bin", "std", 0.0),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_BUNDLES))
def test_non_finite_bundle_is_2_naming_file_and_block(case, model_dir, corpus_dir, tmp_path, capsys):
    name, block, value = NON_FINITE_BUNDLES[case]
    bundle = tmp_path / "bundle"
    shutil.copytree(model_dir, bundle)
    _poison(name, block, value)(bundle)
    capsys.readouterr()
    assert main(["count", "--model", str(bundle), "--audio", corpus_dir, "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "Traceback" not in err
    assert str(bundle / name) in err and repr(block) in err


# SHA-256 of the CSV outputs of one seeded run on one BLAS thread (the
# networks are trained, so another BLAS may round differently)
CSV_GOLDEN = {
    "predict.csv": "06b916de9bc1daa0f391c36d683c60d9ad4f3275e803f1ac6ba74f0881b7f94a",
    "grid.csv": "fe2c296fd5f6b24012da6929deb89fded00df992c56f60e447621f368494c613",
    "grid.stdout": "fe2c296fd5f6b24012da6929deb89fded00df992c56f60e447621f368494c613",
    "VCNN_bands.csv": "7c6191e856ab0ebc9fef2e2ea6dd10f1a7ba9c71a1e414d66be0251b020ee8a4",
    "VCNN_PP15_bands.csv": "4cb516dc7343a63cbb3e7453d5e4d1800b5859eae6da7e785aa92b09978d2341",
    "summary.csv": "b03adc8e9fce74dc512bbdac6f9178d34f41f98859dee78e6528379a3f926350",
}


def test_csv_outputs_golden(fast_config, corpus_dir, tmp_path, capsys):
    """The predict, gridsearch and experiment tables, byte for byte."""
    cfg = json.loads(open(fast_config).read())
    cfg["grid"] = {"smoothers": [[5, 3], [7, 3]], "m_fracs": [0.4, 0.45], "p_fracs": [0.2]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    exp_path = tmp_path / "exp.json"
    exp_path.write_text(json.dumps({
        "seed": 3, "epochs": 3, "n_runs": 2, "variants": ["VCNN", "VCNN_PP15"], "deep": {"epochs": 2},
        "paths": {"data_dir": corpus_dir, "out_dir": str(tmp_path)},
    }))
    model = str(tmp_path / "model")
    grid = ["gridsearch", "--config", str(cfg_path), "--data", corpus_dir]
    with one_blas_thread():
        assert main(["train", "--config", fast_config, "--data", corpus_dir, "--out", model]) == 0
        assert main(["predict", "--model", model, "--audio", corpus_dir, "--out", str(tmp_path / "predict.csv")]) == 0
        assert main(grid + ["--out", str(tmp_path / "grid.csv")]) == 0
        capsys.readouterr()
        assert main(grid) == 0
        (tmp_path / "grid.stdout").write_bytes(capsys.readouterr().out.encode())
        assert main(["experiment", "--config", str(exp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in CSV_GOLDEN}
    assert digests == CSV_GOLDEN
