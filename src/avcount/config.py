"""Tool configuration: one canonical-JSON file drives every subcommand.

Every section is optional and falls back to the method defaults; unknown
keys are rejected anywhere in the tree so a typo cannot silently revert a
parameter to its default. The AVC_SEED environment variable, when set,
overrides the configured seed.
"""

import json
import os
from dataclasses import dataclass, field, replace

from . import distreg
from .dataio import DEFAULT_T_D, DataError
from .deepcount import ConvCounterSpec
from .experiments import GridSpec, check_variant
from .features import SpectrogramConfig
from .nn_core import check_int, check_real
from .peakdet import DetectorSpec, SmootherSpec
from .synthgen import SceneSpec

_TOP_KEYS = {
    "seed",
    "t_d",
    "k",
    "q",
    "stride",
    "epochs",
    "split_ratio",
    "n_clips",
    "n_runs",
    "variants",
    "spectrogram",
    "stage1",
    "stage2",
    "detector",
    "grid",
    "scene",
    "deep",
    "paths",
}
_SPECTROGRAM_KEYS = {"window_len", "hop", "n_mel", "f_min", "f_max", "log_floor", "sample_rate"}
_STAGE_KEYS = {"batch_size", "learning_rate", "l2_factor", "loss", "epochs"}
_DETECTOR_KEYS = {"smoother", "m_frac", "p_frac"}
_GRID_KEYS = {"smoothers", "m_fracs", "p_fracs", "objective_lo", "objective_hi"}
_SCENE_KEYS = {
    "duration",
    "n_vehicles",
    "rate",
    "min_gap",
    "noise_level",
    "band",
    "envelope_width",
    "width_range",
    "amp_range",
    "pair_fraction",
    "pair_gap",
    "edge_margin",
    "sample_rate",
    "hop",
    "seed",
}
_DEEP_KEYS = {"conv_layers", "head_sizes", "loss", "epochs", "batch_clips", "learning_rate", "seed"}
_PATH_KEYS = {"data_dir", "out_dir"}
# integer top-level keys and their smallest allowed value
_INT_KEYS = {"seed": 0, "k": 0, "q": 0, "stride": 1, "epochs": 1, "n_clips": 1, "n_runs": 1}


def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise DataError(f"unknown config key(s) in {where}: {sorted(unknown)}")


@dataclass
class ToolConfig:
    seed: int = 0
    t_d: float = DEFAULT_T_D
    k: int = 15
    q: int = 5
    stride: int = 2
    epochs: int = 100
    split_ratio: float = 0.8
    n_clips: int = 50
    n_runs: int = 2
    variants: tuple = ("VCNN", "VCNN_S1")
    spectrogram: SpectrogramConfig = field(default_factory=SpectrogramConfig)
    stage1_overrides: dict = field(default_factory=dict)
    stage2_overrides: dict = field(default_factory=dict)
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    grid: GridSpec = field(default_factory=GridSpec)
    scene: SceneSpec = field(default_factory=SceneSpec)
    deep: ConvCounterSpec | None = None
    paths: dict = field(default_factory=dict)

    def stage_specs(self, seed: int):
        """(Stage-1, Stage-2) network specs seeded seed and seed + 1.

        The ``stage1`` / ``stage2`` config sections override the method
        defaults field by field.
        """
        input_dim = (2 * self.q + 1) * self.spectrogram.n_mel
        s1 = distreg.stage1_spec(input_dim=input_dim, epochs=self.epochs, seed=seed)
        s2 = distreg.stage2_spec(k=self.k, epochs=self.epochs, seed=seed + 1)
        return replace(s1, **self.stage1_overrides), replace(s2, **self.stage2_overrides)


def load_config(path=None) -> ToolConfig:
    """Parse and validate a config file; a missing path means all defaults."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError("config root must be a JSON object")
    return parse_config(raw)


def parse_config(raw: dict) -> ToolConfig:
    _check_keys(raw, _TOP_KEYS, "top level")
    cfg = ToolConfig()
    try:
        if "spectrogram" in raw:
            _check_keys(raw["spectrogram"], _SPECTROGRAM_KEYS, "spectrogram")
            cfg.spectrogram = SpectrogramConfig(**raw["spectrogram"])
        for name in ("stage1", "stage2"):
            if name in raw:
                _check_keys(raw[name], _STAGE_KEYS, name)
                setattr(cfg, f"{name}_overrides", dict(raw[name]))
        if "detector" in raw:
            _check_keys(raw["detector"], _DETECTOR_KEYS, "detector")
            det = dict(raw["detector"])
            if "smoother" in det:
                det["smoother"] = SmootherSpec(tuple(det["smoother"]))
            cfg.detector = DetectorSpec(**det)
        if "grid" in raw:
            _check_keys(raw["grid"], _GRID_KEYS, "grid")
            grid = dict(raw["grid"])
            if "smoothers" in grid:
                grid["smoothers"] = tuple(tuple(s) for s in grid["smoothers"])
            for key in ("m_fracs", "p_fracs"):
                if key in grid:
                    grid[key] = tuple(grid[key])
            cfg.grid = GridSpec(**grid)
        if "scene" in raw:
            _check_keys(raw["scene"], _SCENE_KEYS, "scene")
            scene = dict(raw["scene"])
            for key in ("band", "amp_range", "width_range"):
                if key in scene and scene[key] is not None:
                    scene[key] = tuple(scene[key])
            cfg.scene = SceneSpec(**scene)
        if "deep" in raw:
            _check_keys(raw["deep"], _DEEP_KEYS, "deep")
            deep = dict(raw["deep"])
            if "conv_layers" in deep:
                deep["conv_layers"] = tuple(tuple(l) for l in deep["conv_layers"])
            if "head_sizes" in deep:
                deep["head_sizes"] = tuple(deep["head_sizes"])
            cfg.deep = ConvCounterSpec(**deep)
        if "paths" in raw:
            _check_keys(raw["paths"], _PATH_KEYS, "paths")
            cfg.paths = dict(raw["paths"])
        for name, minimum in _INT_KEYS.items():
            if name in raw:
                check_int(name, raw[name], minimum)
                setattr(cfg, name, raw[name])
        if "t_d" in raw:
            check_real("t_d", raw["t_d"], positive=True)
            cfg.t_d = raw["t_d"]
        if "split_ratio" in raw:
            check_real("split_ratio", raw["split_ratio"])
            if not 0 < raw["split_ratio"] < 1:
                raise ValueError(f"split_ratio must be in (0, 1), got {raw['split_ratio']}")
            cfg.split_ratio = raw["split_ratio"]
        if "variants" in raw:
            if not isinstance(raw["variants"], (list, tuple)):
                raise TypeError(f"variants must be a list of names, got {raw['variants']!r}")
            for name in raw["variants"]:
                check_variant(name)
            cfg.variants = tuple(raw["variants"])
        cfg.stage_specs(cfg.seed)  # the stage sections must make valid specs
    except (TypeError, ValueError) as exc:
        raise DataError(f"invalid config value: {exc}") from exc

    env_seed = os.environ.get("AVC_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError as exc:
            raise DataError(f"AVC_SEED must be an integer, got {env_seed!r}") from exc
    return cfg
