"""Tool configuration: one canonical-JSON file drives every subcommand.

Every section is optional and falls back to the method defaults; unknown
keys are rejected anywhere in the tree so a typo cannot silently revert a
parameter to its default. The AVC_SEED environment variable, when set,
overrides the configured seed and is checked like it.
"""

import json
import os
from dataclasses import dataclass, field, fields, replace

from . import distreg
from .dataio import DEFAULT_T_D, DataError
from .deepcount import ConvCounterSpec
from .experiments import GridSpec, check_variant
from .features import SpectrogramConfig
from .nn_core import check_int, check_keys, check_real, spec_from_json
from .peakdet import DetectorSpec
from .synthgen import SceneSpec

# integer top-level keys and their smallest allowed value
_INT_KEYS = {"seed": 0, "k": 0, "q": 0, "stride": 1, "epochs": 1, "n_clips": 1, "n_runs": 1}
_STAGE_KEYS = {"batch_size", "learning_rate", "l2_factor", "loss", "epochs"}
_PATH_KEYS = ("data_dir", "out_dir")


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

    def __post_init__(self):
        for name in ("stage1", "stage2"):
            check_keys(getattr(self, f"{name}_overrides"), _STAGE_KEYS, name)
        check_keys(self.paths, _PATH_KEYS, "paths")
        if not all(isinstance(value, str) for value in self.paths.values()):
            raise TypeError(f"paths must be strings, got {self.paths!r}")
        for name, minimum in _INT_KEYS.items():
            check_int(name, getattr(self, name), minimum)
        check_real("t_d", self.t_d, positive=True)
        check_real("split_ratio", self.split_ratio)
        if not 0 < self.split_ratio < 1:
            raise ValueError(f"split_ratio must be in (0, 1), got {self.split_ratio}")
        if not isinstance(self.variants, (list, tuple)):
            raise TypeError(f"variants must be a list of names, got {self.variants!r}")
        for name in self.variants:
            check_variant(name)
        if not self.variants or len(set(self.variants)) != len(self.variants):
            raise ValueError(f"variants must name each variant once, got {self.variants!r}")
        self.variants = tuple(self.variants)
        self.stage_specs(self.seed)  # the stage sections must make valid specs

    def stage_specs(self, seed: int):
        """(Stage-1, Stage-2) network specs seeded seed and seed + 1.

        The ``stage1`` / ``stage2`` config sections override the method
        defaults field by field.
        """
        input_dim = (2 * self.q + 1) * self.spectrogram.n_mel
        s1 = distreg.stage1_spec(input_dim=input_dim, epochs=self.epochs, seed=seed)
        s2 = distreg.stage2_spec(k=self.k, epochs=self.epochs, seed=seed + 1)
        return replace(s1, **self.stage1_overrides), replace(s2, **self.stage2_overrides)


# sections whose keys are the fields of one spec type
_SECTIONS = {
    "spectrogram": SpectrogramConfig,
    "detector": DetectorSpec,
    "grid": GridSpec,
    "scene": SceneSpec,
    "deep": ConvCounterSpec,
}
_TOP_KEYS = {f.name.removesuffix("_overrides") for f in fields(ToolConfig)}


def load_config(path=None) -> ToolConfig:
    """Parse and validate a config file; a missing path means all defaults."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read config {path}: {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError("config root must be a JSON object")
    return parse_config(raw)


def parse_config(raw: dict) -> ToolConfig:
    """ToolConfig from a decoded config file: each section becomes its spec type."""
    try:
        check_keys(raw, _TOP_KEYS, "top level")
        kw = {key + "_overrides" if key in ("stage1", "stage2") else key: v for key, v in raw.items()}
        for name, cls in _SECTIONS.items():
            if name in raw:
                kw[name] = spec_from_json(cls, raw[name], name)
        cfg = ToolConfig(**kw)
    except (TypeError, ValueError) as exc:
        raise DataError(f"invalid config value: {exc}") from exc

    env_seed = os.environ.get("AVC_SEED")
    if env_seed is not None:
        try:
            cfg = replace(cfg, seed=int(env_seed))
        except ValueError as exc:
            raise DataError(f"AVC_SEED must be a nonnegative integer, got {env_seed!r}") from exc
    return cfg
