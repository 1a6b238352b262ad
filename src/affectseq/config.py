"""Run configuration: defaults, presets, config files, flag overrides.

Precedence, lowest to highest: dataclass defaults, preset, config file,
command-line flags. A config is validated in full before any work
starts, and the effective (post-default) form is echoed into every
output directory so a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import atomic
from .affect_space import REPRESENTATION_SUBSETS
from .affect_head import HeadConfig
from .aggregator import AggregatorConfig
from .data import FrameRecipe, VideoRecipe

SCHEMA_VERSION = "1"

STAGES = ("mma", "mrnn-frozen", "end-to-end")
LOSSES = ("pearson", "mse")
LABEL_KINDS = ("va", "expr", "au", "all")


class ConfigError(Exception):
    pass


def _check_type(name, value, default):
    """Reject a value whose type differs from its field default's.

    bool fields take only bools; int fields take ints but not bools;
    float fields take ints or floats; the rest take strings, or None
    where the default is None.
    """
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        ok, kind = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    else:
        ok = isinstance(value, str) or (default is None and value is None)
        kind = "a string" if default is not None else "a string or null"
    if not ok:
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


def _finite(value):
    """False for NaN, an infinity, or an integer too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass
class RunConfig:
    # bookkeeping
    preset: str | None = None
    seed: int = 0
    out: str = "runs/latest"
    stage: str = "mrnn-frozen"
    dataset: str | None = None
    checkpoint: str | None = None
    head_checkpoint: str | None = None
    split: str = "val"
    fractions: str = "0.63,0.19,0.18"

    # dataset generation
    gen_kind: str = "videos"
    n: int = 256
    t: int = 32
    l_min: int = 8
    l_max: int = 32
    padding: str = "zeros"
    feature_kind: str = "affect"
    label_mix: str = "all:1"
    feature_noise: float = 0.05
    mix_noise: float = 0.5
    au_noise: float = 0.12
    smoothness: float = 0.85
    drive: float = 0.3
    temperature: float = 0.4
    frame_noise: float = 0.1

    # model
    d_in: int = 64  # frame-descriptor width (head input)
    head_width: int = 64
    head_blocks: int = 2
    representation: str = "all"
    d_hidden: int = 16
    d_ff: int = 8
    gru_layers: int = 1
    mask: bool = True
    sigmoid_output: bool = False
    two_term_coupling: bool = False

    # training
    loss: str = "pearson"
    batch_size: int = 16
    lr: float = 3e-3
    epochs: int = 150

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            _check_type(f.name, value, f.default)
            if isinstance(f.default, float) and not _finite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        checks = [
            (self.seed >= 0, "seed must be >= 0"),
            (self.stage in STAGES, f"stage must be one of {STAGES}, got {self.stage!r}"),
            (self.loss in LOSSES, f"loss must be one of {LOSSES}, got {self.loss!r}"),
            (
                self.representation in REPRESENTATION_SUBSETS,
                f"representation must be one of {sorted(REPRESENTATION_SUBSETS)}",
            ),
            (self.padding in ("zeros", "noise"), f"bad padding {self.padding!r}"),
            (self.feature_kind in ("affect", "descriptor"), f"bad feature_kind {self.feature_kind!r}"),
            (self.gen_kind in ("videos", "frames"), f"bad gen_kind {self.gen_kind!r}"),
            (self.split in ("train", "val", "test"), f"bad split {self.split!r}"),
            (self.n >= 1, "n must be >= 1"),
            (self.t >= 1, "t must be >= 1"),
            (1 <= self.l_min <= self.l_max, "need 1 <= l_min <= l_max"),
            (self.l_max <= self.t, f"l_max {self.l_max} exceeds t {self.t}"),
            (self.d_in >= 1 and self.head_width >= 1, "head dims must be >= 1"),
            (self.head_blocks >= 0, "head_blocks must be >= 0"),
            (self.d_hidden >= 1 and self.d_ff >= 1, "aggregator dims must be >= 1"),
            (self.gru_layers in (1, 2), "gru_layers must be 1 or 2"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.lr >= 0.0, "lr must be >= 0"),
            (self.temperature > 0.0, "temperature must be > 0"),
            (self.epochs >= 0, "epochs must be >= 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        self.parse_fractions()
        self.parse_label_mix()
        return self

    def parse_fractions(self):
        try:
            parts = tuple(float(p) for p in self.fractions.split(","))
        except ValueError:
            raise ConfigError(f"unparseable fractions {self.fractions!r}") from None
        if (len(parts) != 3 or not all(_finite(p) and p >= 0 for p in parts)
                or abs(sum(parts) - 1.0) > 1e-9):
            raise ConfigError("fractions must be 3 finite nonnegative values summing to 1")
        return parts

    def parse_label_mix(self):
        mix = []
        try:
            for item in self.label_mix.split(","):
                kind, frac = item.split(":")
                mix.append((kind.strip(), float(frac)))
        except ValueError:
            raise ConfigError(f"unparseable label_mix {self.label_mix!r}") from None
        if any(kind not in LABEL_KINDS for kind, _ in mix):
            raise ConfigError(f"label_mix kinds must be in {LABEL_KINDS}")
        if (not all(_finite(f) and f >= 0 for _, f in mix)
                or abs(sum(f for _, f in mix) - 1.0) > 1e-9):
            raise ConfigError("label_mix fractions must be finite, nonnegative and sum to 1")
        return tuple(mix)

    # derived component configs

    def head_config(self):
        return HeadConfig(
            d_in=self.d_in,
            width=self.head_width,
            n_blocks=self.head_blocks,
            two_term_coupling=self.two_term_coupling,
        )

    def aggregator_config(self, d_in=None):
        if d_in is None:
            d_in = len(REPRESENTATION_SUBSETS[self.representation])
        return AggregatorConfig(
            d_in=d_in,
            t=self.t,
            d_hidden=self.d_hidden,
            d_ff=self.d_ff,
            gru_layers=self.gru_layers,
            mask_enabled=self.mask,
            sigmoid_output=self.sigmoid_output,
        )

    def video_recipe(self):
        return VideoRecipe(
            l_min=self.l_min,
            l_max=self.l_max,
            smoothness=self.smoothness,
            drive=self.drive,
            temperature=self.temperature,
            mix_noise=self.mix_noise,
            feature_noise=self.feature_noise,
            au_noise=self.au_noise,
            padding=self.padding,
            feature_kind=self.feature_kind,
            d_in=self.d_in,
        )

    def frame_recipe(self):
        return FrameRecipe(
            d_in=self.d_in,
            noise=self.frame_noise,
            label_mix=self.parse_label_mix(),
        )

    def to_dict(self):
        blob = asdict(self)
        blob["schema_version"] = SCHEMA_VERSION
        return blob

    def echo(self, out_dir):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        atomic.write_text(
            out_dir / "effective_config.json",
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
        )


PRESETS = {
    # paper-scale shapes and learning rates
    "paper": {
        "t": 480,
        "l_min": 120,
        "l_max": 480,
        "d_hidden": 128,
        "d_ff": 32,
        "batch_size": 4,
        "lr": 1e-4,
    },
    # desk-scale shapes that train in seconds on one core
    "desk": {
        "t": 32,
        "l_min": 8,
        "l_max": 32,
        "d_hidden": 16,
        "d_ff": 8,
        "batch_size": 16,
        "lr": 1e-2,
    },
}

_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def check_schema_version(blob):
    """A config document may omit its schema version, not misstate it."""
    version = blob.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION!r}, got {version!r}")


def load_config_file(path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        blob = json.loads(path.read_bytes())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e.msg}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None
    if not isinstance(blob, dict):
        raise ConfigError("config file must hold a JSON object")
    check_schema_version(blob)
    blob.pop("schema_version", None)
    unknown = sorted(set(blob) - _FIELD_NAMES)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return blob


def build_config(config_file=None, overrides=None):
    """Assemble and validate a RunConfig from the four precedence layers."""
    values = {}
    preset = (overrides or {}).get("preset")
    file_blob = {}
    if config_file is not None:
        file_blob = load_config_file(config_file)
    preset = preset or file_blob.get("preset")
    if preset is not None:
        _check_type("preset", preset, None)
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
        values.update(PRESETS[preset])
        values["preset"] = preset
    values.update(file_blob)
    for key, value in (overrides or {}).items():
        if value is not None:
            if key not in _FIELD_NAMES:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = value
    config = RunConfig(**values)
    config.validate()
    return config
