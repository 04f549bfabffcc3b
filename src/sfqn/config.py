"""Plain-text key=value experiment configuration.

One flat namespace; every key has a default, an unknown or repeated key is
an error, `#` starts a comment.  parse -> serialize -> parse is the
identity.  Apart from `variant`, `seeds` and `output_dir`, the keys are the
fields of `TrainConfig`, `NetworkConfig` and `HighwayConfig` that the
experiment does not derive itself, and values those configs reject, empty
list entries and negative or repeated seeds are a `ConfigError`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import field, fields, make_dataclass
from pathlib import Path

from .highway import HighwayConfig
from .qnet import VARIANTS, NetworkConfig
from .train import TrainConfig

ABLATION_MATRIX = tuple(VARIANTS)


class ConfigError(ValueError):
    pass


# NetworkConfig / TrainConfig fields that the experiment sets itself, per
# variant and seed; obs_hw comes from the environment's grid_size.
DERIVED = ("seed", "variant", "obs_hw")
COMPONENTS = (TrainConfig, NetworkConfig, HighwayConfig)


def _component_fields(cls):
    return [f for f in fields(cls) if f.name not in DERIVED]


class _Experiment:
    """Methods of `ExperimentConfig`, whose fields are derived below."""

    def __post_init__(self):
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError(f"seeds must be one or more non-negative "
                              f"integers, got {self.seeds}")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ConfigError(f"seeds repeat {repeated}: each seed trains "
                              f"once, got {self.seeds}")
        try:       # surface what the components reject; the environment
            self.env_config()    # first, so a bad grid_size names its key
            self.network_config(0)
            self.train_config(0)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    # -- derived configs ----------------------------------------------------

    def _component(self, cls, **derived):
        return cls(**{f.name: getattr(self, f.name)
                      for f in _component_fields(cls)}, **derived)

    def network_config(self, seed: int,
                       variant: str | None = None) -> NetworkConfig:
        return self._component(
            NetworkConfig, variant=variant or self.variant,
            obs_hw=(self.grid_size, self.grid_size), seed=seed)

    def train_config(self, seed: int) -> TrainConfig:
        return self._component(TrainConfig, seed=seed)

    def env_config(self) -> HighwayConfig:
        return self._component(HighwayConfig)

    # -- text format --------------------------------------------------------

    def serialize(self) -> str:
        lines = ["# sfqn experiment configuration"]
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()


# One flat namespace: the experiment's own keys, then every component field
# that is not derived, with the component's default.
ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [("variant", "str", field(default="fuzzy")),
     ("seeds", "tuple[int, ...]", field(default=(0, 1, 2))),
     ("output_dir", "str", field(default="runs"))]
    + [(f.name, f.type, field(default=f.default))
       for cls in COMPONENTS for f in _component_fields(cls)],
    bases=(_Experiment,), namespace={"__module__": __name__})


def _coerce(field, raw: str):
    t = field.type
    if t in ("int", int):
        return int(raw)
    if t in ("float", float):
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"{raw!r} is not a finite number")
        return value
    if t in ("str", str):
        return raw
    if t.startswith("tuple"):
        return tuple(int(v) for v in raw.split(","))
    raise ConfigError(f"cannot coerce key {field.name!r}")


def parse_config(text: str) -> ExperimentConfig:
    known = {f.name: f for f in fields(ExperimentConfig)}
    values, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        try:
            values[key] = _coerce(known[key], raw)
        except ConfigError:
            raise
        except ValueError as err:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {err}")
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())
