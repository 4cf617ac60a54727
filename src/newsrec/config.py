"""Every setting of a run: its type, default and range, declared once.

The settings are one JSON document with the sections ``glove``
(``GloveConfig``), ``model`` (``ModelConfig``) and ``run``
(``RunSettings``).  Precedence, lowest to highest: the defaults, the
config file, then command-line flags.  Within the file, ``run.seed``
seeds each trainer section that sets no ``seed`` of its own; the
``--seed`` flag sets both trainers' seeds.  Unknown sections or fields are
rejected so a typo cannot silently fall back to a default.  ``check``
tests each field against its annotation and the range ``_setting``
declares on it, so a bad value exits 2, not with a traceback.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import os
import sys
from dataclasses import dataclass

from .errors import ConfigError, MissingInput

_SECTIONS = ("glove", "model", "run")


@dataclass(frozen=True, slots=True)
class Range:
    """Values >= ``low`` (> ``low`` if ``strict``), and <= ``high`` unless it is None."""

    low: int
    strict: bool = False
    high: int | None = None

    def __contains__(self, value) -> bool:
        return ((value > self.low if self.strict else value >= self.low)
                and (self.high is None or value <= self.high))

    def __str__(self) -> str:
        if self.high is None:
            return f"{'>' if self.strict else '>='} {self.low}"
        return f"in {'(' if self.strict else '['}{self.low}, {self.high}]"


def _setting(default, low: int, high: int | None = None, *, strict: bool = False):
    return dataclasses.field(default=default, metadata={"range": Range(low, strict, high)})


@dataclass(frozen=True, slots=True)
class GloveConfig:
    dim: int = _setting(50, 1)
    window: int = _setting(5, 1)
    x_max: float = _setting(100.0, 0, strict=True)
    alpha: float = _setting(0.75, 0, 1, strict=True)
    learning_rate: float = _setting(0.05, 0, strict=True)
    epochs: int = _setting(25, 0)
    min_count: int = _setting(5, 1)
    seed: int = _setting(1, 0)


@dataclass(frozen=True, slots=True)
class ModelConfig:
    heads: int = _setting(16, 1)
    d_head: int = _setting(16, 1)
    d_attn: int = _setting(200, 1)
    negatives: int = _setting(4, 1)
    max_title_tokens: int = _setting(30, 1)
    max_history: int = _setting(50, 1)
    learning_rate: float = _setting(1e-3, 0, strict=True)
    epochs: int = _setting(3, 0)
    batch_size: int = _setting(64, 1)
    seed: int = _setting(1, 0)

    @property
    def d_model(self) -> int:
        return self.heads * self.d_head


@dataclass(frozen=True, slots=True)
class RunSettings:
    seed: int | None = _setting(None, 0)
    threads: int = _setting(1, 1)
    stopwords: str | None = None


@dataclass(frozen=True, slots=True)
class AppConfig:
    glove: GloveConfig
    model: ModelConfig
    run: RunSettings


def check(config):
    """Return ``config`` if each field holds a value of its type and in its
    range, else raise ConfigError naming the first wrong type or, if none,
    the first value out of range, in field order.  An ``int`` takes only
    integers in the int64 range, a ``float`` any finite real number, a
    ``str`` only a string, and none a bool; None passes where the
    annotation allows it."""
    fields = dataclasses.fields(config)
    for field in fields:
        value = getattr(config, field.name)
        kinds = str(field.type).split(" | ")
        if value is None and "None" in kinds:
            continue
        if "int" in kinds:
            want = "an integer in the int64 range"
            ok = isinstance(value, numbers.Integral) and -2**63 <= value < 2**63
        elif "float" in kinds:
            # not nan, an infinity or an int beyond the float range
            want = "a finite number"
            ok = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
        else:
            want, ok = "a string", isinstance(value, str)
        if isinstance(value, bool) or not ok:
            raise ConfigError(f"{field.name} must be {want}, got {value!r}")
    for field in fields:
        value, bounds = getattr(config, field.name), field.metadata.get("range")
        if bounds is not None and value is not None and value not in bounds:
            raise ConfigError(f"{field.name} must be {bounds}, got {value}")
    return config


def _check_fields(section: str, raw: dict, allowed) -> None:
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown field(s) in config section {section!r}: {', '.join(sorted(unknown))}"
        )


def _build(cls, section: str, raw: dict):
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {section!r} must be a JSON object")
    _check_fields(section, raw, [f.name for f in dataclasses.fields(cls)])
    return cls(**raw)


def load_config(path: str | None) -> AppConfig:
    """Parse the config file (or defaults when ``path`` is None); a
    leading byte-order mark is ignored."""
    raw: dict = {}
    if path is not None:
        if not os.path.isfile(path):
            raise MissingInput(f"config file not found: {path}")
        try:
            with open(path, encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        _check_fields("<top level>", raw, _SECTIONS)
    run_raw = raw.get("run", {})
    seed = run_raw.get("seed") if isinstance(run_raw, dict) else None

    def trainer(cls, name: str):
        section = raw.get(name, {})
        if seed is not None and isinstance(section, dict):
            section = {"seed": seed, **section}
        return _build(cls, name, section)

    glove = trainer(GloveConfig, "glove")
    model = trainer(ModelConfig, "model")
    run = _build(RunSettings, "run", run_raw)
    return AppConfig(glove=glove, model=model, run=run)


def apply_overrides(config: AppConfig, glove: dict, model: dict, run: dict) -> AppConfig:
    """Overlay non-None flag values, then check every section.

    A ``--seed`` flag (``run["seed"]``) also sets both trainers' seeds.
    """
    run_clean = {k: v for k, v in run.items() if v is not None}
    new_run = check(dataclasses.replace(config.run, **run_clean))
    glove_clean = {k: v for k, v in glove.items() if v is not None}
    model_clean = {k: v for k, v in model.items() if v is not None}
    if "seed" in run_clean:
        glove_clean["seed"] = model_clean["seed"] = new_run.seed
    new_glove = check(dataclasses.replace(config.glove, **glove_clean))
    new_model = check(dataclasses.replace(config.model, **model_clean))
    return AppConfig(glove=new_glove, model=new_model, run=new_run)
