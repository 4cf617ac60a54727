"""Run configuration: one JSON document with per-module sections.

Layered precedence, lowest to highest: built-in defaults, the config
file, then command-line flags.  Unknown sections or fields are rejected
so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

from .errors import ConfigError, MissingInput, check_field_types
from .glove import GloveConfig
from .model import ModelConfig

_SECTIONS = ("glove", "model", "run")


@dataclass(frozen=True, slots=True)
class RunSettings:
    seed: int | None = None
    threads: int = 1
    stopwords: str | None = None

    def validate(self) -> "RunSettings":
        check_field_types(self)
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self


@dataclass(frozen=True, slots=True)
class AppConfig:
    glove: GloveConfig
    model: ModelConfig
    run: RunSettings


def _check_fields(section: str, raw: dict, allowed) -> None:
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown field(s) in config section {section!r}: {', '.join(sorted(unknown))}"
        )


def _build(cls, section: str, raw: dict):
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {section!r} must be a JSON object")
    allowed = [f.name for f in dataclasses.fields(cls)]
    _check_fields(section, raw, allowed)
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad config section {section!r}: {exc}") from exc


def load_config(path: str | None) -> AppConfig:
    """Parse the config file (or defaults when ``path`` is None)."""
    raw: dict = {}
    if path is not None:
        if not os.path.isfile(path):
            raise MissingInput(f"config file not found: {path}")
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        _check_fields("<top level>", raw, _SECTIONS)
    glove = _build(GloveConfig, "glove", raw.get("glove", {}))
    model = _build(ModelConfig, "model", raw.get("model", {}))
    run = _build(RunSettings, "run", raw.get("run", {}))
    return AppConfig(glove=glove, model=model, run=run)


def apply_overrides(config: AppConfig, glove: dict, model: dict, run: dict) -> AppConfig:
    """Overlay non-None flag values, then validate everything.

    A global seed override (run.seed) also reseeds both trainers unless a
    more specific seed override is present.
    """
    run_clean = {k: v for k, v in run.items() if v is not None}
    new_run = dataclasses.replace(config.run, **run_clean).validate()
    glove_clean = {k: v for k, v in glove.items() if v is not None}
    model_clean = {k: v for k, v in model.items() if v is not None}
    if new_run.seed is not None:
        glove_clean.setdefault("seed", new_run.seed)
        model_clean.setdefault("seed", new_run.seed)
    new_glove = dataclasses.replace(config.glove, **glove_clean).validate()
    new_model = dataclasses.replace(config.model, **model_clean).validate()
    return AppConfig(glove=new_glove, model=new_model, run=new_run)
