"""Run manifests: what a command read, wrote, and how it was configured.

A manifest holds five keys: the command, the effective config snapshot
(the seed and thread budget are in its ``run`` section), the SHA-256
digests of every input and output file, and per-phase wall times.  It is
written atomically at the end of a successful run; in deterministic mode
two runs differ only in their timing fields.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager

from .errors import MissingInput
from .mind import write_text_atomic


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    except FileNotFoundError as exc:
        raise MissingInput(f"cannot digest missing file: {path}") from exc
    return digest.hexdigest()


def _digest(path: str, blob: bytes | None) -> str:
    return sha256_file(path) if blob is None else hashlib.sha256(blob).hexdigest()


class RunManifest:
    """Accumulates run metadata, then serializes to one JSON file."""

    def __init__(self, command: str, config: dict):
        self.command = command
        self.config = config
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.phase_seconds: dict[str, float] = {}

    def add_input(self, path: str, blob: bytes | None = None) -> None:
        """Record ``path`` by the digest of ``blob``, the bytes the caller
        read from it and parses, or else of the file, read in blocks."""
        self.inputs[path] = _digest(path, blob)

    def add_output(self, path: str, blob: bytes | None = None) -> None:
        self.outputs[path] = _digest(path, blob)

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + (
                time.perf_counter() - start
            )

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "phase_seconds": self.phase_seconds,
        }

    def write(self, path: str) -> None:
        write_text_atomic(path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
