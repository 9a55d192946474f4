"""Deterministic serialization for the CLI: CSV and JSON writers and the
configuration CSV round trip.  Floats carry 17 significant digits so every
value round-trips; JSON keys are sorted, its numbers finite, line endings are
LF, encoding is UTF-8.  No other library module reads or writes files."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .core import PointConfiguration


def fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.17g}"


def _write_lines(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_csv(path, header, rows) -> None:
    _write_lines(path, [",".join(header)] + [",".join(map(fmt, row)) for row in rows])


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def write_json(path, obj) -> None:
    # a non-finite value raises ValueError rather than writing invalid JSON
    text = json.dumps(_jsonify(obj), sort_keys=True, indent=2, allow_nan=False)
    _write_lines(path, [text])


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def config_to_csv(config: PointConfiguration, path, model: str = "", seed: str = "") -> None:
    """One configuration as CSV: ``# key=value`` lines for the dimension,
    window side, model and seed, then the coordinate columns."""
    _write_lines(path, [
        f"# d={config.d}",
        f"# R={fmt(config.R)}",
        f"# model={model}",
        f"# seed={seed}",
        ",".join(f"x{i + 1}" for i in range(config.d)),
    ] + [",".join(map(fmt, row)) for row in config.points])


def config_from_csv(path) -> PointConfiguration:
    """The configuration that ``config_to_csv`` wrote to ``path``."""
    meta: dict[str, str] = {}
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("x1"):
            continue
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key.strip()] = val.strip()
        else:
            rows.append([float(tok) for tok in line.split(",")])
    d = int(meta["d"])
    return PointConfiguration(np.asarray(rows, dtype=float).reshape(-1, d), float(meta["R"]))
