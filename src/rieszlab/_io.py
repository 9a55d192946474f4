"""Deterministic serialization: CSV and JSON writers shared by the modules
and the CLI.  Floats carry 17 significant digits so every value round-trips;
JSON keys are sorted, its numbers finite, line endings are LF, encoding is
UTF-8."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.17g}"


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _jsonify(obj):
    import numpy as np

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
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
