"""Deterministic JSON/CSV report writing.

The main report is byte-identical for identical configuration and seed:
keys are sorted, floats use the shortest round-trip representation, and
wall-clock timing goes to a separate sidecar file.  A result dataclass
is written as the mapping of its fields, so its fields are its report layout.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile

import numpy as np

from . import __version__

SCHEMA_VERSION = 1


def _plain(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


class NonFiniteReportError(ValueError):
    """A report value is NaN or infinite; the message names its key path."""


def nonfinite_path(obj, path: str = "") -> str | None:
    """Key path of the first non-finite float in nested dicts and lists, in sorted key order."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else str(k), obj[k]) for k in sorted(obj, key=str))
    elif isinstance(obj, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for sub, value in items:
        found = nonfinite_path(value, sub)
        if found is not None:
            return found
    return None


def render_report(command: str, config_echo: dict, results: dict, passed: bool, flags: dict) -> str:
    """Deterministic JSON text; NonFiniteReportError if any number is not finite."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "command": command,
        "config": _plain(config_echo),
        "results": _plain(results),
        "flags": _plain(flags),
        "passed": bool(passed),
    }
    bad = nonfinite_path(doc)
    if bad is not None:
        raise NonFiniteReportError(f"non-finite number in the report at {bad}")
    return json.dumps(doc, sort_keys=True, indent=1, separators=(",", ": "), allow_nan=False) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file in its directory, which `cli.main` has made."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in np.asarray(rows, dtype=float).tolist()]
    write_atomic(path, "\n".join(lines) + "\n")
