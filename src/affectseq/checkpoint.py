"""Self-describing checkpoint files.

A checkpoint is a single JSON document holding every named parameter
array with its shape, the full configuration that produced it, and a
schema version. JSON text keeps the format diffable and, because floats
serialize through shortest round-trip repr, reloading reproduces every
parameter bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "1"


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    kind: str  # "head" | "aggregator" | "joint"
    config: dict
    params: dict


def save_checkpoint(path, params, config, kind):
    blob = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": config,
        "params": {
            name: {"shape": list(np.asarray(arr).shape), "data": np.asarray(arr).ravel().tolist()}
            for name, arr in params.items()
        },
    }
    Path(path).write_text(json.dumps(blob, sort_keys=True) + "\n")


def _field(obj, key, where):
    """obj[key]; a CheckpointError naming the field when obj lacks it."""
    if not isinstance(obj, dict):
        raise CheckpointError(f"{where} is not a JSON object")
    if key not in obj:
        raise CheckpointError(f"{where} lacks field {key!r}")
    return obj[key]


def load_checkpoint(path):
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    try:
        blob = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {e.msg}") from None
    where = f"checkpoint {path}"
    version = _field(blob, "schema_version", where)
    if version != SCHEMA_VERSION:
        raise CheckpointError(f"unsupported checkpoint schema {version!r}")
    kind, config, entries = (_field(blob, key, where) for key in ("kind", "config", "params"))
    if not isinstance(entries, dict):
        raise CheckpointError(f"{where}: field 'params' is not a JSON object")
    params = {}
    for name, entry in entries.items():
        at = f"{where}: parameter {name!r}"
        shape = _field(entry, "shape", at)
        if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
            raise CheckpointError(f"{at}: field 'shape' is not a list of non-negative integers")
        shape = tuple(shape)
        data = _param_data(_field(entry, "data", at), at)
        if data.size != int(np.prod(shape)):
            raise CheckpointError(f"parameter {name!r}: data does not match shape {shape}")
        params[name] = data.reshape(shape)
    return Checkpoint(kind=kind, config=config, params=params)


def _param_data(raw, at):
    """A flat list of finite JSON numbers as a float64 array."""
    try:
        data = np.asarray(raw)
    except ValueError:  # ragged nesting
        data = None
    if data is None or data.ndim != 1 or data.dtype.kind not in "iuf":
        raise CheckpointError(f"{at}: field 'data' is not a flat list of numbers")
    data = data.astype(np.float64, copy=False)
    if not np.isfinite(data).all():
        raise CheckpointError(f"{at}: field 'data' holds a non-finite value")
    return data
