"""Self-describing checkpoint files.

A checkpoint is a single JSON document holding every named parameter
array with its shape, the full configuration that produced it, and a
schema version. Schema "2" stores each parameter's ``data`` in the
binary array format of ``codec`` (base64 of the little-endian float64
bytes in C order), so reloading reproduces every parameter bit-exactly.
The loader checks every field's type, the byte count against the shape,
and that every value is finite; each failure is a ``CheckpointError``
naming the parameter and field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import atomic, codec

SCHEMA_VERSION = "2"


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    kind: str  # "head" | "aggregator" | "joint"
    config: dict
    params: dict


def save_checkpoint(path, params, config, kind):
    """Write the document described above, byte for byte as
    ``json.dumps(document, sort_keys=True) + "\\n"`` would.

    The base64 strings are spliced in as they are: they hold no character
    JSON escapes, so passing them through ``json.dumps`` would only
    re-scan megabytes of text. Everything else goes through ``json.dumps``.
    """
    parts = [f'{{"config": {json.dumps(config, sort_keys=True)}, '
             f'"kind": {json.dumps(kind)}, "params": {{']
    for i, name in enumerate(sorted(params)):
        arr = params[name]
        parts += [", " if i else "", f'{json.dumps(name)}: {{"data": "', codec.encode(arr),
                  f'", "shape": {json.dumps(list(np.shape(arr)))}}}']
    parts.append(f'}}, "schema_version": {json.dumps(SCHEMA_VERSION)}}}\n')
    atomic.write_text(path, "".join(parts))


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
        blob = json.loads(path.read_bytes())
    except json.JSONDecodeError as e:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {e.msg}") from None
    except UnicodeDecodeError:
        raise CheckpointError(f"checkpoint {path} is not UTF-8 text") from None
    where = f"checkpoint {path}"
    version = _field(blob, "schema_version", where)
    if version != SCHEMA_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint schema {version!r} in {path} (this version reads "
            f"{SCHEMA_VERSION!r}); re-run train to rebuild the checkpoint"
        )
    kind, config, entries = (_field(blob, key, where) for key in ("kind", "config", "params"))
    if not isinstance(kind, str):
        raise CheckpointError(f"{where}: field 'kind' is not a JSON string")
    for key, value in (("config", config), ("params", entries)):
        if not isinstance(value, dict):
            raise CheckpointError(f"{where}: field {key!r} is not a JSON object")
    params = {}
    for name, entry in entries.items():
        at = f"{where}: parameter {name!r}"
        shape = _field(entry, "shape", at)
        if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
            raise CheckpointError(f"{at}: field 'shape' is not a list of non-negative integers")
        params[name] = codec.decode(
            _field(entry, "data", at), tuple(shape), CheckpointError, f"{at}: field 'data'"
        )
    return Checkpoint(kind=kind, config=config, params=params)
