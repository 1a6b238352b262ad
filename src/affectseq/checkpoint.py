"""Self-describing checkpoint files.

A checkpoint (schema "3") is one JSON header line followed by the raw
parameter bytes. The header is ``json.dumps(header, sort_keys=True)``
and a newline; it holds ``schema_version``, ``kind``, the full
``config`` that produced the checkpoint and ``params``, the list of
``[name, shape]`` pairs in sorted-name order. After it come each
parameter's bytes in the format of ``codec`` (little-endian float64 in
C order), in that same order, and nothing else. Reloading reproduces
every parameter bit-exactly, and saving what was loaded reproduces the
file byte for byte.

The loader checks every header field's type, that the names are unique
and sorted, that the payload holds exactly the bytes the shapes call
for, and that every value is finite; each failure is a
``CheckpointError`` naming the file and, where there is one, the
parameter and field. A schema "2" checkpoint (one JSON document with
base64 data) is rejected with a message to re-run train.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import atomic, codec

SCHEMA_VERSION = "3"


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    kind: str  # "head" | "aggregator" | "joint"
    config: dict
    params: dict


def save_checkpoint(path, params, config, kind):
    """Write the header line, then every array's bytes straight from its
    buffer into the file."""
    names = sorted(params)
    header = {"schema_version": SCHEMA_VERSION, "kind": kind, "config": config,
              "params": [[name, list(np.shape(params[name]))] for name in names]}
    line = (json.dumps(header, sort_keys=True) + "\n").encode("ascii")
    atomic.write_bytes(path, [line, *(codec.to_bytes(params[name]) for name in names)])


def _field(obj, key, where):
    """obj[key]; a CheckpointError naming the field when obj lacks it."""
    if not isinstance(obj, dict):
        raise CheckpointError(f"{where} is not a JSON object")
    if key not in obj:
        raise CheckpointError(f"{where} lacks field {key!r}")
    return obj[key]


def _read_header(line, path):
    """The header dict of `line`, its schema version checked."""
    where = f"checkpoint {path}"
    try:
        header = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError:
        raise CheckpointError(f"{where} is not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{where} is not valid JSON: {e.msg}") from None
    version = _field(header, "schema_version", where)
    if version != SCHEMA_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint schema {version!r} in {path} "
            f"(this version reads {SCHEMA_VERSION!r}); re-run train to rebuild the checkpoint"
        )
    return header


def load_checkpoint(path):
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    where = f"checkpoint {path}"
    raw = path.read_bytes()
    if not raw:
        raise CheckpointError(f"{where} is empty")
    end = raw.find(b"\n")
    header = _read_header(raw if end < 0 else raw[:end], path)
    if end < 0:
        raise CheckpointError(f"{where} has no newline ending its header line")
    kind, config, entries = (_field(header, key, where) for key in ("kind", "config", "params"))
    if not isinstance(kind, str):
        raise CheckpointError(f"{where}: field 'kind' is not a JSON string")
    if not isinstance(config, dict):
        raise CheckpointError(f"{where}: field 'config' is not a JSON object")
    if not isinstance(entries, list):
        raise CheckpointError(f"{where}: field 'params' is not a JSON list")
    payload = memoryview(raw)[end + 1:]
    params, offset, previous = {}, 0, None
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise CheckpointError(f"{where}: params[{i}] is not a [name, shape] pair")
        name, shape = entry
        at = f"{where}: parameter {name!r}"
        if previous is not None and name <= previous:
            raise CheckpointError(
                f"{at} appears twice" if name == previous
                else f"{at} follows {previous!r}; names must be in sorted order"
            )
        if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
            raise CheckpointError(f"{at}: field 'shape' is not a list of non-negative integers")
        nbytes = 8 * math.prod(shape)
        params[name] = codec.from_bytes(payload[offset:offset + nbytes], tuple(shape),
                                        CheckpointError, f"{at}: field 'data'")
        offset += nbytes
        previous = name
    if offset != len(payload):
        raise CheckpointError(f"{where}: {len(payload) - offset} bytes follow the last parameter")
    return Checkpoint(kind=kind, config=config, params=params)
