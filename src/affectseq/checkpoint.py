"""Self-describing checkpoint files.

A checkpoint (schema "3") is a file in the stored-array layout of
``codec``: one sorted-keys JSON header line, then each parameter's
little-endian float64 bytes in C order. The header holds
``schema_version``, ``kind``, the full ``config`` that produced the
checkpoint and ``params``, the list of ``[name, shape]`` pairs in
sorted-name order; the parameters' bytes follow in that same order.
Reloading reproduces every parameter bit-exactly, and saving what was
loaded reproduces the file byte for byte.

The loader checks every header field's type and that the names are
unique and sorted, all before it reads any payload; ``codec.Reader``
then checks that the payload holds exactly the bytes the shapes call
for, reading every parameter in one pass into one buffer that the
parameters are views of, and that every value is finite. Each failure
is a ``CheckpointError`` naming the file and, where there is one, the
parameter and field; a fault of the header comes before any fault of
the payload, and payload faults come in file order. A schema "2"
checkpoint (one JSON document) is rejected with a message to re-run
train.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import codec

SCHEMA_VERSION = "3"


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    kind: str  # "head" | "aggregator" | "joint"
    config: dict
    params: dict


def save_checkpoint(path, params, config, kind):
    names = sorted(params)
    header = {"schema_version": SCHEMA_VERSION, "kind": kind, "config": config,
              "params": [[name, list(np.shape(params[name]))] for name in names]}
    codec.write(path, header, (params[name] for name in names))


def _field(obj, key, where):
    """obj[key]; a CheckpointError naming the field when obj lacks it."""
    if key not in obj:
        raise CheckpointError(f"{where} lacks field {key!r}")
    return obj[key]


def load_checkpoint(path):
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    where = f"checkpoint {path}"
    with codec.Reader(path, CheckpointError, where) as reader:
        header = reader.header
        version = _field(header, "schema_version", where)
        if version != SCHEMA_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint schema {version!r} in {path} (this version reads "
                f"{SCHEMA_VERSION!r}); re-run train to rebuild the checkpoint"
            )
        kind, config, entries = (_field(header, key, where) for key in ("kind", "config", "params"))
        if not isinstance(kind, str):
            raise CheckpointError(f"{where}: field 'kind' is not a JSON string")
        if not isinstance(config, dict):
            raise CheckpointError(f"{where}: field 'config' is not a JSON object")
        if not isinstance(entries, list):
            raise CheckpointError(f"{where}: field 'params' is not a JSON list")
        names, specs = [], []
        for i, entry in enumerate(entries):
            if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
                raise CheckpointError(f"{where}: params[{i}] is not a [name, shape] pair")
            name, shape = entry
            at = f"{where}: parameter {name!r}"
            if names and name <= names[-1]:
                raise CheckpointError(
                    f"{at} appears twice" if name == names[-1]
                    else f"{at} follows {names[-1]!r}; names must be in sorted order"
                )
            if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
                raise CheckpointError(f"{at}: field 'shape' is not a list of non-negative integers")
            names.append(name)
            specs.append((tuple(shape), f"{at}: field 'data'"))
        _, arrays, fault = reader.read_arrays(specs)
        if fault:
            raise fault
        reader.finish("parameter")
    return Checkpoint(kind=kind, config=config, params=dict(zip(names, arrays)))
