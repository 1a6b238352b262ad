"""The one binary array format of checkpoints and datasets.

An array is stored as its little-endian IEEE-754 float64 bytes in C
order; its shape travels beside it, in the checkpoint header or the
dataset manifest. A checkpoint holds these bytes raw after its header
line, and a dataset record holds them as one ASCII base64 string.
Decoding reproduces every value bit-exactly (signed zeros and
subnormals included), and encoding costs a byte copy rather than a
float-to-text conversion per value.

Both readers share one validation path, ``from_bytes``: the byte count
must match the shape, every value must be finite, and the result is an
owned C-order copy.
"""

from __future__ import annotations

import base64
import math

import numpy as np

_DTYPE = np.dtype("<f8")


def to_bytes(arr):
    """The stored bytes of `arr` as a flat byte view; no copy is made when
    `arr` is already a C-contiguous little-endian float64 array."""
    return memoryview(np.ascontiguousarray(arr, dtype=_DTYPE).ravel()).cast("B")


def encode(arr):
    return base64.b64encode(np.asarray(arr, dtype=_DTYPE).tobytes()).decode("ascii")


def from_bytes(buf, shape, error, where):
    """The array stored in `buf` (a bytes-like object of single bytes), as
    an owned, finite C-order float64 array.

    `shape` is a tuple of non-negative integers. Each failure raises
    `error` with a message starting with `where`, the caller's name for
    the field: a byte count other than 8 * prod(shape), or a non-finite
    value.
    """
    expected = _DTYPE.itemsize * math.prod(shape)
    if len(buf) != expected:
        raise error(
            f"{where} holds {len(buf)} bytes, which does not match "
            f"shape {shape} ({expected} bytes)"
        )
    # astype copies, so the array owns its memory instead of viewing buf
    data = np.frombuffer(buf, dtype=_DTYPE).reshape(shape).astype(np.float64)
    if not np.isfinite(data).all():
        raise error(f"{where} holds a non-finite value")
    return data


def decode(raw, shape, error, where):
    """The array `encode` wrote, checked as `from_bytes` checks it; also
    rejects a `raw` that is not a string of strict base64."""
    if not isinstance(raw, str):
        raise error(f"{where} is not a base64 string")
    try:
        buf = base64.b64decode(raw, validate=True)
    except ValueError:  # binascii.Error (alphabet, padding) or non-ASCII text
        raise error(f"{where} is not valid base64") from None
    return from_bytes(buf, shape, error, where)
