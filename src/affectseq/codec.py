"""The one stored-array layout of checkpoints and datasets.

A file is one sorted-keys JSON header line, then each array's
little-endian IEEE-754 float64 bytes in C order, and nothing else. The
caller works out every array's shape from the header (or a manifest)
and reads the arrays in the order they were written. Reading reproduces
every value bit-exactly, signed zeros and subnormals included.

``Reader`` is the one validation path for every caller. It checks that
the header line is UTF-8 JSON naming an object, that each array's bytes
are in the file before its buffer is allocated, that every value is
finite, and that no bytes follow the last array. It reads each array
straight into its own buffer.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from . import atomic

_DTYPE = np.dtype("<f8")


def to_bytes(arr):
    """The stored bytes of `arr` as a flat byte view; no copy is made when
    `arr` is already a C-contiguous little-endian float64 array."""
    return memoryview(np.ascontiguousarray(arr, dtype=_DTYPE).ravel()).cast("B")


def write(path, header, arrays):
    """Write `header` as the header line, then each array of the iterable
    `arrays` in turn, straight from its buffer into the file."""
    line = (json.dumps(header, sort_keys=True) + "\n").encode("ascii")
    atomic.write_bytes(path, [line, *(to_bytes(arr) for arr in arrays)])


class Reader:
    """A stored-array file open for reading: `header` is its header object,
    and `read` takes the arrays after it in order. Every failure raises
    `error`, the caller's exception class; a fault of the whole file names
    it by `where`."""

    def __init__(self, path, error, where):
        self._error, self._where = error, where
        self._fh = open(path, "rb")
        try:
            self._left = os.fstat(self._fh.fileno()).st_size
            line = self._fh.readline()
            self._left -= len(line)
            if not line:
                raise error(f"{where} is empty")
            try:
                self.header = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError:
                raise error(f"{where} is not UTF-8 text") from None
            except json.JSONDecodeError as e:
                raise error(f"{where} is not valid JSON: {e.msg}") from None
            if not isinstance(self.header, dict):
                raise error(f"{where} is not a JSON object")
            if not line.endswith(b"\n"):
                raise error(f"{where} has no newline ending its header line")
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def read(self, shape, where):
        """The next array, of `shape` (a tuple of non-negative integers), as
        an owned, finite C-order float64 array; each failure's message
        starts with `where`, the caller's name for the field."""
        expected = _DTYPE.itemsize * math.prod(shape)
        got = min(expected, self._left)
        if got == expected:
            try:
                data = np.empty(shape, dtype=_DTYPE)
            except ValueError:  # a zero-size shape with a dimension numpy cannot index
                raise self._error(f"{where} has shape {shape}, which numpy cannot hold") from None
            # fewer bytes than expected only if the file shrank while read
            got = self._fh.readinto(data.reshape(-1).view(np.uint8))
            self._left -= got
        if got != expected:
            raise self._error(
                f"{where} holds {got} bytes, which does not match "
                f"shape {shape} ({expected} bytes)"
            )
        if not np.isfinite(data).all():
            raise self._error(f"{where} holds a non-finite value")
        return data

    def finish(self, last):
        """Raise the caller's error if any bytes follow the last array read,
        `last` naming what that array belongs to."""
        if self._left:
            raise self._error(f"{self._where}: {self._left} bytes follow the last {last}")
