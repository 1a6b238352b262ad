"""The one stored-array layout of checkpoints and datasets.

A file is one sorted-keys JSON header line, then each array's
little-endian IEEE-754 float64 bytes in C order, and nothing else. The
caller works out every array's shape from the header (or a manifest)
and reads the arrays in the order they were written. Reading reproduces
every value bit-exactly, signed zeros and subnormals included.

``Reader`` is the one validation path for every caller. It checks that
the header line is UTF-8 JSON naming an object, that each array's bytes
are in the file before its buffer is allocated, that every value is
finite, and that no bytes follow the last array. It reads every array
of a file in one pass: one buffer, one ``readinto``, one finite check.
"""

from __future__ import annotations

import bisect
import itertools
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
    and `read_arrays` takes every array after it. Every failure raises
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

    def read_arrays(self, specs):
        """Every array left in the file, for `specs`, the `(shape, where)` of
        each in file order (a shape is a tuple of non-negative integers,
        `where` the caller's name for the array).

        One float64 buffer holds the arrays the file holds in full, and no
        more; it is filled by one readinto and checked for non-finite
        values in one pass. Returns `(flat, arrays, fault)`: that buffer,
        the C-contiguous float64 views of it for the arrays before the
        first fault, in file order, and the fault, an exception of the
        caller's class for the next array, or None. A fault is the array
        the file ends in, the first array holding a non-finite value, or
        a shape numpy cannot hold, whichever comes first in the file; its
        message starts with that array's `where`. The caller raises it
        once it has checked the arrays before it.
        """
        itemsize = _DTYPE.itemsize
        # ends[k] is where array k starts and ends[k + 1] where it ends, in values
        ends = [0, *itertools.accumulate(math.prod(shape) for shape, _ in specs)]
        avail = self._left
        whole = bisect.bisect_right(ends, avail // itemsize) - 1  # arrays held in full
        flat = np.empty(ends[whole], dtype=_DTYPE)
        got = self._fh.readinto(flat.view(np.uint8))
        self._left -= got
        if got < flat.nbytes:  # the file shrank while read
            avail = got
            whole = bisect.bisect_right(ends, avail // itemsize) - 1
        stop, fault = whole, None
        if whole < len(specs):
            shape, where = specs[whole]
            fault = self._error(
                f"{where} holds {avail - itemsize * ends[whole]} bytes, which does not "
                f"match shape {shape} ({itemsize * (ends[whole + 1] - ends[whole])} bytes)"
            )
        finite = np.isfinite(flat[:ends[whole]])
        if not finite.all():
            stop = bisect.bisect_right(ends, int(np.argmin(finite))) - 1
            fault = self._error(f"{specs[stop][1]} holds a non-finite value")
        arrays = []
        for k, (shape, where) in enumerate(specs[:stop]):
            try:
                arrays.append(flat[ends[k]:ends[k + 1]].reshape(shape))
            except ValueError:  # a zero-size shape with a dimension numpy cannot index
                fault = self._error(f"{where} has shape {shape}, which numpy cannot hold")
                break
        return flat, arrays, fault

    def finish(self, last):
        """Raise the caller's error if any bytes follow the last array read,
        `last` naming what that array belongs to."""
        if self._left:
            raise self._error(f"{self._where}: {self._left} bytes follow the last {last}")
