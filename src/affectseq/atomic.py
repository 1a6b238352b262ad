"""Atomic file replacement for every artifact the CLI writes.

A reader of the target path sees either the previous file or the
complete new one, never a prefix: the content goes to a temporary file
in the target's directory (so the rename stays on one filesystem) and
``os.replace`` swaps it in. If writing fails, the temporary file is
removed and the previous file is left as it was. No ``fsync`` is done,
so this guards against a failed or killed process, not against power
loss.
"""

from __future__ import annotations

import os
from pathlib import Path


def write_text(path, text):
    _write(path, "w", (text,))


def write_bytes(path, chunks):
    """Write each bytes-like object of `chunks` in turn, so a caller holding
    its content in pieces never joins them into one object first."""
    _write(path, "wb", chunks)


def _write(path, mode, chunks):
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
