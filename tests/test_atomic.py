import errno
from pathlib import Path

import numpy as np
import pytest

from affectseq import atomic, data
from affectseq.checkpoint import save_checkpoint


class _DiskFullHalfway:
    """Stands in for ``open``: each write stores the first half of what it
    is given (text, bytes or a byte view), then fails."""

    opened = []

    def __init__(self, path, mode):
        self.opened.append(Path(path))
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def _save_checkpoint(path, seed):
    save_checkpoint(path, {"w": np.random.default_rng(seed).normal(size=(3, 4))}, {}, "head")


def _save_dataset(path, seed):
    recipe = data.VideoRecipe(l_min=2, l_max=4)
    samples, manifest = data.gen_video_dataset(seed, 3, recipe, t=4)
    data.save_dataset(path, samples, manifest)


@pytest.mark.parametrize("save", [_save_checkpoint, _save_dataset])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, save):
    path = tmp_path / "artifact.json"
    save(path, seed=0)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(atomic, "open", _DiskFullHalfway, raising=False)
    _DiskFullHalfway.opened.clear()
    with pytest.raises(OSError, match="No space left"):
        save(path, seed=1)
    # the new text went to a file beside the target, not to the target
    assert [p.parent for p in _DiskFullHalfway.opened] == [tmp_path]
    assert path not in _DiskFullHalfway.opened
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
