import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectseq.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from helpers import BAD_VALUES, always_rejected, b64, run_quietly, small_run_inputs


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "w": rng.normal(size=(4, 3)),
        "b": rng.normal(size=(3,)),
        "scalarish": rng.normal(size=(1,)),
    }
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, {"lr": 1e-3, "t": 8}, "aggregator")
    ck = load_checkpoint(path)
    assert ck.kind == "aggregator"
    assert ck.config == {"lr": 1e-3, "t": 8}
    for name in params:
        np.testing.assert_array_equal(ck.params[name], params[name])
        assert ck.params[name].dtype == np.float64


def test_round_trip_preserves_every_bit(tmp_path):
    tiny, big = 5e-324, np.finfo(float).max
    params = {
        "special": np.array([[-0.0, tiny, -tiny], [big, -big, 1.0 / 3.0]], order="F"),
        "strided": (np.pi * np.arange(24.0)).reshape(4, 6)[::2, 1::2],
        "integers": np.arange(-3, 3).reshape(2, 3),
    }
    assert not params["special"].flags.c_contiguous
    assert not params["strided"].flags.c_contiguous
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, {}, "head")
    ck = load_checkpoint(path)
    for name, arr in params.items():
        got, want = ck.params[name], np.ascontiguousarray(arr, dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == arr.shape
        assert got.flags.c_contiguous and got.flags.owndata and got.flags.writeable
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_file_size_is_base64_of_float64(tmp_path):
    # float text takes about twice these bytes for random values; the slack
    # covers the JSON keys, the shapes and the config
    rng = np.random.default_rng(2)
    params = {"w": rng.normal(size=(64, 48)), "b": rng.normal(size=(48,))}
    n = sum(arr.size for arr in params.values())
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, {"seed": 0, "t": 480}, "aggregator")
    assert path.stat().st_size <= math.ceil(8 * n / 3) * 4 + 4096


def test_same_params_write_identical_bytes(tmp_path):
    rng = np.random.default_rng(1)
    params = {"w": rng.normal(size=(5, 5))}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(a, params, {"seed": 7}, "head")
    save_checkpoint(b, params, {"seed": 7}, "head")
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("config", [
    {},
    {"dataset": "/data/vid\u00e9os/\u65e5\u672c/\"quoted\" \\back\\slash\\", "tab": "a\tb\n\x00\x1f\x7f"},
    {"nested": [[1, 2.5], [None, True, "x"]], "obj": {"b": None, "a": [1e-300, -0.0]},
     "lr": 1e-3, "big": 1.7976931348623157e308, "neg": -3},
    {"zeta": 1, "alpha": {"z": 2, "a": 1}, "\u00fcber": "\u2603"},
])
def test_bytes_equal_json_dumps_of_the_document(tmp_path, config):
    rng = np.random.default_rng(3)
    # names out of sorted order, including ones JSON escapes
    params = {
        "out.w": rng.normal(size=(3, 2)),
        "gru0.W": rng.normal(size=(2, 3, 4)),
        "a\"b\\c": rng.normal(size=()),
        "\u00e9t\u00e9": rng.normal(size=(0,)),
        "B": rng.normal(size=(5,)),
    }
    blob = {
        "schema_version": "2",
        "kind": "aggregator",
        "config": config,
        "params": {name: {"shape": list(arr.shape), "data": b64(arr)}
                   for name, arr in params.items()},
    }
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, config, "aggregator")
    assert path.read_bytes() == (json.dumps(blob, sort_keys=True) + "\n").encode("ascii")


def test_missing_file_raises(tmp_path):
    with pytest.raises(CheckpointError, match="does not exist"):
        load_checkpoint(tmp_path / "nope.json")


def test_corrupt_json_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CheckpointError, match="not valid JSON"):
        load_checkpoint(path)


def test_shape_mismatch_raises(tmp_path):
    path = tmp_path / "bad.json"
    save_checkpoint(path, {"w": np.zeros((2, 2))}, {}, "head")
    blob = path.read_text().replace('"shape": [2, 2]', '"shape": [2, 3]')
    path.write_text(blob)
    with pytest.raises(CheckpointError, match="does not match shape"):
        load_checkpoint(path)


@pytest.mark.parametrize("drop", [
    (), ("kind",), ("params",), ("params", "w", "shape"), ("params", "w", "data"),
    # parameter field plus a value: the field is present but malformed
    ("params", "w", "data", ["a", "b", "c", "d"]),
    ("params", "w", "shape", "2x2"),
    ("params", "w", "data", [0.0, float("nan"), 0.0, 0.0]),
    # a top-level field plus a value
    ("kind", 3),
    ("config", [1, 2]),
    # base64 data that is not, or does not decode to, four finite float64
    ("params", "w", "data", "not base64!"),
    ("params", "w", "data", "AAAA\u00e9"),
    ("params", "w", "data", b64([0.0, 1.0, 2.0])),
    ("params", "w", "data", b64([0.0, float("nan"), 0.0, 0.0])),
    ("params", "w", "data", b64([0.0, 0.0, float("-inf"), 0.0])),
])
def test_malformed_document_names_field(tmp_path, drop):
    path = tmp_path / "ck.json"
    save_checkpoint(path, {"w": np.zeros((2, 2))}, {}, "head")
    blob = json.loads(path.read_text())
    if len(drop) == 4:  # replace the parameter field's value
        blob["params"]["w"][drop[2]] = drop[3]
        expected = f"parameter 'w': field '{drop[2]}'"
    elif len(drop) == 2:  # replace the top-level field's value
        blob[drop[0]] = drop[1]
        expected = f": field '{drop[0]}'"
    elif drop:  # delete the field at this key path
        owner = blob
        for key in drop[:-1]:
            owner = owner[key]
        del owner[drop[-1]]
        expected = f"lacks field '{drop[-1]}'"
    else:  # a JSON value that is not an object
        blob, expected = [blob], "not a JSON object"
    path.write_text(json.dumps(blob))
    with pytest.raises(CheckpointError, match=expected):
        load_checkpoint(path)


# Checkpoint fuzz: one field of an aggregator checkpoint (its kind, a
# stored config value, a parameter's shape or data) mutated, then read by
# eval and by train as its initial weights. The run succeeds or exits 2,
# 3 or 4 with one stderr line; a mutated kind or shape, and a stored
# config value no field accepts, are always config errors.

@pytest.fixture(scope="module")
def checkpoint_source(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkpoint_fuzz")
    config, base = small_run_inputs(root)
    return root, config, json.loads(Path(base["checkpoint"]).read_text())


def _other_shapes(shape):
    """Shapes other than `shape`, some holding the same number of values."""
    shapes = [shape[::-1], shape + [1], shape[:-1], [2 * shape[0]] + shape[1:],
              [-1], [1.5], ["2"], [True], [[2]]]
    return [s for s in shapes if s != shape]


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(command=st.sampled_from(["eval", "train"]),
       mutation=st.sampled_from(["kind", "config", "shape", "truncate", "replace", "retype"]),
       draw=st.data())
def test_mutated_checkpoint_runs_or_exits_cleanly(checkpoint_source, command, mutation, draw):
    root, config, source = checkpoint_source
    blob = json.loads(json.dumps(source))
    entry = blob["params"][draw.draw(st.sampled_from(sorted(blob["params"])))]
    must_reject = True
    if mutation == "kind":
        blob["kind"] = draw.draw(st.sampled_from(BAD_VALUES + ("head", "joint")))
    elif mutation == "config":
        key = draw.draw(st.sampled_from(sorted(blob["config"])))
        blob["config"][key] = draw.draw(st.sampled_from(BAD_VALUES))
        must_reject = command == "eval" and always_rejected(blob["config"][key])
    elif mutation == "shape":
        shapes = _other_shapes(entry["shape"]) + list(BAD_VALUES)
        entry["shape"] = draw.draw(st.sampled_from(shapes))
    elif mutation == "retype":
        entry["data"] = draw.draw(st.sampled_from(BAD_VALUES))
    else:
        text = entry["data"]
        at = draw.draw(st.integers(0, len(text) - 1))
        if mutation == "truncate":
            entry["data"] = text[:at]
        else:
            entry["data"] = text[:at] + draw.draw(st.characters()) + text[at + 1:]
            must_reject = False
    path = root / "mutated.json"
    path.write_text(json.dumps(blob))
    code, err = run_quietly([command, "--config", str(config), "--checkpoint", str(path),
                             "--out", str(root / "out")])
    assert code in (0, 2, 3, 4), (mutation, err)
    if code:
        assert err.count("\n") == 1, (mutation, err)
    if must_reject:
        assert code == 2, (mutation, err)
