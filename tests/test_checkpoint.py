import base64
import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectseq import data
from affectseq.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from helpers import (BAD_VALUES, always_rejected, read_checkpoint, run_quietly,
                     small_run_inputs, write_checkpoint)


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
        assert got.flags.c_contiguous and got.flags.writeable
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    # the parameters are views of one buffer, and no two of them overlap
    for a, b in itertools.combinations(ck.params.values(), 2):
        assert not np.shares_memory(a, b)


def test_file_size_is_header_line_plus_float64(tmp_path):
    rng = np.random.default_rng(2)
    params = {"w": rng.normal(size=(64, 48)), "b": rng.normal(size=(48,))}
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, {"seed": 0, "t": 480}, "aggregator")
    header, _ = read_checkpoint(path)
    line = json.dumps(header, sort_keys=True) + "\n"
    assert path.stat().st_size == len(line) + 8 * sum(math.prod(arr.shape) for arr in params.values())


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
    header = {
        "schema_version": "3",
        "kind": "aggregator",
        "config": config,
        "params": [[name, list(params[name].shape)] for name in sorted(params)],
    }
    payload = b"".join(params[name].astype("<f8").tobytes() for name in sorted(params))
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, config, "aggregator")
    line = (json.dumps(header, sort_keys=True) + "\n").encode("ascii")
    assert path.read_bytes() == line + payload


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
    header, arrays = read_checkpoint(path)
    header["params"][0][1] = [2, 3]
    write_checkpoint(path, header, arrays)
    with pytest.raises(CheckpointError, match="does not match shape"):
        load_checkpoint(path)


_DELETE = object()


# (header field or "data", its new value or _DELETE, text the error holds);
# "data" replaces the payload of parameter 'w', the only one
@pytest.mark.parametrize("drop", [
    (None, None, "not a JSON object"),  # the header is a list, not an object
    ("kind", _DELETE, "lacks field 'kind'"),
    ("params", _DELETE, "lacks field 'params'"),
    ("kind", 3, ": field 'kind'"),
    ("config", [1, 2], ": field 'config'"),
    ("params", {"w": [2, 2]}, ": field 'params'"),
    ("params", [["w"]], "params[0] is not a [name, shape] pair"),
    ("params", [[1, [2, 2]]], "params[0] is not a [name, shape] pair"),
    ("params", [["w", "2x2"]], "parameter 'w': field 'shape'"),
    ("params", [["w", [2, -2]]], "parameter 'w': field 'shape'"),
    # names must be unique and sorted, so a re-save repeats the bytes
    ("params", [["w", [2, 2]], ["w", [0]]], "parameter 'w' appears twice"),
    ("params", [["w", [0]], ["v", [2, 2]]], "parameter 'v' follows 'w'"),
    # a payload that does not hold four finite float64
    ("data", [0.0, 1.0, 2.0], "parameter 'w': field 'data' holds 24 bytes"),
    ("data", [0.0, float("nan"), 0.0, 0.0], "parameter 'w': field 'data' holds a non-finite"),
    ("data", [0.0, 0.0, float("-inf"), 0.0], "parameter 'w': field 'data' holds a non-finite"),
])
def test_malformed_document_names_field(tmp_path, drop):
    field, value, expected = drop
    path = tmp_path / "ck.json"
    save_checkpoint(path, {"w": np.zeros((2, 2))}, {}, "head")
    header, arrays = read_checkpoint(path)
    if field is None:
        header = [header]
    elif field == "data":
        arrays["w"] = value
    elif value is _DELETE:
        del header[field]
    else:
        header[field] = value
    write_checkpoint(path, header, arrays)
    with pytest.raises(CheckpointError, match=re.escape(expected)):
        load_checkpoint(path)


def test_load_peaks_below_two_and_a_half_payloads(tmp_path):
    # each array is read straight into its own buffer, so a load holds the
    # owned arrays and little else: holding the file's bytes as well
    # peaked at about 2.1 payloads
    rng = np.random.default_rng(4)
    params = {"ff1.w": rng.normal(size=(512, 1024)), "ff1.b": rng.normal(size=(1024,)),
              "out.w": rng.normal(size=(1024, 7))}
    save_checkpoint(tmp_path / "ck.json", params, {"seed": 0}, "aggregator")
    samples, manifest = data.gen_video_dataset(4, 32, data.VideoRecipe(l_max=480), t=480)
    data.save_dataset(tmp_path / "videos.jsonl", samples, manifest)
    loads = (
        (lambda: list(load_checkpoint(tmp_path / "ck.json").params.values()),
         [params[name] for name in sorted(params)]),
        (lambda: [a for s in data.load_dataset(tmp_path / "videos.jsonl")[0]
                  for a in (s.frames, s.label)],
         [a for s in samples for a in (s.frames, s.label)]),
    )
    for load, want in loads:
        payload = sum(arr.nbytes for arr in want)
        tracemalloc.start()
        try:
            got = load()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * payload, peak / payload
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


# Faults of the file as a whole, through eval: each exits 2 with one
# stderr line naming the checkpoint.

def _schema2_document(header, arrays):
    """The same parameters as one JSON document with base64 data."""
    blob = {"schema_version": "2", "kind": header["kind"], "config": header["config"],
            "params": {name: {"shape": list(arr.shape),
                              "data": base64.b64encode(arr.tobytes()).decode("ascii")}
                       for name, arr in arrays.items()}}
    return (json.dumps(blob, sort_keys=True) + "\n").encode("ascii")


@pytest.mark.parametrize("fault, expected", [
    ("empty", "is empty"),
    ("no newline", "has no newline"),
    ("not JSON", "is not valid JSON"),
    ("not UTF-8", "is not UTF-8 text"),
    ("schema 2", "unsupported checkpoint schema '2'"),
    ("short payload", "parameter 'out.w': field 'data' holds"),
    ("trailing bytes", ": 5 bytes follow the last parameter"),
])
def test_file_fault_exits_2_naming_checkpoint(checkpoint_source, fault, expected):
    root, config, (header, arrays) = checkpoint_source
    good = Path(root / "agg" / "checkpoint.json").read_bytes()
    line = good[:good.index(b"\n") + 1]
    raw = {
        "empty": b"",
        "no newline": line[:-1],
        "not JSON": b"{not json\n" + good[len(line):],
        "not UTF-8": line.replace(b'"kind"', b'"k\xffnd"') + good[len(line):],
        "schema 2": _schema2_document(header, arrays),
        "short payload": good[:-3],
        "trailing bytes": good + b"\0" * 5,
    }[fault]
    path = root / "faulty.json"
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match=re.escape(expected)) as caught:
        load_checkpoint(path)
    assert str(path) in str(caught.value)
    code, err = run_quietly(["eval", "--config", str(config), "--checkpoint", str(path),
                             "--out", str(root / "out")])
    assert code == 2 and err.count("\n") == 1, err
    assert str(path) in err and expected in err, err
    if fault == "schema 2":
        assert "re-run train" in err


@pytest.mark.parametrize("shape, expected", [
    ([2**40], "field 'data' holds"),
    ([0, 2**62], "field 'data' has shape (0, 4611686018427387904)"),
], ids=["2**40", "0x2**62"])
def test_oversized_shape_exits_2_without_allocating(checkpoint_source, shape, expected):
    # the bytes left in the file are counted before any buffer is made
    root, config, (header, arrays) = checkpoint_source
    header = json.loads(json.dumps(header))
    header["params"][0][1] = shape
    path = root / "oversized.json"
    write_checkpoint(path, header, arrays)
    code, err = run_quietly(["eval", "--config", str(config), "--checkpoint", str(path),
                             "--out", str(root / "out")])
    name = header["params"][0][0]
    assert code == 2 and err.count("\n") == 1, err
    assert f"parameter {name!r}: {expected}" in err, err


def test_header_faults_come_before_payload_faults(checkpoint_source, tmp_path):
    # the whole header line is checked before any payload is read, then
    # the payload's faults come in file order
    _, _, (source_header, source_arrays) = checkpoint_source
    names = [name for name, _ in source_header["params"]]
    header = json.loads(json.dumps(source_header))
    header["params"][2][1] = "x"
    arrays = {**source_arrays, names[0]: source_arrays[names[0]].tobytes()[:8]}
    path = tmp_path / "faulty.json"
    write_checkpoint(path, header, arrays)
    with pytest.raises(CheckpointError) as caught:
        load_checkpoint(path)
    assert str(caught.value) == (f"checkpoint {path}: parameter {names[2]!r}: field 'shape' is "
                                 "not a list of non-negative integers")
    poisoned = {name: arr.copy() for name, arr in source_arrays.items()}
    poisoned[names[1]].flat[0] = np.nan
    poisoned[names[2]] = poisoned[names[2]].tobytes()[:8]
    write_checkpoint(path, source_header, {name: poisoned[name] for name in names[:3]})
    with pytest.raises(CheckpointError) as caught:
        load_checkpoint(path)
    assert str(caught.value) == (f"checkpoint {path}: parameter {names[1]!r}: field 'data' "
                                 "holds a non-finite value")


# Checkpoint fuzz: one part of an aggregator checkpoint (its kind, a
# stored config value, a parameter's shape, the payload cut short or
# extended, one payload value made non-finite, or any one byte of the
# file) mutated, then read by eval and by train as its initial weights.
# The run succeeds or exits 2, 3 or 4 with one stderr line; every
# mutation but a changed byte and a stored config value some field
# accepts is a config error.

@pytest.fixture(scope="module")
def checkpoint_source(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkpoint_fuzz")
    config, base = small_run_inputs(root)
    return root, config, read_checkpoint(base["checkpoint"])


def _other_shapes(shape):
    """Shapes other than `shape`, some holding the same number of values."""
    shapes = [shape[::-1], shape + [1], shape[:-1], [2 * shape[0]] + shape[1:],
              [-1], [1.5], ["2"], [True], [[2]]]
    return [s for s in shapes if s != shape]


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(command=st.sampled_from(["eval", "train"]),
       mutation=st.sampled_from(["kind", "config", "shape", "truncate", "extend",
                                 "nonfinite", "byte"]),
       draw=st.data())
def test_mutated_checkpoint_runs_or_exits_cleanly(checkpoint_source, command, mutation, draw):
    root, config, (source_header, source_arrays) = checkpoint_source
    header = json.loads(json.dumps(source_header))
    arrays = {name: arr.copy() for name, arr in source_arrays.items()}
    index = draw.draw(st.integers(0, len(header["params"]) - 1))
    name, shape = header["params"][index]
    data = arrays[name].tobytes()
    must_reject = True
    if mutation == "kind":
        header["kind"] = draw.draw(st.sampled_from(BAD_VALUES + ("head", "joint")))
    elif mutation == "config":
        key = draw.draw(st.sampled_from(sorted(header["config"])))
        header["config"][key] = draw.draw(st.sampled_from(BAD_VALUES))
        must_reject = command == "eval" and always_rejected(header["config"][key])
    elif mutation == "shape":
        header["params"][index][1] = draw.draw(st.sampled_from(_other_shapes(shape)
                                                               + list(BAD_VALUES)))
    elif mutation == "truncate":
        arrays[name] = data[:draw.draw(st.integers(0, len(data) - 1))]
    elif mutation == "extend":
        arrays[name] = data + draw.draw(st.binary(min_size=1, max_size=16))
    elif mutation == "nonfinite":
        at = draw.draw(st.integers(0, arrays[name].size - 1))
        arrays[name].flat[at] = draw.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    path = root / "mutated.json"
    write_checkpoint(path, header, arrays)
    if mutation == "byte":
        raw = bytearray(path.read_bytes())
        raw[draw.draw(st.integers(0, len(raw) - 1))] = draw.draw(st.integers(0, 255))
        path.write_bytes(bytes(raw))
        must_reject = False
    code, err = run_quietly([command, "--config", str(config), "--checkpoint", str(path),
                             "--out", str(root / "out")])
    assert code in (0, 2, 3, 4), (mutation, err)
    if code:
        assert err.count("\n") == 1, (mutation, err)
    if must_reject:
        assert code == 2, (mutation, err)
