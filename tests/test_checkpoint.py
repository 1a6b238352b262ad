import json

import numpy as np
import pytest

from affectseq.checkpoint import CheckpointError, load_checkpoint, save_checkpoint


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


def test_same_params_write_identical_bytes(tmp_path):
    rng = np.random.default_rng(1)
    params = {"w": rng.normal(size=(5, 5))}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(a, params, {"seed": 7}, "head")
    save_checkpoint(b, params, {"seed": 7}, "head")
    assert a.read_bytes() == b.read_bytes()


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
])
def test_malformed_document_names_field(tmp_path, drop):
    path = tmp_path / "ck.json"
    save_checkpoint(path, {"w": np.zeros((2, 2))}, {}, "head")
    blob = json.loads(path.read_text())
    if len(drop) == 4:  # replace the parameter field's value
        blob["params"]["w"][drop[2]] = drop[3]
        expected = f"parameter 'w': field '{drop[2]}'"
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
