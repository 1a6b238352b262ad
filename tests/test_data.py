import base64
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectseq import cli, data
from affectseq.affect_space import AU_SLICE, EXPR_SLICE, VA_SLICE, relatedness_matrix
from helpers import read_dataset, trajectory_oracle, video_fault_oracle, write_dataset


def test_distribute_examples():
    assert data.distribute(1000, [0.63, 0.19, 0.18]) == [630, 190, 180]
    assert sum(data.distribute(7, [0.4, 0.3, 0.3])) == 7


# ---------------------------------------------------------------------------
# frame datasets


def test_frame_dataset_deterministic():
    recipe = data.FrameRecipe(d_in=16)
    a, _ = data.gen_frame_dataset(5, 20, recipe)
    b, _ = data.gen_frame_dataset(5, 20, recipe)
    for s, t in zip(a, b):
        np.testing.assert_array_equal(s.features, t.features)
        assert s.expr == t.expr


def test_frame_dataset_label_mix_counts():
    mix = (("va", 0.4), ("expr", 0.3), ("au", 0.3))
    samples, _ = data.gen_frame_dataset(6, 100, data.FrameRecipe(d_in=8, label_mix=mix))
    n_va = sum(s.va is not None for s in samples)
    n_expr = sum(s.expr is not None for s in samples)
    n_au = sum(s.au is not None for s in samples)
    assert abs(n_va - 40) <= 1 and abs(n_expr - 30) <= 1 and abs(n_au - 30) <= 1
    assert all((s.va is not None) + (s.expr is not None) + (s.au is not None) == 1 for s in samples)


def test_zero_noise_au_labels_follow_relatedness():
    samples, _ = data.gen_frame_dataset(7, 50, data.FrameRecipe(d_in=8, noise=0.0))
    m = relatedness_matrix()
    for s in samples:
        np.testing.assert_array_equal(s.au, m[s.expr])


def test_zero_noise_has_no_expression_au_conflicts():
    m = relatedness_matrix()
    samples, _ = data.gen_frame_dataset(8, 50, data.FrameRecipe(d_in=8, noise=0.0))
    for s in samples:
        active = np.flatnonzero(s.au)
        related = set(np.flatnonzero(m[s.expr]))
        assert set(active) <= related and set(active) == related


# ---------------------------------------------------------------------------
# video datasets


def test_video_dataset_deterministic_and_padded():
    recipe = data.VideoRecipe(l_min=2, l_max=6)
    a, manifest = data.gen_video_dataset(9, 12, recipe, t=8)
    b, _ = data.gen_video_dataset(9, 12, recipe, t=8)
    assert manifest.d == 26 and manifest.t == 8
    for s, t_ in zip(a, b):
        np.testing.assert_array_equal(s.frames, t_.frames)
        assert s.length == t_.length
        np.testing.assert_array_equal(s.frames[s.length:], 0.0)
        assert np.all((s.label >= 0) & (s.label <= 1))


def test_video_labels_ignore_padded_rows():
    recipe = data.VideoRecipe(l_min=2, l_max=6)
    samples, _ = data.gen_video_dataset(10, 10, recipe, t=8)
    rng = np.random.default_rng(1)
    for s in samples:
        corrupted = s.frames.copy()
        corrupted[s.length:] = rng.normal(size=(8 - s.length, 26))
        np.testing.assert_array_equal(
            data.video_label(corrupted, s.length), data.video_label(s.frames, s.length)
        )


def test_video_label_reads_only_prefix():
    recipe = data.VideoRecipe(l_min=3, l_max=3)
    samples, _ = data.gen_video_dataset(11, 5, recipe, t=6)
    for s in samples:
        np.testing.assert_allclose(s.label, data.video_label(s.frames, s.length), atol=1e-15)


def test_noise_padding_fills_rows():
    recipe = data.VideoRecipe(l_min=2, l_max=4, padding="noise")
    samples, _ = data.gen_video_dataset(12, 10, recipe, t=8)
    assert any(np.any(s.frames[s.length:] != 0.0) for s in samples)
    for s in samples:
        # noise rows still look like affect rows (simplex block included)
        np.testing.assert_allclose(s.frames[:, EXPR_SLICE].sum(axis=1), 1.0, atol=1e-9)


def test_descriptor_videos_have_configured_width():
    recipe = data.VideoRecipe(l_min=2, l_max=4, feature_kind="descriptor", d_in=12)
    samples, manifest = data.gen_video_dataset(13, 4, recipe, t=6)
    assert manifest.d == 12
    assert samples[0].frames.shape == (6, 12)
    for s in samples:
        np.testing.assert_array_equal(s.frames[s.length:], 0.0)


TRAJECTORY_RECIPES = {
    "default": data.VideoRecipe(),
    "no-drive": data.VideoRecipe(drive=0.0),
    # every kick overflows to +-inf or is beyond 1, and clips to +-1
    "overflowing-drive": data.VideoRecipe(drive=1e308),
    "anti-persistent": data.VideoRecipe(smoothness=-0.99),
    # np.clip passes NaN through, and so must the clamp
    "nan-smoothness": data.VideoRecipe(smoothness=float("nan")),
}


@pytest.mark.parametrize("name", sorted(TRAJECTORY_RECIPES))
@pytest.mark.parametrize("length", [1, 32, 480])  # 32 and 480: the desk and paper t
def test_trajectory_matches_per_step_oracle(name, length):
    recipe, m = TRAJECTORY_RECIPES[name], relatedness_matrix()
    fast, slow = np.random.default_rng(41), np.random.default_rng(41)
    with np.errstate(over="ignore", invalid="ignore"):
        got = data._affect_trajectory(fast, length, recipe, m)
        want = trajectory_oracle(slow, length, recipe, m)
    np.testing.assert_array_equal(got, want)  # NaNs in the same places count as equal
    # the draws that follow the trajectory start where they did
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("padding", ["zeros", "noise"])
@pytest.mark.parametrize("feature_kind", ["affect", "descriptor"])
def test_video_dataset_bytes_match_per_step_oracle(tmp_path, monkeypatch, padding,
                                                   feature_kind):
    recipe = data.VideoRecipe(l_min=1, l_max=12, padding=padding, feature_kind=feature_kind,
                              d_in=8)

    def written(name):
        path = tmp_path / name / "videos.jsonl"
        path.parent.mkdir()
        data.save_dataset(path, *data.gen_video_dataset(17, 24, recipe, t=12))
        return path.read_bytes(), data.manifest_path(path).read_bytes()

    fast = written("fast")
    monkeypatch.setattr(data, "_affect_trajectory", trajectory_oracle)
    assert written("oracle") == fast


# ---------------------------------------------------------------------------
# storage round trips


def test_video_round_trip_exact(tmp_path):
    recipe = data.VideoRecipe(l_min=2, l_max=6)
    samples, manifest = data.gen_video_dataset(14, 8, recipe, t=8)
    path = tmp_path / "videos.jsonl"
    data.save_dataset(path, samples, manifest)
    loaded, manifest2 = data.load_dataset(path)
    assert manifest2.kind == "videos" and manifest2.n == 8
    for s, t_ in zip(samples, loaded):
        assert s.id == t_.id and s.length == t_.length
        np.testing.assert_array_equal(s.frames, t_.frames)
        np.testing.assert_array_equal(s.label, t_.label)


def test_frame_round_trip_exact(tmp_path):
    mix = (("va", 0.3), ("expr", 0.3), ("au", 0.2), ("all", 0.2))
    samples, manifest = data.gen_frame_dataset(15, 30, data.FrameRecipe(d_in=8, label_mix=mix))
    path = tmp_path / "frames.jsonl"
    data.save_dataset(path, samples, manifest)
    loaded, _ = data.load_dataset(path)
    for s, t_ in zip(samples, loaded):
        np.testing.assert_array_equal(s.features, t_.features)
        assert (s.va is None) == (t_.va is None)
        if s.va is not None:
            np.testing.assert_array_equal(s.va, t_.va)
        assert s.expr == t_.expr
        if s.au is not None:
            np.testing.assert_array_equal(s.au, t_.au)


def test_same_seed_writes_identical_bytes(tmp_path):
    recipe = data.VideoRecipe(l_min=2, l_max=6)
    paths = []
    for tag in ("a", "b"):
        samples, manifest = data.gen_video_dataset(16, 6, recipe, t=8)
        p = tmp_path / f"{tag}.jsonl"
        data.save_dataset(p, samples, manifest)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert data.manifest_path(paths[0]).read_bytes() == data.manifest_path(paths[1]).read_bytes()


def test_malformed_line_reports_line_number(tmp_path):
    # a file cut short inside record 2 names record 2
    recipe = data.VideoRecipe(l_min=2, l_max=4)
    samples, manifest = data.gen_video_dataset(17, 3, recipe, t=6)
    path = tmp_path / "bad.jsonl"
    data.save_dataset(path, samples, manifest)
    header, records = read_dataset(path)
    write_dataset(path, header, [records[0], {"frames": records[1]["frames"].tobytes()[:-5]}])
    with pytest.raises(data.DatasetError, match="record 2: field 'frames' holds 1243 bytes"):
        data.load_dataset(path)


def test_broken_expression_simplex_rejected(tmp_path):
    recipe = data.VideoRecipe(l_min=2, l_max=4)
    samples, manifest = data.gen_video_dataset(18, 3, recipe, t=6)
    samples[1].frames[0, EXPR_SLICE] = 0.8 / 7  # sums to 0.8
    path = tmp_path / "bad.jsonl"
    data.save_dataset(path, samples, manifest)
    with pytest.raises(data.DatasetError, match="expr"):
        data.load_dataset(path)


def test_length_beyond_t_rejected(tmp_path):
    recipe = data.VideoRecipe(l_min=2, l_max=4)
    samples, manifest = data.gen_video_dataset(19, 2, recipe, t=6)
    path = tmp_path / "bad.jsonl"
    data.save_dataset(path, samples, manifest)
    header, records = read_dataset(path)
    header["records"][0][1] = 9
    write_dataset(path, header, records)
    with pytest.raises(data.DatasetError, match="length"):
        data.load_dataset(path)


def test_nonzero_padding_rejected_for_zero_mode(tmp_path):
    recipe = data.VideoRecipe(l_min=2, l_max=4)
    samples, manifest = data.gen_video_dataset(20, 2, recipe, t=6)
    samples[0].frames[5, 0] = 0.123
    path = tmp_path / "bad.jsonl"
    data.save_dataset(path, samples, manifest)
    with pytest.raises(data.DatasetError, match="padded"):
        data.load_dataset(path)


def test_unlabeled_frame_rejected(tmp_path):
    samples, manifest = data.gen_frame_dataset(21, 2, data.FrameRecipe(d_in=4))
    path = tmp_path / "frames.jsonl"
    data.save_dataset(path, samples, manifest)
    header, records = read_dataset(path)
    header["records"][0][1:] = [None, False, False]
    records[0] = {"features": records[0]["features"]}
    write_dataset(path, header, records)
    with pytest.raises(data.DatasetError, match="no labels"):
        data.load_dataset(path)


def test_bytes_after_last_record_rejected(tmp_path):
    path = tmp_path / "videos.jsonl"
    data.save_dataset(path, *data.gen_video_dataset(35, 2, data.VideoRecipe(l_min=2, l_max=4), 6))
    path.write_bytes(path.read_bytes() + b"\0" * 5)
    with pytest.raises(data.DatasetError) as info:
        data.load_dataset(path)
    assert str(info.value) == f"dataset {path}: 5 bytes follow the last record"


def _small_dataset(kind, seed):
    if kind == "frames":
        return data.gen_frame_dataset(seed, 2, data.FrameRecipe(d_in=4))
    recipe = data.VideoRecipe(l_min=2, l_max=4, feature_kind=kind, d_in=4)
    return data.gen_video_dataset(seed, 2, recipe, t=6)


def _saved_with_edit(tmp_path, dataset, edit):
    """Save (samples, manifest), apply `edit` to the header and the list of
    per-record arrays, write both back."""
    path = tmp_path / "bad.jsonl"
    data.save_dataset(path, *dataset)
    header, records = read_dataset(path)
    edit(header, records)
    write_dataset(path, header, records)
    return path


def _arrays_before(arrays, field):
    """The leading arrays of one record, up to but not including `field`."""
    return dict(itertools.takewhile(lambda item: item[0] != field, arrays.items()))


@pytest.mark.parametrize("kind,field", [
    ("affect", "frames"), ("descriptor", "frames"), ("frames", "features"),
])
def test_non_finite_values_rejected(tmp_path, kind, field):
    def poison(header, records):
        records[1][field].flat[0] = np.inf

    path = _saved_with_edit(tmp_path, _small_dataset(kind, 26), poison)
    with pytest.raises(data.DatasetError, match=f"record 2: field '{field}' holds a non-finite"):
        data.load_dataset(path)


# a missing scalar leaves a header entry of the wrong length; a missing
# array is a file that ends where the array starts
@pytest.mark.parametrize("kind,field", [
    ("affect", "frames"), ("affect", "length"), ("affect", "label"), ("affect", "id"),
    ("frames", "features"), ("frames", "labels"),
])
def test_missing_record_field_rejected(tmp_path, kind, field):
    position = {"id": 0, "length": 1, "labels": slice(2, None)}.get(field)

    def drop(header, records):
        if position is None:
            records[:] = [_arrays_before(records[0], field)]
        else:
            del header["records"][0][position]

    path = _saved_with_edit(tmp_path, _small_dataset(kind, 27), drop)
    if position is None:
        expected = f"record 1: field '{field}' holds 0 bytes"
    elif kind == "frames":
        expected = "record 1: header entry is not an [id, expr, has_va, has_au] list"
    else:
        expected = "record 1: header entry is not an [id, length] list"
    with pytest.raises(data.DatasetError, match=re.escape(expected)):
        data.load_dataset(path)


@pytest.mark.parametrize("label,value", [("expr", "happy"), ("va", ["x", 0.0]), ("au", "none")])
def test_wrongly_typed_frame_label_rejected(tmp_path, label, value):
    def retype(header, records):
        header["records"][0][{"expr": 1, "va": 2, "au": 3}[label]] = value

    path = _saved_with_edit(tmp_path, _small_dataset("frames", 28), retype)
    with pytest.raises(data.DatasetError, match=f"record 1: .*{label}"):
        data.load_dataset(path)


def _corrupt_array(records, field, case):
    """Cut the file short inside record 2's `field` ("short"), or make the
    field's last value non-finite."""
    if case == "short":
        cut = records[1][field].tobytes()[:-8]
        records[1:] = [{**_arrays_before(records[1], field), field: cut}]
    else:
        records[1][field].flat[-1] = np.nan if case == "nan" else -np.inf


@pytest.mark.parametrize("kind,field", [
    ("affect", "frames"), ("affect", "label"),
    ("frames", "features"), ("frames", "va"), ("frames", "au"),
])
@pytest.mark.parametrize("case,expected", [
    ("short", "bytes, which does not match shape"),
    ("nan", "holds a non-finite value"),
    ("-inf", "holds a non-finite value"),
], ids=["short", "nan", "-inf"])
def test_malformed_array_field_names_line_and_field(tmp_path, capsys, kind, field, case,
                                                    expected):
    path = _saved_with_edit(tmp_path, _small_dataset(kind, 30),
                            lambda header, records: _corrupt_array(records, field, case))
    named = f"record 2: field '{field}' "
    with pytest.raises(data.DatasetError) as info:
        data.load_dataset(path)
    assert named in str(info.value) and expected in str(info.value)
    stage = ("--stage", "mma") if kind == "frames" else ()
    assert cli.main(["train", *stage, "--dataset", str(path), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert named in err and expected in err and err.count("\n") == 1


_DELETE = object()


def _set_entry(index, value):
    def edit(header, records):
        if index is None:
            header["records"][1] = value
        else:
            header["records"][1][index] = value
    return edit


def _set_header(key, value):
    def edit(header, records):
        if value is _DELETE:
            del header[key]
        else:
            header[key] = value
    return edit


_VIDEO_ENTRY = "record 2: header entry is not an [id, length] list"
_FRAME_ENTRY = "record 2: header entry is not an [id, expr, has_va, has_au] list"


@pytest.mark.parametrize("kind,edit,expected", [
    ("affect", _set_entry(None, "video-00001"), _VIDEO_ENTRY),
    ("affect", _set_entry(None, ["video-00001", 3, 0]), _VIDEO_ENTRY),
    ("affect", _set_entry(0, 7), "record 2: field 'id' is not a string"),
    ("affect", _set_entry(1, "3"), "record 2: field 'length' is not an integer"),
    ("affect", _set_entry(1, 3.0), "record 2: field 'length' is not an integer"),
    ("affect", _set_entry(1, True), "record 2: field 'length' is not an integer"),
    ("frames", _set_entry(None, {"id": "frame-00001"}), _FRAME_ENTRY),
    ("frames", _set_entry(0, None), "record 2: field 'id' is not a string"),
    ("frames", _set_entry(1, 1.0), "record 2: bad expr label"),
    ("frames", _set_entry(1, True), "record 2: bad expr label"),
    ("frames", _set_entry(1, 7), "record 2: bad expr label"),
    ("frames", _set_entry(2, 1), "record 2: field 'has_va' is not a boolean"),
    ("frames", _set_entry(3, None), "record 2: field 'has_au' is not a boolean"),
    ("affect", _set_header("records", _DELETE), "lacks field 'records'"),
    ("frames", _set_header("records", {"frame-00000": []}), "field 'records' is not a JSON list"),
    ("affect", _set_header("schema_version", "2"), "unsupported dataset schema '2' in dataset"),
], ids=["video-str", "video-triple", "video-int-id", "str-length", "float-length",
        "bool-length", "frame-object", "frame-null-id", "float-expr", "bool-expr",
        "expr-range", "int-has-va", "null-has-au", "no-records", "object-records",
        "schema-2"])
def test_malformed_header_names_record_and_field(tmp_path, capsys, kind, edit, expected):
    path = _saved_with_edit(tmp_path, _small_dataset(kind, 36), edit)
    with pytest.raises(data.DatasetError) as info:
        data.load_dataset(path)
    assert expected in str(info.value)
    stage = ("--stage", "mma") if kind == "frames" else ()
    assert cli.main(["train", *stage, "--dataset", str(path), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert expected in err and err.count("\n") == 1


def test_schema_2_dataset_exits_3_asking_for_gen(tmp_path, capsys):
    # the schema "2" layout: JSON lines of base64 arrays, manifest beside it
    path = tmp_path / "videos.jsonl"
    samples, manifest = _small_dataset("affect", 37)
    data.save_dataset(path, samples, manifest)
    path.write_text("".join(json.dumps({
        "id": s.id, "length": s.length,
        "frames": base64.b64encode(s.frames.astype("<f8").tobytes()).decode("ascii"),
        "label": base64.b64encode(s.label.astype("<f8").tobytes()).decode("ascii"),
    }, sort_keys=True) + "\n" for s in samples))
    mpath = data.manifest_path(path)
    mpath.write_text(mpath.read_text().replace('"schema_version": "3"', '"schema_version": "2"'))
    assert cli.main(["train", "--dataset", str(path), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err == (f"error: unsupported dataset schema '2' in manifest {mpath} (this version "
                   "reads '3'); re-run gen to rebuild the dataset\n")


def test_oversized_manifest_t_exits_3_without_allocating(tmp_path, capsys):
    path = tmp_path / "videos.jsonl"
    data.save_dataset(path, *_small_dataset("affect", 38))
    mpath = data.manifest_path(path)
    mpath.write_text(mpath.read_text().replace('"t": 6', f'"t": {2**40}'))
    assert cli.main(["train", "--dataset", str(path), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: record 1: field 'frames' holds 2608 bytes, which does not "
                          f"match shape ({2**40}, 26)") and err.count("\n") == 1


# Several faults in one file: the header line and every header entry come
# first, then the payload record by record in file order, each record's
# faults in the order its fields are stored (a video's frames and label,
# then its invariants; a frame's features, va and its range, au and its
# values), and bytes after the last record last.

def _four_records(kind):
    if kind == "frames":
        samples, manifest = data.gen_frame_dataset(40, 4, data.FrameRecipe(d_in=4))
    else:
        samples, manifest = data.gen_video_dataset(
            40, 4, data.VideoRecipe(l_min=2, l_max=4, padding=kind), t=6)
    return samples, manifest


def _cut_in(records, number, field):
    """Cut the file 8 bytes into record `number`'s `field`."""
    kept = records[:number - 1]
    head = dict(itertools.takewhile(lambda item: item[0] != field, records[number - 1].items()))
    records[:] = kept + [{**head, field: records[number - 1][field].tobytes()[:8]}]


def _poison(records, number, field, value=np.nan):
    records[number - 1][field].flat[-1] = value


_ORDER_CASES = {
    "header-entry-before-earlier-cut": (
        "zeros", lambda h, r: (h["records"][2].__setitem__(0, 3), _cut_in(r, 1, "frames")),
        "record 3: field 'id' is not a string"),
    "length-range-before-earlier-non-finite": (
        "zeros", lambda h, r: (h["records"][3].__setitem__(1, 9), _poison(r, 1, "frames")),
        "record 4: length 9 outside [1, 6]"),
    "earlier-invariant-before-non-finite": (
        "zeros", lambda h, r: (_poison(r, 1, "label", 1.5), _poison(r, 2, "frames")),
        "record 1: bad intensity label"),
    "earlier-non-finite-before-invariant": (
        "zeros", lambda h, r: (_poison(r, 1, "frames", np.inf), _poison(r, 2, "label", 1.5)),
        "record 1: field 'frames' holds a non-finite value"),
    "earlier-invariant-before-cut": (
        "zeros", lambda h, r: (_poison(r, 2, "frames", 0.5), _cut_in(r, 3, "label")),
        "record 2: padded rows are not zero"),
    "read-before-invariant-in-one-record": (
        "zeros", lambda h, r: (_poison(r, 2, "frames", 0.5), _poison(r, 2, "label")),
        "record 2: field 'label' holds a non-finite value"),
    "invariant-before-trailing-bytes": (
        "noise", lambda h, r: (_poison(r, 3, "label", -0.5), r.append({"tail": b"\0" * 5})),
        "record 3: bad intensity label"),
    "va-range-before-au-read-in-one-record": (
        "frames", lambda h, r: (_poison(r, 2, "va", 1.5), _poison(r, 2, "au")),
        "record 2: bad va label"),
    "earlier-au-read-before-va-range": (
        "frames", lambda h, r: (_poison(r, 1, "au", np.inf), _poison(r, 2, "va", -2.0)),
        "record 1: field 'au' holds a non-finite value"),
    "au-values-before-later-features-read": (
        "frames", lambda h, r: (_poison(r, 2, "au", 0.5), _poison(r, 3, "features")),
        "record 2: bad au label (need a binary 17-vector)"),
}


@pytest.mark.parametrize("case", sorted(_ORDER_CASES))
def test_faults_are_reported_in_file_order(tmp_path, case):
    kind, edit, expected = _ORDER_CASES[case]
    path = _saved_with_edit(tmp_path, _four_records(kind), edit)
    with pytest.raises(data.DatasetError) as info:
        data.load_dataset(path)
    assert str(info.value) == expected


def test_expr_sum_message_quotes_the_live_sum_furthest_from_one(tmp_path):
    samples, manifest = _four_records("zeros")
    samples[2].frames[0, EXPR_SLICE] = 0.8 / 7
    samples[2].frames[1, EXPR_SLICE] = 1.3 / 7
    path = tmp_path / "bad.jsonl"
    data.save_dataset(path, samples, manifest)
    with pytest.raises(data.DatasetError) as info:
        data.load_dataset(path)
    assert str(info.value) == "record 3: expr block does not sum to 1 (got 1.3)"


def test_affect_checks_skip_rows_past_the_length(tmp_path):
    # noise padding is a decoy trajectory; a padded row that breaks the
    # affect invariants is outside the video and loads
    samples, manifest = _four_records("noise")
    short = next(s for s in samples if s.length < manifest.t)
    short.frames[short.length:] = 5.0
    path = tmp_path / "videos.jsonl"
    data.save_dataset(path, samples, manifest)
    loaded, _ = data.load_dataset(path)
    np.testing.assert_array_equal(loaded[samples.index(short)].frames, short.frames)


# Values an edited video entry or label takes: each bound, a hair (1e-12)
# inside and outside it, and values far outside; a shift moves an entry
# by a mass the expr sum tolerance (1e-6) forgives or does not.
_EDGE_VALUES = (0.0, 0.5, 1.0, -1.0, 1.0 + 1e-12, -1.0 - 1e-12, 1.0 + 3e-12, -1.0 - 3e-12,
                1e-12, -1e-12, -3e-12, 2.0, -2.0)
_SHIFTS = (1e-7, -1e-7, 2e-6, -2e-6)


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(n=st.integers(1, 4), t=st.integers(1, 6), d=st.just(26) | st.integers(1, 29),
       padding=st.sampled_from(["zeros", "noise"]),
       kind=st.sampled_from(["affect", "descriptor"]), seed=st.integers(0, 2**32 - 1),
       draw=st.data())
def test_video_checks_raise_the_per_record_oracle_message(n, t, d, padding, kind, seed, draw):
    rng = np.random.default_rng(seed)
    lengths = np.array(draw.draw(st.lists(st.integers(1, t), min_size=n, max_size=n)))
    if kind == "affect":
        # va, expr and au blocks within their bounds, then any extra columns
        rows = np.concatenate([rng.uniform(-1.0, 1.0, (n, t, 2)), rng.dirichlet(np.ones(7), (n, t)),
                               rng.uniform(0.0, 1.0, (n, t, 17)),
                               rng.normal(size=(n, t, max(d - 26, 0)))], axis=2)
        frames = rows[..., :d].copy()
    else:
        frames = rng.normal(size=(n, t, d))
    dead = np.arange(t) >= lengths[:, None]
    frames[dead] = 0.0 if padding == "zeros" else 2.0 * rng.normal(size=(dead.sum(), d))
    labels = rng.uniform(0.0, 1.0, (n, 7))
    blocks = {"va": VA_SLICE, "expr": EXPR_SLICE, "au": AU_SLICE, "frames": slice(None),
              "shift": EXPR_SLICE}
    edits = st.tuples(st.sampled_from(["label", *blocks]), st.integers(0, 2**16),
                      st.integers(0, 2**16), st.sampled_from(_EDGE_VALUES),
                      st.sampled_from(_SHIFTS))
    for target, at, column, value, shift in draw.draw(st.lists(edits, max_size=4)):
        if target == "label":
            labels.flat[at % labels.size] = value
            continue
        columns = np.arange(d)[blocks[target]]
        columns = columns if columns.size else np.arange(d)  # the width cut the block off
        i, row = divmod(at % (n * t), t)
        if target == "shift":
            frames[i, row, columns[column % columns.size]] += shift
        else:
            frames[i, row, columns[column % columns.size]] = value
    recipe = {"padding": padding, "feature_kind": kind}
    expected = video_fault_oracle(frames, lengths, labels, recipe)
    try:
        data._check_videos(frames, lengths, labels, recipe)
    except data.DatasetError as e:
        assert str(e) == expected
    else:
        assert expected is None


@pytest.mark.parametrize("padding", ["zeros", "noise"])
def test_paper_video_load_peaks_under_one_and_a_half_payloads(tmp_path, padding):
    samples, manifest = data.gen_video_dataset(
        4, 32, data.VideoRecipe(l_max=480, padding=padding), t=480)
    path = tmp_path / "videos.jsonl"
    data.save_dataset(path, samples, manifest)
    payload = sum(s.frames.nbytes + s.label.nbytes for s in samples)
    tracemalloc.start()
    try:
        loaded, _ = data.load_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * payload, peak / payload
    assert len(loaded) == len(samples)


def test_paper_video_load_returns_the_saved_arrays_under_one_and_a_half_payloads(tmp_path):
    samples, manifest = data.gen_video_dataset(4, 32, data.VideoRecipe(l_max=480), t=480)
    data.save_dataset(tmp_path / "videos.jsonl", samples, manifest)
    want = [a for s in samples for a in (s.frames, s.label)]
    payload = sum(arr.nbytes for arr in want)
    tracemalloc.start()
    try:
        got = [a for s in data.load_dataset(tmp_path / "videos.jsonl")[0]
               for a in (s.frames, s.label)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * payload, peak / payload
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("labels", [
    combo for r in (1, 2, 3) for combo in itertools.combinations(("va", "expr", "au"), r)
], ids="+".join)
def test_frame_labels_round_trip_for_every_pattern(tmp_path, labels):
    samples, manifest = data.gen_frame_dataset(41, 6, data.FrameRecipe(d_in=5))
    for s in samples:
        for field in {"va", "expr", "au"} - set(labels):
            setattr(s, field, None)
    path = tmp_path / "frames.jsonl"
    data.save_dataset(path, samples, manifest)
    loaded, _ = data.load_dataset(path)
    stored = []
    for s, got in zip(samples, loaded):
        assert got.id == s.id and got.expr == s.expr
        for field in ("features", "va", "au"):
            want, have = getattr(s, field), getattr(got, field)
            assert (want is None) == (have is None), field
            if want is not None:
                assert have.dtype == np.float64 and have.flags.c_contiguous
                np.testing.assert_array_equal(have, want)
                stored.append(have)
    for a, b in itertools.combinations(stored, 2):
        assert not np.shares_memory(a, b)


# Loader fuzz: a dataset with one mutated header entry, payload length,
# stored value, byte or manifest integer either loads or raises
# DatasetError; any other exception fails the test.

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def fuzz_sources(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    sources = {}
    for kind, dataset in (("frames", _small_dataset("frames", 31)),
                          ("videos", _small_dataset("affect", 31))):
        path = root / f"{kind}.jsonl"
        data.save_dataset(path, *dataset)
        sources[kind] = (path.read_bytes(), data.manifest_path(path).read_text())
    return root / "fuzzed.jsonl", sources


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(["frames", "videos"]),
       mutation=st.sampled_from(["entry", "length", "value", "byte", "manifest"]),
       draw=st.data())
def test_mutated_dataset_loads_or_raises_dataset_error(fuzz_sources, kind, mutation, draw):
    path, sources = fuzz_sources
    line, _, payload = sources[kind][0].partition(b"\n")
    header = json.loads(line)
    manifest = json.loads(sources[kind][1])
    if mutation == "manifest":
        key = draw.draw(st.sampled_from(["seed", "n", "d", "t"]))
        manifest[key] = draw.draw(st.none() | st.integers(-40, 40) | _JSON_VALUES)
    elif mutation == "entry":
        entries = header["records"]
        i = draw.draw(st.integers(0, len(entries) - 1))
        at = draw.draw(st.integers(-1, len(entries[i]) - 1))
        if at < 0:
            entries[i] = draw.draw(_JSON_VALUES)
        else:
            entries[i][at] = draw.draw(_JSON_VALUES)
    elif mutation == "length":
        cut = draw.draw(st.integers(0, len(payload)))
        payload = payload[:cut] + draw.draw(st.binary(max_size=16))
    elif mutation == "value":
        values = np.frombuffer(payload, dtype="<f8").copy()
        values[draw.draw(st.integers(0, values.size - 1))] = draw.draw(st.floats())
        payload = values.tobytes()
    raw = bytearray((json.dumps(header, sort_keys=True) + "\n").encode() + payload)
    if mutation == "byte":
        raw[draw.draw(st.integers(0, len(raw) - 1))] = draw.draw(st.integers(0, 255))
    path.write_bytes(bytes(raw))
    data.manifest_path(path).write_text(json.dumps(manifest))
    try:
        data.load_dataset(path)
    except data.DatasetError:
        pass


@pytest.mark.parametrize("target,expected", [
    ("records", "is not UTF-8 text"),
    ("manifest", "is not UTF-8 text"),
], ids=["records", "manifest"])
def test_non_utf8_byte_rejected(tmp_path, target, expected):
    path = tmp_path / "videos.jsonl"
    data.save_dataset(path, *_small_dataset("affect", 33))
    victim = path if target == "records" else data.manifest_path(path)
    # the data file's header line is its first; the manifest is indented JSON
    index = 0 if target == "records" else 1
    lines = victim.read_bytes().split(b"\n")
    lines[index] = lines[index][:5] + b"\xff" + lines[index][6:]
    victim.write_bytes(b"\n".join(lines))
    with pytest.raises(data.DatasetError, match=expected) as info:
        data.load_dataset(path)
    assert str(victim) in str(info.value)


def test_dataset_missing_records_exits_3(tmp_path, capsys):
    path = tmp_path / "videos.jsonl"
    data.save_dataset(path, *data.gen_video_dataset(34, 16, data.VideoRecipe(), 32))
    header, records = read_dataset(path)
    header["records"] = header["records"][:1]
    write_dataset(path, header, records[:1])
    assert cli.main(["train", "--dataset", str(path), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err == f"error: manifest n is 16 but {path} holds 1 records\n"


def test_manifest_width_that_misreads_frames_exits_3(tmp_path, capsys):
    # a narrower width reads record 1's frames from the wrong bytes, which
    # break its affect-row invariants
    path = tmp_path / "videos.jsonl"
    data.save_dataset(path, *_small_dataset("affect", 32))
    mpath = data.manifest_path(path)
    mpath.write_text(mpath.read_text().replace('"d": 26', '"d": 25'))
    assert cli.main(["train", "--dataset", str(path), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: record 1: ") and err.count("\n") == 1, err


def test_missing_manifest_rejected(tmp_path):
    path = tmp_path / "orphan.jsonl"
    path.write_text("{}\n")
    with pytest.raises(data.DatasetError, match="manifest"):
        data.load_dataset(path)


def _field(blob, key):
    """The object holding the dotted manifest field `key`, and its last name."""
    *path, last = key.split(".")
    for name in path:
        blob = blob[name]
    return blob, last


def _drop(key):
    def edit(text):
        blob = json.loads(text)
        holder, name = _field(blob, key)
        holder.pop(name)
        return json.dumps(blob)
    return edit


def _set(key, value):
    def edit(text):
        blob = json.loads(text)
        holder, name = _field(blob, key)
        holder[name] = value
        return json.dumps(blob)
    return edit


@pytest.mark.parametrize("edit, expected", [
    (lambda text: text[:-5], "is not valid JSON"),
    (lambda text: "[1, 2]", "is not a JSON object"),
    *[(_drop(key), f"lacks field '{key}'") for key in ("kind", "seed", "n", "d", "recipe")],
    (_set("recipe", [1, 2]), "field 'recipe' is not a JSON object"),
    (_set("kind", 3), "field 'kind' is not a string"),
    (_set("kind", "bogus"), "field 'kind' is 'bogus', expected 'frames' or 'videos'"),
    (_set("seed", "1"), "field 'seed' is not an integer"),
    (_set("n", True), "field 'n' is not an integer"),
    (_set("d", 26.0), "field 'd' is not an integer"),
    (_set("t", "8"), "field 't' is not an integer"),
    (_set("t", None), "field 't' is not an integer"),
    (_set("d", -26), "field 'd' is negative"),
    (_set("recipe.feature_kind", "bogus"),
     "field 'recipe.feature_kind' is 'bogus', expected 'affect' or 'descriptor'"),
    (_set("recipe.padding", 0), "field 'recipe.padding' is 0, expected 'zeros' or 'noise'"),
    (_drop("recipe.feature_kind"),
     "field 'recipe.feature_kind' is None, expected 'affect' or 'descriptor'"),
], ids=["non-json", "list", "no-kind", "no-seed", "no-n", "no-d", "no-recipe", "list-recipe",
        "int-kind", "bogus-kind", "str-seed", "bool-n", "float-d", "str-t", "null-t", "negative-d",
        "bogus-feature-kind", "int-padding", "no-feature-kind"])
def test_malformed_manifest_names_path_and_field(tmp_path, edit, expected):
    path = tmp_path / "videos.jsonl"
    data.save_dataset(path, *_small_dataset("affect", 29))
    mpath = data.manifest_path(path)
    mpath.write_text(edit(mpath.read_text()))
    with pytest.raises(data.DatasetError) as info:
        data.load_dataset(path)
    assert f"manifest {mpath}" in str(info.value) and expected in str(info.value)


# ---------------------------------------------------------------------------
# splits


def test_split_sizes_and_partition():
    samples, _ = data.gen_video_dataset(22, 50, data.VideoRecipe(l_min=2, l_max=4), t=6)
    parts = data.split(samples, (0.63, 0.19, 0.18), seed=3)
    assert [len(parts[k]) for k in ("train", "val", "test")] == [32, 9, 9]
    ids = [s.id for part in parts.values() for s in part]
    assert sorted(ids) == sorted(s.id for s in samples)
    assert len(set(ids)) == len(ids)


def test_split_deterministic():
    samples, _ = data.gen_video_dataset(23, 30, data.VideoRecipe(l_min=2, l_max=4), t=6)
    a = data.split(samples, (0.6, 0.2, 0.2), seed=4)
    b = data.split(samples, (0.6, 0.2, 0.2), seed=4)
    assert [s.id for s in a["train"]] == [s.id for s in b["train"]]
    c = data.split(samples, (0.6, 0.2, 0.2), seed=5)
    assert [s.id for s in a["train"]] != [s.id for s in c["train"]]


def test_select_columns_subsets():
    samples, _ = data.gen_video_dataset(24, 3, data.VideoRecipe(l_min=2, l_max=4), t=6)
    va_only = data.select_columns(samples, "va")
    assert va_only[0].frames.shape == (6, 2)
    np.testing.assert_array_equal(va_only[0].frames, samples[0].frames[:, :2])
    np.testing.assert_array_equal(va_only[0].label, samples[0].label)
    au_only = data.select_columns(samples, "au")
    assert au_only[0].frames.shape == (6, 17)
    np.testing.assert_array_equal(au_only[0].frames, samples[0].frames[:, AU_SLICE])


def test_video_batch_arrays():
    samples, _ = data.gen_video_dataset(25, 4, data.VideoRecipe(l_min=2, l_max=4), t=6)
    frames, lengths, labels = data.video_arrays(samples)
    assert frames.shape == (4, 6, 26) and lengths.shape == (4,) and labels.shape == (4, 7)
