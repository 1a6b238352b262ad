import argparse
import itertools
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from affectseq import autodiff as ad
from affectseq import cli, data
from affectseq.checkpoint import load_checkpoint, save_checkpoint
from affectseq.config import RunConfig, build_config
from helpers import read_checkpoint, read_dataset, write_checkpoint, write_dataset


def run(*argv):
    return cli.main(list(argv))


def gen_videos(tmp_path, seed=3, n=48, extra=()):
    out = tmp_path / f"data{seed}"
    code = run(
        "gen", "--preset", "desk", "--n", str(n), "--seed", str(seed),
        "--out", str(out), "--l-min", "4", "--l-max", "16", "--t", "16", *extra,
    )
    assert code == 0
    return out / "videos.jsonl"


def test_gen_writes_dataset_and_manifest(tmp_path):
    path = gen_videos(tmp_path)
    assert path.exists()
    assert Path(f"{path}.manifest.json").exists()
    assert (path.parent / "effective_config.json").exists()


def test_gen_same_seed_identical_bytes(tmp_path):
    a = gen_videos(tmp_path / "a")
    b = gen_videos(tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_inconsistent_lengths(tmp_path, capsys):
    code = run("gen", "--t", "8", "--l-min", "4", "--l-max", "12", "--out", str(tmp_path / "x"))
    assert code == 2


@pytest.mark.parametrize("argv, kind, field", [
    (("--mix-noise", "1e308", "--n", "4", "--t", "8", "--l-min", "2", "--l-max", "8"),
     "videos", "frames"),
    (("--gen-kind", "frames", "--frame-noise", "1e308", "--n", "8"), "frames", "features"),
])
def test_gen_overflowing_noise_exits_4_and_writes_no_dataset(tmp_path, capsys, argv, kind, field):
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run("gen", *argv, "--out", str(out))
    err = capsys.readouterr().err
    assert code == 4, err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1, err
    assert f"field '{field}'" in err
    assert not (out / f"{kind}.jsonl").exists()
    assert not (out / f"{kind}.jsonl.manifest.json").exists()


def test_unknown_config_key_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lerning_rate": 1.0}))
    code = run("gen", "--config", str(bad), "--out", str(tmp_path / "x"))
    assert code == 2


@pytest.mark.parametrize("key, value", [
    ("t", "8"), ("mask", "no"), ("preset", [1]), ("feature_noise", float("nan")),
    ("schema_version", "2"),
])
def test_config_file_field_of_wrong_type_exits_2(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({key: value}))
    code = run("gen", "--config", str(bad), "--out", str(tmp_path / "x"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, field", [
    (("gen", "--seed", "-1"), "seed"),
    (("train", "--fractions", "0.5,nan,0.5"), "fractions"),
    (("gen", "--gen-kind", "frames", "--label-mix", "va:nan"), "label_mix"),
    (("gen", "--feature-noise", "nan"), "feature_noise"),
    (("gen", "--temperature", "0"), "temperature"),
    (("train", "--lr", "inf"), "lr"),
])
def test_out_of_range_flag_exits_2(tmp_path, capsys, argv, field):
    code = run(*argv, "--out", str(tmp_path / "x"))
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {field} ") and err.count("\n") == 1, err


def test_non_utf8_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"epochs": 3, "out": "\xff"}')
    code = run("gen", "--config", str(bad), "--out", str(tmp_path / "x"))
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: config file {bad} is not UTF-8 text\n"


def test_every_subcommand_takes_exactly_the_config_flags():
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    config_flags = {"--config"} | {"--" + f.name.replace("_", "-") for f in fields(RunConfig)}
    for name, sub in subcommands.choices.items():
        flags = {a.option_strings[0] for a in sub._actions if a.dest != "help"}
        assert flags == config_flags | ({"--epsilon"} if name == "gradcheck" else set()), name


def test_train_zero_epochs_writes_initial_checkpoint(tmp_path):
    data_path = gen_videos(tmp_path)
    out = tmp_path / "run0"
    code = run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16", "--dataset", str(data_path),
        "--epochs", "0", "--seed", "4", "--out", str(out),
    )
    assert code == 0
    ck = load_checkpoint(out / "checkpoint.json")
    assert ck.kind == "aggregator"
    assert (out / "curve.csv").exists() and (out / "curve.svg").exists()


def test_train_same_seed_identical_checkpoint_bytes(tmp_path):
    data_path = gen_videos(tmp_path)
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        code = run(
            "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16", "--dataset", str(data_path),
            "--epochs", "3", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        outs.append((out / "checkpoint.json").read_bytes())
    assert outs[0] == outs[1]


def test_train_missing_dataset_is_io_error(tmp_path):
    code = run(
        "train", "--preset", "desk", "--dataset", str(tmp_path / "missing.jsonl"),
        "--out", str(tmp_path / "x"),
    )
    assert code == 3


def test_train_representation_subset(tmp_path):
    data_path = gen_videos(tmp_path)
    out = tmp_path / "run_va"
    code = run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16", "--dataset", str(data_path),
        "--epochs", "1", "--seed", "6", "--out", str(out), "--representation", "va",
    )
    assert code == 0
    ck = load_checkpoint(out / "checkpoint.json")
    assert ck.params["gru0.wz"].shape[0] == 2


def test_eval_prints_mean_rho_percent_last(tmp_path, capsys):
    data_path = gen_videos(tmp_path)
    out = tmp_path / "run"
    assert run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16", "--dataset", str(data_path),
        "--epochs", "25", "--seed", "7", "--out", str(out),
    ) == 0
    capsys.readouterr()
    code = run(
        "eval", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16", "--dataset", str(data_path),
        "--checkpoint", str(out / "checkpoint.json"), "--split", "val",
        "--out", str(tmp_path / "eval"),
    )
    captured = capsys.readouterr()
    assert code == 0
    final = captured.out.strip().splitlines()[-1]
    float(final)  # bare percentage
    assert (tmp_path / "eval" / "report.json").exists()
    assert (tmp_path / "eval" / "report.csv").exists()


def test_eval_echoes_the_checkpoint_model_fields(tmp_path, monkeypatch):
    # the flags ask for another model (d_hidden 8, the desk preset's t 32);
    # eval runs the checkpoint's (d_hidden 16, t 16) and must say so
    data_path = gen_videos(tmp_path)
    out = tmp_path / "run"
    assert run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--epochs", "1", "--seed", "7", "--out", str(out),
    ) == 0
    predicted, predict = [], cli.agg.predict

    def capture(*args):
        predicted.append(predict(*args))
        return predicted[-1]

    monkeypatch.setattr(cli.agg, "predict", capture)
    eval_dir = tmp_path / "eval"
    assert run(
        "eval", "--preset", "desk", "--d-hidden", "8", "--dataset", str(data_path),
        "--checkpoint", str(out / "checkpoint.json"), "--split", "test", "--seed", "5",
        "--out", str(eval_dir),
    ) == 0
    echo = json.loads((eval_dir / "effective_config.json").read_text())
    stored = load_checkpoint(out / "checkpoint.json").config
    for name in cli._MODEL_FIELDS:
        assert echo[name] == stored[name], name
    assert (echo["d_hidden"], echo["t"], echo["l_max"]) == (16, 16, 16)
    assert (echo["dataset"], echo["split"], echo["seed"], echo["out"]) == (
        str(data_path), "test", 5, str(eval_dir))
    rebuilt = build_config(config_file=eval_dir / "effective_config.json")
    assert rebuilt.to_dict() == echo
    # the benchmark's twin check rebuilds the run from this file
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workload
    finally:
        sys.path.pop(0)
    ok, detail = workload.check_twins(eval_dir, predicted[-1])
    assert ok, detail


def test_eval_missing_checkpoint_exits_2(tmp_path):
    data_path = gen_videos(tmp_path)
    code = run(
        "eval", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16", "--dataset", str(data_path),
        "--checkpoint", str(tmp_path / "nope.json"), "--out", str(tmp_path / "e"),
    )
    assert code == 2


def test_eval_checkpoint_dataset_mismatch_exits_2(tmp_path):
    data_path = gen_videos(tmp_path, seed=8)
    out = tmp_path / "run"
    assert run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16", "--dataset", str(data_path),
        "--epochs", "1", "--seed", "8", "--out", str(out),
    ) == 0
    other = gen_videos(tmp_path / "other", seed=9, extra=("--t", "16"))
    # same t, but checkpoint trained on all 26 dims vs dataset evaluated at va subset:
    # force mismatch by rewriting the stored representation
    ck_path = out / "checkpoint.json"
    header, arrays = read_checkpoint(ck_path)
    header["config"]["representation"] = "va"
    write_checkpoint(ck_path, header, arrays)
    code = run(
        "eval", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16", "--dataset", str(other),
        "--checkpoint", str(ck_path), "--out", str(tmp_path / "e2"),
    )
    assert code == 2


def test_overfit_then_eval_train_split_high_rho(tmp_path, capsys):
    data_path = gen_videos(tmp_path, seed=10, n=16)
    out = tmp_path / "overfit"
    assert run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16", "--dataset", str(data_path),
        "--epochs", "250", "--seed", "10", "--out", str(out),
        "--fractions", "1.0,0.0,0.0", "--batch-size", "16",
    ) == 0
    capsys.readouterr()
    code = run(
        "eval", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16", "--dataset", str(data_path),
        "--checkpoint", str(out / "checkpoint.json"), "--split", "train",
        "--out", str(tmp_path / "eval_train"), "--fractions", "1.0,0.0,0.0",
    )
    assert code == 0
    final = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert final >= 99.0


def test_shuffled_label_eval_near_zero(tmp_path, capsys):
    data_path = gen_videos(tmp_path, seed=11, n=64)
    out = tmp_path / "run"
    assert run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16", "--dataset", str(data_path),
        "--epochs", "30", "--seed", "11", "--out", str(out),
    ) == 0
    # shuffle the labels across videos, breaking any real correlation
    header, records = read_dataset(data_path)
    labels = [r["label"] for r in records]
    rng = np.random.default_rng(0)
    for record, label in zip(records, [labels[i] for i in rng.permutation(len(labels))]):
        record["label"] = label
    shuffled = data_path.parent / "shuffled.jsonl"
    write_dataset(shuffled, header, records)
    Path(f"{shuffled}.manifest.json").write_text(Path(f"{data_path}.manifest.json").read_text())
    capsys.readouterr()
    code = run(
        "eval", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16", "--dataset", str(shuffled),
        "--checkpoint", str(out / "checkpoint.json"), "--split", "train",
        "--out", str(tmp_path / "eval_shuffled"),
    )
    assert code == 0
    final = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(final) < 20.0


def test_gradcheck_passes_and_writes_report(tmp_path, capsys):
    code = run("gradcheck", "--out", str(tmp_path / "gc"))
    assert code == 0
    blob = json.loads((tmp_path / "gc" / "gradient_report.json").read_text())
    assert blob["schema_version"] == "1"
    assert not blob["failures"]
    assert set(blob["targets"]) >= {"loss_ccc", "loss_pearson", "layer_gru", "layer_mask"}


def test_gradcheck_fault_injection_fails(tmp_path, capsys, monkeypatch):
    # a wrong tanh rule: the checker itself must report the failure
    monkeypatch.setitem(ad._BACKWARD, "tanh", lambda n, g, x, y: (g * (1.0 - 0.9 * y * y),))
    code = run("gradcheck", "--out", str(tmp_path / "gc"))
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.err


def test_gradcheck_large_epsilon_warns(tmp_path, capsys):
    run("gradcheck", "--out", str(tmp_path / "gc"), "--epsilon", "1e-2")
    captured = capsys.readouterr()
    assert "warning" in captured.out


@pytest.mark.parametrize("epsilon", ["0", "-1", "nan", "inf"])
def test_gradcheck_bad_epsilon_exits_2(tmp_path, capsys, epsilon):
    code = run("gradcheck", "--out", str(tmp_path / "gc"), "--epsilon", epsilon)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: --epsilon must be finite and positive, got {float(epsilon)}\n"
    assert not (tmp_path / "gc").exists()


def test_mma_stage_trains_on_frames(tmp_path):
    gen_out = tmp_path / "frames"
    assert run(
        "gen", "--gen-kind", "frames", "--n", "48", "--seed", "12", "--out", str(gen_out),
        "--d-in", "8", "--head-width", "8", "--label-mix", "va:0.3,expr:0.3,au:0.2,all:0.2",
    ) == 0
    out = tmp_path / "head_run"
    code = run(
        "train", "--stage", "mma", "--dataset", str(gen_out / "frames.jsonl"),
        "--epochs", "2", "--seed", "12", "--out", str(out),
        "--d-in", "8", "--head-width", "8", "--batch-size", "16",
    )
    assert code == 0
    ck = load_checkpoint(out / "checkpoint.json")
    assert ck.kind == "head"
    assert ck.params["trunk.in.w"].shape == (8, 8)


def test_frozen_stage_with_descriptor_videos_and_end_to_end(tmp_path):
    gen_out = tmp_path / "desc"
    assert run(
        "gen", "--n", "32", "--seed", "13", "--out", str(gen_out),
        "--t", "8", "--l-min", "2", "--l-max", "8",
        "--feature-kind", "descriptor", "--d-in", "8", "--head-width", "8",
    ) == 0
    dataset = gen_out / "videos.jsonl"

    frames_out = tmp_path / "frameset"
    assert run(
        "gen", "--gen-kind", "frames", "--n", "32", "--seed", "14",
        "--out", str(frames_out), "--d-in", "8", "--head-width", "8",
    ) == 0
    head_run = tmp_path / "head"
    assert run(
        "train", "--stage", "mma", "--dataset", str(frames_out / "frames.jsonl"),
        "--epochs", "1", "--seed", "14", "--out", str(head_run),
        "--d-in", "8", "--head-width", "8", "--batch-size", "16",
    ) == 0

    # frozen stage requires the head checkpoint for descriptor videos
    no_head = run(
        "train", "--dataset", str(dataset), "--epochs", "1", "--seed", "15",
        "--out", str(tmp_path / "x"), "--t", "8", "--l-min", "2", "--l-max", "8",
        "--d-hidden", "4", "--d-ff", "3", "--batch-size", "8", "--d-in", "8",
    )
    assert no_head == 2

    frozen = tmp_path / "frozen"
    assert run(
        "train", "--dataset", str(dataset), "--epochs", "1", "--seed", "15",
        "--out", str(frozen), "--t", "8", "--l-min", "2", "--l-max", "8",
        "--d-hidden", "4", "--d-ff", "3", "--batch-size", "8",
        "--d-in", "8", "--head-width", "8",
        "--head-checkpoint", str(head_run / "checkpoint.json"),
    ) == 0

    joint = tmp_path / "joint"
    code = run(
        "train", "--stage", "end-to-end", "--dataset", str(dataset),
        "--epochs", "1", "--seed", "16", "--out", str(joint),
        "--t", "8", "--l-min", "2", "--l-max", "8",
        "--d-hidden", "4", "--d-ff", "3", "--batch-size", "8",
        "--d-in", "8", "--head-width", "8", "--lr", "1e-5",
        "--head-checkpoint", str(head_run / "checkpoint.json"),
        "--checkpoint", str(frozen / "checkpoint.json"),
    )
    assert code == 0
    ck = load_checkpoint(joint / "checkpoint.json")
    assert ck.kind == "joint"
    assert "trunk.in.w" in ck.params and "gru0.wz" in ck.params

    # and the joint checkpoint evaluates
    code = run(
        "eval", "--dataset", str(dataset), "--checkpoint", str(joint / "checkpoint.json"),
        "--out", str(tmp_path / "joint_eval"), "--t", "8", "--l-min", "2", "--l-max", "8",
        "--d-hidden", "4", "--d-ff", "3", "--d-in", "8", "--head-width", "8",
    )
    assert code == 0


def test_ablate_emits_28_rows(tmp_path, capsys):
    data_path = gen_videos(tmp_path, seed=17, n=32)
    out = tmp_path / "ablation"
    code = run(
        "ablate", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16", "--dataset", str(data_path),
        "--epochs", "1", "--seed", "17", "--out", str(out), "--batch-size", "8",
    )
    assert code == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "schema_version,1"
    assert len(lines) == 2 + 28
    reps = {line.split(",")[0] for line in lines[2:]}
    assert reps == {"va", "expr", "au", "va+expr", "va+au", "expr+au", "all"}


def test_numeric_failure_exit_code(tmp_path, monkeypatch):
    from affectseq.autodiff import GraphError

    def boom(config):
        raise GraphError("non-finite loss at epoch 3 step 1")

    monkeypatch.setattr(cli, "cmd_train", boom)
    code = run("train", "--out", str(tmp_path / "x"))
    assert code == 4


def test_ablate_same_arguments_identical_bytes(tmp_path):
    data_path = gen_videos(tmp_path, seed=20, n=24)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = run(
            "ablate", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
            "--dataset", str(data_path), "--epochs", "1", "--seed", "20",
            "--out", str(out), "--batch-size", "8",
        )
        assert code == 0
        outs.append([(out / name).read_bytes() for name in ("ablation.csv", "ablation.txt")])
    assert outs[0] == outs[1]


def test_cli_import_starts_no_process_machinery():
    code = ("import sys, affectseq.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stdout == "[]\n"


def test_eval_empty_split_exits_2(tmp_path, capsys):
    data_path = gen_videos(tmp_path, seed=21, n=16)
    out = tmp_path / "run"
    assert run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--epochs", "0", "--seed", "21", "--out", str(out),
    ) == 0
    capsys.readouterr()
    code = run(
        "eval", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--checkpoint", str(out / "checkpoint.json"),
        "--split", "test", "--fractions", "0.7,0.3,0.0", "--out", str(tmp_path / "e"),
    )
    assert code == 2
    assert "test split is empty" in capsys.readouterr().err


def test_eval_one_video_split_exits_2(tmp_path, capsys):
    # a correlation over one video is undefined
    data_path = gen_videos(tmp_path, seed=23, n=8)
    out = tmp_path / "run"
    assert run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--epochs", "0", "--seed", "23", "--out", str(out),
    ) == 0
    capsys.readouterr()
    code = run(
        "eval", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--checkpoint", str(out / "checkpoint.json"),
        "--split", "val", "--fractions", "0.75,0.125,0.125", "--out", str(tmp_path / "e"),
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the val split holds 1 video under --fractions 0.75,0.125,0.125; "
        "eval needs at least 2\n")


def test_frozen_train_empty_train_split_exits_2(tmp_path, capsys):
    data_path = gen_videos(tmp_path, seed=22, n=8)
    code = run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--epochs", "1", "--fractions", "0,1,0",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert "train split is empty" in capsys.readouterr().err


def _rewrite_record(path, index, edit):
    """Apply `edit` to the arrays of one record of a dataset file."""
    header, records = read_dataset(path)
    edit(records[index])
    write_dataset(path, header, records)


def test_video_record_missing_label_exits_3(tmp_path, capsys):
    # the file ends where the last record's label starts
    data_path = gen_videos(tmp_path, seed=24, n=8)
    _rewrite_record(data_path, -1, lambda arrays: arrays.pop("label"))
    code = run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--epochs", "1", "--out", str(tmp_path / "x"),
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "record 8" in err and "'label'" in err and len(err.strip().splitlines()) == 1


def test_manifest_missing_kind_exits_3(tmp_path, capsys):
    data_path = gen_videos(tmp_path, seed=28, n=8)
    manifest = Path(f"{data_path}.manifest.json")
    blob = json.loads(manifest.read_text())
    blob.pop("kind")
    manifest.write_text(json.dumps(blob))
    capsys.readouterr()
    code = run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--epochs", "1", "--out", str(tmp_path / "x"),
    )
    assert code == 3
    err = capsys.readouterr().err
    assert f"manifest {manifest} lacks field 'kind'" in err and err.count("\n") == 1


def test_schema_1_manifest_exits_3(tmp_path, capsys):
    data_path = gen_videos(tmp_path, seed=29, n=8)
    manifest = Path(f"{data_path}.manifest.json")
    blob = json.loads(manifest.read_text())
    blob["schema_version"] = "1"
    manifest.write_text(json.dumps(blob))
    capsys.readouterr()
    code = run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--epochs", "1", "--out", str(tmp_path / "x"),
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err == (
        f"error: unsupported dataset schema '1' in manifest {manifest} (this version reads "
        "'3'); re-run gen to rebuild the dataset\n"
    )


def test_descriptor_video_with_nan_exits_3(tmp_path, capsys):
    out = tmp_path / "desc"
    assert run(
        "gen", "--n", "8", "--seed", "25", "--out", str(out), "--t", "8",
        "--l-min", "2", "--l-max", "8", "--feature-kind", "descriptor", "--d-in", "8",
    ) == 0
    data_path = out / "videos.jsonl"

    def poison(arrays):
        arrays["frames"][0, 0] = float("nan")

    _rewrite_record(data_path, 0, poison)
    code = run(
        "train", "--stage", "end-to-end", "--dataset", str(data_path), "--epochs", "1",
        "--t", "8", "--l-min", "2", "--l-max", "8", "--d-in", "8", "--out", str(tmp_path / "x"),
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "record 1" in err and "'frames'" in err and "non-finite" in err


def test_eval_checkpoint_with_string_data_exits_2(tmp_path, capsys):
    data_path = gen_videos(tmp_path, seed=26, n=8)
    out = tmp_path / "run"
    assert run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--epochs", "0", "--out", str(out),
    ) == 0
    ck_path = out / "checkpoint.json"
    header, arrays = read_checkpoint(ck_path)
    # bytes that hold no float64 value: all ones is a NaN pattern
    arrays["ff1.b"] = b"\xff" * arrays["ff1.b"].nbytes
    write_checkpoint(ck_path, header, arrays)
    capsys.readouterr()
    code = run(
        "eval", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--checkpoint", str(ck_path), "--out", str(tmp_path / "e"),
    )
    assert code == 2
    assert "parameter 'ff1.b': field 'data'" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, expected", [
    ("config", [1, 2], "field 'config' is not a JSON object"),
    ("schema_version", "1", "unsupported checkpoint schema '1'"),
])
def test_eval_checkpoint_with_bad_document_field_exits_2(tmp_path, capsys, field, value, expected):
    data_path = gen_videos(tmp_path, seed=27, n=8)
    out = tmp_path / "run"
    assert run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--epochs", "0", "--out", str(out),
    ) == 0
    ck_path = out / "checkpoint.json"
    header, arrays = read_checkpoint(ck_path)
    header[field] = value
    write_checkpoint(ck_path, header, arrays)
    capsys.readouterr()
    code = run(
        "eval", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--checkpoint", str(ck_path), "--out", str(tmp_path / "e"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert expected in err and err.count("\n") == 1


def test_eval_non_utf8_checkpoint_exits_2(tmp_path, capsys):
    data_path = gen_videos(tmp_path, seed=31, n=8)
    out = tmp_path / "run"
    assert run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--epochs", "0", "--out", str(out),
    ) == 0
    ck_path = out / "checkpoint.json"
    raw = bytearray(ck_path.read_bytes())
    raw[raw.index(b'"kind"') + 1] = 0xFF
    ck_path.write_bytes(bytes(raw))
    capsys.readouterr()
    code = run(
        "eval", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--checkpoint", str(ck_path), "--out", str(tmp_path / "e"),
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: checkpoint {ck_path} is not UTF-8 text\n"


@pytest.mark.parametrize("key, value", [
    ("t", "8"), ("mask", "no"), ("lr", float("inf")), ("schema_version", "2"),
])
def test_eval_checkpoint_config_field_of_wrong_type_exits_2(tmp_path, capsys, key, value):
    data_path = gen_videos(tmp_path, seed=30, n=8)
    out = tmp_path / "run"
    assert run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--epochs", "0", "--out", str(out),
    ) == 0
    ck_path = out / "checkpoint.json"
    header, arrays = read_checkpoint(ck_path)
    header["config"][key] = value
    write_checkpoint(ck_path, header, arrays)
    capsys.readouterr()
    code = run(
        "eval", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--checkpoint", str(ck_path), "--out", str(tmp_path / "e"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"stored config: {key} must be " in err and err.count("\n") == 1


@pytest.mark.parametrize("key, value", [("t", "8"), ("n", True)])
def test_manifest_field_of_wrong_type_exits_3(tmp_path, capsys, key, value):
    data_path = gen_videos(tmp_path, seed=31, n=8)
    manifest = Path(f"{data_path}.manifest.json")
    blob = json.loads(manifest.read_text())
    blob[key] = value
    manifest.write_text(json.dumps(blob))
    capsys.readouterr()
    code = run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--epochs", "1", "--out", str(tmp_path / "x"),
    )
    assert code == 3
    err = capsys.readouterr().err
    assert f"manifest {manifest}: field '{key}' is not an integer" in err and err.count("\n") == 1


# Small shapes for the mismatch matrix: models read t 8 or 16 and frames
# of width 8 (descriptors), 4 (a second head) or 26 (affect features).
SMALL = ("--l-min", "2", "--l-max", "8", "--d-hidden", "4", "--d-ff", "3",
         "--batch-size", "8", "--head-width", "8", "--n", "16", "--epochs", "0")


@pytest.fixture(scope="module")
def mismatch_runs(tmp_path_factory):
    """Datasets and zero-epoch checkpoints the mismatch cases combine."""
    root = tmp_path_factory.mktemp("mismatch")

    def make(command, name, *argv):
        assert run(command, *SMALL, "--out", str(root / name), *argv) == 0

    make("gen", "frames8", "--gen-kind", "frames", "--d-in", "8")
    make("gen", "frames4", "--gen-kind", "frames", "--d-in", "4")
    make("gen", "desc8", "--t", "8", "--feature-kind", "descriptor", "--d-in", "8")
    make("gen", "aff8", "--t", "8")
    make("gen", "aff16", "--t", "16")
    paths = {
        "frames8": root / "frames8" / "frames.jsonl",
        "desc8": root / "desc8" / "videos.jsonl",
        "aff8": root / "aff8" / "videos.jsonl",
        "narrow8": root / "narrow8" / "videos.jsonl",
    }
    # the first 10 columns of aff8: every affect invariant still holds
    samples, manifest = data.load_dataset(paths["aff8"])
    narrow = [replace(s, frames=s.frames[:, :10]) for s in samples]
    paths["narrow8"].parent.mkdir()
    data.save_dataset(paths["narrow8"], narrow, replace(manifest, d=10))
    for name, command in (
        ("head4", ("--stage", "mma", "--dataset", str(root / "frames4" / "frames.jsonl"),
                   "--d-in", "4")),
        ("agg8", ("--dataset", str(paths["aff8"]), "--t", "8")),
        ("agg16", ("--dataset", str(root / "aff16" / "videos.jsonl"), "--t", "16")),
        ("agg8x2", ("--dataset", str(paths["aff8"]), "--t", "8", "--gru-layers", "2")),
        ("head8x3", ("--stage", "mma", "--dataset", str(paths["frames8"]), "--d-in", "8",
                     "--head-blocks", "3")),
        ("joint8", ("--stage", "end-to-end", "--dataset", str(paths["desc8"]), "--t", "8",
                    "--d-in", "8")),
    ):
        make("train", name, *command)
        paths[name] = root / name / "checkpoint.json"
    return paths


# (argv with {name} for a path from mismatch_runs, substrings of the message)
MISMATCH_CASES = {
    "eval-head-flag-takes-aggregator": (
        "eval --dataset {desc8} --checkpoint {agg8} --head-checkpoint {agg8}",
        ("--head-checkpoint", "kind is 'aggregator', expected 'head'")),
    "train-frozen-head-width": (
        "train --dataset {desc8} --t 8 --head-checkpoint {head4}",
        ("--head-checkpoint expects frame width 4", "dataset has frame width 8")),
    "eval-head-width": (
        "eval --dataset {desc8} --checkpoint {agg8} --head-checkpoint {head4}",
        ("--head-checkpoint expects frame width 4", "dataset has frame width 8")),
    "train-joint-config-width": (
        "train --stage end-to-end --dataset {desc8} --t 8 --d-in 4",
        ("config expects frame width 4", "dataset has frame width 8")),
    "eval-aggregator-t": (
        "eval --dataset {aff8} --checkpoint {agg16}",
        ("checkpoint expects t 16", "dataset has t 8")),
    "eval-joint-on-affect-videos": (
        "eval --dataset {aff8} --checkpoint {joint8}",
        ("checkpoint expects frame width 8", "dataset has frame width 26")),
    "train-frozen-config-t": (
        "train --dataset {aff8} --t 16",
        ("config expects t 16", "dataset has t 8")),
    "train-frozen-init-is-joint": (
        "train --dataset {aff8} --t 8 --checkpoint {joint8}",
        ("--checkpoint", "kind is 'joint', expected 'aggregator'")),
    "train-joint-init-is-joint": (
        "train --stage end-to-end --dataset {desc8} --t 8 --d-in 8 --checkpoint {joint8}",
        ("--checkpoint", "kind is 'joint', expected 'aggregator'")),
    "train-frozen-init-has-extra-layer": (
        "train --dataset {aff8} --t 8 --checkpoint {agg8x2}",
        ("--checkpoint: checkpoint has extra parameter 'gru1.bh'",)),
    "train-joint-head-init-has-extra-block": (
        "train --stage end-to-end --dataset {desc8} --t 8 --d-in 8 --head-checkpoint {head8x3}",
        ("--head-checkpoint: checkpoint has extra parameter 'trunk.block2.b'",)),
    "train-head-config-width": (
        "train --stage mma --dataset {frames8} --d-in 4",
        ("config expects frame width 4", "dataset has frame width 8")),
    "ablate-config-t": (
        "ablate --dataset {aff8} --t 16",
        ("config expects t 16", "dataset has t 8")),
    "train-frozen-affect-width": (
        "train --dataset {narrow8} --t 8",
        ("an affect video dataset expects frame width 26", "dataset has frame width 10")),
    "train-frozen-affect-width-va-columns": (
        "train --dataset {narrow8} --t 8 --representation va",
        ("an affect video dataset expects frame width 26", "dataset has frame width 10")),
    "eval-affect-width": (
        "eval --dataset {narrow8} --checkpoint {agg8}",
        ("an affect video dataset expects frame width 26", "dataset has frame width 10")),
}


@pytest.mark.parametrize("case", sorted(MISMATCH_CASES))
def test_dataset_checkpoint_mismatch_exits_2(mismatch_runs, tmp_path, capsys, case):
    template, expected = MISMATCH_CASES[case]
    command, *argv = template.format(**mismatch_runs).split()
    capsys.readouterr()
    code = run(command, *SMALL, *argv, "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.count("\n") == 1, err
    for text in expected:
        assert text in err, err


def test_eval_checkpoint_with_extra_parameter_exits_2(mismatch_runs, tmp_path, capsys):
    ck = load_checkpoint(mismatch_runs["agg8"])
    doctored = tmp_path / "checkpoint.json"
    save_checkpoint(doctored, {**ck.params, "ff2.w": np.zeros((3, 3))}, ck.config, ck.kind)
    capsys.readouterr()
    code = run("eval", *SMALL, "--dataset", str(mismatch_runs["aff8"]),
               "--checkpoint", str(doctored), "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == "error: eval: checkpoint has extra parameter 'ff2.w'\n"


# (argv with {name} for a path from mismatch_runs, the one-line message).
# Of 16 samples, 0,0.5,0.5 leaves no train sample, 1,0,0 no val sample,
# 0.875,0.0625,0.0625 one val video and 0.0625,0.5,0.4375 one train video.
SPLIT_CASES = {
    "mma-empty-train": (
        "train --stage mma --dataset {frames8} --d-in 8 --fractions 0,0.5,0.5",
        "the train split is empty under --fractions 0,0.5,0.5"),
    "joint-empty-train": (
        "train --stage end-to-end --dataset {desc8} --t 8 --d-in 8 --fractions 0,0.5,0.5",
        "the train split is empty under --fractions 0,0.5,0.5"),
    "mma-empty-val": (
        "train --stage mma --dataset {frames8} --d-in 8 --fractions 1,0,0",
        "the val split is empty under --fractions 1,0,0"),
    "frozen-one-video-val": (
        "train --dataset {aff8} --t 8 --fractions 0.875,0.0625,0.0625",
        "the val split holds 1 video under --fractions 0.875,0.0625,0.0625; "
        "train needs at least 2"),
    "joint-one-video-val": (
        "train --stage end-to-end --dataset {desc8} --t 8 --d-in 8 "
        "--fractions 0.875,0.0625,0.0625",
        "the val split holds 1 video under --fractions 0.875,0.0625,0.0625; "
        "train needs at least 2"),
    "ablate-one-video-val": (
        "ablate --dataset {aff8} --t 8 --fractions 0.875,0.0625,0.0625",
        "the val split holds 1 video under --fractions 0.875,0.0625,0.0625; "
        "ablate needs at least 2"),
    "frozen-pearson-one-video-train": (
        "train --dataset {aff8} --t 8 --fractions 0.0625,0.5,0.4375",
        "the train split holds 1 video under --fractions 0.0625,0.5,0.4375; "
        "train needs at least 2"),
    # the sweep trains with the Pearson loss whatever --loss says
    "ablate-one-video-train": (
        "ablate --dataset {aff8} --t 8 --loss mse --fractions 0.0625,0.5,0.4375",
        "the train split holds 1 video under --fractions 0.0625,0.5,0.4375; "
        "ablate needs at least 2"),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_too_small_to_train_or_score_exits_2(mismatch_runs, tmp_path, capsys, case):
    template, expected = SPLIT_CASES[case]
    command, *argv = template.format(**mismatch_runs).split()
    capsys.readouterr()
    code = run(command, *SMALL, *argv, "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == f"error: {expected}\n"
    assert not (tmp_path / "out" / "checkpoint.json").exists()


def test_mse_trains_on_one_video_train_split(mismatch_runs, tmp_path):
    # an MSE batch of one video has a loss; a Pearson batch does not
    out = tmp_path / "out"
    assert run("train", *SMALL, "--dataset", str(mismatch_runs["aff8"]), "--t", "8",
               "--loss", "mse", "--epochs", "1", "--fractions", "0.0625,0.5,0.4375",
               "--out", str(out)) == 0
    assert "nan" not in (out / "curve.csv").read_text()


def test_impossible_allocation_exits_2(tmp_path, capsys):
    # 10^13 rows of 26 float64s is about 2 PiB, which no host maps: the
    # allocation fails at once
    code = run("gen", "--preset", "desk", "--n", "1", "--t", "10000000000000",
               "--l-min", "1", "--l-max", "1", "--out", str(tmp_path / "x"))
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err


def test_memory_error_without_message_exits_2(tmp_path, capsys, monkeypatch):
    def exhausted(config):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_gen", exhausted)
    assert run("gen", "--out", str(tmp_path / "x")) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_manifest_unknown_kind_exits_3(tmp_path, capsys):
    data_path = gen_videos(tmp_path, seed=29, n=8)
    manifest = Path(f"{data_path}.manifest.json")
    blob = json.loads(manifest.read_text())
    blob["kind"] = "bogus"
    manifest.write_text(json.dumps(blob))
    capsys.readouterr()
    code = run(
        "train", "--preset", "desk", "--t", "16", "--l-min", "4", "--l-max", "16",
        "--dataset", str(data_path), "--epochs", "1", "--out", str(tmp_path / "x"),
    )
    assert code == 3
    err = capsys.readouterr().err
    assert f"manifest {manifest}: field 'kind' is 'bogus'" in err and err.count("\n") == 1


# The batch-size rule: only a run that trains the Pearson loss on video
# batches needs two videos a batch. gen, eval, gradcheck and the head
# stage take --batch-size 1; ablate sweeps the Pearson loss whatever
# --loss says.

@pytest.mark.parametrize("template", [
    "gen --t 8 --n 4",
    "eval --dataset {aff8} --checkpoint {agg8}",
    "train --stage mma --dataset {frames8} --d-in 8 --epochs 1",
    "train --dataset {aff8} --t 8 --loss mse --epochs 1",
], ids=["gen", "eval", "mma", "frozen-mse"])
def test_batch_of_one_runs_where_no_pearson_loss_trains(mismatch_runs, tmp_path, capsys,
                                                       template):
    command, *argv = template.format(**mismatch_runs).split()
    code = run(command, *SMALL, *argv, "--batch-size", "1", "--out", str(tmp_path / "out"))
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("template, loss, command", [
    ("train --dataset {aff8} --t 8", "pearson", "train"),
    ("train --stage end-to-end --dataset {desc8} --t 8 --d-in 8", "pearson", "train"),
    ("ablate --dataset {aff8} --t 8 --loss mse", "pearson", "ablate"),
], ids=["frozen", "end-to-end", "ablate-mse"])
def test_pearson_batch_of_one_exits_2(mismatch_runs, tmp_path, capsys, template, loss, command):
    name, *argv = template.format(**mismatch_runs).split()
    capsys.readouterr()
    code = run(name, *SMALL, *argv, "--batch-size", "1", "--out", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {command} trains the {loss} loss, whose batches need at least 2 videos; "
        "got --batch-size 1\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("epochs", ["1", "2"])
@pytest.mark.parametrize("stage, loss", [("mrnn-frozen", "pearson"), ("mrnn-frozen", "mse"),
                                         ("end-to-end", "pearson")])
def test_diverging_aggregator_run_exits_4_with_one_line(mismatch_runs, tmp_path, capsys,
                                                        epochs, stage, loss):
    # one batch an epoch at lr 1e300 blows the output layer up: the
    # validation moments overflow float64 before a second step can run
    dataset = ("--dataset", str(mismatch_runs["aff8"])) if stage == "mrnn-frozen" else (
        "--dataset", str(mismatch_runs["desc8"]), "--d-in", "8", "--head-width", "8")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run("train", "--preset", "desk", "--t", "8", "--l-min", "2", "--l-max", "8",
                   "--stage", stage, *dataset, "--lr", "1e300", "--loss", loss,
                   "--epochs", epochs, "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 4, err
    assert err.startswith("numeric failure: validation failed: class '") and err.count("\n") == 1
    assert err.endswith("': the Pearson moments overflow float64\n"), err


def _stored_text(out):
    """The text of every CSV and JSON file under `out`; a checkpoint
    contributes its header line."""
    for path in sorted(out.rglob("*")):
        if path.suffix in (".csv", ".json"):
            raw = path.read_bytes()
            yield path, (raw.partition(b"\n")[0] if path.name == "checkpoint.json" else raw)


@pytest.mark.parametrize("template", [
    "train --dataset {aff8} --t 8",
    "train --stage end-to-end --dataset {desc8} --t 8 --d-in 8",
], ids=["frozen", "end-to-end"])
def test_empty_val_split_trains_without_validation(mismatch_runs, tmp_path, capsys, template):
    command, *argv = template.format(**mismatch_runs).split()
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, *SMALL, *argv, "--epochs", "2", "--fractions", "1,0,0",
               "--out", str(out)) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "last epoch 2 (empty val split: no validation)")
    assert (out / "curve.csv").read_text().splitlines()[1] == "epoch,train_loss"
    for path, text in _stored_text(out):
        assert b"nan" not in text.lower(), path


@pytest.mark.parametrize("template, columns", [
    ("train --stage mma --dataset {frames8} --d-in 8", "epoch,train_loss,val_loss"),
    ("train --dataset {aff8} --t 8", "epoch,train_loss,val_mean_rho"),
    ("train --stage end-to-end --dataset {desc8} --t 8 --d-in 8", "epoch,train_loss,val_mean_rho"),
    ("train --dataset {aff8} --t 8 --fractions 1,0,0", "epoch,train_loss"),
], ids=["mma", "frozen", "end-to-end", "frozen-no-val"])
def test_zero_epoch_curve_names_the_stage_columns(mismatch_runs, tmp_path, template, columns):
    command, *argv = template.format(**mismatch_runs).split()
    out = tmp_path / "out"
    assert run(command, *SMALL, *argv, "--epochs", "0", "--out", str(out)) == 0
    assert (out / "curve.csv").read_text() == f"schema_version,1\n{columns}\n"


# A grid over the split fractions and batch size of train, eval and
# ablate, the loss of each run drawn from a seeded stream: every run
# succeeds or exits 2, 3 or 4 with one stderr line, and a run that
# succeeds writes no NaN into any CSV or JSON file.

_GRID_FRACTIONS = ("1,0,0", "0.875,0.0625,0.0625", "0.5,0.25,0.25", "0.0625,0.5,0.4375",
                   "0,0.5,0.5")


@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_fractions_and_batch_size_grid_exits_cleanly(mismatch_runs, tmp_path, capsys, command):
    argv = {
        "train": ("--dataset", str(mismatch_runs["aff8"]), "--t", "8"),
        "eval": ("--dataset", str(mismatch_runs["aff8"]),
                 "--checkpoint", str(mismatch_runs["agg8"]), "--split", "train"),
        "ablate": ("--dataset", str(mismatch_runs["aff8"]), "--t", "8"),
    }[command]
    rng = np.random.default_rng(17)
    codes = []
    for i, (fractions, batch_size) in enumerate(itertools.product(_GRID_FRACTIONS,
                                                                  ("1", "2", "16"))):
        loss = str(rng.choice(["pearson", "mse"]))
        out = tmp_path / f"run{i}"
        capsys.readouterr()
        code = run(command, *argv, *SMALL, "--epochs", "1", "--fractions", fractions,
                   "--batch-size", batch_size, "--loss", loss, "--out", str(out))
        err = capsys.readouterr().err
        case = (command, fractions, batch_size, loss, err)
        assert code in (0, 2, 3, 4), case
        codes.append(code)
        if code:
            assert err.count("\n") == 1, case
            continue
        for path, text in _stored_text(out):
            assert b"nan" not in text.lower(), (case, path)
    assert 0 in codes and 2 in codes, codes


def test_config_flags_are_declared_once():
    # every subcommand shares the one set of config flag actions
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    shared = [{a.dest: a for a in sub._actions if a.dest != "help"}
              for sub in subcommands.choices.values()]
    for dest in ["config_file", *(f.name for f in fields(RunConfig))]:
        assert all(actions[dest] is shared[0][dest] for actions in shared), dest
