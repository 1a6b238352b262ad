import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectseq import data
from affectseq.config import ConfigError, PRESETS, RunConfig, build_config
from helpers import BAD_VALUES, always_rejected, run_quietly, small_run_inputs


def test_defaults_validate():
    config = build_config()
    assert config.stage == "mrnn-frozen"
    assert config.loss == "pearson"


def test_presets_apply():
    desk = build_config(overrides={"preset": "desk"})
    assert (desk.t, desk.d_hidden, desk.d_ff, desk.batch_size) == (32, 16, 8, 16)
    paper = build_config(overrides={"preset": "paper"})
    assert (paper.t, paper.d_hidden, paper.d_ff, paper.batch_size) == (480, 128, 32, 4)
    assert paper.lr == pytest.approx(1e-4)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        build_config(overrides={"preset": "galaxy"})


def test_file_overrides_preset_and_flags_override_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"preset": "desk", "epochs": 9, "lr": 0.5}))
    config = build_config(config_file=path, overrides={"lr": 0.25})
    assert config.preset == "desk"
    assert config.t == 32  # from preset
    assert config.epochs == 9  # from file
    assert config.lr == 0.25  # flag wins


def test_unknown_file_keys_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lerning_rate": 0.1}))
    with pytest.raises(ConfigError, match="unknown config keys: lerning_rate"):
        build_config(config_file=path)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{oops")
    with pytest.raises(ConfigError, match="not valid JSON"):
        build_config(config_file=path)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"stage": "pretrain"}, "stage"),
        ({"loss": "huber"}, "loss"),
        ({"representation": "pixels"}, "representation"),
        ({"l_min": 10, "l_max": 5}, "l_min"),
        ({"l_max": 99, "t": 32}, "l_max"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"epochs": -1}, "epochs"),
        ({"fractions": "0.5,0.5"}, "fractions"),
        ({"label_mix": "va:0.5,maybe:0.5"}, "label_mix"),
        ({"gru_layers": 3}, "gru_layers"),
        ({"t": "8"}, "t must be an integer, got '8'"),
        ({"t": 8.0}, "t must be an integer, got 8.0"),
        ({"epochs": True}, "epochs must be an integer, got True"),
        ({"mask": "no"}, "mask must be true or false, got 'no'"),
        ({"mask": 1}, "mask must be true or false, got 1"),
        ({"lr": "0.1"}, "lr must be a number, got '0.1'"),
        ({"lr": False}, "lr must be a number, got False"),
        ({"stage": 3}, "stage must be a string, got 3"),
        ({"dataset": 7}, "dataset must be a string or null, got 7"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"fractions": "0.5,nan,0.5"}, "fractions must be 3 finite"),
        ({"label_mix": "va:nan"}, "label_mix fractions must be finite"),
        ({"lr": float("inf")}, "lr must be finite, got inf"),
        ({"lr": 10**400}, "lr must be finite"),
        ({"feature_noise": float("nan")}, "feature_noise must be finite, got nan"),
        ({"temperature": 0}, "temperature must be > 0"),
        ({"n": 0}, "n must be >= 1"),
        ({"l_min": 0}, "need 1 <= l_min <= l_max"),
        ({"padding": "wrap"}, "bad padding 'wrap'"),
        ({"feature_kind": "x"}, "bad feature_kind 'x'"),
        ({"fractions": "0.5,0.3,0.3"}, "fractions must be 3 finite"),
        ({"label_mix": "va:0.6,au:0.5"}, "label_mix fractions must be finite"),
    ],
)
def test_validation_failures(overrides, message):
    with pytest.raises(ConfigError, match=message):
        build_config(overrides=overrides)


def test_float_fields_accept_integers():
    config = build_config(overrides={"lr": 1, "feature_noise": 0})
    assert (config.lr, config.feature_noise) == (1, 0)


def test_fraction_and_mix_parsing():
    config = build_config(overrides={"fractions": "0.5,0.25,0.25", "label_mix": "va:0.4,au:0.6"})
    assert config.parse_fractions() == (0.5, 0.25, 0.25)
    assert config.parse_label_mix() == (("va", 0.4), ("au", 0.6))


def test_echo_writes_effective_config(tmp_path):
    config = build_config(overrides={"preset": "desk"})
    config.echo(tmp_path)
    blob = json.loads((tmp_path / "effective_config.json").read_text())
    assert blob["schema_version"] == "1"
    assert blob["t"] == 32
    # the echoed file itself is a valid config file
    rebuilt = build_config(config_file=tmp_path / "effective_config.json")
    assert rebuilt.to_dict() == config.to_dict()


def test_derived_component_configs():
    config = build_config(overrides={"preset": "desk", "representation": "va+au"})
    agg_config = config.aggregator_config()
    assert agg_config.d_in == 19
    assert agg_config.t == 32
    head_config = config.head_config()
    assert head_config.d_in == 64
    recipe = config.video_recipe()
    assert recipe.l_min == 8 and recipe.l_max == 32


def test_desk_and_paper_presets_exist():
    assert set(PRESETS) == {"desk", "paper"}


# Config fuzz: one field of a config file set to a malformed value, run
# through gen, train and eval at small shapes. The run succeeds or exits
# 2, 3 or 4 with one stderr line; a list, an object or a non-finite
# number is always a config error. `out` is not fuzzed: the command line
# sets it, so the run writes only under the test's directory.

_FUZZED_FIELDS = sorted({f.name for f in fields(RunConfig)} - {"out"} | {"schema_version"})


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("config_fuzz")
    return root, small_run_inputs(root)[1]


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(command=st.sampled_from(["gen", "train", "eval"]),
       key=st.sampled_from(_FUZZED_FIELDS), value=st.sampled_from(BAD_VALUES))
def test_mutated_config_file_runs_or_exits_cleanly(fuzz_inputs, command, key, value):
    root, base = fuzz_inputs
    path = root / "config.json"
    path.write_text(json.dumps({**base, key: value}))
    out = root / "out"
    code, err = run_quietly([command, "--config", str(path), "--out", str(out)])
    assert code in (0, 2, 3, 4), (key, value, err)
    if code:
        assert err.count("\n") == 1, (key, value, err)
    if always_rejected(value):
        assert code == 2 and f"{key} must be" in err, (key, value, err)
    if command == "gen" and code == 0:
        data.load_dataset(out / "videos.jsonl")
