import json

import pytest

from affectseq.config import ConfigError, PRESETS, RunConfig, build_config


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
        ({"batch_size": 1}, "pearson"),
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
