import numpy as np
import pytest

from affectseq import aggregator as agg
from affectseq import affect_head as head
from affectseq import metrics, training
from affectseq.data import (
    FrameRecipe,
    VideoRecipe,
    gen_frame_dataset,
    gen_video_dataset,
    split,
    video_arrays,
)
from affectseq.optim import adam_init, init_params

AGG = agg.AggregatorConfig(d_in=26, t=12, d_hidden=8, d_ff=4)


def video_parts(seed=0, n=48, t=12):
    samples, _ = gen_video_dataset(seed, n, VideoRecipe(l_min=3, l_max=t), t)
    return split(samples, (0.7, 0.3, 0.0), seed=seed)


def test_train_aggregator_tracks_best_epoch():
    parts = video_parts()
    outcome = training.train_aggregator(
        parts["train"], parts["val"], AGG,
        epochs=8, batch_size=8, lr=1e-2, loss_kind="pearson", seed=1,
    )
    assert len(outcome.history) == 8
    metrics_seen = [row["val_mean_rho"] for row in outcome.history]
    assert outcome.best_metric >= max(metrics_seen) - 1e-12
    if outcome.best_epoch > 0:
        assert outcome.best_metric == metrics_seen[outcome.best_epoch - 1]
    preds = agg.predict(parts["val"], outcome.params, AGG)
    labels = np.asarray([s.label for s in parts["val"]])
    assert metrics.evaluate(preds, labels).mean == pytest.approx(outcome.best_metric, abs=1e-12)


def test_train_aggregator_zero_epochs_returns_init():
    parts = video_parts(seed=2)
    outcome = training.train_aggregator(
        parts["train"], parts["val"], AGG,
        epochs=0, batch_size=8, lr=1e-2, loss_kind="pearson", seed=3,
    )
    init = init_params(AGG, 3)
    for name in init:
        np.testing.assert_array_equal(outcome.params[name], init[name])
    assert outcome.history == []


def test_train_aggregator_deterministic():
    parts = video_parts(seed=4)
    runs = [
        training.train_aggregator(
            parts["train"], parts["val"], AGG,
            epochs=4, batch_size=8, lr=1e-2, loss_kind="pearson", seed=5,
        )
        for _ in range(2)
    ]
    assert runs[0].history == runs[1].history
    for name in runs[0].params:
        np.testing.assert_array_equal(runs[0].params[name], runs[1].params[name])


def test_train_head_descends():
    samples, _ = gen_frame_dataset(6, 48, FrameRecipe(d_in=8))
    parts = split(samples, (0.75, 0.25, 0.0), seed=6)
    config = head.HeadConfig(d_in=8, width=8, n_blocks=1)
    outcome = training.train_head(
        parts["train"], parts["val"], config,
        epochs=10, batch_size=16, lr=3e-3, seed=7,
    )
    assert outcome.history[-1]["train_loss"] < outcome.history[0]["train_loss"]
    assert outcome.best_metric <= outcome.history[0]["val_loss"]


def test_transform_videos_emits_affect_frames():
    recipe = VideoRecipe(l_min=2, l_max=6, feature_kind="descriptor", d_in=10)
    samples, _ = gen_video_dataset(8, 5, recipe, t=6)
    config = head.HeadConfig(d_in=10, width=8, n_blocks=1)
    params = init_params(config, seed=9)
    affect = training.transform_videos(samples, params, config)
    assert affect[0].frames.shape == (6, 26)
    assert affect[0].length == samples[0].length
    np.testing.assert_array_equal(affect[0].label, samples[0].label)
    # per-frame: transformed rows match a direct head pass
    row = head.head_forward(samples[0].frames[1], params, config).concat()
    np.testing.assert_allclose(affect[0].frames[1], row, atol=1e-14)


def test_joint_forward_composes_stages():
    recipe = VideoRecipe(l_min=2, l_max=6, feature_kind="descriptor", d_in=10)
    samples, _ = gen_video_dataset(10, 3, recipe, t=6)
    head_config = head.HeadConfig(d_in=10, width=8, n_blocks=1)
    agg_config = agg.AggregatorConfig(d_in=26, t=6, d_hidden=4, d_ff=3)
    hp = init_params(head_config, seed=11)
    ap = init_params(agg_config, seed=12)
    s = samples[0]
    direct = training.joint_forward(s.frames, s.length, hp, head_config, ap, agg_config)
    via_transform = agg.video_forward(
        training.transform_videos([s], hp, head_config)[0].frames, s.length, ap, agg_config
    )
    np.testing.assert_allclose(direct, via_transform, atol=1e-14)


def test_train_joint_updates_both_stages():
    recipe = VideoRecipe(l_min=2, l_max=6, feature_kind="descriptor", d_in=10)
    samples, _ = gen_video_dataset(13, 24, recipe, t=6)
    parts = split(samples, (0.75, 0.25, 0.0), seed=13)
    head_config = head.HeadConfig(d_in=10, width=8, n_blocks=1)
    agg_config = agg.AggregatorConfig(d_in=26, t=6, d_hidden=4, d_ff=3)
    outcome = training.train_joint(
        parts["train"], parts["val"], head_config, agg_config,
        epochs=2, batch_size=8, lr=1e-3, loss_kind="pearson", seed=14,
    )
    assert len(outcome.history) == 2
    head_names = set(head_config.param_shapes())
    agg_names = set(agg_config.param_shapes())
    assert head_names <= set(outcome.params) and agg_names <= set(outcome.params)


def _stub_fit(metrics, epochs, higher_is_better=True):
    """fit over 5 examples whose step adds 1 to "w" and validates by
    reading the next value of `metrics` (epoch 0 first)."""
    values = iter(metrics)

    def step(p, state, idx):
        return {"w": p["w"] + 1.0}, state, float(len(idx))

    return training.fit(
        {"w": np.zeros(2)}, 5, step, lambda p: next(values),
        epochs=epochs, batch_size=2, seed=0, min_size=1,
        metric_key="m", higher_is_better=higher_is_better,
    )


def test_fit_earlier_epoch_wins_ties():
    outcome = _stub_fit([0.1, 0.5, 0.5, 0.2], epochs=3)
    assert outcome.best_epoch == 1 and outcome.best_metric == 0.5
    np.testing.assert_array_equal(outcome.params["w"], np.full(2, 3.0))  # 3 steps/epoch
    assert [row["m"] for row in outcome.history] == [0.5, 0.5, 0.2]
    assert outcome.history[0] == {"epoch": 1, "train_loss": 5.0 / 3.0, "m": 0.5}


def test_fit_without_validation_keeps_last_epoch():
    def step(p, state, idx):
        return {"w": p["w"] + 1.0}, state, float(len(idx))

    outcome = training.fit({"w": np.zeros(2)}, 5, step, None, epochs=3, batch_size=2, seed=0,
                           metric_key="m", higher_is_better=True)
    assert outcome.best_epoch == 3 and outcome.best_metric is None
    np.testing.assert_array_equal(outcome.params["w"], np.full(2, 9.0))  # 3 steps/epoch
    assert outcome.history == [{"epoch": e, "train_loss": 5.0 / 3.0} for e in (1, 2, 3)]


def test_fit_lower_is_better_tracks_minimum():
    outcome = _stub_fit([0.5, 0.4, 0.1, 0.3], epochs=3, higher_is_better=False)
    assert outcome.best_epoch == 2 and outcome.best_metric == 0.1
    np.testing.assert_array_equal(outcome.params["w"], np.full(2, 6.0))


def test_fit_zero_epochs_returns_initial_params():
    outcome = _stub_fit([0.3], epochs=0)
    assert outcome.history == [] and outcome.best_epoch == 0 and outcome.best_metric == 0.3
    np.testing.assert_array_equal(outcome.params["w"], np.zeros(2))


def test_fit_keeps_best_epoch_params_without_copying():
    # real Adam steps; the scripted metric makes epoch 1 of 3 the best
    samples, _ = gen_video_dataset(6, 16, VideoRecipe(l_min=3, l_max=12), 12)
    frames, lengths, labels = video_arrays(samples)
    runner = agg.BatchRunner(AGG, 4, "pearson")
    init = init_params(AGG, 7)
    original = {k: v.copy() for k, v in init.items()}
    snapshots, values = [], iter([0.0, 0.9, 0.5, 0.1])

    def step(p, state, idx):
        return runner.step(p, state, frames[idx], lengths[idx], labels[idx], 1e-2)

    def validate(p):
        snapshots.append({k: v.copy() for k, v in p.items()})
        return next(values)

    outcome = training.fit(init, len(frames), step, validate, epochs=3, batch_size=4,
                           seed=0, metric_key="m", higher_is_better=True)
    assert outcome.best_epoch == 1 and len(snapshots) == 4
    assert any(not np.array_equal(snapshots[1][k], snapshots[3][k]) for k in init)
    for name in init:
        np.testing.assert_array_equal(outcome.params[name], snapshots[1][name])
        np.testing.assert_array_equal(init[name], original[name])


def _joint_setup(seed, n=4):
    recipe = VideoRecipe(l_min=2, l_max=6, feature_kind="descriptor", d_in=10)
    samples, _ = gen_video_dataset(seed, n, recipe, t=6)
    head_config = head.HeadConfig(d_in=10, width=8, n_blocks=1)
    agg_config = agg.AggregatorConfig(d_in=26, t=6, d_hidden=4, d_ff=3)
    params = init_params(head_config, seed=seed + 1)
    params.update(init_params(agg_config, seed=seed + 2))
    return samples, head_config, agg_config, params


def test_joint_runner_forward_matches_joint_forward():
    samples, head_config, agg_config, params = _joint_setup(seed=15)
    frames, lengths, _ = video_arrays(samples)
    runner = training.JointRunner(head_config, agg_config, len(samples), None)
    batch_u = runner.forward(params, frames, lengths)
    hp, ap = training.split_joint_params(params, head_config)
    for i, s in enumerate(samples):
        twin = training.joint_forward(s.frames, s.length, hp, head_config, ap, agg_config)
        np.testing.assert_allclose(batch_u[i], twin, atol=1e-12)


def test_joint_runner_step_rejects_aggregator_width_frames():
    samples, head_config, agg_config, params = _joint_setup(seed=16)
    _, lengths, labels = video_arrays(samples)
    runner = training.JointRunner(head_config, agg_config, len(samples), "pearson")
    affect = np.zeros((len(samples), agg_config.t, agg_config.d_in))
    with pytest.raises(ValueError, match="frames shape"):
        runner.step(params, adam_init(params), affect, lengths, labels, 1e-3)


def test_curve_files(tmp_path):
    history = [
        {"epoch": 1, "train_loss": 0.9, "val_mean_rho": 0.1},
        {"epoch": 2, "train_loss": 0.5, "val_mean_rho": 0.4},
    ]
    csv_path = tmp_path / "curve.csv"
    training.write_curve_csv(csv_path, history, list(history[0]))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "schema_version,1"
    assert lines[1] == "epoch,train_loss,val_mean_rho"
    assert len(lines) == 4

    svg_path = tmp_path / "curve.svg"
    training.write_curve_svg(svg_path, history)
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "polyline" in svg and "</svg>" in svg
