"""Acceptance gate: one test per criterion, slowest last.

Run with plain pytest; the conftest hook prints one PASS/FAIL line per
criterion in the terminal summary. The training-based criteria check
directions and thresholds on synthetic data, not any published numbers.
"""

import json
import math
import time

import numpy as np
import pytest

from affectseq import aggregator as agg
from affectseq import cli, data, metrics, training
from affectseq.affect_space import AU_IDS, EXPRESSIONS, relatedness_matrix
from affectseq.config import build_config
from affectseq.data import VideoRecipe, gen_video_dataset, select_columns, split
from affectseq.optim import init_params
from helpers import ccc_flagged, coupling_loss, expected_aus, pearson_loss, va_loss


def test_c01_gradient_fidelity(tmp_path):
    # every loss and layer: analytic vs central differences at eps 1e-6,
    # >= 100 coordinates each, max rel error < 1e-4, under 2 minutes
    started = time.perf_counter()
    code = cli.main(["gradcheck", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - started
    assert code == 0
    blob = json.loads((tmp_path / "gradient_report.json").read_text())
    assert blob["failures"] == []
    losses = {"loss_ccc", "loss_cce", "loss_bce", "loss_dm", "loss_mma", "loss_pearson", "loss_mse"}
    layers = {"layer_trunk", "layer_head_va", "layer_head_expr", "layer_head_au",
              "layer_gru", "layer_mask", "layer_ff1", "layer_ff_out"}
    assert losses | layers <= set(blob["targets"])
    for name, target in blob["targets"].items():
        assert target["epsilon"] == 1e-6
        assert target["n_coords"] >= 100, name
        assert target["max_rel_error"] < 1e-4, name
    assert elapsed < 120.0


def test_c02_relatedness_table_entry_by_entry():
    related = {
        "happiness": {6, 12, 25},
        "sadness": {1, 4, 6, 11, 15, 17},
        "fear": {1, 2, 4, 5, 20, 25, 26},
        "anger": {4, 7, 10, 17, 23, 24},
        "surprise": {1, 2, 5, 25, 26},
        "disgust": {4, 9, 10, 17, 24},
        "neutral": set(),
    }
    m = relatedness_matrix()
    for e, expression in enumerate(EXPRESSIONS):
        for a, au in enumerate(AU_IDS):
            expected = 1.0 if au in related[expression] else 0.0
            assert m[e, a] == expected, (expression, au)


def test_c03_mixture_and_coupling_match_scalar_oracles():
    rng = np.random.default_rng(303)
    m = relatedness_matrix()
    for _ in range(1000):
        expr = rng.dirichlet(np.ones(7))
        brute = np.zeros(17)
        for a in range(17):
            for e in range(7):
                brute[a] += expr[e] * m[e][a]
        np.testing.assert_allclose(expected_aus(expr), brute, atol=1e-12)

    for _ in range(1000):
        p = rng.uniform(1e-9, 1.0, size=17)
        t = rng.uniform(0.0, 1.0, size=17)
        loop = -sum(t[i] * math.log(max(p[i], 1e-12)) for i in range(17))
        assert coupling_loss(p, t) == pytest.approx(loop, abs=1e-12)
    # batch form averages the per-sample sums
    probs = rng.uniform(1e-3, 1.0, size=(10, 17))
    targets = rng.uniform(0.0, 1.0, size=(10, 17))
    loop = np.mean([
        -sum(targets[k][i] * math.log(max(probs[k][i], 1e-12)) for i in range(17))
        for k in range(10)
    ])
    assert coupling_loss(probs, targets) == pytest.approx(loop, abs=1e-12)


def test_c04_masking_invariants():
    config = agg.AggregatorConfig(d_in=10, t=8, d_hidden=4, d_ff=3)
    rng = np.random.default_rng(404)
    runner = agg.BatchRunner(config, 1, loss_kind="mse")
    for trial in range(100):
        params = init_params(config, seed=trial)
        length = int(rng.integers(1, config.t))  # strictly < t
        frames = np.zeros((config.t, config.d_in))
        frames[:length] = rng.normal(size=(length, config.d_in))

        u = agg.video_forward(frames, length, params, config)
        corrupted = frames.copy()
        corrupted[length:] = rng.normal(size=(config.t - length, config.d_in)) * 50.0
        u2 = agg.video_forward(corrupted, length, params, config)
        np.testing.assert_array_equal(u, u2)

        labels = rng.uniform(0, 1, size=(1, 7))
        bindings = agg.batch_bindings(
            config, params, corrupted[None, ...], np.array([length]), labels
        )
        runner.graph.evaluate(bindings)
        grads = runner.graph.backward()
        assert np.all(grads["ff1.w"][length * config.d_hidden:, :] == 0.0)


def test_c05_loss_identities():
    rng = np.random.default_rng(505)
    labels = rng.uniform(0, 1, size=(12, 7))
    assert pearson_loss(labels, labels) == pytest.approx(0.0, abs=1e-12)
    assert pearson_loss(-labels, labels) == pytest.approx(2.0, abs=1e-12)
    va = rng.uniform(-1, 1, size=(12, 2))
    assert va_loss(va, va) == pytest.approx(0.0, abs=1e-12)
    for _ in range(200):
        preds = rng.normal(size=(9, 7))
        targets = rng.normal(size=(9, 7))
        a = rng.uniform(0.05, 4.0, size=7)
        b = rng.uniform(-3.0, 3.0, size=7)
        base = pearson_loss(preds, targets)
        assert pearson_loss(preds * a + b, targets) == pytest.approx(base, abs=1e-10)


def test_c06_metric_loss_agreement_and_oracles():
    rng = np.random.default_rng(606)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        preds = rng.normal(size=(n, 7))
        labels = rng.normal(size=(n, 7))
        mean_rho = np.mean([metrics.pearson_flagged(preds[:, i], labels[:, i])[0] for i in range(7)])
        assert pearson_loss(preds, labels) == pytest.approx(1.0 - mean_rho, abs=1e-12)

    def loop_pearson(x, y):
        n = len(x)
        mx, my = sum(x) / n, sum(y) / n
        cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
        vx = sum((a - mx) ** 2 for a in x) / n
        vy = sum((b - my) ** 2 for b in y) / n
        return cov / math.sqrt(vx * vy)

    def loop_ccc(x, y):
        n = len(x)
        mx, my = sum(x) / n, sum(y) / n
        cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
        vx = sum((a - mx) ** 2 for a in x) / n
        vy = sum((b - my) ** 2 for b in y) / n
        return 2 * cov / (vx + vy + (mx - my) ** 2)

    for _ in range(60):
        n = int(rng.integers(2, 1000))
        x = rng.normal(size=n)
        y = 0.3 * x + rng.normal(size=n)
        rho, _ = metrics.pearson_flagged(x, y)
        ccc, _ = ccc_flagged(x, y)
        assert rho == pytest.approx(loop_pearson(list(x), list(y)), abs=1e-10)
        assert ccc == pytest.approx(loop_ccc(list(x), list(y)), abs=1e-10)


def test_c07_learnability_desk_preset():
    desk = build_config(overrides={"preset": "desk"})
    recipe = VideoRecipe(l_min=8, l_max=32)
    samples, _ = gen_video_dataset(1007, 160, recipe, desk.t)
    parts = split(samples, (0.8, 0.2, 0.0), seed=1007)
    assert len(parts["train"]) == 128
    config = desk.aggregator_config()
    started = time.perf_counter()
    outcome = training.train_aggregator(
        parts["train"], parts["val"], config,
        epochs=150, batch_size=desk.batch_size, lr=desk.lr,
        loss_kind="pearson", seed=7,
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    train_labels = np.asarray([s.label for s in parts["train"]])
    train_rho = metrics.evaluate(
        agg.predict(parts["train"], outcome.params, config), train_labels
    ).mean
    assert train_rho >= 0.95, train_rho
    assert outcome.best_metric >= 0.70, outcome.best_metric


def _direction_run(samples, seed, subset, mask_on, epochs, t, d_hidden):
    parts = split(samples, (0.75, 0.25, 0.0), seed=seed)
    train_s = select_columns(parts["train"], subset)
    val_s = select_columns(parts["val"], subset)
    config = agg.AggregatorConfig(
        d_in=train_s[0].frames.shape[1], t=t, d_hidden=d_hidden, d_ff=8,
        mask_enabled=mask_on,
    )
    outcome = training.train_aggregator(
        train_s, val_s, config, epochs=epochs, batch_size=16, lr=1e-2,
        loss_kind="pearson", seed=seed,
    )
    return outcome.best_metric


def test_c08_mask_ablation_direction():
    # padding filled with decoy-trajectory noise: the masked model must
    # beat the unmasked one by >= 0.03 held-out mean rho over 5 seeds
    margins = []
    for seed in range(5):
        recipe = VideoRecipe(l_min=6, l_max=24, padding="noise")
        samples, _ = gen_video_dataset(2000 + seed, 96, recipe, 24)
        on = _direction_run(samples, seed, "all", True, epochs=40, t=24, d_hidden=16)
        off = _direction_run(samples, seed, "all", False, epochs=40, t=24, d_hidden=16)
        margins.append(on - off)
    assert float(np.mean(margins)) >= 0.03, margins


def test_c09_representation_direction():
    # with every channel informative, the full 26-dim input must match or
    # beat each single channel on 5-seed average held-out mean rho
    table = {k: [] for k in ("all", "va", "expr", "au")}
    for seed in range(5):
        recipe = VideoRecipe(
            l_min=6, l_max=24, au_noise=0.35, mix_noise=0.7,
            feature_noise=0.12, temperature=0.3,
        )
        samples, _ = gen_video_dataset(3000 + seed, 96, recipe, 24)
        for subset in table:
            table[subset].append(
                _direction_run(samples, seed, subset, True, epochs=80, t=24, d_hidden=20)
            )
    means = {k: float(np.mean(v)) for k, v in table.items()}
    for subset in ("va", "expr", "au"):
        assert means["all"] >= means[subset], means


def test_c10_determinism_and_round_trips(tmp_path):
    # datasets: regeneration is byte-identical, files round-trip exactly
    gen_args = [
        "gen", "--n", "12", "--seed", "42", "--t", "8", "--l-min", "2", "--l-max", "8",
    ]
    assert cli.main(gen_args + ["--out", str(tmp_path / "g1")]) == 0
    assert cli.main(gen_args + ["--out", str(tmp_path / "g2")]) == 0
    d1 = (tmp_path / "g1" / "videos.jsonl").read_bytes()
    assert d1 == (tmp_path / "g2" / "videos.jsonl").read_bytes()

    samples, manifest = data.load_dataset(tmp_path / "g1" / "videos.jsonl")
    data.save_dataset(tmp_path / "resaved.jsonl", samples, manifest)
    assert (tmp_path / "resaved.jsonl").read_bytes() == d1

    # checkpoints: identical seeds give identical bytes; loads round-trip
    train_args = [
        "train", "--dataset", str(tmp_path / "g1" / "videos.jsonl"),
        "--t", "8", "--l-min", "2", "--l-max", "8", "--d-hidden", "4", "--d-ff", "3",
        "--epochs", "2", "--seed", "9", "--batch-size", "6", "--fractions", "0.7,0.3,0.0",
    ]
    assert cli.main(train_args + ["--out", str(tmp_path / "t1")]) == 0
    assert cli.main(train_args + ["--out", str(tmp_path / "t2")]) == 0
    c1 = (tmp_path / "t1" / "checkpoint.json").read_bytes()
    assert c1 == (tmp_path / "t2" / "checkpoint.json").read_bytes()

    from affectseq.checkpoint import load_checkpoint, save_checkpoint

    ck = load_checkpoint(tmp_path / "t1" / "checkpoint.json")
    save_checkpoint(tmp_path / "ck2.json", ck.params, ck.config, ck.kind)
    assert (tmp_path / "ck2.json").read_bytes() == c1

    # reports: identical eval runs write identical bytes
    eval_args = [
        "eval", "--dataset", str(tmp_path / "g1" / "videos.jsonl"),
        "--checkpoint", str(tmp_path / "t1" / "checkpoint.json"),
        "--t", "8", "--l-min", "2", "--l-max", "8", "--d-hidden", "4", "--d-ff", "3",
        "--split", "val", "--fractions", "0.7,0.3,0.0",
    ]
    assert cli.main(eval_args + ["--out", str(tmp_path / "e1")]) == 0
    assert cli.main(eval_args + ["--out", str(tmp_path / "e2")]) == 0
    assert (tmp_path / "e1" / "report.json").read_bytes() == (tmp_path / "e2" / "report.json").read_bytes()
    assert (tmp_path / "e1" / "report.csv").read_bytes() == (tmp_path / "e2" / "report.csv").read_bytes()
