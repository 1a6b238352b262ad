"""Small-shape gradient verification: every loss and layer, one report each.

Each target builds a scalar graph whose parameters total at least 100
coordinates and whose gradient magnitudes stay well clear of rounding
noise, then compares analytic gradients against central differences.
Layer targets contract the layer output with a fixed random cotangent
so every output coordinate influences the scalar root. The checker's
own failure path is tested by swapping in a wrong backward rule from
tests/test_cli.py.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

from . import affect_head as head
from . import aggregator as agg
from . import autodiff as ad
from .optim import init_params

THRESHOLD = 1e-4
EPSILON = 1e-6
N_COORDS = 120


def _cotangent_sum(node, rng):
    return ad.reduce_sum(ad.mul(node, ad.constant(rng.uniform(0.5, 1.5, size=node.shape))))


def target_loss_ccc(rng):
    preds = ad.param("preds", (50, 2))
    labels = rng.uniform(-1, 1, size=(50, 2))
    node = head.weighted_va_ccc_loss_node(
        preds, ad.placeholder("labels", (50, 2)), ad.placeholder("rows", (50, 1)))
    return ad.Graph(node), {
        "preds": rng.uniform(-1, 1, size=(50, 2)), "labels": labels, "rows": np.ones((50, 1)),
    }


def target_loss_cce(rng):
    logits = ad.param("logits", (15, 7))
    onehot = np.eye(7)[rng.integers(0, 7, size=15)]
    node = head.cross_entropy_node(ad.softmax(logits), ad.placeholder("onehot", (15, 7)))
    return ad.Graph(node), {"logits": rng.normal(size=(15, 7)), "onehot": onehot}


def target_loss_bce(rng):
    logits = ad.param("logits", (6, 17))
    labels = (rng.uniform(size=(6, 17)) > 0.5).astype(float)
    node = head.binary_cross_entropy_node(
        ad.sigmoid(logits), ad.placeholder("labels", (6, 17)), ad.placeholder("rows", (6, 1)))
    return ad.Graph(node), {
        "logits": rng.normal(size=(6, 17)), "labels": labels, "rows": np.ones((6, 1)),
    }


def target_loss_dm(rng):
    expr_logits = ad.param("expr_logits", (8, 7))
    au_logits = ad.param("au_logits", (8, 17))
    au_probs = ad.sigmoid(au_logits)
    node = head.coupling_node(au_probs, head.pseudo_au_node(ad.softmax(expr_logits)))
    return ad.Graph(node), {
        "expr_logits": rng.normal(size=(8, 7)),
        "au_logits": rng.normal(size=(8, 17)),
    }


def target_loss_mma(rng):
    from .data import FrameRecipe, gen_frame_dataset

    config = head.HeadConfig(d_in=6, width=6, n_blocks=1)
    samples, _ = gen_frame_dataset(101, 8, FrameRecipe(d_in=6))
    batch = head.frame_arrays(samples)
    graph, _ = head.head_loss_graph(config, len(samples), head.present_terms(batch))
    return graph, {**init_params(config, seed=3), **batch}


def target_loss_pearson(rng):
    preds = ad.param("preds", (15, 7))
    labels = rng.uniform(0, 1, size=(15, 7))
    node = agg.pearson_loss_node(preds, ad.constant(labels))
    return ad.Graph(node), {"preds": rng.normal(size=(15, 7))}


def target_loss_mse(rng):
    preds = ad.param("preds", (15, 7))
    labels = rng.uniform(0, 1, size=(15, 7))
    node = agg.mse_loss_node(preds, ad.constant(labels))
    return ad.Graph(node), {"preds": rng.normal(size=(15, 7))}


def target_trunk(rng):
    config = head.HeadConfig(d_in=8, width=8, n_blocks=2)
    feats = ad.constant(rng.normal(size=(6, 8)))
    p = {name: ad.param(name, shape) for name, shape in config.param_shapes().items()}
    h = ad.tanh(ad.affine(feats, p["trunk.in.w"], p["trunk.in.b"]))
    for i in range(config.n_blocks):
        h = ad.add(h, ad.tanh(ad.affine(h, p[f"trunk.block{i}.w"], p[f"trunk.block{i}.b"])))
    graph = ad.Graph(_cotangent_sum(h, rng))
    params = init_params(config, seed=4)
    return graph, {k: v for k, v in params.items() if k.startswith("trunk")}


def _head_output_target(rng, which, seed):
    config = head.HeadConfig(d_in=8, width=8, n_blocks=2)
    out = head.head_nodes(config, ad.constant(rng.normal(size=(6, 8))))
    node = getattr(out, which)
    return ad.Graph(_cotangent_sum(node, rng)), init_params(config, seed=seed)


def target_head_va(rng):
    return _head_output_target(rng, "va", 5)


def target_head_expr(rng):
    return _head_output_target(rng, "expr", 6)


def target_head_au(rng):
    return _head_output_target(rng, "au", 7)


def target_gru(rng):
    config = agg.AggregatorConfig(d_in=6, t=5, d_hidden=4, d_ff=3)
    shapes = config.param_shapes()
    weights = [ad.param(f"gru0.{role}", shapes[f"gru0.{role}"]) for role in ad.GRU_WEIGHTS]
    # five (3, 6) frames laid out as the (3, t*d) batch the fused op reads
    frames = np.stack([rng.normal(size=(3, 6)) for _ in range(5)], axis=1)
    hs = ad.gru(ad.constant(frames.reshape(3, 30)), weights, 5, 4, name="gru0")
    graph = ad.Graph(_cotangent_sum(hs, rng))
    params = {k: v for k, v in init_params(config, seed=8).items() if k.startswith("gru")}
    return graph, params


def target_mask(rng):
    z = ad.param("z", (8, 16))
    mask = (rng.uniform(size=(8, 16)) > 0.4).astype(float)
    graph = ad.Graph(_cotangent_sum(ad.mul(z, ad.constant(mask)), rng))
    return graph, {"z": rng.normal(size=(8, 16))}


def target_ff1(rng):
    z = ad.param("z", (6, 20))
    w = ad.param("ff1.w", (20, 3))
    b = ad.param("ff1.b", (3,))
    graph = ad.Graph(_cotangent_sum(ad.tanh(ad.affine(z, w, b)), rng))
    return graph, {
        "z": rng.normal(size=(6, 20)) * 0.5,
        "ff1.w": rng.normal(size=(20, 3)) * 0.3,
        "ff1.b": rng.normal(size=(3,)) * 0.1,
    }


def target_ff_out(rng):
    z = ad.param("z", (15, 8))
    w = ad.param("out.w", (8, 7))
    b = ad.param("out.b", (7,))
    graph = ad.Graph(_cotangent_sum(ad.affine(z, w, b), rng))
    return graph, {
        "z": rng.normal(size=(15, 8)),
        "out.w": rng.normal(size=(8, 7)) * 0.5,
        "out.b": rng.normal(size=(7,)) * 0.1,
    }


def _aggregator_target(rng, loss_kind, sigmoid_output):
    config = agg.AggregatorConfig(
        d_in=5, t=6, d_hidden=4, d_ff=3, sigmoid_output=sigmoid_output
    )
    params = init_params(config, seed=10)
    frames = rng.normal(size=(3, 6, 5)) * 0.8
    lengths = np.array([2, 5, 6])
    labels = rng.uniform(0, 1, size=(3, 7))
    runner = agg.BatchRunner(config, 3, loss_kind)
    return runner.graph, agg.batch_bindings(config, params, frames, lengths, labels)


def target_aggregator_mse(rng):
    # linear output head; the mse objective gives every parameter,
    # including the output bias, a well-conditioned gradient
    return _aggregator_target(rng, "mse", sigmoid_output=False)


def target_aggregator_pearson(rng):
    # correlation objective ignores per-column output shifts, so a
    # linear head's output bias has an identically-zero gradient that a
    # ratio test cannot certify; the sigmoid output flag restores a
    # well-conditioned gradient for every coordinate
    return _aggregator_target(rng, "pearson", sigmoid_output=True)


TARGETS = {
    "loss_ccc": target_loss_ccc,
    "loss_cce": target_loss_cce,
    "loss_bce": target_loss_bce,
    "loss_dm": target_loss_dm,
    "loss_mma": target_loss_mma,
    "loss_pearson": target_loss_pearson,
    "loss_mse": target_loss_mse,
    "layer_trunk": target_trunk,
    "layer_head_va": target_head_va,
    "layer_head_expr": target_head_expr,
    "layer_head_au": target_head_au,
    "layer_gru": target_gru,
    "layer_mask": target_mask,
    "layer_ff1": target_ff1,
    "layer_ff_out": target_ff_out,
    "model_aggregator_mse": target_aggregator_mse,
    "model_aggregator_pearson": target_aggregator_pearson,
}


def run_all(epsilon=EPSILON):
    """Run every target at seed 0; returns (reports, failures, elapsed seconds)."""
    reports = {}
    failures = []
    started = time.perf_counter()
    for name, builder in TARGETS.items():
        rng = np.random.default_rng(zlib.crc32(name.encode()) % 1000)
        graph, bindings = builder(rng)
        report = ad.grad_check(graph, bindings, epsilon=epsilon, n_coords=N_COORDS, seed=0)
        reports[name] = report
        if not report.passed(THRESHOLD):
            offenders = [p for p, e in report.per_param_max().items() if e >= THRESHOLD]
            failures.append((name, report.max_rel_error, offenders))
    return reports, failures, time.perf_counter() - started
