"""Masked recurrent aggregator: variable-length sequences to intensities.

A GRU runs over every (padded) frame of a video; all hidden states are
concatenated into one video-level embedding, whose coordinates beyond
the video's true pre-padding length are zeroed by the mask layer before
two feed-forward layers produce the 7 intensity outputs.

In the batched graph each GRU layer is one fused `autodiff.gru` node
over a (batch, t*d) frames placeholder. The numeric twin `gru_forward` runs
the same kernel on a batch of one; the unrolled step-by-step composition,
the oracle the fused op is tested against, lives in tests/test_aggregator.py.
A `BatchRunner` holds one compiled graph per (config, batch size): the
forward pass that `predict` runs, or the training loss built over it.
Initial parameters come from `optim.init_params`.

Because the masked coordinates are exactly zero, the first feed-forward
layer's weights attached to those positions receive exactly-zero
gradients: selective weight updating falls out of the arithmetic rather
than a bespoke sparse-update mechanism. Bias gradients are not masked;
biases attach to neurons, not embedding positions.

The Pearson loss counts a column whose predictions or labels are all
equal as correlation zero, as the eval report does, so a batch from an
untrained or saturated model still has a finite loss and gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .affect_head import head_nodes
from .optim import adam_step


@dataclass(frozen=True)
class AggregatorConfig:
    d_in: int = 26
    t: int = 32
    d_hidden: int = 16
    d_ff: int = 8
    n_out: int = 7
    gru_layers: int = 1
    mask_enabled: bool = True
    sigmoid_output: bool = False

    def param_shapes(self):
        shapes = {}
        for layer in range(self.gru_layers):
            d = self.d_in if layer == 0 else self.d_hidden
            for gate in ("z", "r", "h"):
                shapes[f"gru{layer}.w{gate}"] = (d, self.d_hidden)
                shapes[f"gru{layer}.u{gate}"] = (self.d_hidden, self.d_hidden)
                shapes[f"gru{layer}.b{gate}"] = (self.d_hidden,)
        shapes["ff1.w"] = (self.t * self.d_hidden, self.d_ff)
        shapes["ff1.b"] = (self.d_ff,)
        shapes["out.w"] = (self.d_ff, self.n_out)
        shapes["out.b"] = (self.n_out,)
        return shapes


def gru_forward(frames, params, prefix="gru0"):
    """Run the GRU over a (t, d) sequence; returns all hidden states (t, d').

    The recurrence is autodiff.np_gru's, run on a batch of one.
    """
    frames = np.asarray(frames, dtype=np.float64)
    t = frames.shape[0]
    weights = [params[f"{prefix}.{role}"] for role in ad.GRU_WEIGHTS]
    out, _ = ad.np_gru(frames.reshape(1, -1), weights, t, name=prefix)
    return out.reshape(t, -1)


def length_mask(lengths, t, d_hidden):
    """(n, t*d_hidden) 0/1 array keeping each row's true-length prefix.
    Callers pass lengths in [1, t], as the dataset loader checks them."""
    lengths = np.asarray(lengths)
    positions = np.arange(t * d_hidden)
    return (positions[None, :] < lengths[:, None] * d_hidden).astype(np.float64)


def video_forward(frames, length, params, config):
    """Numeric forward pass for one video; returns the 7 intensities."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape != (config.t, config.d_in):
        raise ValueError(f"frames shape {frames.shape}, expected {(config.t, config.d_in)}")
    seq = frames
    for layer in range(config.gru_layers):
        seq = gru_forward(seq, params, prefix=f"gru{layer}")
    z = seq.reshape(-1)
    if config.mask_enabled:
        z = z * length_mask([length], config.t, config.d_hidden)[0]
    z3 = np.tanh(z @ params["ff1.w"] + params["ff1.b"])
    u = z3 @ params["out.w"] + params["out.b"]
    return ad.np_sigmoid(u) if config.sigmoid_output else u


# ---------------------------------------------------------------------------
# expression-graph twins


def forward_nodes(config, batch_size, frames=None):
    """Batched forward graph; returns the (batch, n_out) output node u.

    `frames` is a (batch, t*d_in) node, row-major over (step, feature);
    when omitted, a "frames" placeholder is created. Masking multiplies
    by a "mask" placeholder, so one graph serves every batch of the same
    size. Each GRU layer is one fused `gru` node.
    """
    params = {name: ad.param(name, shape) for name, shape in config.param_shapes().items()}
    if frames is None:
        frames = ad.placeholder("frames", (batch_size, config.t * config.d_in))
    z = frames
    for layer in range(config.gru_layers):
        weights = [params[f"gru{layer}.{role}"] for role in ad.GRU_WEIGHTS]
        z = ad.gru(z, weights, config.t, config.d_hidden, name=f"gru{layer}")
    if config.mask_enabled:
        z = ad.mul(z, ad.placeholder("mask", (batch_size, config.t * config.d_hidden)))
    z3 = ad.tanh(ad.affine(z, params["ff1.w"], params["ff1.b"], name="ff1"), name="ff1.tanh")
    u = ad.affine(z3, params["out.w"], params["out.b"], name="out")
    if config.sigmoid_output:
        u = ad.sigmoid(u, name="out.sigmoid")
    return u


def pearson_loss_node(preds, labels):
    """1 - mean over outputs of the per-column batch Pearson correlation.

    A column where predictions or labels are constant has correlation
    zero, as in metrics.pearson_flagged: its flag bumps the product of
    variances under the square root, so value and derivative stay
    finite, and then zeroes the ratio exactly. The flag is computed in
    the graph, so one cached graph serves every batch.
    """
    cov = ad.covariance(preds, labels, axis=0, name="pearson.cov")
    var = ad.mul(ad.variance(preds, axis=0, name="pearson.var_preds"),
                 ad.variance(labels, axis=0, name="pearson.var_labels"), name="pearson.var")
    flag = ad.constant_columns(preds, labels, name="pearson.flag")
    one = ad.constant(1.0)
    denom = ad.sqrt(ad.add(var, flag, name="pearson.bumped"), name="pearson.denom")
    rho = ad.div(cov, denom, name="pearson.ratio")
    rho = ad.mul(rho, ad.sub(one, flag, name="pearson.keep"), name="pearson.rho")
    return ad.sub(one, ad.reduce_mean(rho, name="pearson.mean_rho"), name="pearson.loss")


def mse_loss_node(preds, labels):
    diff = ad.sub(preds, labels, name="mse.diff")
    return ad.reduce_mean(ad.mul(diff, diff, name="mse.square"), name="mse.loss")


def loss_node(preds, labels, loss_kind):
    if loss_kind == "pearson":
        return pearson_loss_node(preds, labels)
    if loss_kind == "mse":
        return mse_loss_node(preds, labels)
    raise ValueError(f"unknown loss kind {loss_kind!r}")


# ---------------------------------------------------------------------------
# batched execution


def batch_bindings(config, params, frames, lengths, labels=None, d_frame=None):
    """Bind a (n, t, d) batch to the placeholders of forward_nodes.

    `d_frame` is the frame width d, config.d_in unless a head sits in
    front of the aggregator.
    """
    frames = np.asarray(frames, dtype=np.float64)
    n = frames.shape[0]
    d = config.d_in if d_frame is None else d_frame
    if frames.shape != (n, config.t, d):
        raise ValueError(f"frames shape {frames.shape}, expected (n, {config.t}, {d})")
    bindings = dict(params)
    bindings["frames"] = frames.reshape(n, config.t * d)
    if config.mask_enabled:
        bindings["mask"] = length_mask(lengths, config.t, config.d_hidden)
    if labels is not None:
        bindings["labels"] = np.asarray(labels, dtype=np.float64)
    return bindings


class BatchRunner:
    """One reusable graph for one (config, batch size): the forward pass,
    or, given a `loss_kind`, that loss built over it.

    A plain runner serves `forward`, a loss runner `step`. With a
    `head_config`, the multi-task head runs once over all batch*t frames
    of width head_config.d_in, and its 26-wide outputs are reshaped back
    into the (batch, t*26) sequence the aggregator reads, so the graph
    trains head and aggregator jointly.
    """

    def __init__(self, config, batch_size, loss_kind=None, head_config=None):
        self.config = config
        self.d_frame = config.d_in
        seq = None
        if head_config is not None:
            self.d_frame = head_config.d_in
            frames = ad.placeholder("frames", (batch_size, config.t * head_config.d_in))
            rows = ad.reshape(frames, (batch_size * config.t, head_config.d_in))
            out = head_nodes(head_config, rows)
            affect = ad.concat([out.va, out.expr, out.au], axis=1)
            seq = ad.reshape(affect, (batch_size, config.t * config.d_in))
        root = forward_nodes(config, batch_size, seq)
        if loss_kind is not None:
            labels = ad.placeholder("labels", (batch_size, config.n_out))
            root = loss_node(root, labels, loss_kind)
        self.graph = ad.Graph(root)

    def forward(self, params, frames, lengths):
        """The (batch, n_out) outputs of a plain runner."""
        bindings = batch_bindings(self.config, params, frames, lengths, d_frame=self.d_frame)
        return self.graph.evaluate(bindings)

    def step(self, params, opt_state, frames, lengths, labels, lr):
        """One Adam step of a loss runner; returns (params, opt_state, loss value)."""
        bindings = batch_bindings(self.config, params, frames, lengths, labels, self.d_frame)
        value = float(self.graph.evaluate(bindings))
        grads = self.graph.backward()
        if self.config.mask_enabled:
            _assert_routing(grads["ff1.w"], lengths, self.config)
        new_params, new_state = adam_step(params, grads, opt_state, lr)
        return new_params, new_state, value


def _assert_routing(ff1_grad, lengths, config):
    # zeroed embedding coordinates must yield exactly-zero weight gradients
    boundary = int(np.max(lengths)) * config.d_hidden
    if not np.all(ff1_grad[boundary:, :] == 0.0):
        raise AssertionError("routing contract violated: masked ff1 rows got gradient")


def predict(samples, params, config, chunk_size=64):
    """Batched forward over a dataset; deterministic and order-preserving.

    `samples` is a sequence of objects with .frames and .length.
    """
    if not samples:
        return np.zeros((0, config.n_out))
    frames = np.asarray([s.frames for s in samples], dtype=np.float64)
    lengths = np.asarray([s.length for s in samples])
    outputs = []
    runners = {}
    for start in range(0, len(frames), chunk_size):
        chunk = frames[start:start + chunk_size]
        n = len(chunk)
        if n not in runners:
            runners[n] = BatchRunner(config, n)
        outputs.append(runners[n].forward(params, chunk, lengths[start:start + chunk_size]))
    return np.concatenate(outputs, axis=0)
