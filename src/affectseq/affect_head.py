"""Multi-task per-frame affect head.

A shared fully-connected residual trunk feeds three task heads that
predict, for each frame descriptor: a valence-arousal pair (tanh), a
7-way basic-expression distribution (softmax), and 17 action-unit
activations (sigmoid). Training couples the tasks with four loss terms:

  * concordance loss on valence-arousal,
  * categorical cross entropy on expressions,
  * binary cross entropy on action units,
  * a coupling loss matching predicted AU activations against the AU
    mixture implied by the predicted expression distribution.

Per-sample label masks make the head trainable on batches where each
sample carries only a subset of the three annotation kinds; absent
tasks contribute exactly zero and are flagged in the loss breakdown.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import optim
from .affect_space import N_AUS, N_EXPRESSIONS, relatedness_matrix

LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class HeadConfig:
    d_in: int = 64
    width: int = 64
    n_blocks: int = 2
    two_term_coupling: bool = False

    def param_shapes(self):
        shapes = {
            "trunk.in.w": (self.d_in, self.width),
            "trunk.in.b": (self.width,),
        }
        for i in range(self.n_blocks):
            shapes[f"trunk.block{i}.w"] = (self.width, self.width)
            shapes[f"trunk.block{i}.b"] = (self.width,)
        shapes.update(
            {
                "va.w": (self.width, 2),
                "va.b": (2,),
                "expr.w": (self.width, N_EXPRESSIONS),
                "expr.b": (N_EXPRESSIONS,),
                "au.w": (self.width, N_AUS),
                "au.b": (N_AUS,),
            }
        )
        return shapes


@dataclass
class AffectOutput:
    """Head outputs for one frame (1-d) or a batch of frames (2-d)."""

    va: np.ndarray
    expr: np.ndarray
    au: np.ndarray

    def concat(self):
        return np.concatenate([self.va, self.expr, self.au], axis=-1)


# diverged parameters may overflow float64 here; the aggregator graph
# that reads the output rejects non-finite values, naming its node
@np.errstate(over="ignore", invalid="ignore")
def head_forward(features, params, config):
    """Numeric forward pass; accepts a single descriptor or a batch."""
    x = np.asarray(features, dtype=np.float64)
    h = np.tanh(x @ params["trunk.in.w"] + params["trunk.in.b"])
    for i in range(config.n_blocks):
        h = h + np.tanh(h @ params[f"trunk.block{i}.w"] + params[f"trunk.block{i}.b"])
    va = np.tanh(h @ params["va.w"] + params["va.b"])
    expr = ad.np_softmax(h @ params["expr.w"] + params["expr.b"])
    au = ad.np_sigmoid(h @ params["au.w"] + params["au.b"])
    return AffectOutput(va=va, expr=expr, au=au)


def head_nodes(config, features):
    """Differentiable twin of head_forward over a (rows, d_in) features node;
    returns an AffectOutput of nodes."""
    p = {name: ad.param(name, shape) for name, shape in config.param_shapes().items()}

    def layer(x, name):
        return ad.affine(x, p[f"{name}.w"], p[f"{name}.b"], name=name)

    h = ad.tanh(layer(features, "trunk.in"), name="trunk.in.tanh")
    for i in range(config.n_blocks):
        block = f"trunk.block{i}"
        h = ad.add(h, ad.tanh(layer(h, block), name=f"{block}.tanh"), name=f"{block}.residual")
    va = ad.tanh(layer(h, "va"), name="va.tanh")
    expr = ad.softmax(layer(h, "expr"), name="expr.softmax")
    au = ad.sigmoid(layer(h, "au"), name="au.sigmoid")
    return AffectOutput(va=va, expr=expr, au=au)


# ---------------------------------------------------------------------------
# loss builders (expression-graph nodes)


def weighted_va_ccc_loss_node(pred, label, rows):
    """1 - 0.5*(ccc_valence + ccc_arousal) over the labeled batch rows.

    `rows` is a (batch, 1) 0/1 node choosing the samples that carry
    valence-arousal labels; moments are computed over those rows only.
    """
    inv_n = ad.div(1.0, ad.reduce_sum(rows))

    def wmean(node):
        return ad.mul(ad.reduce_sum(ad.mul(rows, node), axis=0), inv_n)

    mp = wmean(pred)
    ml = wmean(label)
    cp = ad.sub(pred, mp)
    cl = ad.sub(label, ml)
    var_p = wmean(ad.mul(cp, cp))
    var_l = wmean(ad.mul(cl, cl))
    cov = wmean(ad.mul(cp, cl))
    gap = ad.sub(mp, ml)
    den = ad.add(ad.add(var_p, var_l), ad.mul(gap, gap))
    ccc_cols = ad.div(ad.scale(cov, 2.0), den)
    return ad.sub(ad.constant(1.0), ad.scale(ad.reduce_sum(ccc_cols), 0.5))


def cross_entropy_node(probs, onehot):
    """Mean over labeled rows of -log p[label]; unlabeled rows carry
    all-zero one-hot rows and drop out of the sum."""
    picked = ad.reduce_sum(ad.mul(onehot, ad.log(probs, floor=LOG_FLOOR)))
    return ad.mul(picked, ad.div(-1.0, ad.reduce_sum(onehot)))


def binary_cross_entropy_node(probs, labels, rows):
    """Mean binary cross entropy over the entries of the labeled rows;
    `rows` is a (batch, 1) 0/1 node."""
    pos = ad.mul(labels, ad.log(probs, floor=LOG_FLOOR))
    neg = ad.mul(ad.sub(1.0, labels), ad.log(ad.sub(1.0, probs), floor=LOG_FLOOR))
    per_entry = ad.add(pos, neg)
    n = ad.scale(ad.reduce_sum(rows), labels.shape[1])
    return ad.mul(ad.reduce_sum(ad.mul(rows, per_entry)), ad.div(-1.0, n))


def coupling_node(au_probs, au_targets, two_term=False):
    """Soft-target cross entropy pulling AU activations toward the AU
    mixture implied by the expression distribution.

    Both inputs are (n, 17); the loss is the mean over rows of each row's
    sum. The one-term form is the default; `two_term` adds the complementary
    (1 - target) * log(1 - p) half for comparison runs.
    """
    per = ad.mul(au_targets, ad.log(au_probs, floor=LOG_FLOOR))
    if two_term:
        comp = ad.mul(
            ad.sub(ad.constant(1.0), au_targets),
            ad.log(ad.sub(ad.constant(1.0), au_probs), floor=LOG_FLOOR),
        )
        per = ad.add(per, comp)
    return ad.scale(ad.reduce_mean(ad.reduce_sum(per, axis=1)), -1.0)


def pseudo_au_node(expr):
    return ad.matmul(expr, ad.constant(relatedness_matrix()))


# ---------------------------------------------------------------------------
# batched multi-task loss


def frame_arrays(samples):
    """Stack frame samples into the arrays head_loss_graph's placeholders
    read, keyed by placeholder name; a row without a label kind has zeros
    there and a 0 in that kind's row weights (an all-zero one-hot row for
    expressions). Index every array with the same rows to take a batch."""
    n = len(samples)
    arrays = {
        "features": np.array([s.features for s in samples], dtype=np.float64),
        "va": np.zeros((n, 2)),
        "va_rows": np.zeros((n, 1)),
        "expr_onehot": np.zeros((n, N_EXPRESSIONS)),
        "au": np.zeros((n, N_AUS)),
        "au_rows": np.zeros((n, 1)),
    }
    for i, s in enumerate(samples):
        if s.va is not None:
            arrays["va"][i] = s.va
            arrays["va_rows"][i] = 1.0
        if s.expr is not None:
            arrays["expr_onehot"][i, s.expr] = 1.0
        if s.au is not None:
            arrays["au"][i] = s.au
            arrays["au_rows"][i] = 1.0
    return arrays


@dataclass
class HeadLoss:
    total: float
    terms: dict
    absent: tuple


TERM_NAMES = ("ccc", "cce", "bce", "coupling")


def present_terms(batch):
    """The loss terms a batch of frame_arrays rows can train: concordance
    needs two valence-arousal rows, the coupling term none."""
    has = (batch["va_rows"].sum() >= 2, batch["expr_onehot"].any(), batch["au_rows"].any(), True)
    return tuple(name for name, present in zip(TERM_NAMES, has) if present)


def head_loss_graph(config, n, present):
    """Build the multi-task objective for batches of `n` rows that carry
    the `present` terms.

    Returns (Graph, term_nodes), term_nodes mapping each present term to
    its scalar node. The batch is bound at evaluate time through the
    placeholders named by frame_arrays, so one graph serves every batch
    with the same key; parameters are the only differentiated leaves.
    """
    def placeholder(name, width):
        return ad.placeholder(name, (n, width))

    out = head_nodes(config, placeholder("features", config.d_in))
    term_nodes = {}  # in TERM_NAMES order, the order the total adds them
    if "ccc" in present:
        term_nodes["ccc"] = weighted_va_ccc_loss_node(
            out.va, placeholder("va", 2), placeholder("va_rows", 1))
    if "cce" in present:
        term_nodes["cce"] = cross_entropy_node(out.expr, placeholder("expr_onehot", N_EXPRESSIONS))
    if "bce" in present:
        term_nodes["bce"] = binary_cross_entropy_node(
            out.au, placeholder("au", N_AUS), placeholder("au_rows", 1))
    # coupling reads predictions only, so it is never absent
    term_nodes["coupling"] = coupling_node(
        out.au, pseudo_au_node(out.expr), two_term=config.two_term_coupling
    )
    total = functools.reduce(ad.add, term_nodes.values())
    extra = [ad.param(name, shape) for name, shape in config.param_shapes().items()]
    return ad.Graph(total, extra_params=extra), term_nodes


def _evaluate_head_loss(batch, params, config, graphs):
    """Evaluate one batch's loss on the graph cached in `graphs` under its
    (rows, present terms) key, building it on first use; returns
    (graph, HeadLoss)."""
    key = (len(batch["features"]), present_terms(batch))
    if key not in graphs:
        graphs[key] = head_loss_graph(config, *key)
    graph, term_nodes = graphs[key]
    total = float(graph.evaluate({**params, **batch}))
    terms = {name: 0.0 for name in TERM_NAMES}
    for name, node in term_nodes.items():
        terms[name] = float(graph.cached_value(node))
    absent = tuple(name for name in TERM_NAMES if name not in term_nodes)
    return graph, HeadLoss(total=total, terms=terms, absent=absent)


def head_loss(batch, params, config, graphs):
    """Total multi-task loss with per-term breakdown for one batch of
    frame_arrays rows; `graphs` is the loss-graph cache of the run."""
    return _evaluate_head_loss(batch, params, config, graphs)[1]


def head_train_step(batch, params, opt_state, lr, config, graphs):
    """One Adam step on the multi-task loss of a batch of frame_arrays
    rows; returns (params, state, loss). `graphs` as in head_loss."""
    graph, loss = _evaluate_head_loss(batch, params, config, graphs)
    new_params, new_state = optim.adam_step(params, graph.backward(), opt_state, lr)
    return new_params, new_state, loss
