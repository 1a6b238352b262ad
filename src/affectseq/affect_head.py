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


def weighted_va_ccc_loss_node(pred, label, row_weights):
    """1 - 0.5*(ccc_valence + ccc_arousal) over weight-selected batch rows.

    `row_weights` is a fixed (batch, 1) 0/1 array choosing the samples
    that carry valence-arousal labels; moments are computed over the
    selected rows only.
    """
    w = np.asarray(row_weights, dtype=np.float64).reshape(-1, 1)
    n = float(w.sum())
    wc = ad.constant(w)

    def wmean(node):
        return ad.scale(ad.reduce_sum(ad.mul(wc, node), axis=0), 1.0 / n)

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
    onehot = np.asarray(onehot, dtype=np.float64)
    n = float(onehot.sum())
    picked = ad.reduce_sum(ad.mul(ad.constant(onehot), ad.log(probs, floor=LOG_FLOOR)))
    return ad.scale(picked, -1.0 / n)


def binary_cross_entropy_node(probs, labels, row_weights):
    w = np.asarray(row_weights, dtype=np.float64).reshape(-1, 1)
    labels = np.asarray(labels, dtype=np.float64)
    n = float(w.sum()) * labels.shape[1]
    pos = ad.mul(ad.constant(labels), ad.log(probs, floor=LOG_FLOOR))
    neg = ad.mul(
        ad.constant(1.0 - labels),
        ad.log(ad.sub(ad.constant(1.0), probs), floor=LOG_FLOOR),
    )
    per_entry = ad.add(pos, neg)
    return ad.scale(ad.reduce_sum(ad.mul(ad.constant(w), per_entry)), -1.0 / n)


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


@dataclass
class FrameBatch:
    """Dense arrays for one batch of frame samples with label masks."""

    features: np.ndarray  # (n, d_in)
    va: np.ndarray  # (n, 2), zeros where unlabeled
    va_mask: np.ndarray  # (n,) bool
    expr: np.ndarray  # (n,) int, -1 where unlabeled
    expr_mask: np.ndarray  # (n,) bool
    au: np.ndarray  # (n, 17), zeros where unlabeled
    au_mask: np.ndarray  # (n,) bool

    def __len__(self):
        return self.features.shape[0]


def frame_batch(samples):
    """Stack frame samples into a FrameBatch; absent labels are masked out."""
    n = len(samples)
    d = samples[0].features.shape[0]
    batch = FrameBatch(
        features=np.zeros((n, d)),
        va=np.zeros((n, 2)),
        va_mask=np.zeros(n, dtype=bool),
        expr=np.full(n, -1, dtype=int),
        expr_mask=np.zeros(n, dtype=bool),
        au=np.zeros((n, N_AUS)),
        au_mask=np.zeros(n, dtype=bool),
    )
    for i, s in enumerate(samples):
        batch.features[i] = s.features
        if s.va is not None:
            batch.va[i] = s.va
            batch.va_mask[i] = True
        if s.expr is not None:
            batch.expr[i] = s.expr
            batch.expr_mask[i] = True
        if s.au is not None:
            batch.au[i] = s.au
            batch.au_mask[i] = True
    return batch


@dataclass
class HeadLoss:
    total: float
    terms: dict
    absent: tuple


TERM_NAMES = ("ccc", "cce", "bce", "coupling")


def head_loss_graph(config, batch):
    """Build the full multi-task objective for one batch.

    Returns (Graph, term_nodes, absent) where term_nodes maps present
    term names to their scalar nodes and `absent` lists skipped terms.
    `batch` contents become constants, so the graph is specific to this
    batch; parameters are the only leaves.
    """
    feats = ad.constant(batch.features)
    out = head_nodes(config, feats)
    term_nodes = {}
    absent = []

    if int(batch.va_mask.sum()) >= 2:
        term_nodes["ccc"] = weighted_va_ccc_loss_node(
            out.va, ad.constant(batch.va), batch.va_mask.astype(np.float64)
        )
    else:
        absent.append("ccc")

    if batch.expr_mask.any():
        onehot = np.zeros((len(batch), N_EXPRESSIONS))
        rows = np.flatnonzero(batch.expr_mask)
        onehot[rows, batch.expr[rows]] = 1.0
        term_nodes["cce"] = cross_entropy_node(out.expr, onehot)
    else:
        absent.append("cce")

    if batch.au_mask.any():
        term_nodes["bce"] = binary_cross_entropy_node(
            out.au, batch.au, batch.au_mask.astype(np.float64)
        )
    else:
        absent.append("bce")

    # coupling reads predictions only, so it is never absent
    term_nodes["coupling"] = coupling_node(
        out.au, pseudo_au_node(out.expr), two_term=config.two_term_coupling
    )

    total = None
    for name in TERM_NAMES:
        node = term_nodes.get(name)
        if node is not None:
            total = node if total is None else ad.add(total, node)
    extra = [ad.param(n, s) for n, s in config.param_shapes().items()]
    return ad.Graph(total, extra_params=extra), term_nodes, tuple(absent)


def _evaluate_head_loss(batch, params, config):
    """Build and evaluate one batch's loss graph; returns (graph, HeadLoss)."""
    graph, term_nodes, absent = head_loss_graph(config, batch)
    total = float(graph.evaluate(params))
    terms = {name: 0.0 for name in TERM_NAMES}
    for name, node in term_nodes.items():
        terms[name] = float(graph.cached_value(node))
    return graph, HeadLoss(total=total, terms=terms, absent=absent)


def head_loss(batch, params, config):
    """Total multi-task loss with per-term breakdown for one batch."""
    return _evaluate_head_loss(batch, params, config)[1]


def head_train_step(batch, params, opt_state, lr, config):
    """One Adam step on the multi-task loss; returns (params, state, loss)."""
    graph, loss = _evaluate_head_loss(batch, params, config)
    new_params, new_state = optim.adam_step(params, graph.backward(), opt_state, lr)
    return new_params, new_state, loss
