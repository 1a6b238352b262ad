"""Reverse-mode differentiation over dense float64 arrays.

A small static-graph engine: expressions are built once from leaf
placeholders (parameters and inputs), evaluated against concrete
bindings, and differentiated in exact reverse topological order.
The primitive set is closed; every layer and loss in this package is a
composition of the primitives below, so each backward rule stays small
enough to verify by finite differences.

Besides elementwise, 2-d matmul, reduction and concat primitives the set
holds `reshape` (a row-major view, for running one layer over all
frames of a batch at once) and `gru`, a whole GRU layer over t steps
with a hand-written backpropagation-through-time rule. Its oracle, the
unrolled step-by-step composition, lives in tests/test_aggregator.py.
One primitive has no gradient: `constant_columns`, a 0/1 flag that is
piecewise constant in its operands, so backward passes nothing through it.

A node's forward rule may also return saved state, which the engine
keeps per node for the current evaluate call and hands to the backward
rule: `gru` saves its gates and hidden states instead of recomputing
them. Values and saved state both live on the Graph, never on a Node.

`Graph.__init__` compiles the topological order into a slot plan: one
entry per node with its kind (const, leaf or op), its parents' slot
indices and its forward and backward rules, looked up there and nowhere
else, and marks each slot that a parameter reaches. One forward loop
runs any list of slots under a single `np.errstate`; `evaluate` runs it
over every slot, and `backward` sends gradient in reverse only into
marked slots, summing a broadcast gradient down at one site. A `gru`
slot whose input no parameter reaches skips that input's gradient.

`grad_check` binds all of one parameter's perturbed copies as one
stack with a leading trial axis, +epsilon then -epsilon per sampled
coordinate, and runs the same forward loop once over only the slots
downstream of that parameter, on a copy of the cached values. Every
forward rule counts its axes from the end, and the loop views a stacked
operand as (K,) + (1,) * (rank gap) + shape, so each trial broadcasts
against the unstacked operands exactly as a lone trial would: every
trial's root comes out bit-identical to a full evaluate of that trial,
and the cache still holds the unperturbed pass. A stack that meets a
non-finite value is run again one trial at a time, so the error names
the node, index and step of the first failing trial.

Cycles cannot be constructed: a node's parents are fixed at creation,
so every expression is a DAG by construction.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

_IDS = itertools.count()

# Recommended band for central differences at 64-bit precision. Values
# outside still run but the report carries a truncation/roundoff warning.
EPSILON_BAND = (1e-8, 1e-4)


class GraphError(Exception):
    """Shape mismatch, missing binding, non-finite value, or misuse."""


class Node:
    """One vertex of a differentiable expression DAG.

    Nodes are immutable descriptions; all evaluation state lives on the
    Graph that runs them.
    """

    __slots__ = ("op", "shape", "parents", "name", "attrs")

    def __init__(self, op, shape, parents=(), name=None, **attrs):
        self.op = op
        self.shape = tuple(int(s) for s in shape)
        self.parents = tuple(parents)
        self.name = name if name is not None else f"{op}#{next(_IDS)}"
        self.attrs = attrs

    def __repr__(self):
        return f"Node({self.op!r}, shape={self.shape}, name={self.name!r})"


def param(name, shape):
    """Trainable leaf; bound at evaluate time, differentiated by backward."""
    return Node("param", _as_shape(shape), name=name)


def placeholder(name, shape):
    """Non-trainable leaf (features, labels, masks); bound at evaluate time."""
    return Node("input", _as_shape(shape), name=name)


def constant(value, name=None):
    arr = np.asarray(value, dtype=np.float64)
    return Node("const", arr.shape, name=name, value=arr)


def _as_shape(shape):
    if isinstance(shape, (int, np.integer)):
        return (int(shape),)
    return tuple(int(s) for s in shape)


def _lift(x):
    return x if isinstance(x, Node) else constant(x)


# ---------------------------------------------------------------------------
# builders


def _broadcast(a, b, op):
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise GraphError(
            f"{op}: shapes {a.shape} and {b.shape} do not broadcast "
            f"(operands {a.name}, {b.name})"
        ) from None


def add(a, b, name=None):
    a, b = _lift(a), _lift(b)
    return Node("add", _broadcast(a, b, "add"), (a, b), name=name)


def sub(a, b, name=None):
    a, b = _lift(a), _lift(b)
    return Node("sub", _broadcast(a, b, "sub"), (a, b), name=name)


def mul(a, b, name=None):
    a, b = _lift(a), _lift(b)
    return Node("mul", _broadcast(a, b, "mul"), (a, b), name=name)


def div(a, b, name=None):
    a, b = _lift(a), _lift(b)
    return Node("div", _broadcast(a, b, "div"), (a, b), name=name)


def scale(a, c):
    """Multiply by a Python scalar."""
    return mul(a, constant(float(c)))


def matmul(a, b, name=None):
    """Product of two 2-d operands."""
    a, b = _lift(a), _lift(b)
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise GraphError(f"matmul: operands must be 2-d, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise GraphError(
            f"matmul: inner extents differ, {a.shape} @ {b.shape} "
            f"(operands {a.name}, {b.name})"
        )
    return Node("matmul", (a.shape[0], b.shape[1]), (a, b), name=name)


def tanh(a, name=None):
    a = _lift(a)
    return Node("tanh", a.shape, (a,), name=name)


def sigmoid(a, name=None):
    a = _lift(a)
    return Node("sigmoid", a.shape, (a,), name=name)


def softmax(a, name=None):
    """Row-wise softmax over the last axis, computed with max subtraction."""
    a = _lift(a)
    if a.shape == ():
        raise GraphError("softmax: scalar operand")
    return Node("softmax", a.shape, (a,), name=name)


def log(a, floor=0.0):
    """Natural log; operand is clamped to `floor` first when floor > 0."""
    a = _lift(a)
    return Node("log", a.shape, (a,), floor=float(floor))


def sqrt(a, name=None):
    a = _lift(a)
    return Node("sqrt", a.shape, (a,), name=name)


def _reduction(op, operands, axis, name=None):
    """A node reducing its same-shaped operands over `axis` (0 or 1), or
    over every entry when `axis` is None. The node keeps the reduced axes
    as a tuple counted from the end, so a leading trial axis survives."""
    shape = operands[0].shape
    rank = len(shape)
    if axis is None:
        axes = tuple(range(-rank, 0))
    elif rank == 0 or axis not in (0, 1) or axis >= rank:
        raise GraphError(f"{op}: axis {axis} invalid for shape {shape}")
    else:
        axes = (axis - rank,)
    reduced = tuple(s for i, s in enumerate(shape) if i - rank not in axes)
    return Node(op, reduced, operands, name=name, axis=axes)


def reduce_sum(a, axis=None):
    return _reduction("sum", (_lift(a),), axis)


def reduce_mean(a, axis=None, name=None):
    return _reduction("mean", (_lift(a),), axis, name)


def variance(a, axis=None, name=None):
    """Population variance (1/n) along `axis`, or over all entries."""
    return _reduction("variance", (_lift(a),), axis, name)


def covariance(a, b, axis=None, name=None):
    """Population covariance of two same-shaped operands."""
    a, b = _lift(a), _lift(b)
    if a.shape != b.shape:
        raise GraphError(f"covariance: shapes {a.shape} != {b.shape}")
    return _reduction("covariance", (a, b), axis, name)


def constant_columns(a, b, name=None):
    """1.0 for each column where `a` or `b` holds a single value, else 0.0.

    Constancy is exact equality, as in metrics.pearson_flagged. The flag
    has no gradient: backward stops at it.
    """
    a, b = _lift(a), _lift(b)
    if len(a.shape) != 2 or a.shape != b.shape:
        raise GraphError(f"constant_columns: need equal 2-d shapes, got {a.shape} and {b.shape}")
    return Node("constant_columns", (a.shape[1],), (a, b), name=name)


def concat(nodes, axis=0):
    nodes = tuple(_lift(n) for n in nodes)
    if not nodes:
        raise GraphError("concat: no operands")
    base = nodes[0].shape
    if not -len(base) <= axis < len(base) or any(len(n.shape) != len(base) for n in nodes):
        raise GraphError(f"concat: inconsistent ranks at axis {axis}")
    axis %= len(base)
    for n in nodes[1:]:
        for i, (x, y) in enumerate(zip(base, n.shape)):
            if i != axis and x != y:
                raise GraphError(
                    f"concat: shape {n.shape} of {n.name} incompatible with {base}"
                )
    shape = list(base)
    shape[axis] = sum(n.shape[axis] for n in nodes)
    # counted from the end, so a leading trial axis survives
    return Node("concat", shape, nodes, axis=axis - len(base))


def affine(x, w, b, name=None):
    """x @ w + b, the ubiquitous dense-layer composition.

    With a layer `name`, the product is named `<name>.matmul` and the sum
    `<name>.add`, so a numeric error names the layer.
    """
    if name is None:
        return add(matmul(x, w), b)
    return add(matmul(x, w, name=f"{name}.matmul"), b, name=f"{name}.add")


def reshape(a, shape):
    """Same entries in row-major order under a new shape."""
    a = _lift(a)
    shape = _as_shape(shape)
    if int(np.prod(shape)) != int(np.prod(a.shape)):
        raise GraphError(f"reshape: cannot view {a.shape} of {a.name} as {shape}")
    return Node("reshape", shape, (a,))


# parameter roles of one GRU layer, in the order the gru node takes them
GRU_WEIGHTS = ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")


def gru(x, weights, t, d_hidden, name=None):
    """One GRU layer over t steps: (b, t*d) frames to (b, t*d_hidden) states.

    `weights` holds the layer's nine nodes in GRU_WEIGHTS order.
    """
    x = _lift(x)
    if len(x.shape) != 2 or x.shape[1] % t:
        raise GraphError(f"gru: input {x.shape} of {x.name} is not (b, t*d) for t={t}")
    if len(weights) != len(GRU_WEIGHTS):
        raise GraphError(f"gru: {len(weights)} weights, expected {len(GRU_WEIGHTS)}")
    d = x.shape[1] // t
    expected = {"w": (d, d_hidden), "u": (d_hidden, d_hidden), "b": (d_hidden,)}
    parents = [x]
    for role, w in zip(GRU_WEIGHTS, weights):
        w = _lift(w)
        if w.shape != expected[role[0]]:
            raise GraphError(f"gru: {role} {w.name} has shape {w.shape}, "
                             f"expected {expected[role[0]]}")
        parents.append(w)
    return Node("gru", (x.shape[0], t * d_hidden), parents, name=name, t=int(t))


# ---------------------------------------------------------------------------
# forward rules


def np_sigmoid(x, out=None):
    """Logistic function of an array; the one numeric sigmoid in the package."""
    return np.divide(1.0, 1.0 + np.exp(-x), out=out)


def np_softmax(x):
    """Softmax over the last axis with max subtraction; the one numeric
    softmax in the package."""
    z = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def np_gru(x, weights, t, name="gru"):
    """GRU over a (b, t*d) batch; the one numeric GRU in the package.

    `weights` holds the arrays in GRU_WEIGHTS order. Per step k, with
    update gate u, reset gate r and candidate c:
        u = sigmoid((x_k Wz + h Uz) + bz)
        r = sigmoid((x_k Wr + h Ur) + br)
        c = tanh((x_k Wh + (r * h) Uh) + bh)
        h = (1 - u) * h + u * c
    The input projections x_k W of every step are computed ahead of the
    loop (Appleyard et al. 2016), one stacked matmul per gate: it makes
    the same BLAS call per step as a per-step product, so results are
    bit-identical to the unrolled graph and, at b=1, to a vector
    recurrence. Since sigmoid and tanh hide an overflowed pre-activation,
    all three are checked once after the loop. Returns ((b, t*H) states,
    state saved for np_gru_backward).

    `x` and any weight may carry a leading trial axis of K independent
    runs, as grad_check stacks them: (K, b, t*d), (K, d, H), (K, H, H),
    and (K, 1, H) for a bias, whose rows broadcast over the batch. The
    states are then (K, b, t*H), each trial bit-identical to its own run.
    """
    wz, uz, bz, wr, ur, br, wh, uh, bh = weights
    lead = max((a.shape[:-2] for a in (x, *weights)), key=len)  # () or (K,)
    b, hid = x.shape[-2], uz.shape[-1]
    d = x.shape[-1] // t
    # (t, *lead, b, d), steps outermost; a trial axis x lacks stays 1 and broadcasts
    xs = x.reshape((1,) * (len(lead) + 2 - x.ndim) + x.shape[:-1] + (t, d))
    xs = np.ascontiguousarray(xs.transpose(xs.ndim - 2, *range(xs.ndim - 2), xs.ndim - 1))
    pre = np.empty((3, t) + lead + (b, hid))  # pre-activations of u, r, c
    for i, w in enumerate((wz, wr, wh)):
        np.matmul(xs, w, out=pre[i])
    gates = np.empty((2, t) + lead + (b, hid))  # u, r
    cand = np.empty((t,) + lead + (b, hid))
    rh = np.empty((t,) + lead + (b, hid))
    hs = np.zeros((t + 1,) + lead + (b, hid))  # hs[k] is the state entering step k
    for k in range(t):
        h = hs[k]
        pre[0, k] += h @ uz
        pre[0, k] += bz
        pre[1, k] += h @ ur
        pre[1, k] += br
        u, r = np_sigmoid(pre[:2, k], out=gates[:, k])
        np.multiply(r, h, out=rh[k])
        pre[2, k] += rh[k] @ uh
        pre[2, k] += bh
        c = np.tanh(pre[2, k], out=cand[k])
        hs[k + 1] = (1.0 - u) * h + u * c
    bad = ~np.isfinite(pre).all(axis=(0, *range(2, pre.ndim)))
    if bad.any():
        raise GraphError(f"non-finite pre-activation in {name} step {int(np.argmax(bad))}")
    # C order even at H=1, where the reshape alone would be a strided view
    # whose reductions run in another order with and without a trial axis
    states = hs[1:].transpose(*range(1, hs.ndim - 1), 0, hs.ndim - 1)  # (*lead, b, t, H)
    out = np.ascontiguousarray(states.reshape(lead + (b, t * hid)))
    return out, (xs, hs, gates, cand, rh)


def np_gru_backward(g, weights, saved, need_x=True):
    """Backpropagation through time for np_gru; gradients in the order
    (x, *GRU_WEIGHTS). Without `need_x` the input's gradient is None:
    its (t*b, 3H) @ (3H, d) product is skipped."""
    xs, hs, gates, cand, rh = saved
    wz, uz, _, wr, ur, _, wh, uh, _ = weights
    t, b, d = xs.shape
    hid = uz.shape[0]
    gs = g.reshape(b, t, hid).transpose(1, 0, 2)
    da = np.empty((t, b, 3 * hid))  # pre-activation gradients, u | r | c
    dh = np.zeros((b, hid))
    u_zr = np.concatenate([uz, ur], axis=1)
    # the step-invariant factors, as whole-array ops ahead of the loop
    u, r = gates
    c_minus_h = cand - hs[:t]
    keep = 1.0 - u
    du_gate = u * keep
    dc_gate = 1.0 - cand * cand
    dr_gate = r * (1.0 - r)
    for k in range(t - 1, -1, -1):
        dh = dh + gs[k]
        du, dr, dc = da[k, :, :hid], da[k, :, hid:2 * hid], da[k, :, 2 * hid:]
        np.multiply(dh * c_minus_h[k], du_gate[k], out=du)
        np.multiply(dh * u[k], dc_gate[k], out=dc)
        drh = dc @ uh.T
        np.multiply(drh * hs[k], dr_gate[k], out=dr)
        dh = dh * keep[k] + drh * r[k] + da[k, :, :2 * hid] @ u_zr.T
    flat = da.reshape(t * b, 3 * hid)
    dw = xs.reshape(t * b, d).T @ flat
    du_zr = hs[:t].reshape(t * b, hid).T @ flat[:, :2 * hid]
    duh = rh.reshape(t * b, hid).T @ flat[:, 2 * hid:]
    db = flat.sum(axis=0)
    dx = None
    if need_x:
        dx = (flat @ np.concatenate([wz, wr, wh], axis=1).T).reshape(t, b, d).transpose(1, 0, 2)
        dx = dx.reshape(b, t * d)
    gz, gr, gc = slice(0, hid), slice(hid, 2 * hid), slice(2 * hid, None)
    return (dx, dw[:, gz], du_zr[:, gz], db[gz], dw[:, gr], du_zr[:, gr], db[gr],
            dw[:, gc], duh, db[gc])


def _fw_gru(node, x, *weights):
    return np_gru(x, weights, node.attrs["t"], node.name)


def _bw_gru(node, g, x, *rest, need_x=True):
    # rest: the weights, then the saved state
    return np_gru_backward(g, rest[:-1], rest[-1], need_x)


def _fw_log(node, x):
    floor = node.attrs["floor"]
    return np.log(np.maximum(x, floor)) if floor > 0.0 else np.log(x)


def _centered(x, axis):
    return x - np.mean(x, axis=axis, keepdims=True)


def _fw_concat(node, *parts):
    lead = max((p.shape[:p.ndim - len(q.shape)] for p, q in zip(parts, node.parents)), key=len)
    if lead:  # a part without the leading trial axis is broadcast to it
        parts = [np.broadcast_to(p, lead + q.shape) for p, q in zip(parts, node.parents)]
    return np.concatenate(parts, axis=node.attrs["axis"])


_FORWARD = {
    "add": lambda n, a, b: a + b,
    "sub": lambda n, a, b: a - b,
    "mul": lambda n, a, b: a * b,
    "div": lambda n, a, b: a / b,
    "matmul": lambda n, a, b: np.matmul(a, b),
    "tanh": lambda n, a: np.tanh(a),
    "sigmoid": lambda n, a: np_sigmoid(a),
    "softmax": lambda n, a: np_softmax(a),
    "log": _fw_log,
    "sqrt": lambda n, a: np.sqrt(a),
    "sum": lambda n, a: np.sum(a, axis=n.attrs["axis"]),
    "mean": lambda n, a: np.mean(a, axis=n.attrs["axis"]),
    "variance": lambda n, a: np.mean(
        _centered(a, n.attrs["axis"]) ** 2, axis=n.attrs["axis"]
    ),
    "covariance": lambda n, a, b: np.mean(
        _centered(a, n.attrs["axis"]) * _centered(b, n.attrs["axis"]),
        axis=n.attrs["axis"],
    ),
    "constant_columns": lambda n, a, b: (
        np.all(a == a[..., :1, :], axis=-2) | np.all(b == b[..., :1, :], axis=-2)
    ).astype(np.float64),
    "concat": _fw_concat,
    "reshape": lambda n, a: a.reshape(a.shape[:a.ndim - len(n.parents[0].shape)] + n.shape),
    "gru": _fw_gru,
}

# ops whose forward rule returns (value, saved state); the engine keeps
# the state per node and hands it to the backward rule as the last operand
_SAVES_STATE = {"gru"}


# ---------------------------------------------------------------------------
# backward rules; each returns one gradient per parent, of the parent's
# shape except that add, sub, mul and div return the output's


def _unbroadcast(grad, shape):
    """Sum `grad` over axes that were broadcast to reach the parent shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _bw_matmul(node, g, a, b):
    return g @ b.T, a.T @ g


def _bw_softmax(node, g, y):
    inner = np.sum(g * y, axis=-1, keepdims=True)
    return ((g - inner) * y,)


def _bw_log(node, g, x):
    floor = node.attrs["floor"]
    if floor > 0.0:
        clamped = np.maximum(x, floor)
        return (np.where(x >= floor, g / clamped, 0.0),)
    return (g / x,)


def _expand(g, axis, shape):
    """Broadcast a reduced gradient back over the reduced axes."""
    return np.broadcast_to(np.expand_dims(g, axis), shape)


def _count(x, axis):
    """How many entries of `x` each reduced value covers."""
    return math.prod(x.shape[i] for i in axis)


def _bw_reduce_sum(node, g, x):
    return (_expand(g, node.attrs["axis"], x.shape).copy(),)


def _bw_reduce_mean(node, g, x):
    axis = node.attrs["axis"]
    return (_expand(g, axis, x.shape) / _count(x, axis),)


def _bw_variance(node, g, x):
    axis = node.attrs["axis"]
    return (_expand(g, axis, x.shape) * 2.0 * _centered(x, axis) / _count(x, axis),)


def _bw_covariance(node, g, x, y):
    axis = node.attrs["axis"]
    n = _count(x, axis)
    ge = _expand(g, axis, x.shape)
    return ge * _centered(y, axis) / n, ge * _centered(x, axis) / n


def _bw_concat(node, g, *parts):
    axis = node.attrs["axis"]
    sizes = [p.shape[axis] for p in parts]
    return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))


_BACKWARD = {
    "add": lambda n, g, a, b: (g, g),
    "sub": lambda n, g, a, b: (g, -g),
    "mul": lambda n, g, a, b: (g * b, g * a),
    "div": lambda n, g, a, b: (g / b, -g * a / (b * b)),
    "matmul": _bw_matmul,
    "tanh": lambda n, g, x, y: (g * (1.0 - y * y),),
    "sigmoid": lambda n, g, x, y: (g * y * (1.0 - y),),
    "softmax": lambda n, g, x, y: _bw_softmax(n, g, y),
    "log": _bw_log,
    "sqrt": lambda n, g, x, y: (g / (2.0 * y),),
    "sum": _bw_reduce_sum,
    "mean": _bw_reduce_mean,
    "variance": _bw_variance,
    "covariance": _bw_covariance,
    "concat": _bw_concat,
    "reshape": lambda n, g, a: (g.reshape(a.shape),),
    "gru": _bw_gru,
}

# ops whose backward rule reads the cached output, not just the inputs
_NEEDS_OUTPUT = {"tanh", "sigmoid", "softmax", "sqrt"}

# slot kinds of the compiled plan; every op not listed is an _OP
_CONST, _LEAF, _OP = "const", "leaf", "op"
_KINDS = {"const": _CONST, "param": _LEAF, "input": _LEAF}


def _trial_view(v, shape, rank):
    """A stacked operand value (K,) + shape, with a unit axis after the
    trial axis for each axis it lacks against `rank`, its widest fellow
    operand's, so that it broadcasts against them as one trial would."""
    return v.reshape(v.shape[:1] + (1,) * (rank - len(shape)) + shape)


def _toposort(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


# ---------------------------------------------------------------------------
# the graph


class Graph:
    """A rooted DAG compiled into a slot plan, with its evaluation state.

    Single-writer: evaluate/backward on one instance must not be
    interleaved across threads. Distinct Graph instances are independent
    even when they share Node objects, so separate graphs may run in
    parallel over separate bindings.
    """

    def __init__(self, root, extra_params=()):
        self.root = root
        self.order = _toposort(root)
        self.params = {n.name: n for n in self.order if n.op == "param"}
        # declared-but-unused parameters still get (zero) gradients
        for p in extra_params:
            self.params.setdefault(p.name, p)
        # one entry per node of `order`: (node, kind, parent slots,
        # forward rule, backward rule); the root is the last slot. A slot
        # is needed when a parameter reaches it through ops with a rule
        self._slot, self._plan, self._needed = {}, [], []
        for node in self.order:
            op = node.op
            kind = _KINDS.get(op, _OP)
            parents = tuple([self._slot[id(p)] for p in node.parents])
            forward = _FORWARD[op] if kind is _OP else None
            backward = _BACKWARD[op] if op in _BACKWARD else None
            if op == "gru":  # the input's gradient costs a product of its own
                backward = functools.partial(backward, need_x=self._needed[parents[0]])
            self._plan.append((node, kind, parents, forward, backward))
            self._needed.append(op == "param" or (
                backward is not None and any(self._needed[i] for i in parents)))
            self._slot[id(node)] = len(self._slot)
        self._values = None
        self._saved = None

    def _run(self, slots, values, saved, bindings, stacked=()):
        """The one forward loop: fill `values` (and `saved`) at `slots`,
        in order, reading leaves from `bindings`. A slot in `stacked`
        holds a leading trial axis; an op reads it as (K,) + (1,) *
        (rank gap) + shape, lined up with its other operands."""
        plan = self._plan
        with np.errstate(all="ignore"):
            for k in slots:
                node, kind, parents, forward, _ = plan[k]
                if kind is _OP:
                    args = [values[i] for i in parents]
                    if stacked:
                        rank = max(len(plan[i][0].shape) for i in parents)
                        args = [_trial_view(a, plan[i][0].shape, rank) if i in stacked else a
                                for a, i in zip(args, parents)]
                    v = forward(node, *args)
                    if node.op in _SAVES_STATE:
                        v, saved[k] = v
                    if not np.isfinite(v).all():
                        bad = ~np.isfinite(np.asarray(v))
                        idx = int(np.flatnonzero(bad.ravel())[0])
                        raise GraphError(
                            f"non-finite value in node '{node.name}' at flat index {idx}"
                        )
                elif kind is _LEAF:
                    if node.name not in bindings:
                        raise GraphError(f"missing binding for leaf '{node.name}'")
                    v = np.asarray(bindings[node.name], dtype=np.float64)
                    if v.shape != node.shape:
                        raise GraphError(
                            f"binding for '{node.name}' has shape {v.shape}, "
                            f"expected {node.shape}"
                        )
                else:
                    v = node.attrs["value"]
                values[k] = v

    def evaluate(self, bindings):
        """Run the forward pass; returns the root value.

        `bindings` maps every param/input leaf name to an array of the
        declared shape (extra keys are ignored). Intermediate values are
        cached for backward.
        """
        values, saved = [None] * len(self._plan), {}
        self._run(range(len(self._plan)), values, saved, bindings)
        self._values, self._saved = values, saved
        return values[-1]

    def cached_value(self, node):
        """Value of any node from the most recent evaluate call."""
        if self._values is None:
            raise GraphError("cached_value called before evaluate")
        return self._values[self._slot[id(node)]]

    def _downstream(self, name):
        """Slots of the leaf `name` and of every node that reads it, in plan
        order; empty when the root never reads that leaf."""
        reached = set()
        for k, (node, kind, parents, _, _) in enumerate(self._plan):
            if (kind is _LEAF and node.name == name) or not reached.isdisjoint(parents):
                reached.add(k)
        return sorted(reached)

    def _trials(self, slots, stack):
        """Root values of the trials stacked along the first axis of
        `stack`, bound to the leaf slots among `slots`, the downstream
        slots of one parameter; the other slots keep their cached values."""
        values = list(self._values)
        ops = []
        for k in slots:
            if self._plan[k][1] is _LEAF:
                values[k] = stack
            else:
                ops.append(k)
        self._run(ops, values, {}, {}, stacked=set(slots))
        return np.broadcast_to(values[-1], stack.shape[:1]).tolist()

    def backward(self):
        """Gradient of the scalar root w.r.t. every parameter leaf.

        Visits nodes in exact reverse topological order, sending gradient
        only into slots a parameter reaches, and sums a broadcast gradient
        down to its parent's shape here alone. Parameters the root never
        reads come back as exactly-zero arrays.
        """
        if self._values is None:
            raise GraphError("backward called before evaluate")
        if self.root.shape != ():
            raise GraphError(f"root must be scalar, has shape {self.root.shape}")
        values, saved, plan, needed = self._values, self._saved, self._plan, self._needed
        grads = [None] * len(plan)
        grads[-1] = np.ones((), dtype=np.float64) if needed[-1] else None
        for k in range(len(plan) - 1, -1, -1):
            node, _, parents, _, backward = plan[k]
            g = grads[k]
            if backward is None or g is None:
                continue
            grads[k] = None
            args = [values[i] for i in parents]
            if node.op in _NEEDS_OUTPUT:
                args.append(values[k])
            if node.op in _SAVES_STATE:
                args.append(saved[k])
            for i, pg in zip(parents, backward(node, g, *args)):
                if needed[i]:
                    shape = plan[i][0].shape
                    pg = pg if pg.shape == shape else _unbroadcast(pg, shape)
                    grads[i] = pg if grads[i] is None else grads[i] + pg
        out = {}
        for name, p in self.params.items():
            k = self._slot.get(id(p))
            g = None if k is None else grads[k]
            out[name] = np.zeros(p.shape) if g is None else g
        return out


# ---------------------------------------------------------------------------
# finite-difference verification


@dataclass
class CoordRecord:
    param: str
    index: int
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradientReport:
    """Comparison of analytic gradients against central differences."""

    epsilon: float
    seed: int
    records: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def max_rel_error(self):
        return max((r.rel_error for r in self.records), default=0.0)

    def per_param_max(self):
        out = {}
        for r in self.records:
            out[r.param] = max(out.get(r.param, 0.0), r.rel_error)
        return out

    def passed(self, threshold=1e-4):
        return self.max_rel_error < threshold

    def to_dict(self):
        return {
            "schema_version": "1",
            "epsilon": self.epsilon,
            "seed": self.seed,
            "n_coords": len(self.records),
            "max_rel_error": self.max_rel_error,
            "per_param_max": self.per_param_max(),
            "warnings": list(self.warnings),
            "records": [vars(r) for r in self.records],
        }


def grad_check(graph, bindings, epsilon=1e-6, n_coords=100, seed=0, skip_params=()):
    """Compare backward() against central differences at sampled coordinates.

    Coordinates are drawn without replacement from the concatenation of
    all parameter arrays, deterministically from `seed`. The relative
    error of each coordinate is |g_a - g_fd| / max(|g_a|, |g_fd|, 1e-12).

    Each sampled parameter costs one forward pass over only the slots it
    reaches: its K = 2 x (sampled coordinates) perturbed copies, +epsilon
    then -epsilon per coordinate, are bound as one (K, *shape) stack, and
    the pass yields K root values, each bit-identical to evaluating that
    trial alone. Memory grows with K times the reached values. A stack
    that raises is run again one trial at a time, so a GraphError names
    the first failing trial's node, index or step.

    `skip_params` removes parameters from the sampled universe. Use it
    for parameters whose true gradient is identically zero through an
    invariance of the objective (e.g. a pure shift direction of a
    shift-invariant loss): there both routes return only rounding noise
    and the ratio carries no information; assert near-zero agreement on
    them directly instead.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n_coords < 1:
        raise ValueError("n_coords must be >= 1")
    report = GradientReport(epsilon=epsilon, seed=seed)
    lo, hi = EPSILON_BAND
    if not lo <= epsilon <= hi:
        report.warnings.append(
            f"epsilon {epsilon:g} outside [{lo:g}, {hi:g}]; truncation or "
            "roundoff error may dominate the comparison"
        )

    graph.evaluate(bindings)
    analytic = graph.backward()

    names = sorted(n for n in graph.params if n not in set(skip_params))
    sizes = [int(np.prod(graph.params[n].shape)) if graph.params[n].shape else 1
             for n in names]
    offsets = np.cumsum([0] + sizes)
    total = int(offsets[-1])
    if total == 0:
        raise GraphError("grad_check: graph has no parameters")

    rng = np.random.default_rng(seed)
    if n_coords >= total:
        flat = np.arange(total)
    else:
        flat = np.sort(rng.choice(total, size=n_coords, replace=False))

    owner = np.searchsorted(offsets, flat, side="right") - 1
    for k in np.unique(owner):
        name = names[k]
        idx = (flat[owner == k] - offsets[k]).tolist()
        base = np.asarray(bindings[name], dtype=np.float64)
        stack = np.tile(base.reshape(-1), (2 * len(idx), 1))
        stack[np.arange(2 * len(idx)), np.repeat(idx, 2)] += np.tile([epsilon, -epsilon], len(idx))
        stack = stack.reshape((-1,) + base.shape)
        slots = graph._downstream(name)
        try:
            fd = graph._trials(slots, stack)
        except GraphError:
            fd = [v for trial in stack for v in graph._trials(slots, trial[None])]
        grads = np.asarray(analytic[name]).reshape(-1)
        for j, i in enumerate(idx):
            numeric = (fd[2 * j] - fd[2 * j + 1]) / (2.0 * epsilon)
            ga = float(grads[i])
            rel = abs(ga - numeric) / max(abs(ga), abs(numeric), 1e-12)
            report.records.append(CoordRecord(name, i, ga, numeric, rel))
    return report
