"""Random graphs: the engine against its oracles on compositions no fixed
test builds.

Each draw is a small DAG over every op in `_FORWARD`, grown from
parameters, placeholders and constants of mixed ranks: a scalar against
a matrix, `div` with a broadcast denominator, shared nodes, branches no
parameter reaches, `constant_columns` over operands that may hold a
constant column, `concat`, `reshape`, and `gru` layers fed by a
parameter or by a placeholder. Every draw must agree with
`helpers.dict_evaluate`/`dict_backward` bit for bit, and `grad_check`,
which runs each parameter's trials as one stacked pass, with
`helpers.full_grad_check`, which re-evaluates the whole graph per
trial. A draw that hits a non-finite value must raise the same
GraphError text on both sides; a finite forward pass may still yield a
NaN gradient (sqrt at 0), which both sides must report alike.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from affectseq import autodiff as ad
from helpers import dict_backward, dict_evaluate, full_grad_check


def _broadcasts(a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        return False
    return True


class _Builder:
    """Grows a pool of nodes from drawn choices; `bindings` holds a value
    for every leaf it creates."""

    def __init__(self, draw, rng):
        self.draw, self.rng = draw, rng
        self.pool, self.bindings = [], {}

    def leaf(self, kind, shape, constant_column=False, scale=1.0):
        value = scale * self.rng.normal(size=shape)
        if constant_column:
            value[:, 0] = value[0, 0]
        if kind == "const":
            node = ad.constant(value)
        else:
            name = f"{kind}{len(self.bindings)}"
            node = (ad.param if kind == "param" else ad.placeholder)(name, shape)
            self.bindings[name] = value
        self.pool.append(node)
        return node

    def pick(self, accept=lambda node: True):
        """A pool node that `accept` takes, or None; nodes may be picked
        again, which shares them."""
        choices = [node for node in self.pool if accept(node)]
        return self.draw(st.sampled_from(choices)) if choices else None

    def axis(self, node):
        return self.draw(st.sampled_from([None, *range(min(len(node.shape), 2))]))

    def positive(self, node):
        """`node`, or its sigmoid, which keeps sqrt and log finite."""
        return ad.sigmoid(node) if self.draw(st.booleans()) else node


def _binary(op):
    def build(b):
        x = b.pick()
        return op(x, b.pick(lambda y: _broadcasts(x, y)))
    return build


def _reduction(op):
    def build(b):
        x = b.pick()
        return op(x, axis=b.axis(x))
    return build


def _matmul(b):
    x = b.pick(lambda n: len(n.shape) == 2)
    y = b.pick(lambda n: len(n.shape) == 2 and n.shape[0] == x.shape[1])
    return ad.matmul(x, y) if y is not None else None


def _covariance(b):
    x = b.pick()
    return ad.covariance(x, b.pick(lambda y: y.shape == x.shape), axis=b.axis(x))


def _constant_columns(b):
    x = b.pick(lambda n: len(n.shape) == 2)
    return ad.constant_columns(x, b.pick(lambda y: y.shape == x.shape))


def _concat(b):
    x = b.pick(lambda n: len(n.shape) >= 1)
    rank = len(x.shape)
    axis = b.draw(st.integers(-rank, rank - 1))
    y = b.pick(lambda n: len(n.shape) == rank and all(
        p == q for i, (p, q) in enumerate(zip(n.shape, x.shape)) if i != axis % rank))
    return ad.concat([x, y], axis=axis)


def _reshape(b):
    x = b.pick()
    size = int(np.prod(x.shape))
    rows = b.draw(st.sampled_from([r for r in range(1, size + 1) if size % r == 0]))
    shape = b.draw(st.sampled_from([(size,), (rows, size // rows)]))
    return ad.reshape(x, shape)


def _gru(b):
    x = b.pick(lambda n: len(n.shape) == 2)
    width = x.shape[1]
    t = b.draw(st.sampled_from([s for s in range(1, width + 1) if width % s == 0]))
    d, hid = width // t, b.draw(st.integers(1, 3))
    shapes = {"w": (d, hid), "u": (hid, hid), "b": (hid,)}
    weights = [b.leaf(b.draw(st.sampled_from(["param", "const"])), shapes[role[0]], scale=0.5)
               for role in ad.GRU_WEIGHTS]
    return ad.gru(x, weights, t, hid)


BUILDERS = {
    "add": _binary(ad.add),
    "sub": _binary(ad.sub),
    "mul": _binary(ad.mul),
    "div": _binary(ad.div),
    "matmul": _matmul,
    "tanh": lambda b: ad.tanh(b.pick()),
    "sigmoid": lambda b: ad.sigmoid(b.pick()),
    "softmax": lambda b: ad.softmax(b.pick(lambda n: len(n.shape) >= 1)),
    "log": lambda b: ad.log(b.positive(b.pick()), floor=b.draw(st.sampled_from([0.0, 1e-3]))),
    "sqrt": lambda b: ad.sqrt(b.positive(b.pick())),
    "sum": _reduction(ad.reduce_sum),
    "mean": _reduction(ad.reduce_mean),
    "variance": _reduction(ad.variance),
    "covariance": _covariance,
    "constant_columns": _constant_columns,
    "concat": _concat,
    "reshape": _reshape,
    "gru": _gru,
}


def test_builders_cover_every_forward_rule():
    assert set(BUILDERS) == set(ad._FORWARD)


@st.composite
def random_graphs(draw):
    """(graph, bindings, grad_check arguments) of one random DAG."""
    b = _Builder(draw, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    b.leaf("param", (m, n))
    b.leaf("param", (n,))
    b.leaf("param", ())
    b.leaf("param", (n, n))
    b.leaf("input", (m, n), constant_column=draw(st.booleans()))
    b.leaf("const", (m, n), constant_column=draw(st.booleans()))
    b.leaf("const", ())
    for op in draw(st.lists(st.sampled_from(sorted(BUILDERS)), min_size=2, max_size=8)):
        node = BUILDERS[op](b)
        if node is not None:
            b.pool.append(node)
    # the root sums the last node and a few others, so branches with and
    # without a parameter meet
    outputs = [b.pool[-1]] + draw(st.lists(st.sampled_from(b.pool), max_size=3))
    root = ad.reduce_sum(outputs[0])
    for node in outputs[1:]:
        root = ad.add(root, ad.reduce_sum(node))
    # a declared parameter the root never reads; grad_check needs one
    # parameter, and the root may read none
    unread = ad.param("unread", (2,))
    b.bindings["unread"] = b.rng.normal(size=2)
    args = dict(n_coords=draw(st.integers(1, 12)), seed=draw(st.integers(0, 99)))
    return ad.Graph(root, extra_params=[unread]), b.bindings, args


def _outcome(fn, *args, **kwargs):
    """(result, None) of a call, or (None, message) of its GraphError."""
    try:
        return fn(*args, **kwargs), None
    except ad.GraphError as e:
        return None, str(e)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _report_text(report):
    """The report as JSON text, where NaN equals NaN and every float is
    written in full; dict equality would call two NaN fields different."""
    return json.dumps(report.to_dict())


@settings(max_examples=200, deadline=None)
@given(random_graphs())
def test_random_graph_matches_reference_engines(case):
    graph, bindings, args = case
    with np.errstate(all="ignore"):
        _, error = _outcome(graph.evaluate, bindings)
        reference, want_error = _outcome(dict_evaluate, graph, bindings)
        assert error == want_error
        if error is None:
            values, saved = reference
            for node in graph.order:
                assert _same(graph.cached_value(node), values[id(node)]), node
            got, want = graph.backward(), dict_backward(graph, values, saved)
            assert list(got) == list(want)
            for name in want:
                assert _same(got[name], want[name]), name
        report, error = _outcome(ad.grad_check, graph, bindings, **args)
        reference, want_error = _outcome(full_grad_check, graph, bindings, **args)
    assert error == want_error
    if error is None:
        assert _report_text(report) == _report_text(reference)


def test_nan_gradient_reports_match():
    # sqrt(p - p) is finite forward, but its gradient is 0.5 / 0 * 0 = NaN
    p = ad.param("p", (2, 2))
    graph = ad.Graph(ad.reduce_sum(ad.sqrt(ad.sub(p, p))))
    bindings = {"p": np.random.default_rng(0).normal(size=(2, 2))}
    with np.errstate(all="ignore"):
        report = ad.grad_check(graph, bindings, n_coords=1, seed=1)
        reference = full_grad_check(graph, bindings, n_coords=1, seed=1)
    assert np.isnan(report.records[0].analytic)
    assert _report_text(report) == _report_text(reference)
