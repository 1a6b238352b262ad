import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectseq import affect_head as head
from affectseq import aggregator as agg
from affectseq import autodiff as ad
from affectseq import verification
from affectseq.data import FrameRecipe, gen_frame_dataset
from affectseq.optim import init_params
from helpers import dict_backward, dict_evaluate, full_grad_check, gru_backward_oracle


def scalar_graph(node, **extra):
    return ad.Graph(node, **extra)


def test_sigmoid_at_zero():
    x = ad.param("x", ())
    g = ad.Graph(ad.sigmoid(x))
    assert g.evaluate({"x": 0.0}) == pytest.approx(0.5)


def test_softmax_symmetry():
    x = ad.param("x", (3,))
    g = ad.Graph(ad.softmax(x))
    out = g.evaluate({"x": np.full(3, 4.2)})
    np.testing.assert_allclose(out, np.full(3, 1.0 / 3.0))


def test_matmul_identity():
    a = ad.constant(np.eye(3))
    v = ad.param("v", (3, 1))
    g = ad.Graph(ad.matmul(a, v))
    np.testing.assert_array_equal(g.evaluate({"v": [[1.0], [2.0], [3.0]]}), [[1.0], [2.0], [3.0]])


def test_square_gradient():
    x = ad.param("x", ())
    g = ad.Graph(ad.mul(x, x))
    g.evaluate({"x": 3.0})
    assert g.backward()["x"] == pytest.approx(6.0)


def test_sigmoid_gradient_at_zero():
    x = ad.param("x", ())
    g = ad.Graph(ad.sigmoid(x))
    g.evaluate({"x": 0.0})
    assert g.backward()["x"] == pytest.approx(0.25)


def test_masked_coordinate_gets_zero_gradient():
    x = ad.param("x", (2,))
    g = ad.Graph(ad.reduce_sum(ad.mul(x, ad.constant([1.0, 0.0]))))
    g.evaluate({"x": [5.0, 7.0]})
    np.testing.assert_array_equal(g.backward()["x"], [1.0, 0.0])


def test_unused_parameter_gets_exact_zeros():
    x = ad.param("x", ())
    unused = ad.param("w", (4, 3))
    g = ad.Graph(ad.mul(x, x), extra_params=[unused])
    g.evaluate({"x": 2.0, "w": np.ones((4, 3))})
    grads = g.backward()
    assert grads["w"].shape == (4, 3)
    assert np.all(grads["w"] == 0.0)


def test_evaluate_requires_all_leaves():
    x = ad.param("x", (2,))
    y = ad.placeholder("y", (2,))
    g = ad.Graph(ad.reduce_sum(ad.add(x, y)))
    with pytest.raises(ad.GraphError, match="y"):
        g.evaluate({"x": [1.0, 2.0]})


def test_binding_shape_mismatch_names_leaf():
    x = ad.param("x", (2,))
    g = ad.Graph(ad.reduce_sum(x))
    with pytest.raises(ad.GraphError, match="'x'"):
        g.evaluate({"x": [1.0, 2.0, 3.0]})


def test_build_time_shape_validation():
    a = ad.param("a", (2, 3))
    b = ad.param("b", (4, 2))
    with pytest.raises(ad.GraphError, match="matmul"):
        ad.matmul(a, b)
    with pytest.raises(ad.GraphError, match="concat"):
        ad.concat([ad.param("p", (2, 3)), ad.param("q", (3, 4))], axis=0)


def test_nonfinite_intermediate_names_node_and_index():
    x = ad.param("x", (3,))
    node = ad.log(x)
    g = ad.Graph(ad.reduce_sum(node))
    with pytest.raises(ad.GraphError, match=f"'{node.name}' at flat index 1"):
        g.evaluate({"x": [1.0, -1.0, 2.0]})


def test_backward_rejects_nonscalar_root():
    x = ad.param("x", (3,))
    g = ad.Graph(ad.tanh(x))
    g.evaluate({"x": [0.1, 0.2, 0.3]})
    with pytest.raises(ad.GraphError, match="scalar"):
        g.backward()


def test_backward_before_evaluate_rejected():
    x = ad.param("x", ())
    g = ad.Graph(ad.mul(x, x))
    with pytest.raises(ad.GraphError, match="evaluate"):
        g.backward()


def test_evaluate_deterministic_bit_identical():
    rng = np.random.default_rng(3)
    x = ad.param("x", (4, 5))
    w = ad.param("w", (5, 2))
    g = ad.Graph(ad.reduce_mean(ad.tanh(ad.matmul(x, w))))
    bindings = {"x": rng.normal(size=(4, 5)), "w": rng.normal(size=(5, 2))}
    a = g.evaluate(bindings)
    b = g.evaluate(bindings)
    assert float(a) == float(b)


def test_shared_subexpression_accumulates():
    # y = x*x + x has dy/dx = 2x + 1
    x = ad.param("x", ())
    g = ad.Graph(ad.add(ad.mul(x, x), x))
    g.evaluate({"x": 4.0})
    assert g.backward()["x"] == pytest.approx(9.0)


def test_variance_and_covariance_values():
    x = ad.param("x", (3,))
    y = ad.param("y", (3,))
    g = ad.Graph(ad.covariance(x, y))
    assert g.evaluate({"x": [1.0, 2.0, 3.0], "y": [2.0, 3.0, 4.0]}) == pytest.approx(2 / 3)
    gv = ad.Graph(ad.variance(x))
    assert gv.evaluate({"x": [1.0, 2.0, 3.0]}) == pytest.approx(2 / 3)


def test_columnwise_moments():
    x = ad.param("x", (4, 2))
    g = ad.Graph(ad.reduce_sum(ad.variance(x, axis=0)))
    data = np.array([[1.0, 10.0], [2.0, 10.0], [3.0, 10.0], [4.0, 10.0]])
    g.evaluate({"x": data})
    # second column is constant, so only the first contributes
    assert float(g.cached_value(g.root)) == pytest.approx(np.var(data[:, 0]))


def grad_check_case(root, params, bindings, seed=0, n_coords=100, tol=1e-6):
    g = ad.Graph(root)
    report = ad.grad_check(g, bindings, epsilon=1e-6, n_coords=n_coords, seed=seed)
    assert report.max_rel_error < tol, report.per_param_max()
    return report


def test_grad_check_quadratic_tight():
    x = ad.param("x", ())
    g = ad.Graph(ad.mul(x, x))
    report = ad.grad_check(g, {"x": 3.0}, epsilon=1e-6, n_coords=1, seed=0)
    assert report.max_rel_error < 1e-8


def test_grad_check_sigmoid_tight():
    x = ad.param("x", ())
    g = ad.Graph(ad.sigmoid(x))
    report = ad.grad_check(g, {"x": 0.0}, epsilon=1e-6, n_coords=1, seed=0)
    assert report.max_rel_error < 1e-7


def test_grad_check_two_layer_softmax_cross_entropy():
    rng = np.random.default_rng(7)
    x = ad.placeholder("x", (6, 5))
    w1 = ad.param("w1", (5, 8))
    b1 = ad.param("b1", (8,))
    w2 = ad.param("w2", (8, 4))
    b2 = ad.param("b2", (4,))
    probs = ad.softmax(ad.affine(ad.tanh(ad.affine(x, w1, b1)), w2, b2))
    onehot = np.eye(4)[rng.integers(0, 4, size=6)]
    loss = ad.scale(ad.reduce_mean(ad.reduce_sum(ad.mul(ad.constant(onehot), ad.log(probs, floor=1e-12)), axis=1)), -1.0)
    g = ad.Graph(loss)
    bindings = {
        "x": rng.normal(size=(6, 5)),
        "w1": rng.normal(size=(5, 8)) * 0.5,
        "b1": rng.normal(size=(8,)) * 0.1,
        "w2": rng.normal(size=(8, 4)) * 0.5,
        "b2": rng.normal(size=(4,)) * 0.1,
    }
    report = ad.grad_check(g, bindings, epsilon=1e-6, n_coords=100, seed=7)
    assert report.max_rel_error < 1e-4


def test_grad_check_every_primitive():
    rng = np.random.default_rng(11)
    a = ad.param("a", (3, 4))
    b = ad.param("b", (3, 4))
    w = ad.param("w", (4, 3))
    bindings = {
        "a": rng.uniform(0.5, 2.0, size=(3, 4)),
        "b": rng.uniform(0.5, 2.0, size=(3, 4)),
        "w": rng.normal(size=(4, 3)) * 0.7,
    }
    pieces = [
        ad.reduce_sum(ad.mul(ad.add(a, b), ad.sub(a, b))),
        ad.reduce_sum(ad.div(a, b)),
        ad.reduce_mean(ad.tanh(ad.matmul(a, w))),
        ad.reduce_sum(ad.reduce_sum(ad.sigmoid(a), axis=1)),
        ad.reduce_sum(ad.softmax(ad.matmul(a, w))),
        ad.reduce_sum(ad.log(a)),
        ad.reduce_sum(ad.sqrt(a)),
        ad.reduce_sum(ad.variance(a, axis=0)),
        ad.reduce_sum(ad.covariance(a, b, axis=0)),
        ad.variance(a),
        ad.covariance(a, b),
        ad.reduce_sum(ad.concat([a, b], axis=1)),
        ad.reduce_sum(ad.mul(a, ad.constant((rng.uniform(size=(3, 4)) > 0.4).astype(float)))),
        ad.reduce_sum(ad.mul(ad.reduce_mean(a, axis=1), ad.reduce_mean(b, axis=1))),
    ]
    total = pieces[0]
    for piece in pieces[1:]:
        total = ad.add(total, piece)
    g = ad.Graph(total)
    report = ad.grad_check(g, bindings, epsilon=1e-6, n_coords=36, seed=5)
    assert report.max_rel_error < 1e-6, report.per_param_max()


def test_grad_check_epsilon_warning():
    x = ad.param("x", ())
    g = ad.Graph(ad.mul(x, x))
    report = ad.grad_check(g, {"x": 1.0}, epsilon=1e-2, n_coords=1, seed=0)
    assert report.warnings


def test_grad_check_rejects_bad_args():
    x = ad.param("x", ())
    g = ad.Graph(ad.mul(x, x))
    with pytest.raises(ValueError):
        ad.grad_check(g, {"x": 1.0}, epsilon=0.0)
    with pytest.raises(ValueError):
        ad.grad_check(g, {"x": 1.0}, n_coords=0)


def test_report_serialization():
    x = ad.param("x", (3,))
    g = ad.Graph(ad.reduce_sum(ad.mul(x, x)))
    report = ad.grad_check(g, {"x": np.array([1.0, -2.0, 0.5])}, n_coords=3)
    blob = report.to_dict()
    assert blob["n_coords"] == 3
    assert set(blob["per_param_max"]) == {"x"}


def test_parallel_graphs_are_independent():
    import threading

    x = ad.param("x", (64, 64))
    root = ad.reduce_mean(ad.tanh(ad.matmul(x, x)))
    results = {}

    def run(tag, value):
        g = ad.Graph(root)  # distinct Graph, shared nodes
        results[tag] = float(g.evaluate({"x": np.full((64, 64), value)}))

    threads = [threading.Thread(target=run, args=(i, 0.01 * (i + 1))) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(4):
        g = ad.Graph(root)
        expect = float(g.evaluate({"x": np.full((64, 64), 0.01 * (i + 1))}))
        assert results[i] == expect


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8))
def test_softmax_rows_sum_to_one(vals):
    x = ad.param("x", (len(vals),))
    g = ad.Graph(ad.softmax(x))
    out = g.evaluate({"x": np.array(vals)})
    assert np.sum(out) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(1, 5),
    st.floats(0.1, 2.0),
)
def test_broadcast_bias_gradient_matches_fd(rows, cols, scale_):
    rng = np.random.default_rng(rows * 7 + cols)
    x = ad.placeholder("x", (rows, cols))
    bias = ad.param("bias", (cols,))
    g = ad.Graph(ad.reduce_mean(ad.tanh(ad.add(x, bias))))
    bindings = {"x": rng.normal(size=(rows, cols)) * scale_, "bias": rng.normal(size=(cols,)) * 0.3}
    report = ad.grad_check(g, bindings, epsilon=1e-6, n_coords=cols, seed=1)
    assert report.max_rel_error < 1e-6


# ---------------------------------------------------------------------------
# reshape and the fused gru op


def test_reshape_values_and_grad_check():
    x = ad.param("x", (2, 6))
    y = ad.reshape(x, (3, 4))
    w = np.random.default_rng(3).uniform(0.5, 1.5, size=(3, 4))
    g = ad.Graph(ad.reduce_sum(ad.mul(ad.tanh(y), ad.constant(w))))
    value = np.random.default_rng(4).normal(size=(2, 6))
    g.evaluate({"x": value})
    np.testing.assert_array_equal(g.cached_value(y), value.reshape(3, 4))
    report = ad.grad_check(g, {"x": value}, n_coords=12)
    assert report.max_rel_error < 1e-7, report.per_param_max()


def test_reshape_rejects_size_change():
    with pytest.raises(ad.GraphError, match="reshape"):
        ad.reshape(ad.param("x", (2, 6)), (5, 2))


def _gru_weights(rng, d, hid, scale=0.5):
    """Bindings for one GRU layer, keyed by role in GRU_WEIGHTS order."""
    shapes = {"w": (d, hid), "u": (hid, hid), "b": (hid,)}
    return {role: rng.normal(size=shapes[role[0]]) * scale for role in ad.GRU_WEIGHTS}


def _gru_leaves(bindings):
    return [ad.param(role, value.shape) for role, value in bindings.items()]


def test_gru_rejects_mismatched_weights():
    weights = list(_gru_weights(np.random.default_rng(5), 3, 2).values())
    weights[7] = np.zeros((3, 2))  # uh must be (2, 2)
    with pytest.raises(ad.GraphError, match="uh"):
        ad.gru(ad.param("x", (2, 12)), weights, 4, 2)


def test_gru_overflowing_preactivation_names_node_and_step():
    # sigmoid(inf) is a finite 1, so only the pre-activation check sees it
    rng = np.random.default_rng(7)
    t, d, hid = 5, 3, 2
    weights = _gru_weights(rng, d, hid)
    weights["wz"] = np.full((d, hid), 1e308)
    frames = np.zeros((2, t, d))
    frames[:, 3:] = 1.0  # x @ wz is 0 before step 3, inf from step 3 on
    out = ad.gru(ad.constant(frames.reshape(2, t * d)), _gru_leaves(weights), t, hid,
                 name="gru0")
    with pytest.raises(ad.GraphError, match="gru0 step 3"):
        ad.Graph(ad.reduce_sum(out)).evaluate(weights)


@pytest.mark.parametrize("b,t,d,hid", [(16, 24, 26, 20), (16, 32, 26, 16), (4, 480, 26, 128),
                                       (3, 5, 6, 4)])
def test_gru_backward_matches_per_step_formula(b, t, d, hid):
    rng = np.random.default_rng(b * t + hid)
    weights = list(_gru_weights(rng, d, hid, scale=0.4).values())
    out, saved = ad.np_gru(rng.normal(size=(b, t * d)), weights, t)
    g = rng.normal(size=out.shape)
    got = ad.np_gru_backward(g, weights, saved)
    want = gru_backward_oracle(g, weights, saved)
    assert len(got) == len(want) == 10
    for a, e in zip(got, want):
        np.testing.assert_array_equal(a, e)


@pytest.mark.parametrize("b,t,d,hid", [(3, 5, 6, 4), (16, 32, 26, 16)])  # layer_gru, desk
@pytest.mark.parametrize("stacked", ["x", *ad.GRU_WEIGHTS, "all"])
def test_gru_trial_axis_matches_per_trial_runs(b, t, d, hid, stacked):
    # K trials of the operands named by `stacked`, the others shared; a
    # stacked bias is (K, 1, H), the view the engine's trial pass gives it
    rng = np.random.default_rng(b + t + hid)
    k = 3
    trials = [{"x": rng.normal(size=(b, t * d)), **_gru_weights(rng, d, hid)} for _ in range(k)]
    roles = ["x", *ad.GRU_WEIGHTS] if stacked == "all" else [stacked]
    args = {}
    for role, value in trials[0].items():
        if role in roles:
            value = np.stack([trial[role] for trial in trials])
            args[role] = value[:, None] if role.startswith("b") else value
        else:
            args[role] = value
    out, _ = ad.np_gru(args["x"], [args[role] for role in ad.GRU_WEIGHTS], t)
    assert out.shape == (k, b, t * hid)
    for i, trial in enumerate(trials):
        alone = {role: trial[role] if role in roles else trials[0][role] for role in trial}
        want, _ = ad.np_gru(alone["x"], [alone[role] for role in ad.GRU_WEIGHTS], t)
        assert out[i].tobytes() == want.tobytes()


def test_gru_skips_an_unneeded_input_gradient():
    rng = np.random.default_rng(12)
    weights = list(_gru_weights(rng, 6, 4).values())
    out, saved = ad.np_gru(rng.normal(size=(3, 30)), weights, 5)
    g = rng.normal(size=out.shape)
    full = ad.np_gru_backward(g, weights, saved)
    lean = ad.np_gru_backward(g, weights, saved, need_x=False)
    assert lean[0] is None
    assert [a.tobytes() for a in lean[1:]] == [a.tobytes() for a in full[1:]]


# ---------------------------------------------------------------------------
# the slot plan against the id-keyed engine; grad_check's downstream trials


def _target_case(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()) % 1000)
    return verification.TARGETS[name](rng)


def _desk_runner_case(kind):
    """A desk-shape BatchRunner loss graph (t=32, H=16) over 5 videos."""
    config = agg.AggregatorConfig(mask_enabled=kind != "unmasked")
    head_config = head.HeadConfig(d_in=12, width=12, n_blocks=1) if kind == "joint" else None
    rng = np.random.default_rng(23)
    d = config.d_in if head_config is None else head_config.d_in
    frames = rng.normal(size=(5, config.t, d))
    lengths = np.array([8, 32, 17, 9, 30])
    labels = rng.uniform(size=(5, config.n_out))
    runner = agg.BatchRunner(config, 5, "pearson", head_config=head_config)
    params = init_params(config, seed=4)
    if head_config is not None:
        params.update(init_params(head_config, seed=5))
    return runner.graph, agg.batch_bindings(config, params, frames, lengths, labels, d)


def _head_loss_case():
    config = head.HeadConfig(d_in=8, width=8, n_blocks=2)
    mix = (("va", 0.3), ("expr", 0.2), ("au", 0.3), ("all", 0.2))
    samples, _ = gen_frame_dataset(31, 12, FrameRecipe(d_in=8, label_mix=mix))
    batch = head.frame_arrays(samples)
    graph, _ = head.head_loss_graph(config, len(samples), head.present_terms(batch))
    return graph, {**init_params(config, seed=6), **batch}


PLAN_CASES = [*verification.TARGETS, "desk_masked", "desk_unmasked", "desk_joint", "head_loss"]


def _plan_case(name):
    if name.startswith("desk_"):
        return _desk_runner_case(name[len("desk_"):])
    if name == "head_loss":
        return _head_loss_case()
    return _target_case(name)


@pytest.mark.parametrize("name", PLAN_CASES)
def test_plan_matches_id_keyed_engine(name):
    graph, bindings = _plan_case(name)
    values, saved = dict_evaluate(graph, bindings)
    root = graph.evaluate(bindings)
    np.testing.assert_array_equal(root, values[id(graph.root)])
    for node in graph.order:
        np.testing.assert_array_equal(graph.cached_value(node), values[id(node)])
    got, want = graph.backward(), dict_backward(graph, values, saved)
    assert list(got) == list(want)
    for key in want:
        np.testing.assert_array_equal(got[key], want[key])


@pytest.mark.parametrize("name", ["desk_masked", "head_loss"])
def test_no_rule_runs_where_no_parameter_reaches(name, monkeypatch):
    # the plan looks its rules up when the graph is built, so wrap them first
    ran = []
    for op, rule in list(ad._BACKWARD.items()):
        def logged(node, *args, rule=rule, **kwargs):  # the plan binds gru's need_x
            ran.append(node)
            return rule(node, *args, **kwargs)
        monkeypatch.setitem(ad._BACKWARD, op, logged)
    graph, bindings = _plan_case(name)
    inputs = {node.name for node in graph.order if node.op == "input"}
    assert name != "head_loss" or {"va", "expr_onehot", "au"} <= inputs  # all four terms
    graph.evaluate(bindings)
    graph.backward()
    reached = set()  # a param, or read from one other than through the gradient-free flag
    for node in graph.order:
        if node.op == "param" or (node.op != "constant_columns"
                                  and any(id(p) in reached for p in node.parents)):
            reached.add(id(node))
    unreached = [node.name for node in ran if id(node) not in reached]
    assert ran and not unreached, f"rules ran where no parameter reaches: {unreached}"


@pytest.mark.parametrize("name", list(verification.TARGETS))
def test_downstream_grad_check_matches_full_reevaluation(name):
    graph, bindings = _target_case(name)
    args = dict(epsilon=verification.EPSILON, n_coords=verification.N_COORDS, seed=0)
    report = ad.grad_check(graph, bindings, **args)
    assert report.to_dict() == full_grad_check(graph, bindings, **args).to_dict()


def test_downstream_grad_check_of_unread_and_skipped_params():
    rng = np.random.default_rng(8)
    x, w = ad.param("x", (1, 3)), ad.param("w", (3, 2))
    unread = ad.param("unread", (2, 2))
    root = ad.reduce_sum(ad.tanh(ad.matmul(x, w)))
    bindings = {"x": rng.normal(size=(1, 3)), "w": rng.normal(size=(3, 2)),
                "unread": rng.normal(size=(2, 2))}
    graph = ad.Graph(root, extra_params=[unread])
    report = ad.grad_check(graph, bindings, n_coords=13)
    assert report.to_dict() == full_grad_check(graph, bindings, n_coords=13).to_dict()
    assert [r.numeric for r in report.records if r.param == "unread"] == [0.0] * 4
    skipped = ad.grad_check(graph, bindings, n_coords=5, seed=3, skip_params=("w",))
    assert skipped.to_dict() == full_grad_check(
        graph, bindings, n_coords=5, seed=3, skip_params=("w",)).to_dict()
    assert {r.param for r in skipped.records} == {"x", "unread"}


def test_downstream_trial_names_the_non_finite_node():
    x = ad.param("x", (3,))
    node = ad.sqrt(x)
    graph = ad.Graph(ad.reduce_sum(ad.mul(node, ad.constant([1.0, 2.0, 3.0]))))
    # the -epsilon trial at x[1] = 0 takes the square root of a negative
    with np.errstate(divide="ignore"), \
            pytest.raises(ad.GraphError, match=f"non-finite value in node '{node.name}' "
                                               "at flat index 1$"):
        ad.grad_check(graph, {"x": np.array([1.0, 0.0, 4.0])}, n_coords=3)
    # s[0] feeds step 4 and s[1] step 2 of a gru, each just short of
    # overflowing x @ wz: every +epsilon trial overflows a pre-activation,
    # the first one, of s[0], at step 4
    s = ad.param("s", (1, 2))
    frames = np.zeros((2, 5))
    frames[0, 4] = frames[1, 2] = np.finfo(float).max / 2.0000001
    weights = [ad.constant(np.full(shape, 2.0 if role == "wz" else 0.0))
               for role, shape in zip(ad.GRU_WEIGHTS, [(1, 1), (1, 1), (1,)] * 3)]
    hs = ad.gru(ad.matmul(s, ad.constant(frames)), weights, 5, 1, name="gru0")
    graph = ad.Graph(ad.reduce_sum(hs))
    message = "non-finite pre-activation in gru0 step 4$"
    for check in (ad.grad_check, full_grad_check):
        with np.errstate(over="ignore"), pytest.raises(ad.GraphError, match=message):
            check(graph, {"s": np.ones((1, 2))}, n_coords=2)


def test_numeric_error_names_the_layer():
    config = agg.AggregatorConfig(d_in=3, t=4, d_hidden=2, d_ff=3)
    params = init_params(config, seed=1)
    params["ff1.w"] = params["ff1.w"].copy()
    params["ff1.w"][2, 1] = np.nan
    frames = np.random.default_rng(2).normal(size=(2, 4, 3))
    with pytest.raises(ad.GraphError, match=r"node 'ff1\."):
        agg.BatchRunner(config, 2).forward(params, frames, [4, 2])
    hc = head.HeadConfig(d_in=8, width=8, n_blocks=2)
    hp = init_params(hc, seed=1)
    hp["trunk.block1.b"] = np.full(8, np.inf)
    out = head.head_nodes(hc, ad.constant(np.ones((2, 8))))
    with pytest.raises(ad.GraphError, match=r"node 'trunk\.block1\."):
        ad.Graph(ad.reduce_sum(out.va)).evaluate(hp)
