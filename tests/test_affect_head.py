import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectseq import affect_head as head
from affectseq import autodiff as ad
from affectseq.affect_space import au_index, expression_index, relatedness_matrix
from affectseq.data import FrameRecipe, gen_frame_dataset
from affectseq.optim import adam_init, init_params
from helpers import ccc_flagged, const, coupling_loss, scalar, va_loss

CFG = head.HeadConfig(d_in=8, width=8, n_blocks=2)


def zero_params(config):
    return {name: np.zeros(shape) for name, shape in config.param_shapes().items()}


def assert_in_range(out):
    """The ranges the three activations guarantee."""
    assert np.all(np.abs(out.va) <= 1.0), "valence-arousal outside [-1, 1]"
    assert np.all((out.au >= 0.0) & (out.au <= 1.0)), "AU activation outside [0, 1]"
    assert np.all(np.abs(out.expr.sum(axis=-1) - 1.0) < 1e-9), "expression sum is not 1"


def test_forward_zero_params_hits_activation_fixed_points():
    out = head.head_forward(np.zeros(8), zero_params(CFG), CFG)
    np.testing.assert_array_equal(out.va, [0.0, 0.0])
    np.testing.assert_allclose(out.expr, np.full(7, 1 / 7))
    np.testing.assert_array_equal(out.au, np.full(17, 0.5))
    assert_in_range(out)


def test_forward_output_satisfies_invariants():
    rng = np.random.default_rng(0)
    params = init_params(CFG, seed=1)
    out = head.head_forward(rng.normal(size=(32, 8)), params, CFG)
    assert_in_range(out)
    assert np.all(np.abs(out.expr.sum(axis=1) - 1.0) < 1e-9)
    assert out.concat().shape == (32, 26)


def test_graph_forward_matches_numeric():
    rng = np.random.default_rng(7)
    params = init_params(CFG, seed=2)
    feats = rng.normal(size=(5, 8))
    numeric = head.head_forward(feats, params, CFG)
    out_nodes = head.head_nodes(CFG, ad.constant(feats))
    g = ad.Graph(ad.reduce_sum(ad.concat([out_nodes.va, out_nodes.expr, out_nodes.au], axis=1)))
    g.evaluate(params)
    np.testing.assert_allclose(g.cached_value(out_nodes.va), numeric.va, atol=1e-14)
    np.testing.assert_allclose(g.cached_value(out_nodes.expr), numeric.expr, atol=1e-14)
    np.testing.assert_allclose(g.cached_value(out_nodes.au), numeric.au, atol=1e-14)


# ---------------------------------------------------------------------------
# loss values: the node builders head_loss_graph composes, on constant inputs


def concordance(x, y):
    """CCC of two sequences through the va loss: with the pair in both
    columns, the loss is 1 - ccc."""
    def pair(v):
        return np.stack([v, v], axis=1).astype(np.float64)
    return 1.0 - va_loss(pair(x), pair(y))


def expression_loss(probs, labels):
    onehot = np.eye(np.shape(probs)[1])[labels]
    return scalar(head.cross_entropy_node(const(probs), const(onehot)))


def au_detection_loss(probs, labels):
    rows = const(np.ones((len(probs), 1)))
    return scalar(head.binary_cross_entropy_node(const(probs), const(labels), rows))


def test_concordance_identity_and_shift():
    assert concordance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert concordance([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == pytest.approx(4 / 7)
    assert concordance([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == 0.0


def test_concordance_agrees_with_metrics_route():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.normal(size=(20, 2))
        y = 0.6 * x + rng.normal(size=(20, 2))
        ccc = [ccc_flagged(x[:, i], y[:, i])[0] for i in range(2)]
        assert 1.0 - va_loss(x, y) == pytest.approx(np.mean(ccc), abs=1e-12)


def test_va_loss_perfect_predictions():
    rng = np.random.default_rng(1)
    labels = rng.uniform(-1, 1, size=(10, 2))
    assert va_loss(labels, labels) == pytest.approx(0.0, abs=1e-12)


def test_va_loss_constant_predictions():
    rng = np.random.default_rng(2)
    labels = rng.uniform(-1, 1, size=(10, 2))
    preds = np.full((10, 2), 0.3)
    assert va_loss(preds, labels) == pytest.approx(1.0, abs=1e-9)


def test_va_loss_half_perfect():
    rng = np.random.default_rng(3)
    valence = rng.uniform(-1, 1, size=10)
    labels = np.stack([valence, rng.uniform(-1, 1, size=10)], axis=1)
    preds = labels.copy()
    preds[:, 1] = 0.1  # arousal constant -> its concordance is ~0
    assert va_loss(preds, labels) == pytest.approx(0.5, abs=1e-9)


def test_expression_loss_values():
    perfect = np.zeros((3, 7))
    perfect[:, 2] = 1.0
    assert expression_loss(perfect, [2, 2, 2]) == pytest.approx(0.0, abs=1e-9)
    uniform = np.full((4, 7), 1 / 7)
    assert expression_loss(uniform, [0, 3, 5, 6]) == pytest.approx(math.log(7))
    floor = np.full((1, 7), 1e-12)
    assert expression_loss(floor, [4]) == pytest.approx(-math.log(1e-12), rel=1e-6)


def test_au_loss_values():
    y = np.array([[1.0, 0.0, 1.0]])
    p_exact = y.copy()
    assert au_detection_loss(p_exact, y) == pytest.approx(0.0, abs=1e-9)
    p_half = np.full((2, 4), 0.5)
    y_any = np.array([[1, 0, 1, 0], [0, 1, 1, 0]], dtype=float)
    assert au_detection_loss(p_half, y_any) == pytest.approx(math.log(2))
    assert au_detection_loss(np.array([[0.25]]), np.array([[1.0]])) == pytest.approx(math.log(4))


def test_coupling_loss_values():
    target = np.zeros(17)
    target[au_index(12)] = 1.0
    p = np.full(17, 0.9)
    p[au_index(12)] = 1.0 - 1e-12
    assert coupling_loss(p, target) == pytest.approx(0.0, abs=1e-9)
    p[au_index(12)] = 0.5
    assert coupling_loss(p, target) == pytest.approx(math.log(2))
    assert coupling_loss(np.full(17, 0.2), np.zeros(17)) == 0.0


def test_coupling_loss_batch_is_mean_of_rows():
    rng = np.random.default_rng(4)
    p = rng.uniform(0.05, 0.95, size=(6, 17))
    t = rng.uniform(0.0, 1.0, size=(6, 17))
    rows = [coupling_loss(p[i], t[i]) for i in range(6)]
    assert coupling_loss(p, t) == pytest.approx(np.mean(rows), abs=1e-12)


def test_coupling_loss_matches_scalar_loop():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.01, 0.99, size=17)
    t = rng.uniform(0.0, 1.0, size=17)
    loop = -sum(t[i] * math.log(max(p[i], 1e-12)) for i in range(17))
    assert coupling_loss(p, t) == pytest.approx(loop, abs=1e-12)


def test_two_term_coupling_adds_complement():
    rng = np.random.default_rng(6)
    p = rng.uniform(0.01, 0.99, size=17)
    t = rng.uniform(0.0, 1.0, size=17)
    one = coupling_loss(p, t)
    two = coupling_loss(p, t, two_term=True)
    comp = -sum((1 - t[i]) * math.log(max(1 - p[i], 1e-12)) for i in range(17))
    assert two == pytest.approx(one + comp, abs=1e-10)


def test_conflict_penalty_exceeds_consistent_activation():
    # predicted happiness but sadness-only AUs active: the coupling loss
    # must punish that harder than activating the happiness AU set
    target = relatedness_matrix()[expression_index("happiness")]
    conflict = np.zeros(17)
    conflict[au_index(11)] = 1.0
    conflict[au_index(15)] = 1.0
    consistent = target.copy()
    assert coupling_loss(conflict, target) > coupling_loss(consistent, target)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_coupling_decreases_toward_target_from_below(seed, steps):
    rng = np.random.default_rng(seed)
    target = relatedness_matrix()[int(rng.integers(0, 6))]  # binary row
    p0 = rng.uniform(0.05, 0.5, size=17)
    support = target > 0
    values = []
    for alpha in np.linspace(0.0, 0.95, steps + 2):
        p = p0.copy()
        p[support] = p0[support] + alpha * (target[support] - p0[support])
        values.append(coupling_loss(p, target))
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# batched multi-task loss


def make_batch(n=12, seed=9, mix=(("va", 0.25), ("expr", 0.25), ("au", 0.25), ("all", 0.25))):
    samples, _ = gen_frame_dataset(seed, n, FrameRecipe(d_in=8, label_mix=mix))
    return head.frame_arrays(samples)


def test_head_loss_total_is_sum_of_terms():
    batch = make_batch()
    params = init_params(CFG, seed=3)
    result = head.head_loss(batch, params, CFG, {})
    assert result.total == pytest.approx(sum(result.terms.values()), abs=1e-12)


def test_head_loss_terms_match_standalone_surfaces():
    batch = make_batch(n=16, seed=10)
    params = init_params(CFG, seed=4)
    out = head.head_forward(batch["features"], params, CFG)
    result = head.head_loss(batch, params, CFG, {})

    va_rows = batch["va_rows"][:, 0] == 1.0
    expect_ccc = va_loss(out.va[va_rows], batch["va"][va_rows])
    expr_rows = batch["expr_onehot"].any(axis=1)
    expr_labels = batch["expr_onehot"][expr_rows].argmax(axis=1)
    expect_cce = expression_loss(out.expr[expr_rows], expr_labels)
    au_rows = batch["au_rows"][:, 0] == 1.0
    expect_bce = au_detection_loss(out.au[au_rows], batch["au"][au_rows])
    expect_coupling = scalar(head.coupling_node(const(out.au), head.pseudo_au_node(const(out.expr))))

    assert result.terms["ccc"] == pytest.approx(expect_ccc, abs=1e-12)
    assert result.terms["cce"] == pytest.approx(expect_cce, abs=1e-12)
    assert result.terms["bce"] == pytest.approx(expect_bce, abs=1e-12)
    assert result.terms["coupling"] == pytest.approx(expect_coupling, abs=1e-12)


def test_head_loss_flags_absent_terms():
    batch = make_batch(n=10, seed=11, mix=(("au", 1.0),))
    params = init_params(CFG, seed=5)
    result = head.head_loss(batch, params, CFG, {})
    assert set(result.absent) == {"ccc", "cce"}
    assert result.terms["ccc"] == 0.0
    assert result.terms["cce"] == 0.0
    assert result.total == pytest.approx(result.terms["bce"] + result.terms["coupling"], abs=1e-12)


def test_head_loss_single_va_label_is_skipped():
    batch = make_batch(n=10, seed=12, mix=(("au", 1.0),))
    batch["va_rows"][3] = 1.0  # one labeled sample is not enough for moments
    params = init_params(CFG, seed=6)
    result = head.head_loss(batch, params, CFG, {})
    assert "ccc" in result.absent


def test_head_train_step_names_the_node_of_a_non_finite_loss():
    batch = make_batch(n=12, seed=14)
    va_rows = batch["va_rows"][:, 0] == 1.0
    assert va_rows.sum() >= 2
    batch["va"][va_rows] = 1e200  # the concordance loss squares 1e200
    params = init_params(CFG, seed=8)
    with pytest.raises(ad.GraphError, match=r"^non-finite value in node 'mul#\d+' at flat index"):
        head.head_train_step(batch, params, adam_init(params), 1e-3, CFG, {})


def test_all_loss_terms_pass_grad_check():
    batch = make_batch(n=10, seed=13)
    graph, term_nodes = head.head_loss_graph(CFG, 10, head.present_terms(batch))
    params = init_params(CFG, seed=7)
    bindings = {**params, **batch}
    report = ad.grad_check(graph, bindings, epsilon=1e-6, n_coords=120, seed=0)
    assert report.max_rel_error < 1e-4, report.per_param_max()
    # each term alone must also check out
    for name, node in term_nodes.items():
        g = ad.Graph(node, extra_params=[ad.param(n, s) for n, s in CFG.param_shapes().items()])
        r = ad.grad_check(g, bindings, epsilon=1e-6, n_coords=60, seed=1)
        assert r.max_rel_error < 1e-4, (name, r.per_param_max())


# ---------------------------------------------------------------------------
# training steps


def test_train_step_zero_lr_keeps_params():
    batch = make_batch()
    params = init_params(CFG, seed=8)
    state = adam_init(params)
    new_params, _, _ = head.head_train_step(batch, params, state, 0.0, CFG, {})
    for name in params:
        np.testing.assert_array_equal(new_params[name], params[name])


def test_train_step_deterministic():
    batch = make_batch()
    params = init_params(CFG, seed=9)
    outs = []
    for _ in range(2):
        state = adam_init(params)
        p, _, loss = head.head_train_step(batch, params, state, 1e-3, CFG, {})
        outs.append((p, loss.total))
    assert outs[0][1] == outs[1][1]
    for name in params:
        np.testing.assert_array_equal(outs[0][0][name], outs[1][0][name])


def test_training_halves_loss_on_fully_labeled_set():
    samples, _ = gen_frame_dataset(21, 64, FrameRecipe(d_in=16, noise=0.05))
    batch = head.frame_arrays(samples)
    config = head.HeadConfig(d_in=16, width=16, n_blocks=2)
    params = init_params(config, seed=0)
    state = adam_init(params)
    first, graphs = None, {}
    for _ in range(500):
        params, state, loss = head.head_train_step(batch, params, state, 3e-3, config, graphs)
        if first is None:
            first = loss.total
    assert loss.total <= 0.5 * first, (first, loss.total)


def _take(arrays, idx):
    return {name: array[idx].copy() for name, array in arrays.items()}


def _changing_batches():
    """A full batch, a short last batch, an AU-only batch, an AU-only batch
    with one va label, then the full batch again: the (rows, present terms)
    key changes and recurs, and two batches share a key with other data."""
    rows = make_batch(n=40, seed=15)
    au_only = make_batch(n=16, seed=16, mix=(("au", 1.0),))
    one_va = make_batch(n=16, seed=17, mix=(("au", 1.0),))
    one_va["va"][3] = (0.25, -0.5)
    one_va["va_rows"][3] = 1.0
    full = _take(rows, np.arange(16))
    return [full, _take(rows, np.arange(16, 32)), _take(rows, np.arange(32, 40)), au_only,
            one_va, full]


def test_cached_loss_graphs_match_a_fresh_graph_per_batch():
    batches = _changing_batches()
    keys = [(len(b["features"]), head.present_terms(b)) for b in batches]
    assert keys[0] == keys[1] == keys[5] and keys[3] == keys[4]
    assert keys[2][0] == 8 and "ccc" not in keys[4][1]
    shared = {}
    runs = []
    for graphs in (lambda: shared, dict):  # one cache, then a fresh one per batch
        params = init_params(CFG, seed=10)
        state = adam_init(params)
        trail = []
        for batch in batches:
            params, state, loss = head.head_train_step(batch, params, state, 1e-2, CFG, graphs())
            trail.append((loss, {k: v.tobytes() for k, v in params.items()}))
        runs.append(trail)
    assert sorted(shared) == sorted(set(keys))
    for (cached, cached_params), (fresh, fresh_params) in zip(*runs):
        assert cached.total.hex() == fresh.total.hex()
        assert {k: v.hex() for k, v in cached.terms.items()} == {
            k: v.hex() for k, v in fresh.terms.items()}
        assert cached.absent == fresh.absent
        assert cached_params == fresh_params


def test_train_head_builds_one_graph_per_key(monkeypatch):
    from affectseq import training

    samples, _ = gen_frame_dataset(18, 45, FrameRecipe(d_in=8, label_mix=(
        ("va", 0.15), ("expr", 0.15), ("au", 0.7))))
    train, val = samples[:37], samples[37:]
    built = []
    real = head.head_loss_graph

    def counting(config, n, present):
        built.append((n, present))
        return real(config, n, present)

    monkeypatch.setattr(head, "head_loss_graph", counting)
    training.train_head(train, val, CFG, epochs=3, batch_size=8, lr=1e-3, seed=2)
    rows, rng = head.frame_arrays(train), np.random.default_rng(2)
    keys = {(len(val), head.present_terms(head.frame_arrays(val)))}
    for _ in range(3):
        for idx in training._epoch_batches(len(train), 8, rng):
            keys.add((len(idx), head.present_terms(_take(rows, idx))))
    assert sorted(built) == sorted(keys)
    assert len(keys) >= 4, keys


def test_golden_forward_seed42():
    import json
    from pathlib import Path

    blob = json.loads((Path(__file__).parent / "golden" / "forward_goldens.json").read_text())
    g = blob["head_forward_seed42"]
    config = head.HeadConfig(**g["config"])
    params = init_params(config, seed=42)
    feats = np.random.default_rng(42).normal(size=config.d_in)
    out = head.head_forward(feats, params, config)
    np.testing.assert_array_equal(out.va, g["va"])
    np.testing.assert_array_equal(out.expr, g["expr"])
    np.testing.assert_array_equal(out.au, g["au"])
