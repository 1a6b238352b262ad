"""The blocked Adam step against the whole-array formula, and the one
parameter initializer against the two per-model ones it replaced.

`adam_step` walks each parameter in blocks of `BLOCK` entries; every
entry must come out bit-identical to `helpers.adam_oracle`, whatever the
parameter's size relative to the block, without writing to the
parameters it is given or making a full-size temporary.
"""

import tracemalloc

import numpy as np
import pytest

from affectseq import config as runconfig
from affectseq.affect_head import HeadConfig
from affectseq.aggregator import AggregatorConfig
from affectseq.optim import BLOCK, adam_init, adam_step, init_params
from helpers import adam_oracle, aggregator_init_oracle, head_init_oracle

SHAPES = {
    "below": (BLOCK - 1,),
    "one block": (BLOCK,),
    "above": (BLOCK + 1,),
    "several": (3 * BLOCK + 5,),
    "matrix": (7, BLOCK // 3 + 2),
    "small matrix": (4, 3),
}


def _gradients(rng, shapes):
    # magnitudes from 1e-9 to 1e3 and exact zeros, as masked rows have
    grads = {}
    for name, shape in shapes.items():
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-9, 4, size=shape)
        g[rng.random(size=shape) < 0.1] = 0.0
        grads[name] = g
    return grads


@pytest.mark.parametrize("lr", [1e-3, 0.0])
@pytest.mark.parametrize("shapes", [
    *({name: shape} for name, shape in SHAPES.items()),
    SHAPES,  # one step over every size, with one pair of scratch buffers
], ids=[*SHAPES, "all"])
def test_steps_match_whole_array_formula(shapes, lr):
    rng = np.random.default_rng(0)
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    state = adam_init(params)
    want_p = params
    want_m = {k: np.zeros(shape) for k, shape in shapes.items()}
    want_v = {k: np.zeros(shape) for k, shape in shapes.items()}
    for step in range(1, 5):
        grads = _gradients(rng, shapes)
        given = {k: a.copy() for k, a in params.items()}
        params, state = adam_step(params, grads, state, lr)
        want_p, want_m, want_v = adam_oracle(want_p, grads, want_m, want_v, step, lr)
        assert state.step == step
        for name in shapes:
            np.testing.assert_array_equal(params[name], want_p[name])
            np.testing.assert_array_equal(state.m[name], want_m[name])
            np.testing.assert_array_equal(state.v[name], want_v[name])
            assert params[name].shape == shapes[name]
        if lr == 0.0:
            for name in shapes:
                np.testing.assert_array_equal(params[name], given[name])


def test_params_given_are_not_written_and_results_are_fresh():
    rng = np.random.default_rng(1)
    params = {name: rng.normal(size=shape) for name, shape in SHAPES.items()}
    before = {k: a.copy() for k, a in params.items()}
    state = adam_init(params)
    moments = dict(state.m), dict(state.v)
    new_params, new_state = adam_step(params, _gradients(rng, SHAPES), state, 1e-2)
    for name in SHAPES:
        np.testing.assert_array_equal(params[name], before[name])
        assert not np.shares_memory(new_params[name], params[name])
        # the optimizer owns its moments and updates them in place
        assert new_state.m[name] is moments[0][name] and new_state.v[name] is moments[1][name]
    assert new_state is state and state.step == 1


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_gradient_names_its_parameter(value):
    # a gradient that overflowed in backward must stop the run here, not
    # a step later as a non-finite forward value downstream
    rng = np.random.default_rng(3)
    params = {name: rng.normal(size=shape) for name, shape in SHAPES.items()}
    grads = _gradients(rng, SHAPES)
    grads["matrix"][2, 5] = value
    state = adam_init(params)
    adam_step(params, _gradients(rng, SHAPES), state, 1e-2)
    moments = {k: (m.copy(), state.v[k].copy()) for k, m in state.m.items()}
    with pytest.raises(FloatingPointError,
                       match="non-finite gradient for parameter 'matrix' at step 2"):
        adam_step(params, grads, state, 1e-2)
    assert state.step == 1
    for name, (m, v) in moments.items():
        np.testing.assert_array_equal(state.m[name], m)
        np.testing.assert_array_equal(state.v[name], v)


def test_step_makes_no_full_size_temporary():
    # the fresh parameter array is the one full-size allocation; the two
    # scratch buffers add a quarter of it here, the whole-array formula
    # several times it
    rng = np.random.default_rng(2)
    params = {"w": rng.normal(size=(8, BLOCK))}
    grads = {"w": rng.normal(size=(8, BLOCK))}
    state = adam_init(params)
    tracemalloc.start()
    try:
        new_params, _ = adam_step(params, grads, state, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * params["w"].nbytes, peak / params["w"].nbytes


INIT_SEEDS = (0, 1, 42, 123)


@pytest.mark.parametrize("config", [
    runconfig.build_config(overrides={"preset": "desk"}).aggregator_config(),
    runconfig.build_config(overrides={"preset": "paper"}).aggregator_config(),
    AggregatorConfig(gru_layers=2),
], ids=["desk", "paper", "two-layer"])
def test_init_params_matches_the_aggregator_initializer(config):
    for seed in INIT_SEEDS:
        got, want = init_params(config, seed), aggregator_init_oracle(config, seed)
        assert list(got) == list(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), (seed, key)


@pytest.mark.parametrize("n_blocks", [0, 1, 2])
def test_init_params_matches_the_head_initializer(n_blocks):
    config = HeadConfig(n_blocks=n_blocks)
    for seed in INIT_SEEDS:
        got, want = init_params(config, seed), head_init_oracle(config, seed)
        assert list(got) == list(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), (seed, key)
