"""Parameter initialization and Adam over named parameter dictionaries.

`init_params` draws the seeded starting point of any model whose config
has `param_shapes()`, the head's and the aggregator's alike.

`adam_step` returns fresh parameter arrays and never writes to the
parameters it is given, so a caller may keep any earlier parameter dict
(the best epoch's, say) without copying it. The optimizer owns its
moments: `adam_step` updates the `AdamState` it is given in place and
returns it, so a state is threaded through a run linearly and an older
state is not kept. Everything is float64 and fully deterministic.

Every parameter is walked in blocks of `BLOCK` entries, writing with
``out=`` into two scratch buffers shared by all blocks, so no temporary
of a parameter's size is made. Each entry gets the same IEEE operations
in the same order as the whole-array formula, so the results are
bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BLOCK = 1 << 14


def init_params(config, seed):
    """Seeded initial parameters for `config.param_shapes()`, in that order.

    A name whose last dotted component starts with "b" is a bias and
    starts at zero; every other parameter is drawn from N(0, 1)/sqrt(fan_in),
    fan_in being its first extent.
    """
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in config.param_shapes().items():
        if name.split(".")[-1].startswith("b"):
            params[name] = np.zeros(shape)
        else:
            w = params[name] = rng.normal(size=shape)
            w /= np.sqrt(shape[0])
    return params


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params):
    # C-ordered, so each moment's flat view is a view, never a copy
    return AdamState(
        step=0,
        m={k: np.zeros(np.shape(p)) for k, p in params.items()},
        v={k: np.zeros(np.shape(p)) for k, p in params.items()},
    )


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update; returns (new_params, state), `state` advanced in place.

    Per entry, in this order: m = beta1*m + (1-beta1)*g;
    v = beta2*v + ((1-beta2)*g)*g; p - lr*((m/bc1) / (sqrt(v/bc2) + eps)).
    A non-finite gradient raises FloatingPointError before any update.
    """
    for name in params:
        if not np.isfinite(grads[name]).all():
            raise FloatingPointError(
                f"non-finite gradient for parameter {name!r} at step {state.step + 1}")
    state.step += 1
    bc1 = 1.0 - beta1**state.step
    bc2 = 1.0 - beta2**state.step

    def update(p, g, m, v, new, a, b):
        # equal-shaped arrays: m and v in place, the result into new,
        # a and b scratch
        np.multiply(m, beta1, out=m)
        np.multiply(g, 1.0 - beta1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, beta2, out=v)
        np.multiply(g, 1.0 - beta2, out=a)
        np.multiply(a, g, out=a)
        np.add(v, a, out=v)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        np.add(a, eps, out=a)
        np.divide(m, bc1, out=b)
        np.divide(b, a, out=b)
        np.multiply(b, lr, out=b)
        np.subtract(p, b, out=new)

    scratch = np.empty(BLOCK), np.empty(BLOCK)
    new_params = {}
    for name, p in params.items():
        new = new_params[name] = np.empty(np.shape(p))
        flat = [x.ravel() for x in (p, grads[name], state.m[name], state.v[name], new)]
        for start in range(0, new.size, BLOCK):
            block = [x[start:start + BLOCK] for x in flat]
            n = block[0].size
            update(*block, scratch[0][:n], scratch[1][:n])
    return new_params, state
