import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectseq import affect_space as sp
from helpers import expected_aus


def test_matrix_shape_and_binary():
    m = sp.relatedness_matrix()
    assert m.shape == (7, 17)
    assert set(np.unique(m)) <= {0.0, 1.0}


def test_happiness_row():
    m = sp.relatedness_matrix()
    row = m[sp.expression_index("happiness")]
    on = {sp.AU_IDS[i] for i in np.flatnonzero(row)}
    assert on == {6, 12, 25}


def test_neutral_row_all_zero():
    m = sp.relatedness_matrix()
    assert np.all(m[sp.expression_index("neutral")] == 0.0)


def test_row_sums():
    m = sp.relatedness_matrix()
    sums = {name: int(m[i].sum()) for i, name in enumerate(sp.EXPRESSIONS)}
    assert sums == {
        "happiness": 3,
        "sadness": 6,
        "fear": 7,
        "anger": 6,
        "surprise": 5,
        "disgust": 5,
        "neutral": 0,
    }


def test_au_set_is_exactly_the_matrix_union():
    # the 17 tracked AUs are precisely those related to some expression
    m = sp.relatedness_matrix()
    assert len(sp.AU_IDS) == 17
    assert np.all(m.sum(axis=0) >= 1.0)


def one_hot(name):
    v = np.zeros(7)
    v[sp.expression_index(name)] = 1.0
    return v


def test_expected_aus_one_hot_happiness():
    out = expected_aus(one_hot("happiness"))
    expect = np.zeros(17)
    for au in (6, 12, 25):
        expect[sp.au_index(au)] = 1.0
    np.testing.assert_array_equal(out, expect)


def test_expected_aus_one_hot_neutral_is_zero():
    np.testing.assert_array_equal(expected_aus(one_hot("neutral")), np.zeros(17))


def test_expected_aus_half_happiness_half_sadness():
    out = expected_aus(0.5 * one_hot("happiness") + 0.5 * one_hot("sadness"))
    expect = {6: 1.0, 12: 0.5, 25: 0.5, 1: 0.5, 4: 0.5, 11: 0.5, 15: 0.5, 17: 0.5}
    for i, au in enumerate(sp.AU_IDS):
        assert out[i] == pytest.approx(expect.get(au, 0.0), abs=1e-15)


def test_expected_aus_batch():
    batch = np.stack([one_hot("anger"), one_hot("fear")])
    out = expected_aus(batch)
    assert out.shape == (2, 17)
    np.testing.assert_array_equal(out[0], sp.relatedness_matrix()[sp.expression_index("anger")])


def brute_force_expected_aus(expr):
    m = sp.relatedness_matrix()
    out = [0.0] * 17
    for a in range(17):
        for e in range(7):
            out[a] += expr[e] * m[e][a]
    return np.array(out)


def test_matches_brute_force_loop():
    rng = np.random.default_rng(123)
    for _ in range(200):
        expr = rng.dirichlet(np.ones(7))
        np.testing.assert_allclose(
            expected_aus(expr), brute_force_expected_aus(expr), atol=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.01, 1.0), min_size=7, max_size=7),
    st.lists(st.floats(0.01, 1.0), min_size=7, max_size=7),
    st.floats(0.0, 1.0),
)
def test_expected_aus_linear_in_mixture(p_raw, q_raw, alpha):
    p = np.array(p_raw) / np.sum(p_raw)
    q = np.array(q_raw) / np.sum(q_raw)
    blend = alpha * p + (1.0 - alpha) * q
    blend = blend / blend.sum()  # renormalize away float drift
    lhs = expected_aus(blend)
    rhs = alpha * expected_aus(p) + (1.0 - alpha) * expected_aus(q)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_outputs_stay_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(100):
        out = expected_aus(rng.dirichlet(np.ones(7)))
        assert np.all((out >= 0.0) & (out <= 1.0))
