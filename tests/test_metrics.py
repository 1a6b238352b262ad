import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectseq import metrics
from affectseq.affect_space import INTENSITY_CLASSES
from helpers import ccc_flagged


# direct-formula oracles, written as plain loops on purpose

def loop_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    vx = sum((a - mx) ** 2 for a in x) / n
    vy = sum((b - my) ** 2 for b in y) / n
    return cov / math.sqrt(vx * vy)


def loop_ccc(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    vx = sum((a - mx) ** 2 for a in x) / n
    vy = sum((b - my) ** 2 for b in y) / n
    return 2 * cov / (vx + vy + (mx - my) ** 2)


def test_pearson_exact_linear():
    assert metrics.pearson_flagged([1, 2, 3], [2, 4, 6])[0] == pytest.approx(1.0)
    assert metrics.pearson_flagged([1, 2, 3], [3, 2, 1])[0] == pytest.approx(-1.0)


def test_pearson_hand_case():
    assert metrics.pearson_flagged([1, 2, 3, 4], [1, 3, 2, 4])[0] == pytest.approx(0.8)


def test_pearson_zero_variance_flagged():
    value, flag = metrics.pearson_flagged([1, 2, 3], [5, 5, 5])
    assert value == 0.0 and flag


def test_pearson_rejects_short_input():
    with pytest.raises(ValueError):
        metrics.pearson_flagged([1.0], [2.0])


def test_ccc_identity():
    assert ccc_flagged([1, 2, 3], [1, 2, 3])[0] == pytest.approx(1.0)


def test_ccc_shifted_hand_case():
    # cov = var = 2/3 each, mean gap 1 -> 2*(2/3) / (2/3 + 2/3 + 1) = 4/7
    assert ccc_flagged([1, 2, 3], [2, 3, 4])[0] == pytest.approx(4 / 7)


def test_ccc_constant_input_is_exact_zero():
    assert ccc_flagged([1, 2, 3], [4, 4, 4])[0] == 0.0
    value, flag = ccc_flagged([2, 2, 2], [2, 2, 2])
    assert value == 0.0 and flag


def test_metrics_match_loop_oracles():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 1000))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.5 * x
        rho, _ = metrics.pearson_flagged(x, y)
        ccc, _ = ccc_flagged(x, y)
        assert rho == pytest.approx(loop_pearson(list(x), list(y)), abs=1e-10)
        assert ccc == pytest.approx(loop_ccc(list(x), list(y)), abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 40))
def test_pair_permutation_invariance(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    perm = rng.permutation(n)
    for flagged in (metrics.pearson_flagged, ccc_flagged):
        assert flagged(x[perm], y[perm])[0] == pytest.approx(flagged(x, y)[0], abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60))
def test_ccc_attenuates_pearson(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    p, pflag = metrics.pearson_flagged(x, y)
    c, _ = ccc_flagged(x, y)
    if not pflag:
        assert abs(c) <= abs(p) + 1e-12


def test_evaluate_intensity_perfect():
    rng = np.random.default_rng(3)
    labels = rng.uniform(0, 1, size=(20, 7))
    report = metrics.evaluate(labels, labels)
    assert report.mean == pytest.approx(1.0)
    assert report.as_percent(report.mean) == "100.00"
    assert tuple(report.per_class) == INTENSITY_CLASSES
    assert report.degenerate == ()


def test_evaluate_mean_is_exact_class_mean():
    rng = np.random.default_rng(4)
    preds = rng.normal(size=(30, 7))
    labels = rng.normal(size=(30, 7))
    report = metrics.evaluate(preds, labels)
    assert report.mean == pytest.approx(np.mean(list(report.per_class.values())), abs=1e-12)


def test_evaluate_report_serialization_round_trip():
    rng = np.random.default_rng(6)
    preds = rng.normal(size=(15, 7))
    labels = rng.normal(size=(15, 7))
    report = metrics.evaluate(preds, labels)
    blob = report.to_dict()
    assert blob["schema_version"] == "1"
    csv = report.to_csv()
    assert csv.splitlines()[0] == "schema_version,1"
    assert "mean," in csv
    import json

    parsed = json.loads(report.to_json())
    assert parsed["task"] == "intensity"
    assert parsed["n_samples"] == 15


def test_evaluate_rejects_bad_kinds_and_shapes():
    with pytest.raises(ValueError):
        metrics.evaluate(np.zeros((3, 6)), np.zeros((3, 6)))


def test_golden_report_fixture():
    import json
    from pathlib import Path

    blob = json.loads((Path(__file__).parent / "golden" / "forward_goldens.json").read_text())
    g = blob["eval_report_seed42"]
    rng = np.random.default_rng(42)
    labels = rng.uniform(0, 1, size=(24, 7))
    preds = 0.7 * labels + 0.3 * rng.uniform(0, 1, size=(24, 7))
    report = metrics.evaluate(preds, labels)
    assert report.to_dict() == g["json"]
    assert report.to_csv() == g["csv"]
