import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectseq import metrics
from affectseq.affect_space import INTENSITY_CLASSES


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
    assert metrics.ccc_flagged([1, 2, 3], [1, 2, 3])[0] == pytest.approx(1.0)


def test_ccc_shifted_hand_case():
    # cov = var = 2/3 each, mean gap 1 -> 2*(2/3) / (2/3 + 2/3 + 1) = 4/7
    assert metrics.ccc_flagged([1, 2, 3], [2, 3, 4])[0] == pytest.approx(4 / 7)


def test_ccc_constant_input_is_exact_zero():
    assert metrics.ccc_flagged([1, 2, 3], [4, 4, 4])[0] == 0.0
    value, flag = metrics.ccc_flagged([2, 2, 2], [2, 2, 2])
    assert value == 0.0 and flag


def test_metrics_match_loop_oracles():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 1000))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.5 * x
        rho, _ = metrics.pearson_flagged(x, y)
        ccc, _ = metrics.ccc_flagged(x, y)
        assert rho == pytest.approx(loop_pearson(list(x), list(y)), abs=1e-10)
        assert ccc == pytest.approx(loop_ccc(list(x), list(y)), abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 40))
def test_pair_permutation_invariance(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    perm = rng.permutation(n)
    for flagged in (metrics.pearson_flagged, metrics.ccc_flagged):
        assert flagged(x[perm], y[perm])[0] == pytest.approx(flagged(x, y)[0], abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60))
def test_ccc_attenuates_pearson(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    p, pflag = metrics.pearson_flagged(x, y)
    c, _ = metrics.ccc_flagged(x, y)
    if not pflag:
        assert abs(c) <= abs(p) + 1e-12


def test_macro_f1_perfect():
    labels = np.array([0, 1, 2, 3, 4, 5, 6])
    block = metrics.macro_f1(labels, labels)
    assert block.macro == pytest.approx(1.0)


def test_macro_f1_single_class_collapse():
    # preds all class 0 against labels uniform over 7 classes:
    # precision 1/7, recall 1 -> F1 = 0.25 for class 0, zero elsewhere
    labels = np.arange(7)
    preds = np.zeros(7, dtype=int)
    block = metrics.macro_f1(preds, labels, class_names=[str(i) for i in range(7)])
    assert block.f1[0] == pytest.approx(0.25)
    assert np.all(block.f1[1:] == 0.0)
    assert block.macro == pytest.approx(1 / 28)


def test_macro_f1_absent_class_convention():
    # class never predicted nor labeled -> F1 0 by the 0/0 rule, flagged
    preds = np.array([0, 0, 1, 1])
    labels = np.array([0, 1, 0, 1])
    block = metrics.macro_f1(preds, labels, class_names=["a", "b", "c"])
    assert block.f1[2] == 0.0
    assert block.absent == ("c",)


def test_macro_f1_multilabel_binary():
    preds = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    block = metrics.macro_f1(preds, preds.copy())
    assert block.macro == pytest.approx(1.0)


def test_macro_f1_rejects_empty_and_mismatch():
    with pytest.raises(ValueError):
        metrics.macro_f1(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        metrics.macro_f1(np.array([1, 2]), np.array([1]))


def test_evaluate_intensity_perfect():
    rng = np.random.default_rng(3)
    labels = rng.uniform(0, 1, size=(20, 7))
    report = metrics.evaluate(labels, labels, "intensity")
    assert report.mean == pytest.approx(1.0)
    assert report.as_percent(report.mean) == "100.00"
    assert tuple(report.per_class) == INTENSITY_CLASSES
    assert report.degenerate == ()


def test_evaluate_mean_is_exact_class_mean():
    rng = np.random.default_rng(4)
    preds = rng.normal(size=(30, 7))
    labels = rng.normal(size=(30, 7))
    report = metrics.evaluate(preds, labels, "intensity")
    assert report.mean == pytest.approx(np.mean(list(report.per_class.values())), abs=1e-12)


def test_evaluate_va_perfect():
    rng = np.random.default_rng(5)
    labels = rng.uniform(-1, 1, size=(12, 2))
    report = metrics.evaluate(labels, labels, "va")
    assert report.mean == pytest.approx(1.0)


def test_evaluate_report_serialization_round_trip():
    rng = np.random.default_rng(6)
    preds = rng.normal(size=(15, 7))
    labels = rng.normal(size=(15, 7))
    report = metrics.evaluate(preds, labels, "intensity")
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
        metrics.evaluate(np.zeros((3, 7)), np.zeros((3, 7)), "nope")
    with pytest.raises(ValueError):
        metrics.evaluate(np.zeros((3, 6)), np.zeros((3, 6)), "intensity")


def test_golden_report_fixture():
    import json
    from pathlib import Path

    blob = json.loads((Path(__file__).parent / "golden" / "forward_goldens.json").read_text())
    g = blob["eval_report_seed42"]
    rng = np.random.default_rng(42)
    labels = rng.uniform(0, 1, size=(24, 7))
    preds = 0.7 * labels + 0.3 * rng.uniform(0, 1, size=(24, 7))
    report = metrics.evaluate(preds, labels, "intensity")
    assert report.to_dict() == g["json"]
    assert report.to_csv() == g["csv"]
