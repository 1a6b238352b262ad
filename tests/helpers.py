"""Helpers shared by the test modules: values of the node builders the
training graphs compose, evaluated on constant inputs, the concordance
oracle the valence-arousal loss is checked against, and a second,
independent implementation of the stored array format."""

import base64

import numpy as np

from affectseq import affect_head as head
from affectseq import aggregator as agg
from affectseq import autodiff as ad
from affectseq import metrics


def const(x):
    return ad.constant(np.asarray(x, dtype=np.float64))


def scalar(node):
    """Value of a scalar node whose leaves are all constants."""
    return float(ad.Graph(node).evaluate({}))


def pearson_loss(preds, labels):
    return scalar(agg.pearson_loss_node(const(preds), const(labels)))


def va_loss(pred, label):
    """The valence-arousal concordance loss with every row labeled."""
    return scalar(head.weighted_va_ccc_loss_node(const(pred), const(label), np.ones(len(pred))))


def ccc_flagged(x, y):
    """(ccc, degenerate); degenerate marks a zero denominator, which
    happens exactly when both inputs are constant with equal values."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    cx, cy = metrics._is_constant(x), metrics._is_constant(y)
    if cx and cy:
        metrics._moments(x, y)
        return 0.0, x.flat[0] == y.flat[0]
    if cx or cy:
        metrics._moments(x, y)  # covariance with a constant input is exactly zero
        return 0.0, False
    mx, my, vx, vy, cov = metrics._moments(x, y)
    denom = vx + vy + (mx - my) ** 2
    return float(2.0 * cov / denom), False


def coupling_loss(probs, targets, two_term=False):
    """The coupling loss of a batch; a single 17-vector is a batch of one."""
    probs, targets = np.atleast_2d(probs), np.atleast_2d(targets)
    return scalar(head.coupling_node(const(probs), const(targets), two_term=two_term))


def expected_aus(expr):
    """AU activations implied by an expression distribution: the pseudo-AU
    targets the coupling loss pulls toward."""
    return ad.Graph(head.pseudo_au_node(const(expr))).evaluate({})


def b64(values):
    """Values as stored in checkpoints and datasets: base64 of `<f8` bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def unb64(text):
    """The flat float64 values of a stored array string."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").copy()
