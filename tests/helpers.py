"""Helpers shared by the test modules: values of the node builders the
training graphs compose, evaluated on constant inputs, and a second,
independent implementation of the stored array format."""

import base64

import numpy as np

from affectseq import affect_head as head
from affectseq import aggregator as agg
from affectseq import autodiff as ad


def const(x):
    return ad.constant(np.asarray(x, dtype=np.float64))


def scalar(node):
    """Value of a scalar node whose leaves are all constants."""
    return float(ad.Graph(node).evaluate({}))


def pearson_loss(preds, labels):
    """The correlation loss with the label-column guards a batch binds."""
    bump, keep = agg.column_guards(labels)
    return scalar(agg.pearson_loss_node(const(preds), const(labels), (const(bump), const(keep))))


def va_loss(pred, label):
    """The valence-arousal concordance loss with every row labeled."""
    return scalar(head.weighted_va_ccc_loss_node(const(pred), const(label), np.ones(len(pred))))


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
