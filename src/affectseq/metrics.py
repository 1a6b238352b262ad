"""Evaluation metrics and report assembly.

All moments are population (1/n) so metric values can never drift from
the training losses by a Bessel factor. Implementations here are direct
formula evaluations, independent of the expression-graph code paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .affect_space import AU_IDS, EXPRESSIONS, INTENSITY_CLASSES

SCHEMA_VERSION = "1"


def _moments(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"need equal-length 1-d sequences, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    mx, my = x.mean(), y.mean()
    vx = np.mean((x - mx) ** 2)
    vy = np.mean((y - my) ** 2)
    cov = np.mean((x - mx) * (y - my))
    return mx, my, vx, vy, cov


def _is_constant(x):
    return bool(np.all(x == x.flat[0]))


def pearson_flagged(x, y):
    """(pearson, degenerate) where degenerate marks a zero-variance input.

    Constancy is detected exactly (all entries equal), not through the
    computed variance, which can pick up representation noise.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if _is_constant(x) or _is_constant(y):
        _moments(x, y)  # still validate shapes
        return 0.0, True
    _, _, vx, vy, cov = _moments(x, y)
    return float(cov / np.sqrt(vx * vy)), False


def ccc_flagged(x, y):
    """(ccc, degenerate); degenerate marks a zero denominator, which
    happens exactly when both inputs are constant with equal values."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    cx, cy = _is_constant(x), _is_constant(y)
    if cx and cy:
        _moments(x, y)
        return 0.0, x.flat[0] == y.flat[0]
    if cx or cy:
        _moments(x, y)  # covariance with a constant input is exactly zero
        return 0.0, False
    mx, my, vx, vy, cov = _moments(x, y)
    denom = vx + vy + (mx - my) ** 2
    return float(2.0 * cov / denom), False


@dataclass
class F1Block:
    class_names: tuple
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    absent: tuple  # classes missing from both preds and labels (0/0 rule)

    @property
    def macro(self):
        return float(np.mean(self.f1))


def _binary_f1(pred, true):
    tp = int(np.sum((pred == 1) & (true == 1)))
    fp = int(np.sum((pred == 1) & (true == 0)))
    fn = int(np.sum((pred == 0) & (true == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1, tp + fp + fn == 0


def macro_f1(preds, labels, class_names=None):
    """Per-class F1 with the 0/0 -> 0 convention, plus the unweighted mean.

    Accepts class indices (1-d int arrays) or multi-label binary matrices
    of shape (n, k); for indices the label space is 0..max seen unless
    `class_names` fixes its size.
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError(f"shape mismatch {preds.shape} vs {labels.shape}")
    if preds.size == 0:
        raise ValueError("empty inputs")
    if preds.ndim == 1:
        k = len(class_names) if class_names else int(max(preds.max(), labels.max())) + 1
        names = tuple(class_names) if class_names else tuple(str(i) for i in range(k))
        onehot_p = np.stack([(preds == c).astype(int) for c in range(k)], axis=1)
        onehot_l = np.stack([(labels == c).astype(int) for c in range(k)], axis=1)
    elif preds.ndim == 2:
        k = preds.shape[1]
        names = tuple(class_names) if class_names else tuple(str(i) for i in range(k))
        onehot_p, onehot_l = preds, labels
    else:
        raise ValueError("preds must be 1-d indices or 2-d binary matrix")
    if len(names) != k:
        raise ValueError("class_names length does not match label space")

    stats = [_binary_f1(onehot_p[:, c], onehot_l[:, c]) for c in range(k)]
    return F1Block(
        class_names=names,
        precision=np.array([s[0] for s in stats]),
        recall=np.array([s[1] for s in stats]),
        f1=np.array([s[2] for s in stats]),
        absent=tuple(names[c] for c in range(k) if stats[c][3]),
    )


@dataclass
class EvalReport:
    task: str
    n_samples: int
    per_class: dict = field(default_factory=dict)
    mean: float = 0.0
    degenerate: tuple = ()
    extra: dict = field(default_factory=dict)

    def as_percent(self, value):
        return f"{100.0 * value:.2f}"

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "task": self.task,
            "n_samples": self.n_samples,
            "per_class": {k: float(v) for k, v in self.per_class.items()},
            "mean": float(self.mean),
            "mean_percent": self.as_percent(self.mean),
            "degenerate": list(self.degenerate),
            "extra": self.extra,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self):
        """Flat comma-separated table: one metric per row."""
        lines = [f"schema_version,{SCHEMA_VERSION}", f"task,{self.task}", f"n_samples,{self.n_samples}"]
        for name, value in self.per_class.items():
            lines.append(f"{name},{self.as_percent(value)}")
        lines.append(f"mean,{self.as_percent(self.mean)}")
        if self.degenerate:
            lines.append("degenerate," + ";".join(self.degenerate))
        return "\n".join(lines) + "\n"


def evaluate(preds, labels, task_kind):
    """Assemble an EvalReport for one task family.

    intensity: per-class Pearson over the 7 intensity outputs, plus mean.
    va:        CCC for valence and arousal, mean of the two.
    expr:      macro F1 over the 7 expressions (class indices).
    au:        macro F1 over 17 AUs (binary matrices).
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if task_kind == "intensity":
        if preds.shape != labels.shape or preds.ndim != 2 or preds.shape[1] != 7:
            raise ValueError(f"intensity task expects (n, 7) arrays, got {preds.shape}")
        per, flags = {}, []
        for i, name in enumerate(INTENSITY_CLASSES):
            value, degenerate = pearson_flagged(preds[:, i], labels[:, i])
            per[name] = value
            if degenerate:
                flags.append(name)
        mean = float(np.mean(list(per.values())))
        return EvalReport("intensity", preds.shape[0], per, mean, tuple(flags))
    if task_kind == "va":
        if preds.shape != labels.shape or preds.ndim != 2 or preds.shape[1] != 2:
            raise ValueError(f"va task expects (n, 2) arrays, got {preds.shape}")
        per, flags = {}, []
        for i, name in enumerate(("valence", "arousal")):
            value, degenerate = ccc_flagged(preds[:, i], labels[:, i])
            per[name] = value
            if degenerate:
                flags.append(name)
        mean = float(np.mean(list(per.values())))
        return EvalReport("va", preds.shape[0], per, mean, tuple(flags))
    if task_kind in ("expr", "au"):
        names = EXPRESSIONS if task_kind == "expr" else tuple(f"AU{a}" for a in AU_IDS)
        block = macro_f1(preds, labels, class_names=names)
        per = dict(zip(block.class_names, block.f1))
        report = EvalReport(task_kind, len(preds), per, block.macro, block.absent)
        report.extra = {
            "precision": {n: float(p) for n, p in zip(names, block.precision)},
            "recall": {n: float(r) for n, r in zip(names, block.recall)},
        }
        return report
    raise ValueError(f"unknown task kind {task_kind!r}")
