"""The evaluation report: per-class Pearson correlation of the 7
expression intensities, and their mean.

All moments are population (1/n) so metric values can never drift from
the training loss by a Bessel factor. Implementations here are direct
formula evaluations, independent of the expression-graph code paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .affect_space import INTENSITY_CLASSES

SCHEMA_VERSION = "1"
TASK = "intensity"


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
    computed variance, which can pick up representation noise. Moments
    that overflow float64 raise FloatingPointError.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if _is_constant(x) or _is_constant(y):
        _moments(x, y)  # still validate shapes
        return 0.0, True
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, vx, vy, cov = _moments(x, y)
    if not np.isfinite([vx, vy, cov]).all():
        raise FloatingPointError("the Pearson moments overflow float64")
    return float(cov / np.sqrt(vx * vy)), False


@dataclass
class EvalReport:
    """Per-class Pearson correlation of the 7 intensity outputs and their mean."""

    n_samples: int
    per_class: dict
    mean: float
    degenerate: tuple = ()

    def as_percent(self, value):
        return f"{100.0 * value:.2f}"

    def to_dict(self):
        # "task" and the empty "extra" are fixed keys of report schema "1"
        return {
            "schema_version": SCHEMA_VERSION,
            "task": TASK,
            "n_samples": self.n_samples,
            "per_class": {k: float(v) for k, v in self.per_class.items()},
            "mean": float(self.mean),
            "mean_percent": self.as_percent(self.mean),
            "degenerate": list(self.degenerate),
            "extra": {},
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self):
        """Flat comma-separated table: one metric per row."""
        lines = [f"schema_version,{SCHEMA_VERSION}", f"task,{TASK}", f"n_samples,{self.n_samples}"]
        for name, value in self.per_class.items():
            lines.append(f"{name},{self.as_percent(value)}")
        lines.append(f"mean,{self.as_percent(self.mean)}")
        if self.degenerate:
            lines.append("degenerate," + ";".join(self.degenerate))
        return "\n".join(lines) + "\n"


def evaluate(preds, labels):
    """The EvalReport of (n, 7) intensity predictions against their labels."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.ndim != 2 or preds.shape[1] != 7:
        raise ValueError(f"intensity task expects (n, 7) arrays, got {preds.shape}")
    per, flags = {}, []
    for i, name in enumerate(INTENSITY_CLASSES):
        try:
            value, degenerate = pearson_flagged(preds[:, i], labels[:, i])
        except FloatingPointError as e:
            raise FloatingPointError(f"class {name!r}: {e}") from None
        per[name] = value
        if degenerate:
            flags.append(name)
    mean = float(np.mean(list(per.values())))
    return EvalReport(preds.shape[0], per, mean, tuple(flags))
