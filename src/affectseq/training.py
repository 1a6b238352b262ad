"""One epoch loop for the three training stages, plus curve files.

`fit` owns what every stage shares: the seeded batch permutation, the
Adam state, the per-epoch history and the best-epoch tracking. Each
stage is a thin adapter that supplies one optimizer step and one
validation metric:

  * "mma":         multi-task head on frame datasets, tracked by
                   validation total loss (lower is better);
  * "mrnn-frozen": aggregator on affect-feature videos (either native
                   affect features or features produced offline by a
                   frozen head), tracked by validation mean correlation;
  * "end-to-end":  joint fine-tune of head + aggregator on descriptor
                   videos, tracked by validation mean correlation.

Everything is deterministic under a fixed seed: initialization, batch
order, and the tie-breaking of the best epoch (earlier epoch wins).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import affect_head as head
from . import aggregator as agg
from . import atomic, metrics, optim
from .data import VideoSample, video_arrays


@dataclass
class TrainOutcome:
    params: dict  # parameters at the best epoch
    history: list = field(default_factory=list)
    best_epoch: int = 0
    best_metric: float | None = None  # None when nothing was validated


def _epoch_batches(n, batch_size, rng, min_size=1):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        idx = perm[start:start + batch_size]
        if len(idx) >= min_size:
            yield idx


def fit(params, n, step, validate, *, epochs, batch_size, seed, min_size=1,
        metric_key, higher_is_better):
    """Train for `epochs` passes over `n` examples; keep the best epoch.

    `step(params, opt_state, idx)` runs one Adam step on the examples
    `idx` and returns (params, opt_state, loss); `validate(params)`
    returns the metric recorded under `metric_key`. Batches smaller than
    `min_size` are skipped; every epoch must keep at least one. Epoch 0
    (the initial parameters) is a candidate, and on ties the earlier
    epoch wins. With `validate` None nothing is scored: the history holds
    only the train loss and the last epoch is kept, its metric None. The
    kept params dict is the one `step` returned, not a copy: `step` must
    return fresh arrays and never write to the ones it is given, as
    `optim.adam_step` does.
    """
    state = optim.adam_init(params)
    rng = np.random.default_rng(seed)
    best = TrainOutcome(params=params, best_epoch=0,
                        best_metric=validate(params) if validate else None)
    history = []
    for epoch in range(1, epochs + 1):
        losses = []
        for idx in _epoch_batches(n, batch_size, rng, min_size):
            params, state, loss = step(params, state, idx)
            losses.append(loss)
        row = {"epoch": epoch, "train_loss": float(np.mean(losses))}
        if validate is None:
            best = TrainOutcome(params=params, best_epoch=epoch, best_metric=None)
        else:
            row[metric_key] = metric = validate(params)
            better = metric > best.best_metric if higher_is_better else metric < best.best_metric
            if better:
                best = TrainOutcome(params=params, best_epoch=epoch, best_metric=metric)
        history.append(row)
    best.history = history
    return best


def min_batch(loss_kind):
    """The fewest videos a batch of this loss can train on: a Pearson
    correlation needs two."""
    return 2 if loss_kind == "pearson" else 1


def _fit_videos(params, train_samples, val_samples, make_runner, predict, *, epochs,
                batch_size, lr, loss_kind, seed):
    """`fit` over video samples: one cached runner per batch size, tracked
    by validation mean correlation of `predict(val_samples, params)`, or
    keeping the last epoch when there are no val samples."""
    frames, lengths, labels = video_arrays(train_samples)
    val_labels = np.asarray([s.label for s in val_samples])
    runners = {}

    def step(p, state, idx):
        n = len(idx)
        if n not in runners:
            runners[n] = make_runner(n)
        return runners[n].step(p, state, frames[idx], lengths[idx], labels[idx], lr)

    def validate(p):
        try:
            return metrics.evaluate(predict(val_samples, p), val_labels).mean
        except FloatingPointError as e:
            raise FloatingPointError(f"validation failed: {e}") from None

    return fit(params, len(frames), step, validate if val_samples else None, epochs=epochs,
               batch_size=batch_size, seed=seed, min_size=min_batch(loss_kind),
               metric_key="val_mean_rho", higher_is_better=True)


def train_aggregator(train_samples, val_samples, agg_config, *, epochs, batch_size,
                     lr, loss_kind, seed, init_params=None):
    params = optim.init_params(agg_config, seed) if init_params is None else init_params
    return _fit_videos(
        params, train_samples, val_samples,
        lambda n: agg.BatchRunner(agg_config, n, loss_kind),
        lambda samples, p: agg.predict(samples, p, agg_config),
        epochs=epochs, batch_size=batch_size, lr=lr, loss_kind=loss_kind, seed=seed,
    )


def train_head(train_samples, val_samples, head_config, *, epochs, batch_size, lr, seed):
    """`fit` over frame samples: one cached loss graph per (batch size,
    present terms), tracked by the validation total loss."""
    params = optim.init_params(head_config, seed)
    rows = head.frame_arrays(train_samples)
    val = head.frame_arrays(val_samples)
    graphs = {}

    def step(p, state, idx):
        batch = {name: array[idx] for name, array in rows.items()}
        p, state, loss = head.head_train_step(batch, p, state, lr, head_config, graphs)
        return p, state, loss.total

    def validate(p):
        return head.head_loss(val, p, head_config, graphs).total

    return fit(params, len(train_samples), step, validate, epochs=epochs,
               batch_size=batch_size, seed=seed, metric_key="val_loss",
               higher_is_better=False)


# ---------------------------------------------------------------------------
# frozen-feature and joint paths


def transform_videos(samples, head_params, head_config):
    """Run a frozen head over descriptor frames, emitting affect videos."""
    out = []
    for s in samples:
        affect = head.head_forward(s.frames, head_params, head_config).concat()
        out.append(VideoSample(id=s.id, frames=affect, length=s.length, label=s.label))
    return out


def joint_forward(frames, length, head_params, head_config, agg_params, agg_config):
    affect = head.head_forward(frames, head_params, head_config).concat()
    return agg.video_forward(affect, length, agg_params, agg_config)


def joint_predict(samples, head_params, head_config, agg_params, agg_config):
    return agg.predict(transform_videos(samples, head_params, head_config), agg_params, agg_config)


def split_joint_params(params, head_config):
    """Split a joint parameter dict into (head params, aggregator params)."""
    head_names = set(head_config.param_shapes())
    return (
        {k: v for k, v in params.items() if k in head_names},
        {k: v for k, v in params.items() if k not in head_names},
    )


class JointRunner(agg.BatchRunner):
    """Graph of the head over every frame of the batch plus aggregator."""

    def __init__(self, head_config, agg_config, batch_size, loss_kind):
        super().__init__(agg_config, batch_size, loss_kind, head_config=head_config)


def train_joint(train_samples, val_samples, head_config, agg_config, *, epochs, batch_size,
                lr, loss_kind, seed, init_head=None, init_agg=None):
    """End-to-end fine-tune; parameters of both stages in one dict."""
    params = dict(optim.init_params(head_config, seed) if init_head is None else init_head)
    params.update(optim.init_params(agg_config, seed + 1) if init_agg is None else init_agg)

    def predict(samples, p):
        hp, ap = split_joint_params(p, head_config)
        return joint_predict(samples, hp, head_config, ap, agg_config)

    return _fit_videos(
        params, train_samples, val_samples,
        lambda n: JointRunner(head_config, agg_config, n, loss_kind), predict,
        epochs=epochs, batch_size=batch_size, lr=lr, loss_kind=loss_kind, seed=seed,
    )


# ---------------------------------------------------------------------------
# curve files


def write_curve_csv(path, history, columns):
    """The history rows under the stage's `columns`, written even when
    there are no rows."""
    lines = ["schema_version,1", ",".join(columns)]
    lines += [",".join(repr(row[c]) for c in columns) for row in history]
    atomic.write_text(path, "\n".join(lines) + "\n")


def _polyline(points, x0, y0, w, h, xmin, xmax, ymin, ymax):
    span_x = (xmax - xmin) or 1.0
    span_y = (ymax - ymin) or 1.0
    coords = []
    for x, y in points:
        px = x0 + w * (x - xmin) / span_x
        py = y0 + h - h * (y - ymin) / span_y
        coords.append(f"{px:.2f},{py:.2f}")
    return " ".join(coords)


def write_curve_svg(path, history, series=("train_loss", "val_mean_rho")):
    """Minimal vector-graphic training curve: one polyline per series."""
    width, height, margin = 640, 360, 48
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#999"/>',
    ]
    xs = [row["epoch"] for row in history]
    if xs:
        for i, name in enumerate(series):
            pts = [(row["epoch"], row[name]) for row in history
                   if name in row and np.isfinite(row[name])]
            if not pts:
                continue
            ys = [p[1] for p in pts]
            line = _polyline(pts, margin, margin, plot_w, plot_h,
                             min(xs), max(xs), min(ys), max(ys))
            color = colors[i % len(colors)]
            parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            parts.append(
                f'<text x="{margin + 8}" y="{margin + 16 + 14 * i}" '
                f'fill="{color}" font-size="12">{name}</text>'
            )
    parts.append(f'<text x="{margin}" y="{height - 12}" font-size="12" fill="#333">epoch</text>')
    parts.append("</svg>")
    atomic.write_text(path, "\n".join(parts) + "\n")
