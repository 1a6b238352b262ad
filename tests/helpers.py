"""Helpers shared by the test modules: values of the node builders the
training graphs compose, evaluated on constant inputs, the concordance
oracle the valence-arousal loss is checked against, the whole-array Adam
formula the blocked optimizer is checked against, the graph engine's
oracles (an id-keyed evaluate/backward, a grad_check that re-evaluates
the whole graph per trial, and the per-step GRU backward formula), a
second, independent implementation of the stored-array layout of
checkpoints and datasets, and the inputs and quiet command-line runner of
the config and checkpoint fuzz tests, the two per-model parameter
initializers that `optim.init_params` replaced, the per-step
valence-arousal loop of the video generator, and the per-record video
checks that `data._check_videos` replaced."""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from affectseq import affect_head as head
from affectseq import aggregator as agg
from affectseq import autodiff as ad
from affectseq import cli, metrics
from affectseq.affect_space import AU_IDS, AU_SLICE, EXPR_SLICE, EXPRESSIONS, VA_SLICE
from affectseq.data import _mixture_logits


def const(x):
    return ad.constant(np.asarray(x, dtype=np.float64))


def scalar(node):
    """Value of a scalar node whose leaves are all constants."""
    return float(ad.Graph(node).evaluate({}))


def pearson_loss(preds, labels):
    return scalar(agg.pearson_loss_node(const(preds), const(labels)))


def va_loss(pred, label):
    """The valence-arousal concordance loss with every row labeled."""
    rows = const(np.ones((len(pred), 1)))
    return scalar(head.weighted_va_ccc_loss_node(const(pred), const(label), rows))


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
    targets the coupling loss pulls toward; a single distribution is a
    batch of one."""
    expr = np.asarray(expr, dtype=np.float64)
    out = ad.Graph(head.pseudo_au_node(const(np.atleast_2d(expr)))).evaluate({})
    return out[0] if expr.ndim == 1 else out


def adam_oracle(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update of whole arrays, step `step` counted from 1;
    returns fresh (params, m, v) dicts and writes to no argument."""
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        new_m[name] = beta1 * m[name] + (1.0 - beta1) * g
        new_v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
        update = (new_m[name] / bc1) / (np.sqrt(new_v[name] / bc2) + eps)
        new_params[name] = p - lr * update
    return new_params, new_m, new_v


def aggregator_init_oracle(config, seed):
    """The aggregator's own initializer before `optim.init_params` served
    both models: a bias is a name whose last component starts with "b"."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in config.param_shapes().items():
        if name.split(".")[-1].startswith("b"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(size=shape) / np.sqrt(shape[0])
    return params


def head_init_oracle(config, seed):
    """The head's own initializer before `optim.init_params` served both
    models: a bias is a name ending in ".b"."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in config.param_shapes().items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(size=shape) / np.sqrt(shape[0])
    return params


def trajectory_oracle(rng, length, recipe, relatedness):
    """`data._affect_trajectory` as one `normal(size=2)` draw and one
    `np.clip` per frame of the valence-arousal path."""
    va = np.empty((length, 2))
    x = rng.uniform(-0.8, 0.8, size=2)
    for k in range(length):
        x = np.clip(
            recipe.smoothness * x + recipe.drive * rng.normal(size=2), -1.0, 1.0
        )
        va[k] = x
    va_obs = np.clip(va + recipe.feature_noise * rng.normal(size=(length, 2)), -1.0, 1.0)
    weights = ad.np_softmax(
        _mixture_logits(va, recipe.temperature)
        + recipe.mix_noise * rng.normal(size=(length, len(EXPRESSIONS)))
    )
    au = np.clip(
        weights @ relatedness + recipe.au_noise * rng.normal(size=(length, len(AU_IDS))),
        0.0,
        1.0,
    )
    return np.concatenate([va_obs, weights, au], axis=1)


def video_fault_oracle(frames, lengths, labels, recipe):
    """The message `data._check_videos` raises for `frames` (n, t, d),
    `lengths` (n,) and `labels` (n, 7), or None: one video at a time, its
    label, then its padding under zeros padding, then for affect features
    its live rows' va bounds, expr mass, expr sums and au bounds."""
    zeros = recipe.get("padding", "zeros") == "zeros"
    affect = recipe.get("feature_kind", "affect") == "affect"
    for number, (video, length, label) in enumerate(zip(frames, lengths, labels), start=1):
        if not np.all((label >= 0) & (label <= 1)):
            return f"record {number}: bad intensity label"
        if zeros and not np.all(video[length:] == 0.0):
            return f"record {number}: padded rows are not zero"
        if not affect:
            continue
        rows = video[:length]
        va, expr, au = rows[:, VA_SLICE], rows[:, EXPR_SLICE], rows[:, AU_SLICE]
        sums = expr.sum(axis=1)
        if not np.all(np.abs(va) <= 1.0 + 1e-12):
            return f"record {number}: va block outside [-1, 1]"
        if not np.all(expr >= -1e-12):
            return f"record {number}: expr block has negative mass"
        if not np.all(np.abs(sums - 1.0) <= 1e-6):
            worst = sums[np.argmax(np.abs(sums - 1.0))]
            return f"record {number}: expr block does not sum to 1 (got {worst:.6g})"
        if not np.all((au >= -1e-12) & (au <= 1.0 + 1e-12)):
            return f"record {number}: au block outside [0, 1]"
    return None


def dict_evaluate(graph, bindings):
    """Forward pass of `graph` node by node over `graph.order`, values keyed
    by node id: the engine before its slot plan. Returns (values, saved)."""
    values, saved = {}, {}
    for node in graph.order:
        if node.op == "const":
            v = node.attrs["value"]
        elif node.op in ("param", "input"):
            if node.name not in bindings:
                raise ad.GraphError(f"missing binding for leaf '{node.name}'")
            v = np.asarray(bindings[node.name], dtype=np.float64)
            if v.shape != node.shape:
                raise ad.GraphError(
                    f"binding for '{node.name}' has shape {v.shape}, expected {node.shape}")
        else:
            args = [values[id(p)] for p in node.parents]
            with np.errstate(all="ignore"):
                v = ad._FORWARD[node.op](node, *args)
            if node.op in ad._SAVES_STATE:
                v, saved[id(node)] = v
            bad = ~np.isfinite(np.asarray(v))
            if bad.any():
                idx = int(np.flatnonzero(bad.ravel())[0])
                raise ad.GraphError(f"non-finite value in node '{node.name}' at flat index {idx}")
        values[id(node)] = v
    return values, saved


def dict_backward(graph, values, saved):
    """Gradients of the scalar root of `graph` from dict_evaluate's state,
    accumulated in an id-keyed dict in reverse topological order."""
    grads = {id(graph.root): np.ones((), dtype=np.float64)}
    for node in reversed(graph.order):
        if node.op not in ad._BACKWARD:
            continue
        g = grads.pop(id(node), None)
        if g is None:
            continue
        args = [values[id(p)] for p in node.parents]
        if node.op in ad._NEEDS_OUTPUT:
            args.append(values[id(node)])
        if node.op in ad._SAVES_STATE:
            args.append(saved[id(node)])
        for p, pg in zip(node.parents, ad._BACKWARD[node.op](node, g, *args)):
            key, pg = id(p), ad._unbroadcast(pg, p.shape)
            grads[key] = grads[key] + pg if key in grads else pg
    return {name: grads.get(id(p), np.zeros(p.shape)) for name, p in graph.params.items()}


def full_grad_check(graph, bindings, epsilon=1e-6, n_coords=100, seed=0, skip_params=()):
    """grad_check with every trial a whole-graph dict_evaluate of a copy of
    `bindings`; returns the GradientReport."""
    report = ad.GradientReport(epsilon=epsilon, seed=seed)
    lo, hi = ad.EPSILON_BAND
    if not lo <= epsilon <= hi:
        report.warnings.append(
            f"epsilon {epsilon:g} outside [{lo:g}, {hi:g}]; truncation or "
            "roundoff error may dominate the comparison"
        )
    analytic = dict_backward(graph, *dict_evaluate(graph, bindings))
    names = sorted(n for n in graph.params if n not in set(skip_params))
    sizes = [int(np.prod(graph.params[n].shape)) if graph.params[n].shape else 1
             for n in names]
    offsets = np.cumsum([0] + sizes)
    total = int(offsets[-1])
    rng = np.random.default_rng(seed)
    if n_coords >= total:
        flat = np.arange(total)
    else:
        flat = np.sort(rng.choice(total, size=n_coords, replace=False))
    for f in flat:
        k = int(np.searchsorted(offsets, f, side="right") - 1)
        name, idx = names[k], int(f - offsets[k])
        base = np.asarray(bindings[name], dtype=np.float64)
        fd = []
        for delta in (epsilon, -epsilon):
            bumped = base.copy().reshape(-1)
            bumped[idx] += delta
            trial = dict(bindings)
            trial[name] = bumped.reshape(base.shape)
            fd.append(float(dict_evaluate(graph, trial)[0][id(graph.root)]))
        numeric = (fd[0] - fd[1]) / (2.0 * epsilon)
        ga = float(np.asarray(analytic[name]).reshape(-1)[idx])
        rel = abs(ga - numeric) / max(abs(ga), abs(numeric), 1e-12)
        report.records.append(ad.CoordRecord(name, idx, ga, numeric, rel))
    return report


def gru_backward_oracle(g, weights, saved):
    """np_gru_backward with every gate factor formed inside the step loop."""
    xs, hs, gates, cand, rh = saved
    wz, uz, _, wr, ur, _, wh, uh, _ = weights
    t, b, d = xs.shape
    hid = uz.shape[0]
    gs = g.reshape(b, t, hid).transpose(1, 0, 2)
    da = np.empty((t, b, 3 * hid))
    dh = np.zeros((b, hid))
    u_zr = np.concatenate([uz, ur], axis=1)
    for k in range(t - 1, -1, -1):
        dh = dh + gs[k]
        hp, u, r, c = hs[k], gates[0, k], gates[1, k], cand[k]
        du, dr, dc = da[k, :, :hid], da[k, :, hid:2 * hid], da[k, :, 2 * hid:]
        np.multiply(dh * (c - hp), u * (1.0 - u), out=du)
        np.multiply(dh * u, 1.0 - c * c, out=dc)
        drh = dc @ uh.T
        np.multiply(drh * hp, r * (1.0 - r), out=dr)
        dh = dh * (1.0 - u) + drh * r + da[k, :, :2 * hid] @ u_zr.T
    flat = da.reshape(t * b, 3 * hid)
    dw = xs.reshape(t * b, d).T @ flat
    du_zr = hs[:t].reshape(t * b, hid).T @ flat[:, :2 * hid]
    duh = rh.reshape(t * b, hid).T @ flat[:, 2 * hid:]
    db = flat.sum(axis=0)
    dx = (flat @ np.concatenate([wz, wr, wh], axis=1).T).reshape(t, b, d).transpose(1, 0, 2)
    gz, gr, gc = slice(0, hid), slice(hid, 2 * hid), slice(2 * hid, None)
    return (dx.reshape(b, t * d), dw[:, gz], du_zr[:, gz], db[gz], dw[:, gr], du_zr[:, gr],
            db[gr], dw[:, gc], duh, db[gc])


def read_checkpoint(path):
    """(header, {name: array}) of a checkpoint file: its JSON header line,
    then each parameter's `<f8` C-order bytes in the header's order."""
    line, _, payload = Path(path).read_bytes().partition(b"\n")
    header = json.loads(line)
    arrays, offset = {}, 0
    for name, shape in header["params"]:
        end = offset + 8 * math.prod(shape)
        arrays[name] = np.frombuffer(payload[offset:end], dtype="<f8").reshape(shape).copy()
        offset = end
    assert offset == len(payload), "bytes follow the last parameter"
    return header, arrays


def write_checkpoint(path, header, arrays):
    """Write `header` as the JSON header line, then each value of `arrays`
    in its insertion order, whatever `header` says: an array as its `<f8`
    C-order bytes, a bytes value as it is."""
    parts = [(json.dumps(header, sort_keys=True) + "\n").encode()]
    for value in arrays.values():
        parts.append(value if isinstance(value, bytes) else np.asarray(value, "<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_dataset(path):
    """(header, [{field: array} per record]) of a dataset file: its JSON
    header line, then each record's `<f8` C-order arrays in record order,
    their shapes taken from the manifest beside it."""
    manifest = json.loads(Path(f"{path}.manifest.json").read_text())
    line, _, payload = Path(path).read_bytes().partition(b"\n")
    header = json.loads(line)
    records, offset = [], 0
    for entry in header["records"]:
        if manifest["kind"] == "videos":
            fields = [("frames", (manifest["t"], manifest["d"])), ("label", (7,))]
        else:
            _, _, has_va, has_au = entry
            fields = [("features", (manifest["d"],))] + [("va", (2,))] * has_va + [
                ("au", (17,))] * has_au
        arrays = {}
        for field, shape in fields:
            end = offset + 8 * math.prod(shape)
            arrays[field] = np.frombuffer(payload[offset:end], dtype="<f8").reshape(shape).copy()
            offset = end
        records.append(arrays)
    assert offset == len(payload), "bytes follow the last record"
    return header, records


def write_dataset(path, header, records):
    """Write `header` as the JSON header line, then each value of each dict
    of `records` in order, whatever `header` says: an array as its `<f8`
    C-order bytes, a bytes value as it is. The manifest is left as it is."""
    write_checkpoint(path, header, {(i, key): value for i, arrays in enumerate(records)
                                    for key, value in arrays.items()})


# Values a fuzzed config or checkpoint field takes: the wrong type for
# some field, NaN, the infinities, negatives, an empty string, a list.
BAD_VALUES = (None, True, 0, -1, -0.5, float("nan"), float("inf"), float("-inf"),
              "", "x", [1], {"a": 1})


# Shapes at which one command through the command line takes milliseconds.
SMALL = {"n": 16, "t": 8, "l_min": 2, "l_max": 8, "d_hidden": 4, "d_ff": 3,
         "batch_size": 8, "epochs": 1}


def small_run_inputs(root):
    """A config file at SMALL shapes naming a generated video dataset and a
    zero-epoch aggregator checkpoint, all under `root`; (path, its values)."""
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in SMALL.items()]
    dataset, checkpoint = root / "data" / "videos.jsonl", root / "agg" / "checkpoint.json"
    assert run_quietly(["gen", *flags, "--out", str(root / "data")])[0] == 0
    assert run_quietly(["train", *flags, "--epochs", "0", "--dataset", str(dataset),
                        "--out", str(root / "agg")])[0] == 0
    base = {**SMALL, "dataset": str(dataset), "checkpoint": str(checkpoint)}
    path = root / "small.json"
    path.write_text(json.dumps(base))
    return path, base


def run_quietly(argv):
    """(exit code, stderr text) of `cli.main(argv)`; an escaping exception
    propagates. Stdout is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def always_rejected(value):
    """True for a value no config field accepts: a list, an object or a
    non-finite number."""
    return isinstance(value, (list, dict)) or (isinstance(value, float) and not np.isfinite(value))
