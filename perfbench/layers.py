"""Outside-in layer trace: wrap each layer's public entry points.

Every wrapper is installed at the name the program looks up at call
time, which is not always where the function is defined:

  * ``aggregator`` binds ``adam_step`` at import, so it is patched on
    ``aggregator`` as well as on ``optim`` (where ``affect_head`` and
    ``training`` import it at call time);
  * ``cli`` binds ``save_checkpoint``/``load_checkpoint`` at import, so
    they are patched on ``cli`` as well as on ``checkpoint``;
  * methods (``Graph``, ``BatchRunner``, ``JointRunner``) are patched on
    their class, which every caller shares.

Each call records a span (name, parent span, start, end) in memory;
per-layer metrics are derived from the spans afterwards. A layer's
self time is its span time minus the time of the spans it caused.
Nothing under ``src/`` is changed: ``uninstall`` restores every name.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

# Spans whose call counts the coverage check asserts on. Spans not
# listed (aggregator.forward) only help split time between layers.
LAYER_SPANS = (
    "autodiff.build",
    "autodiff.evaluate",
    "autodiff.backward",
    "aggregator.runner_build",
    "aggregator.step",
    "aggregator.predict",
    "affect_head.loss_graph",
    "affect_head.train_step",
    "affect_head.forward",
    "training.joint_build",
    "training.joint_step",
    "training.fit",
    "optim.adam",
    "checkpoint.save",
    "checkpoint.load",
    "data.gen",
    "data.save",
    "data.load",
    "metrics.evaluate",
    "verification.run_all",
)

# Layers paper-frozen must never reach: the head, the joint runner and
# (because its gradcheck runs untraced) verification.
FROZEN_BYPASS = frozenset({
    "affect_head.loss_graph",
    "affect_head.train_step",
    "affect_head.forward",
    "training.joint_build",
    "training.joint_step",
    "verification.run_all",
})


def expected_calls(workload):
    """Map span name -> True (must be called) / False (must be bypassed)."""
    bypass = FROZEN_BYPASS if workload.endswith("-frozen") else frozenset()
    return {name: name not in bypass for name in LAYER_SPANS}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counters = {
            "nodes_evaluated": 0,
            "nodes_backward": 0,
            "graph_nodes": 0,
            "gru_steps": 0,
            "pad_steps": 0,
            "embedding_coords": 0,
            "masked_coords": 0,
            "checkpoint_bytes": 0,
            "data_bytes": 0,
        }
        self.active = True
        self._open = []
        self._restore = []

    # -- recording --------------------------------------------------------

    def wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            span = [name, parent, time.perf_counter(), 0.0]
            tracer.spans.append(span)
            tracer._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._open.pop()
            if after is not None:
                after(tracer.counters, args, result)
            return result

        return traced

    def patch(self, owner, attr, name, after=None, wrapped=None):
        original = getattr(owner, attr)
        replacement = wrapped or self.wrap(name, original, after)
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))
        return replacement

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------

    def summary(self):
        """Per span name: total seconds, self seconds, calls, durations."""
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0, "durations": []}
               for name in {s[0] for s in self.spans} | set(LAYER_SPANS)}
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, _, start, end), inner in zip(self.spans, child):
            row = out[name]
            row["s"] += end - start
            row["self_s"] += end - start - inner
            row["calls"] += 1
            row["durations"].append(end - start)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


# ---------------------------------------------------------------------------
# counters taken at the layer boundaries


def _graph_built(counters, args, result):
    counters["graph_nodes"] = max(counters["graph_nodes"], len(args[0].order))


def _graph_evaluated(counters, args, result):
    counters["nodes_evaluated"] += len(args[0].order)


def _graph_backward(counters, args, result):
    counters["nodes_backward"] += len(args[0].order)


def _count_padding(counters, config, lengths):
    longest = max(int(x) for x in lengths)
    counters["gru_steps"] += config.t * config.gru_layers
    counters["pad_steps"] += (config.t - longest) * config.gru_layers
    if config.mask_enabled:
        counters["embedding_coords"] += len(lengths) * config.t
        counters["masked_coords"] += sum(config.t - int(x) for x in lengths)


def _runner_forward(counters, args, result):
    runner, _, _, lengths = args[:4]
    _count_padding(counters, runner.config, lengths)


def _runner_step(counters, args, result):
    runner, lengths = args[0], args[4]
    _count_padding(counters, runner.config, lengths)


def _checkpoint_saved(counters, args, result):
    counters["checkpoint_bytes"] += os.path.getsize(args[0])


def _dataset_saved(counters, args, result):
    from affectseq.data import manifest_path

    counters["data_bytes"] += os.path.getsize(args[0]) + os.path.getsize(manifest_path(args[0]))


def install(tracer):
    """Patch every layer entry point at each name it is looked up by."""
    from affectseq import affect_head, aggregator, autodiff, checkpoint, cli
    from affectseq import data, metrics, optim, training, verification

    tracer.patch(autodiff.Graph, "__init__", "autodiff.build", _graph_built)
    tracer.patch(autodiff.Graph, "evaluate", "autodiff.evaluate", _graph_evaluated)
    tracer.patch(autodiff.Graph, "backward", "autodiff.backward", _graph_backward)

    tracer.patch(aggregator.BatchRunner, "__init__", "aggregator.runner_build")
    tracer.patch(aggregator.BatchRunner, "step", "aggregator.step", _runner_step)
    tracer.patch(aggregator.BatchRunner, "forward", "aggregator.forward", _runner_forward)
    tracer.patch(aggregator, "predict", "aggregator.predict")

    adam = tracer.patch(optim, "adam_step", "optim.adam")
    tracer.patch(aggregator, "adam_step", "optim.adam", wrapped=adam)

    tracer.patch(affect_head, "head_loss_graph", "affect_head.loss_graph")
    tracer.patch(affect_head, "head_train_step", "affect_head.train_step")
    tracer.patch(affect_head, "head_forward", "affect_head.forward")

    tracer.patch(training.JointRunner, "__init__", "training.joint_build")
    tracer.patch(training.JointRunner, "step", "training.joint_step")
    for fit in ("train_aggregator", "train_head", "train_joint"):
        tracer.patch(training, fit, "training.fit")

    save = tracer.patch(checkpoint, "save_checkpoint", "checkpoint.save", _checkpoint_saved)
    tracer.patch(cli, "save_checkpoint", "checkpoint.save", wrapped=save)
    load = tracer.patch(checkpoint, "load_checkpoint", "checkpoint.load")
    tracer.patch(cli, "load_checkpoint", "checkpoint.load", wrapped=load)

    tracer.patch(data, "gen_video_dataset", "data.gen")
    tracer.patch(data, "gen_frame_dataset", "data.gen")
    tracer.patch(data, "save_dataset", "data.save", _dataset_saved)
    tracer.patch(data, "load_dataset", "data.load")

    tracer.patch(metrics, "evaluate", "metrics.evaluate")
    tracer.patch(verification, "run_all", "verification.run_all")


# ---------------------------------------------------------------------------
# per-layer metrics of one traced iteration


def _quantile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1e3 * durations[0]
    return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metric values, named by the module that owns the layer."""
    s = tracer.summary()
    c = tracer.counters
    return {
        "autodiff.build_s": s["autodiff.build"]["s"],
        "autodiff.build_calls": s["autodiff.build"]["calls"],
        "autodiff.evaluate_s": s["autodiff.evaluate"]["s"],
        "autodiff.evaluate_calls": s["autodiff.evaluate"]["calls"],
        "autodiff.evaluate_us_per_node": _ratio(
            s["autodiff.evaluate"]["s"], c["nodes_evaluated"], 1e6),
        "autodiff.backward_s": s["autodiff.backward"]["s"],
        "autodiff.backward_calls": s["autodiff.backward"]["calls"],
        "autodiff.backward_us_per_node": _ratio(
            s["autodiff.backward"]["s"], c["nodes_backward"], 1e6),
        "autodiff.graph_nodes": c["graph_nodes"],
        "aggregator.runner_build_s": s["aggregator.runner_build"]["s"],
        "aggregator.runner_build_calls": s["aggregator.runner_build"]["calls"],
        "aggregator.step_s": s["aggregator.step"]["s"],
        "aggregator.step_calls": s["aggregator.step"]["calls"],
        "aggregator.step_ms_p50": _quantile_ms(s["aggregator.step"]["durations"], 50),
        "aggregator.step_ms_p90": _quantile_ms(s["aggregator.step"]["durations"], 90),
        "aggregator.step_self_s": s["aggregator.step"]["self_s"],
        "aggregator.predict_s": s["aggregator.predict"]["s"],
        "aggregator.predict_calls": s["aggregator.predict"]["calls"],
        "aggregator.pad_step_frac": _ratio(c["pad_steps"], c["gru_steps"]),
        "aggregator.masked_frac": _ratio(c["masked_coords"], c["embedding_coords"]),
        "affect_head.loss_graph_s": s["affect_head.loss_graph"]["s"],
        "affect_head.loss_graph_calls": s["affect_head.loss_graph"]["calls"],
        "affect_head.train_step_s": s["affect_head.train_step"]["s"],
        "affect_head.train_step_calls": s["affect_head.train_step"]["calls"],
        "affect_head.train_step_ms_p50": _quantile_ms(
            s["affect_head.train_step"]["durations"], 50),
        "affect_head.forward_s": s["affect_head.forward"]["s"],
        "training.joint_build_s": s["training.joint_build"]["s"],
        "training.joint_step_s": s["training.joint_step"]["s"],
        "training.joint_step_calls": s["training.joint_step"]["calls"],
        "training.joint_step_ms_p50": _quantile_ms(s["training.joint_step"]["durations"], 50),
        "training.fit_self_s": s["training.fit"]["self_s"],
        "optim.adam_s": s["optim.adam"]["s"],
        "optim.adam_calls": s["optim.adam"]["calls"],
        "checkpoint.save_s": s["checkpoint.save"]["s"],
        "checkpoint.load_s": s["checkpoint.load"]["s"],
        "checkpoint.bytes": c["checkpoint_bytes"],
        "data.gen_s": s["data.gen"]["s"],
        "data.save_s": s["data.save"]["s"],
        "data.load_s": s["data.load"]["s"],
        "data.bytes": c["data_bytes"],
        "metrics.evaluate_s": s["metrics.evaluate"]["s"],
        "verification.run_all_s": s["verification.run_all"]["s"],
    }


def coverage(tracer, workload):
    """(span, must be used, calls) for every layer span of the workload."""
    s = tracer.summary()
    return [(name, used, s[name]["calls"]) for name, used in expected_calls(workload).items()]
