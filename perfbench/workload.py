"""One iteration of a benchmark workload, in a fresh process.

Run from an empty iteration directory with the checkout's ``src`` on
PYTHONPATH (``run.py`` does both)::

    python3 perfbench/workload.py --workload desk-pipeline --seed 0 \
        --trace 0 --result result.json

It times the import of ``affectseq.cli`` and every command of the
workload, called one after another through ``affectseq.cli.main``,
records the process's peak resident memory, then checks the outputs and
writes timings, checks and artifact digests to ``--result``. With
``--trace 1`` the layer entry points are wrapped (see layers.py) and the
per-layer metrics are written as well.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402  (stdlib only; affectseq is imported under the clock)

# Per-workload floor on the mean validation Pearson correlation (percent)
# reported by eval. desk-pipeline trains to about 90-97%. The paper-shape
# run is one epoch at lr 1e-4 scored on six validation videos, so its
# correlation is chance level; its floor, the lowest possible value,
# only rejects a NaN.
RHO_FLOOR = {"paper-frozen": -100.0, "desk-pipeline": 80.0}

TWIN_TOLERANCE = 1e-12


def _paper_frozen(seed):
    p = ["--preset", "paper", "--seed", str(seed)]
    return [
        ("gen", ["gen", *p, "--n", "32", "--out", "data"], 1, True),
        ("train", ["train", *p, "--stage", "mrnn-frozen", "--loss", "pearson", "--mask",
                   "--dataset", "data/videos.jsonl", "--epochs", "1", "--out", "train"], 1, True),
        ("eval", ["eval", *p, "--dataset", "data/videos.jsonl",
                  "--checkpoint", "train/checkpoint.json", "--split", "val",
                  "--out", "eval"], 1, True),
        # gradcheck does not depend on the workload; it runs here only so
        # every workload reports gradcheck_s, and stays out of the trace
        ("gradcheck", ["gradcheck", "--out", "gradcheck"], 1, False),
    ]


def _pipeline(seed):
    p = ["--preset", "desk", "--seed", str(seed)]
    return [
        ("gen", ["gen", *p, "--gen-kind", "frames", "--n", "512",
                 "--label-mix", "all:0.4,va:0.2,expr:0.2,au:0.2", "--out", "frames"], 3, True),
        ("train", ["train", *p, "--stage", "mma", "--dataset", "frames/frames.jsonl",
                   "--epochs", "10", "--out", "head"], 1, True),
        ("gen", ["gen", *p, "--feature-kind", "descriptor", "--n", "128",
                 "--out", "videos"], 3, True),
        ("train", ["train", *p, "--stage", "mrnn-frozen", "--dataset", "videos/videos.jsonl",
                   "--head-checkpoint", "head/checkpoint.json", "--epochs", "20",
                   "--out", "agg"], 1, True),
        ("train", ["train", *p, "--stage", "end-to-end", "--dataset", "videos/videos.jsonl",
                   "--head-checkpoint", "head/checkpoint.json",
                   "--checkpoint", "agg/checkpoint.json", "--epochs", "3", "--lr", "1e-3",
                   "--out", "joint"], 1, True),
        ("eval", ["eval", *p, "--dataset", "videos/videos.jsonl",
                  "--checkpoint", "joint/checkpoint.json", "--split", "val",
                  "--out", "eval"], 5, True),
        ("gradcheck", ["gradcheck", "--out", "gradcheck"], 1, True),
    ]


# name -> seed -> [(phase, argv, repeats, traced)]. A command repeated r
# times writes the same outputs r times; its time is the median.
WORKLOADS = {"paper-frozen": _paper_frozen, "desk-pipeline": _pipeline}

PHASES = ("gen", "train", "eval", "gradcheck")


# ---------------------------------------------------------------------------
# checks


def _digest(path):
    if path.name == "gradient_report.json":
        blob = json.loads(path.read_text())
        blob.pop("elapsed_seconds", None)
        payload = json.dumps(blob, sort_keys=True).encode()
    else:
        payload = path.read_bytes()
    return hashlib.sha256(payload).hexdigest()


def artifact_digests(root):
    """sha256 of every file under root, timing fields left out."""
    return {
        str(p.relative_to(root)): _digest(p)
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def check_twins(eval_dir, preds):
    """Eval predictions against the per-video numeric forward twins."""
    import numpy as np

    from affectseq import data, training
    from affectseq import aggregator as agg
    from affectseq.checkpoint import load_checkpoint
    from affectseq.config import RunConfig

    cfg = json.loads((eval_dir / "effective_config.json").read_text())
    cfg.pop("schema_version")
    run = RunConfig(**cfg)
    samples, _ = data.load_dataset(run.dataset)
    part = data.split(samples, run.parse_fractions(), run.seed)[run.split]
    ck = load_checkpoint(run.checkpoint)
    trained = RunConfig(**{k: v for k, v in ck.config.items() if k != "schema_version"})
    agg_config = trained.aggregator_config(d_in=26)
    if ck.kind == "joint":
        head_config = trained.head_config()
        head_names = set(head_config.param_shapes())
        hp = {k: v for k, v in ck.params.items() if k in head_names}
        ap = {k: v for k, v in ck.params.items() if k not in head_names}
        twin = [training.joint_forward(s.frames, s.length, hp, head_config, ap, agg_config)
                for s in part]
    else:
        twin = [agg.video_forward(s.frames, s.length, ck.params, agg_config) for s in part]
    twin = np.asarray(twin)
    if preds is None or preds.shape != twin.shape:
        return False, "eval predictions missing or of the wrong shape"
    err = float(np.max(np.abs(preds - twin)))
    if err > TWIN_TOLERANCE:
        return False, f"eval predictions differ from the numeric twin by {err:.3e}"
    return True, f"max |eval - twin| {err:.3e} over {len(part)} videos"


def check_resave(path):
    """A loaded checkpoint, saved again, must be byte-identical."""
    from affectseq.checkpoint import load_checkpoint, save_checkpoint

    ck = load_checkpoint(path)
    again = path.with_name(path.name + ".resaved")
    save_checkpoint(again, ck.params, ck.config, ck.kind)
    same = again.read_bytes() == path.read_bytes()
    again.unlink()
    return same, f"{path} re-saved {'identically' if same else 'with different bytes'}"


def check_gradcheck(report_path):
    from affectseq.verification import THRESHOLD

    blob = json.loads(report_path.read_text())
    worst = max(t["max_rel_error"] for t in blob["targets"].values())
    ok = not blob["failures"] and worst < THRESHOLD
    return ok, f"gradcheck worst max_rel_error {worst:.3e} over {len(blob['targets'])} targets"


# ---------------------------------------------------------------------------
# one iteration


class _Capture:
    """Keeps the return value of the eval command's prediction call."""

    def __init__(self, module, attr):
        self.module, self.attr = module, attr
        self.original = getattr(module, attr)
        self.value = None

    def __enter__(self):
        def capture(*args, **kwargs):
            self.value = self.original(*args, **kwargs)
            return self.value
        setattr(self.module, self.attr, capture)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)


def run_iteration(workload, seed, trace, resave, spans_path):
    started = time.perf_counter()
    import affectseq.cli as cli
    import_s = time.perf_counter() - started

    from affectseq import aggregator, training

    tracer = None
    if trace:
        tracer = layers.Tracer()
        layers.install(tracer)

    checks = []  # (name, ok, detail)
    phase_s = {phase: 0.0 for phase in PHASES}
    traced_s = 0.0
    preds = None
    for phase, argv, repeats, traced in WORKLOADS[workload](seed):
        if tracer is not None:
            tracer.active = traced
        times = []
        for _ in range(repeats):
            with contextlib.ExitStack() as stack:
                stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
                stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
                if phase == "eval":
                    captures = (stack.enter_context(_Capture(aggregator, "predict")),
                                stack.enter_context(_Capture(training, "joint_predict")))
                t0 = time.perf_counter()
                code = cli.main(argv)
                times.append(time.perf_counter() - t0)
            checks.append((f"exit {argv[0]} {argv[argv.index('--out') + 1]}", code == 0,
                           f"exit code {code}"))
            if code != 0:
                return {"complete": False, "checks": checks}
            if phase == "eval":
                # a joint eval also calls predict inside joint_predict
                preds = captures[1].value if captures[1].value is not None else captures[0].value
        phase_s[phase] += statistics.median(times)
        if traced:
            traced_s += sum(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_layer = None
    if tracer is not None:
        tracer.uninstall()
        per_layer = layers.layer_metrics(tracer)
        for name, used, calls in layers.coverage(tracer, workload):
            checks.append((f"coverage {name}", (calls > 0) == used,
                           f"{calls} calls, expected {'some' if used else 'none'}"))
        tracer.write_spans(spans_path)

    root = Path.cwd()
    digests = artifact_digests(root)

    report = json.loads((root / "eval" / "report.json").read_text())
    rho = 100.0 * report["mean"]
    checks.append(("val_mean_rho floor", rho >= RHO_FLOOR[workload],
                   f"{rho:.2f}% against floor {RHO_FLOOR[workload]}%"))
    checks.append(("eval twin", *check_twins(root / "eval", preds)))
    if resave:
        for path in sorted(root.rglob("checkpoint.json")):
            checks.append((f"resave {path.parent.name}", *check_resave(path)))
    checks.append(("gradcheck", *check_gradcheck(root / "gradcheck" / "gradient_report.json")))

    import numpy as np

    return {
        "complete": True,
        "import_s": import_s,
        "phase_s": phase_s,
        "traced_s": traced_s,
        "peak_rss_mb": peak_rss_mb,
        "val_mean_rho": rho,
        "checks": checks,
        "digests": digests,
        "per_layer": per_layer,
        "numpy": np.__version__,
        "blas": _blas_config(np),
    }


def _blas_config(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--resave", type=int, choices=(0, 1), default=1,
                        help="check that each checkpoint re-saves byte-identically")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    result = run_iteration(args.workload, args.seed, args.trace, args.resave,
                           Path(args.result).with_suffix(".spans.json"))
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
