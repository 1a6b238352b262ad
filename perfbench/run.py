"""affectseq benchmark: two CLI workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload desk-pipeline --seed 0 --seconds 55 --trace 0

Each iteration is a fresh worker process (workload.py) that runs the
workload's commands one after another through ``affectseq.cli.main``:
a closed loop with one client. Iterations repeat until ``--seconds``
have passed (at least three). Every iteration uses the same ``--seed``,
so every iteration must write byte-identical artifacts.

With ``--trace 0`` the last stdout line reports the median over
iterations of each end-to-end metric. With ``--trace 1`` untraced and
traced iterations alternate; the line reports the median of each
per-layer metric over the traced iterations, and the traced artifacts
must match the untraced ones byte for byte. Every line before it is
diagnostic: the environment and each iteration's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workload import WORKLOADS  # noqa: E402

MIN_ITERATIONS = 3
# stop starting iterations once the next one could end after this
DEADLINE_S = 150.0
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "gradcheck_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    if name.endswith("_calls") or name == "autodiff.graph_nodes":
        return "count"
    if name.endswith("_us_per_node"):
        return "us"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(".bytes"):
        return "B"
    return "s"


def end_to_end(result):
    phase = result["phase_s"]
    return {
        "setup_s": result["import_s"] + phase["gen"],
        "train_s": phase["train"],
        "eval_s": phase["eval"],
        "gradcheck_s": phase["gradcheck"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run_worker(root, work, index, args, traced):
    """One iteration in its own process and directory; returns its result."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **thread_env())
    iteration = work / f"iter{index}"
    iteration.mkdir()
    result_path = work / f"iter{index}.json"
    # later iterations must write the same checkpoint bytes as the first
    # (compared by digest), so re-saving them again would prove nothing new
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--resave", str(int(index == 0)), "--result", str(result_path)]
    with open(work / f"iter{index}.log", "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=iteration, env=env, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=WORKER_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    shutil.rmtree(iteration)
    if code != 0 or not result_path.exists():
        result = {"complete": False, "checks": [[f"worker iter{index}", False, f"exit {code}"]]}
    else:
        result = json.loads(result_path.read_text())
    result["traced"] = traced
    return result


def thread_env():
    """BLAS and OpenMP threads capped at the CPUs this process may use."""
    cpus = str(len(os.sched_getaffinity(0)))
    return {var: cpus for var in THREAD_VARS}


def environment(args, first):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "blas": first.get("blas"),
        "threads": thread_env(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "affectseq" / "cli.py").is_file():
        print(f"error: {root} holds no affectseq source tree (src/affectseq)", file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    started = time.monotonic()
    results, longest = [], 0.0
    while True:
        elapsed = time.monotonic() - started
        if len(results) >= MIN_ITERATIONS and elapsed >= args.seconds:
            break
        if results and elapsed + longest > DEADLINE_S:
            break
        traced = bool(args.trace) and len(results) % 2 == 1
        t0 = time.monotonic()
        results.append(run_worker(root, work, len(results), args, traced))
        longest = max(longest, time.monotonic() - t0)

    checks = [check for r in results for check in r["checks"]]
    complete = [r for r in results if r["complete"]]
    # every iteration ran the same seed, so all artifacts must match the
    # first complete one, traced or not
    for index, r in enumerate(complete[1:], start=1):
        reference = complete[0]["digests"]
        differing = sorted(k for k in set(reference) | set(r["digests"])
                           if reference.get(k) != r["digests"].get(k))
        name = "traced" if r["traced"] else "untraced"
        checks.append([f"artifacts {name} iteration {index}", not differing,
                       "identical" if not differing else "differ: " + ", ".join(differing)])

    for index, r in enumerate(results):
        row = {"iteration": index, "traced": r["traced"], "complete": r["complete"]}
        if r["complete"]:
            row.update(end_to_end(r), traced_s=r["traced_s"], val_mean_rho=r["val_mean_rho"])
        print(json.dumps(row))
    for name, ok, detail in checks:
        if not ok:
            print(f"FAILED {name}: {detail}", file=sys.stderr)
    if complete:
        print(json.dumps({"env": environment(args, complete[0])}))

    metrics = {}
    untraced = [r for r in complete if not r["traced"]]
    traced = [r for r in complete if r["traced"]]
    if not args.trace and untraced:
        for name, unit in END_TO_END_UNITS.items():
            value = statistics.median(end_to_end(r)[name] for r in untraced)
            metrics[name] = {"value": value, "unit": unit}
    elif args.trace and traced and untraced:
        for name in traced[0]["per_layer"]:
            value = statistics.median(r["per_layer"][name] for r in traced)
            metrics[name] = {"value": value, "unit": per_layer_unit(name)}
        base = statistics.median(r["traced_s"] for r in untraced)
        with_trace = statistics.median(r["traced_s"] for r in traced)
        metrics["trace.overhead_frac"] = {"value": with_trace / base - 1.0, "unit": "frac"}
        metrics["trace.base_s"] = {"value": base, "unit": "s"}

    failed = sum(1 for _, ok, _ in checks if not ok)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
