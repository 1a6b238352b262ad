"""Command-line surface: gen, train, eval, gradcheck, ablate.

Exit codes: 0 success, 1 check failure, 2 configuration error (also
missing/mismatched checkpoints, a split too small to train on or score,
and an allocation the host cannot make), 3 I/O or dataset failure, 4
numeric failure. Every run echoes its effective config into the output
directory; identical seeds and configs reproduce every artifact
byte-for-byte. eval's echo holds the model fields of the checkpoint it
ran, not those of its flags.

--head-checkpoint takes a head checkpoint; --checkpoint takes an
aggregator checkpoint for train and an aggregator or joint checkpoint
for eval. train and ablate check the dataset's t and frame width
against the config, eval against the checkpoint, a head's input width
against the descriptor videos, and the width of affect videos against
the 26 affect features; a mismatch exits 2.

There is no environment override: the config alone decides a run, so
the echoed effective_config.json describes all of it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import aggregator as agg
from . import atomic, data, metrics, training, verification
from .affect_space import FEATURE_DIM
from .autodiff import GraphError
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, build_config, check_schema_version

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

SUBSET_ORDER = ("va", "expr", "au", "va+expr", "va+au", "expr+au", "all")

_DEFAULTS = RunConfig()


def _config_flags():
    """A parser holding `--config` and one flag per RunConfig field, for
    every subcommand to take as a parent."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", dest="config_file", metavar="PATH", default=None,
                       help="JSON config file; flags override file values")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        default = getattr(_DEFAULTS, f.name)
        if isinstance(default, bool):
            flags.add_argument(flag, dest=f.name, action=argparse.BooleanOptionalAction,
                               default=None)
        elif isinstance(default, int):
            flags.add_argument(flag, dest=f.name, type=int, default=None)
        elif isinstance(default, float):
            flags.add_argument(flag, dest=f.name, type=float, default=None)
        else:
            flags.add_argument(flag, dest=f.name, type=str, default=None)
    return flags


def _config_from_args(args):
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    return build_config(config_file=args.config_file, overrides=overrides)


def _out_dir(config):
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    config.echo(out)
    return out


def _load_dataset(config, kind):
    if not config.dataset:
        raise ConfigError("--dataset is required")
    samples, manifest = data.load_dataset(config.dataset)
    if manifest.kind != kind:
        raise ConfigError(f"dataset kind {manifest.kind!r}, expected {kind!r}")
    return samples, manifest


def _split_from_config(samples, config):
    return data.split(samples, config.parse_fractions(), config.seed)


def _require_split(part, name, need, unit, command, config):
    """`part`, the `name` split, unless it holds fewer than `need` samples
    (`unit`s), which is too few for `command` to train on or score."""
    if not part:
        raise ConfigError(f"the {name} split is empty under --fractions {config.fractions}")
    if len(part) < need:
        count = f"{len(part)} {unit}" + ("s" if len(part) != 1 else "")
        raise ConfigError(f"the {name} split holds {count} under --fractions "
                          f"{config.fractions}; {command} needs at least {need}")
    return part


def _require_batch(config, loss, command):
    """Reject a --batch-size below the fewest videos a `loss` batch needs."""
    need = training.min_batch(loss)
    if config.batch_size < need:
        raise ConfigError(f"{command} trains the {loss} loss, whose batches need at least "
                          f"{need} videos; got --batch-size {config.batch_size}")


def _fit_parts(samples, config, min_train, min_val, unit, command):
    """The config's split of `samples`: at least one loss batch of
    `min_train` train samples, and `min_val` val samples to score an
    epoch. With `min_val` None the val split may also be empty: the run
    then trains on every sample and keeps the last epoch."""
    parts = _split_from_config(samples, config)
    _require_split(parts["train"], "train", min_train, unit, command, config)
    if min_val is None:
        min_val = 2 if parts["val"] else 0  # a correlation needs two videos
    if min_val:
        _require_split(parts["val"], "val", min_val, unit, command, config)
    return parts


# ---------------------------------------------------------------------------
# gen


def cmd_gen(config):
    out = _out_dir(config)
    if config.gen_kind == "videos":
        samples, manifest = data.gen_video_dataset(
            config.seed, config.n, config.video_recipe(), config.t
        )
    else:
        samples, manifest = data.gen_frame_dataset(config.seed, config.n, config.frame_recipe())
    path = out / f"{config.gen_kind}.jsonl"
    data.save_dataset(path, samples, manifest)
    print(f"wrote {len(samples)} {config.gen_kind} to {path}")
    print(f"manifest {data.manifest_path(path)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def _run_config_from(ck, context):
    """The RunConfig stored in a checkpoint, validated like a config file."""
    names = {f.name for f in fields(RunConfig)}
    try:
        check_schema_version(ck.config)
        return RunConfig(**{k: v for k, v in ck.config.items() if k in names}).validate()
    except ConfigError as e:
        raise ConfigError(f"{context}: the checkpoint's stored config: {e}") from None


def _load_kind(path, kind, context):
    ck = load_checkpoint(path)
    if ck.kind != kind:
        raise CheckpointError(f"{context}: checkpoint kind is {ck.kind!r}, expected {kind!r}")
    return ck


def _check_param_shapes(params, expected_shapes, context):
    """The parameters must be exactly the config's names, at its shapes."""
    for name in params:
        if name not in expected_shapes:
            raise CheckpointError(f"{context}: checkpoint has extra parameter {name!r}")
    for name, shape in expected_shapes.items():
        if name not in params:
            raise CheckpointError(f"{context}: checkpoint lacks parameter {name!r}")
        if tuple(params[name].shape) != tuple(shape):
            raise CheckpointError(
                f"{context}: parameter {name!r} has shape {tuple(params[name].shape)}, "
                f"config implies {tuple(shape)}"
            )


def _load_params(path, kind, shapes, context):
    """The parameters of an initial checkpoint of this kind holding these
    shapes; None when no path is given."""
    if not path:
        return None
    ck = _load_kind(path, kind, context)
    _check_param_shapes(ck.params, shapes, context)
    return ck.params


def _check_dims(manifest, t, d, context):
    """The dataset's padded length and frame width against the model's."""
    for name, want, have in (("t", t, manifest.t), ("frame width", d, manifest.d)):
        if want is not None and want != have:
            raise ConfigError(f"{context} expects {name} {want}, the dataset has {name} {have}")


def _affect_parts(parts, manifest, head_checkpoint, representation):
    """Each split as the aggregator reads it: descriptor videos go through
    the frozen head, then frames keep the representation's columns."""
    if manifest.recipe.get("feature_kind", "affect") == "descriptor":
        if not head_checkpoint:
            raise ConfigError("descriptor videos need --head-checkpoint for feature extraction")
        ck = _load_kind(head_checkpoint, "head", "--head-checkpoint")
        head_config = _run_config_from(ck, "--head-checkpoint").head_config()
        _check_param_shapes(ck.params, head_config.param_shapes(), "--head-checkpoint")
        _check_dims(manifest, None, head_config.d_in, "--head-checkpoint")
        parts = {
            name: training.transform_videos(part, ck.params, head_config)
            for name, part in parts.items()
        }
    else:
        _check_dims(manifest, None, FEATURE_DIM, "an affect video dataset")
    if representation != "all":
        parts = {name: data.select_columns(part, representation) for name, part in parts.items()}
    return parts


def _checkpoint_config(config):
    # the output directory is run bookkeeping, not model provenance;
    # embedding it would make otherwise-identical checkpoints differ
    blob = config.to_dict()
    blob.pop("out", None)
    return blob


def cmd_train(config):
    if config.stage != "mma":
        _require_batch(config, config.loss, "train")
    out = _out_dir(config)
    if config.stage == "mma":
        samples, manifest = _load_dataset(config, "frames")
        _check_dims(manifest, None, config.d_in, "the config")
        parts = _fit_parts(samples, config, 1, 1, "frame", "train")
        head_config = config.head_config()
        outcome = training.train_head(
            parts["train"], parts["val"], head_config,
            epochs=config.epochs, batch_size=config.batch_size,
            lr=config.lr, seed=config.seed,
        )
        kind, metric_key = "head", "val_loss"
    elif config.stage == "mrnn-frozen":
        samples, manifest = _load_dataset(config, "videos")
        _check_dims(manifest, config.t, None, "the config")
        parts = _fit_parts(samples, config, training.min_batch(config.loss), None, "video",
                           "train")
        parts = _affect_parts(parts, manifest, config.head_checkpoint, config.representation)
        agg_config = config.aggregator_config()
        init = _load_params(config.checkpoint, "aggregator", agg_config.param_shapes(),
                            "--checkpoint")
        outcome = training.train_aggregator(
            parts["train"], parts["val"], agg_config,
            epochs=config.epochs, batch_size=config.batch_size,
            lr=config.lr, loss_kind=config.loss, seed=config.seed, init_params=init,
        )
        kind, metric_key = "aggregator", "val_mean_rho"
    else:  # end-to-end
        samples, manifest = _load_dataset(config, "videos")
        if manifest.recipe.get("feature_kind") != "descriptor":
            raise ConfigError("end-to-end training expects descriptor videos")
        _check_dims(manifest, config.t, config.d_in, "the config")
        parts = _fit_parts(samples, config, training.min_batch(config.loss), None, "video",
                           "train")
        head_config = config.head_config()
        agg_config = config.aggregator_config(d_in=FEATURE_DIM)
        init_head = _load_params(config.head_checkpoint, "head", head_config.param_shapes(),
                                 "--head-checkpoint")
        init_agg = _load_params(config.checkpoint, "aggregator", agg_config.param_shapes(),
                                "--checkpoint")
        outcome = training.train_joint(
            parts["train"], parts["val"], head_config, agg_config,
            epochs=config.epochs, batch_size=config.batch_size, lr=config.lr,
            loss_kind=config.loss, seed=config.seed,
            init_head=init_head, init_agg=init_agg,
        )
        kind, metric_key = "joint", "val_mean_rho"
    save_checkpoint(out / "checkpoint.json", outcome.params, _checkpoint_config(config), kind)
    columns = ["epoch", "train_loss"] + ([] if outcome.best_metric is None else [metric_key])
    training.write_curve_csv(out / "curve.csv", outcome.history, columns)
    training.write_curve_svg(out / "curve.svg", outcome.history, series=("train_loss", metric_key))
    if outcome.best_metric is None:
        print(f"last epoch {outcome.best_epoch} (empty val split: no validation)")
    else:
        print(f"best epoch {outcome.best_epoch} {metric_key} {outcome.best_metric:.6f}")
    print(f"checkpoint {out / 'checkpoint.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


# The fields eval takes from the checkpoint's stored config, whatever its
# flags say: the model's shape, and the length bounds validated against t
_MODEL_FIELDS = ("t", "l_min", "l_max", "d_in", "d_hidden", "d_ff", "gru_layers", "mask",
                 "sigmoid_output", "representation", "head_width", "head_blocks",
                 "two_term_coupling")


def cmd_eval(config):
    if not config.checkpoint:
        raise ConfigError("--checkpoint is required")
    ck = load_checkpoint(config.checkpoint)
    if ck.kind not in ("aggregator", "joint"):
        raise ConfigError(f"eval needs an aggregator or joint checkpoint, got {ck.kind!r}")
    run = _run_config_from(ck, "--checkpoint")
    # the echo names the model that runs, with eval's own data and output fields
    config = replace(config, **{name: getattr(run, name) for name in _MODEL_FIELDS})
    out = _out_dir(config)
    samples, manifest = _load_dataset(config, "videos")
    _check_dims(manifest, config.t, config.d_in if ck.kind == "joint" else None,
                "the checkpoint")
    # a correlation needs two points
    part = _require_split(_split_from_config(samples, config)[config.split], config.split, 2,
                          "video", "eval", config)
    if ck.kind == "aggregator":
        part = _affect_parts({"eval": part}, manifest, config.head_checkpoint,
                             config.representation)["eval"]
        agg_config = config.aggregator_config()
        _check_param_shapes(ck.params, agg_config.param_shapes(), "eval")
        preds = agg.predict(part, ck.params, agg_config)
    else:
        head_config = config.head_config()
        agg_config = config.aggregator_config(d_in=FEATURE_DIM)
        hp, ap = training.split_joint_params(ck.params, head_config)
        _check_param_shapes(hp, head_config.param_shapes(), "eval")
        _check_param_shapes(ap, agg_config.param_shapes(), "eval")
        preds = training.joint_predict(part, hp, head_config, ap, agg_config)
    labels = np.asarray([s.label for s in part])
    report = metrics.evaluate(preds, labels)
    atomic.write_text(out / "report.json", report.to_json() + "\n")
    atomic.write_text(out / "report.csv", report.to_csv())
    for name, value in report.per_class.items():
        print(f"{name} {report.as_percent(value)}")
    print(report.as_percent(report.mean))
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(config, epsilon):
    if not 0 < epsilon < np.inf:  # also false for NaN
        raise ConfigError(f"--epsilon must be finite and positive, got {epsilon}")
    out = _out_dir(config)
    reports, failures, elapsed = verification.run_all(epsilon=epsilon)
    blob = {
        "schema_version": "1",
        "epsilon": epsilon,
        "threshold": verification.THRESHOLD,
        "elapsed_seconds": elapsed,
        "targets": {name: r.to_dict() for name, r in reports.items()},
        "failures": [
            {"target": name, "max_rel_error": err, "parameters": params}
            for name, err, params in failures
        ],
    }
    atomic.write_text(out / "gradient_report.json", json.dumps(blob, indent=2, sort_keys=True) + "\n")
    for name, report in reports.items():
        status = "ok" if report.passed(verification.THRESHOLD) else "FAIL"
        print(f"{name:28s} max_rel_error {report.max_rel_error:.3e}  {status}")
        for warning in report.warnings:
            print(f"  warning: {warning}")
    print(f"gradient check finished in {elapsed:.2f}s")
    if failures:
        for name, err, params in failures:
            print(
                f"FAIL {name}: max rel error {err:.3e} in {', '.join(params)}",
                file=sys.stderr,
            )
        return EXIT_CHECK
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablate


def cmd_ablate(config):
    _require_batch(config, "pearson", "ablate")  # the sweep trains both losses
    out = _out_dir(config)
    samples, manifest = _load_dataset(config, "videos")
    if manifest.d != FEATURE_DIM or manifest.recipe.get("feature_kind", "affect") != "affect":
        raise ConfigError(f"ablation needs a full {FEATURE_DIM}-dim affect video dataset")
    _check_dims(manifest, config.t, None, "the config")
    # the sweep trains with the Pearson loss too, and reports only val scores
    parts = _fit_parts(samples, config, training.min_batch("pearson"), 2, "video", "ablate")

    csv_lines = ["schema_version,1", "representation,mask,loss,val_mean_rho_percent"]
    txt_lines = [f"{'representation':<10s} {'mask':<5s} {'loss':<8s} {'mean rho (%)':>12s}"]
    for subset in SUBSET_ORDER:
        train = data.select_columns(parts["train"], subset)
        val = data.select_columns(parts["val"], subset)
        for mask_on in (True, False):
            agg_config = replace(config, representation=subset, mask=mask_on).aggregator_config()
            for loss_kind in ("pearson", "mse"):
                outcome = training.train_aggregator(
                    train, val, agg_config,
                    epochs=config.epochs, batch_size=config.batch_size,
                    lr=config.lr, loss_kind=loss_kind, seed=config.seed,
                )
                mask = "on" if mask_on else "off"
                rho = f"{100.0 * outcome.best_metric:.2f}"
                csv_lines.append(f"{subset},{mask},{loss_kind},{rho}")
                txt_lines.append(f"{subset:<10s} {mask:<5s} {loss_kind:<8s} {rho:>12s}")
    atomic.write_text(out / "ablation.csv", "\n".join(csv_lines) + "\n")
    atomic.write_text(out / "ablation.txt", "\n".join(txt_lines) + "\n")
    print("\n".join(txt_lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="affectseq",
        description="Synthetic-data pipeline for sequence-level emotion intensity "
        "estimation: data generation, staged training, evaluation, gradient "
        "checking, and ablation sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = _config_flags()
    for name, help_text in (
        ("gen", "generate a synthetic dataset with its manifest"),
        ("train", "train one stage and write checkpoint + curves"),
        ("eval", "evaluate a checkpoint; prints mean correlation in % last"),
        ("gradcheck", "verify every loss and layer against finite differences"),
        ("ablate", "sweep representation subsets, masking, and loss choices"),
    ):
        cmd = sub.add_parser(name, help=help_text, parents=[flags])
        if name == "gradcheck":
            cmd.add_argument("--epsilon", type=float, default=1e-6)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "gen":
            return cmd_gen(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "eval":
            return cmd_eval(config)
        if args.command == "gradcheck":
            return cmd_gradcheck(config, args.epsilon)
        if args.command == "ablate":
            return cmd_ablate(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:
        # a config asking for more memory than the host has, e.g. a huge --t
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except (data.DatasetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (GraphError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
