"""Command-line entry point: train, compare, and inspect soft targets.

Exit codes: 0 success, 1 runtime failure, 2 configuration error, 3 data
error. Metrics are line-delimited JSON (one record per epoch); wall-clock
timings go to a separate file so metrics stay byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from typing import NamedTuple

import numpy as np

from . import __version__
from . import data as dt
from . import models as md
from . import trainer as tr
from .bake import BakeConfig, build_soft_targets
from .errors import ConfigError, DataFormatError
from .losses import LossConfig
from .numerics import Tensor
from .sampling import SAMPLER_VERSION, SamplerConfig, epoch_batches


class Option(NamedTuple):
    """One config key; its flag, file check, token override and default all come from here."""

    key: str
    type: type
    default: object
    help: str
    choices: tuple | None = None
    token: bool = False  # overridable in a ``compare`` method token


OPTIONS = (
    Option("method", str, tr.TrainConfig.method, "training method", tr.METHODS),
    Option("omega", float, BakeConfig.omega, "ensembling weight in [0,1]", token=True),
    Option("tau", float, BakeConfig.tau, "temperature of the soft targets and the KL term", token=True),
    Option("lambda", float, LossConfig.distill_weight, "distillation loss weight", token=True),
    Option("epsilon", float, LossConfig.smoothing_epsilon, "label smoothing epsilon", token=True),
    Option("m", int, SamplerConfig.m, "same-class companions per anchor", token=True),
    Option("n_hat", int, SamplerConfig.n_hat, "anchors per batch"),
    Option("mode", str, "closed", "propagation mode: closed | iterate:T | one-step (= iterate:1)", token=True),
    Option("knowledge", str, "pred", "ensembled knowledge source", ("pred", "onehot")),
    Option("dataset", str, "synth", "dataset kind", ("synth", "idx", "cifar")),
    Option("epochs", int, tr.TrainConfig.epochs, "training epochs"),
    Option("lr", float, tr.TrainConfig.base_lr, "base learning rate"),
    Option("momentum", float, tr.TrainConfig.momentum, "SGD momentum"),
    Option("weight_decay", float, tr.TrainConfig.weight_decay, "weight decay"),
    Option("schedule", str, f"cosine:{tr.CosineSchedule.warmup_epochs}", "cosine:WARMUP or step:M1,M2:FACTOR"),
    Option("seed", int, SamplerConfig.seed, "RNG seed"),
    Option("synth_classes", int, 10, "synthetic classes"),
    Option("synth_per_class", int, 200, "synthetic examples per class"),
    Option("synth_dim", int, 32, "synthetic input dimension"),
    Option("synth_spread", float, 3.0, "synthetic cluster spread"),
    Option("hidden", str, ",".join(map(str, md.ModelDescriptor.hidden)), "comma-separated MLP widths"),
    Option("conv", bool, False, "prepend the small conv stem (image datasets)"),
    Option("idx_train_images", str, None, "IDX train image file"),
    Option("idx_train_labels", str, None, "IDX train label file"),
    Option("idx_test_images", str, None, "IDX test image file"),
    Option("idx_test_labels", str, None, "IDX test label file"),
    Option("cifar_train", str, None, "comma-separated CIFAR train binaries"),
    Option("cifar_test", str, None, "comma-separated CIFAR test binaries"),
    Option("cifar_classes", int, 100, "CIFAR class count"),
    Option("cifar_mean", str, "0.507,0.487,0.441", "per-channel mean"),
    Option("cifar_std", str, "0.267,0.256,0.276", "per-channel std"),
)
OPTION = {opt.key: opt for opt in OPTIONS}
DEFAULTS = {opt.key: opt.default for opt in OPTIONS}


def _add_options(p):
    for opt in OPTIONS:
        flag = "--" + opt.key.replace("_", "-")
        if opt.type is bool:
            p.add_argument(flag, dest=opt.key, action="store_const", const=True, help=opt.help)
        else:
            shown = "" if opt.default is None else f" (default {opt.default})"
            p.add_argument(flag, dest=opt.key, type=opt.type, choices=opt.choices, help=opt.help + shown)
    p.add_argument("--config", help="JSON config file (flags override file values)")
    p.add_argument("--out-dir", help="run output directory")
    return p


def build_parser():
    parser = argparse.ArgumentParser(prog="bakekit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    _add_options(sub.add_parser("train", help="train one model and write manifest + metrics"))
    p_cmp = _add_options(sub.add_parser("compare", help="run several (method, seed) cells and summarize"))
    p_cmp.add_argument("--methods", help="comma-separated method tokens, e.g. vanilla,bake:omega=0.9,mode=iterate:3")
    p_cmp.add_argument("--seeds", type=int, default=3, help="number of seeds per method (default 3)")
    p_tgt = _add_options(sub.add_parser("targets", help="print top-3 soft targets for one sampled batch"))
    p_tgt.add_argument("--checkpoint", help="model checkpoint to load")
    p_tgt.add_argument("--rows", type=int, default=8, help="batch rows to print (default 8)")
    return parser


def _convert(kind, text, where):
    """``kind(text)``; a malformed value is a config error naming ``where``."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{where}: expected {kind.__name__}, got {text!r}") from None


def _check_file_value(opt, value):
    """Hold a config-file value to its option's type and choices."""
    if value is None and opt.default is None:
        return
    accepted = (int, float) if opt.type is float else opt.type
    if isinstance(value, bool) is not (opt.type is bool) or not isinstance(value, accepted):
        raise ConfigError(f"config key {opt.key!r}: expected {opt.type.__name__}, got {value!r}")
    if opt.choices is not None and value not in opt.choices:
        raise ConfigError(f"config key {opt.key!r}: {value!r} is not one of {list(opt.choices)}")


def _validate(cfg):
    """Build all of ``cfg`` short of data, so a bad value fails before any work."""
    make_train_config(cfg)
    _parse_hidden(cfg["hidden"])
    _parse_channels(cfg, "cifar_mean")
    _parse_channels(cfg, "cifar_std")
    return cfg


def resolve_config(args):
    """Defaults, then config file, then explicit flags; validated."""
    cfg = dict(DEFAULTS)
    sampler_version = SAMPLER_VERSION  # a plain config file claims no batches
    if getattr(args, "config", None):
        with open(args.config) as f:
            try:
                loaded = json.load(f)
            except ValueError as exc:
                raise ConfigError(f"config file {args.config}: not valid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config}: expected a JSON object, got {type(loaded).__name__}")
        if isinstance(loaded.get("config"), dict):  # accept a manifest as a config source
            sampler_version = loaded.get("sampler_version", 1)  # version 1 wrote no field
            loaded = loaded["config"]
        unknown = set(loaded) - set(OPTION)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            _check_file_value(OPTION[key], value)
        cfg.update(loaded)
    flags = {key: getattr(args, key, None) for key in DEFAULTS}
    cfg.update((key, value) for key, value in flags.items() if value is not None)
    if cfg["m"] >= 2 and sampler_version != SAMPLER_VERSION:
        raise ConfigError(
            f"manifest {args.config}: written by sampler version {sampler_version!r}; batches with m >= 2 "
            f"changed in sampler version {SAMPLER_VERSION}, so this run would not reproduce it"
        )
    return _validate(cfg)


def _parse_mode(mode):
    if mode == "closed":
        return "closed_form", 1
    if mode == "one-step":  # still accepted: older manifests and commands use it
        return "iterate", 1
    if mode.startswith("iterate:"):
        return "iterate", _convert(int, mode.split(":", 1)[1], f"--mode {mode!r}")
    raise ConfigError(f"unrecognized --mode {mode!r}")


def _parse_schedule(spec, epochs):
    kind, _, rest = spec.partition(":")
    where = f"--schedule {spec!r}"
    if kind == "cosine":
        warm = _convert(int, rest, where) if rest else tr.CosineSchedule.warmup_epochs
        return tr.CosineSchedule(total_epochs=epochs, warmup_epochs=warm)
    if kind == "step":
        milestones, _, factor = rest.partition(":")
        return tr.StepSchedule(
            milestones=tuple(_convert(int, m, where) for m in milestones.split(",") if m),
            factor=_convert(float, factor, where) if factor else tr.StepSchedule.factor,
        )
    raise ConfigError(f"unrecognized {where}")


def _parse_list(kind, spec, flag):
    """Comma-separated ``kind`` values; a malformed one is a config error naming ``flag``."""
    return tuple(_convert(kind, v, f"{flag} {spec!r}") for v in spec.split(","))


def _parse_hidden(spec):
    return md.check_hidden(_parse_list(int, spec, "--hidden"))


def _parse_channels(cfg, key):
    """Per-channel CIFAR normalisation: exactly three floats, the stds all > 0."""
    flag = "--" + key.replace("_", "-")
    values = _parse_list(float, cfg[key], flag)
    if len(values) != 3:
        raise ConfigError(f"{flag} {cfg[key]!r}: expected 3 comma-separated values, got {len(values)}")
    if key == "cifar_std" and not all(v > 0 for v in values):
        raise ConfigError(f"{flag} {cfg[key]!r}: every std must be > 0")
    return values


def make_train_config(cfg):
    mode, iters = _parse_mode(cfg["mode"])
    bake_cfg = BakeConfig(
        omega=cfg["omega"],
        tau=cfg["tau"],
        propagation_mode=mode,
        iterations=iters,
        knowledge_source="predictions" if cfg["knowledge"] == "pred" else "ground_truth_onehot",
    )
    return tr.TrainConfig(
        epochs=cfg["epochs"],
        base_lr=cfg["lr"],
        momentum=cfg["momentum"],
        weight_decay=cfg["weight_decay"],
        schedule=_parse_schedule(cfg["schedule"], cfg["epochs"]),
        method=cfg["method"],
        bake=bake_cfg,
        loss=LossConfig(distill_weight=cfg["lambda"], smoothing_epsilon=cfg["epsilon"]),
        sampler=SamplerConfig(n_hat=cfg["n_hat"], m=cfg["m"], seed=cfg["seed"]),
    )


def load_datasets(cfg):
    kind = cfg["dataset"]
    if kind == "synth":
        return dt.synth_clusters(
            cfg["synth_classes"],
            cfg["synth_per_class"],
            cfg["synth_dim"],
            cfg["synth_spread"],
            seed=cfg["seed"],
        )
    if kind == "idx":
        needed = ("idx_train_images", "idx_train_labels", "idx_test_images", "idx_test_labels")
        if any(cfg[k] is None for k in needed):
            raise ConfigError(f"dataset=idx requires {needed}")
        train = dt.load_idx(cfg["idx_train_images"], cfg["idx_train_labels"], split="train")
        test = dt.load_idx(cfg["idx_test_images"], cfg["idx_test_labels"], split="test")
        return train, test
    if cfg["cifar_train"] is None or cfg["cifar_test"] is None:
        raise ConfigError("dataset=cifar requires --cifar-train and --cifar-test")
    mean, std = _parse_channels(cfg, "cifar_mean"), _parse_channels(cfg, "cifar_std")
    train = dt.load_cifar_binary(
        cfg["cifar_train"].split(","), cfg["cifar_classes"], mean, std, split="train"
    )
    test = dt.load_cifar_binary(
        cfg["cifar_test"].split(","), cfg["cifar_classes"], mean, std, split="test"
    )
    return train, test


def make_model(cfg, train_set):
    hidden = _parse_hidden(cfg["hidden"])
    stem = None
    if cfg["conv"]:
        dim = train_set.input_dim
        if dim % 3 == 0 and int(np.sqrt(dim // 3)) ** 2 * 3 == dim:
            side = int(np.sqrt(dim // 3))
            stem = md.ConvStem(3, side, side)
        elif int(np.sqrt(dim)) ** 2 == dim:
            side = int(np.sqrt(dim))
            stem = md.ConvStem(1, side, side)
        else:
            raise ConfigError(f"--conv: cannot infer image shape from input dim {dim}")
    descriptor = md.ModelDescriptor(
        input_dim=train_set.input_dim,
        num_classes=train_set.num_classes,
        hidden=hidden,
        conv_stem=stem,
    )
    return md.init(descriptor, seed=cfg["seed"])


def run_training(cfg):
    """One fully-resolved training run; returns (model, metrics, manifest)."""
    train_set, test_set = load_datasets(cfg)
    model = make_model(cfg, train_set)
    train_cfg = make_train_config(cfg)
    model, metrics = tr.train(model, train_set, test_set, train_cfg)
    manifest = {
        "tool_version": __version__,
        "seed": cfg["seed"],
        "dataset_fingerprint": train_set.fingerprint(),
        "sampler_version": SAMPLER_VERSION,
        "config": cfg,
    }
    return model, metrics, manifest


def _write_run(out_dir, model, metrics, manifest):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(os.path.join(out_dir, "metrics.jsonl"), "w") as f:
        for m in metrics:
            record = asdict(m)
            record.pop("wall_seconds")  # timings live apart: metrics stay reproducible
            f.write(json.dumps(record, sort_keys=True) + "\n")
    with open(os.path.join(out_dir, "timings.txt"), "w") as f:
        for m in metrics:
            f.write(f"{m.epoch}\t{m.wall_seconds:.3f}\n")
    md.save_checkpoint(model, os.path.join(out_dir, "model.ckpt"))


def cmd_train(args):
    cfg = resolve_config(args)
    out_dir = args.out_dir or "run"
    model, metrics, manifest = run_training(cfg)
    _write_run(out_dir, model, metrics, manifest)
    final = metrics[-1] if metrics else None
    if final:
        print(f"final test top-1 {final.test_top1:.4f} top-5 {final.test_top5:.4f}")
    return 0


def _parse_method_token(token, base_cfg):
    """The validated cell config for one ``--methods`` token."""
    cfg = dict(base_cfg)
    name, _, overrides = token.partition(":")
    if name not in tr.METHODS:
        raise ConfigError(f"unknown method {name!r} in --methods")
    cfg["method"] = name
    for pair in filter(None, overrides.split(",")):
        key, _, value = pair.partition("=")
        if key not in OPTION or not OPTION[key].token:
            raise ConfigError(f"unsupported override {key!r} in method token {token!r}")
        cfg[key] = _convert(OPTION[key].type, value, f"method token {token!r}")
    try:
        return _validate(cfg)
    except ConfigError as exc:
        raise ConfigError(f"method token {token!r}: {exc}") from None


def _compare_cell(job):
    token, cfg = job
    _, metrics, _ = run_training(cfg)
    return token, cfg["seed"], metrics[-1].test_top1 if metrics else float("nan")


def _split_methods(spec):
    """``--methods`` tokens; only a comma followed by a method name starts a new one."""
    tokens = []
    for piece in filter(None, spec.split(",")):
        if tokens and piece.partition(":")[0] not in tr.METHODS:
            tokens[-1] += "," + piece
        else:
            tokens.append(piece)
    return tokens


def cmd_compare(args):
    base = resolve_config(args)
    tokens = _split_methods(args.methods or "")
    if not tokens:
        raise ConfigError("--methods must list at least one method")
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    jobs = []
    for token in tokens:
        cell = _parse_method_token(token, base)
        for seed in range(base["seed"], base["seed"] + args.seeds):
            jobs.append((token, {**cell, "seed": seed}))
    workers = _convert(int, os.environ.get("BAKE_KIT_THREADS", "1"), "BAKE_KIT_THREADS")
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_compare_cell, jobs))
    else:
        results = [_compare_cell(job) for job in jobs]
    by_token = {}
    for token, _, top1 in results:
        by_token.setdefault(token, []).append(top1)
    lines = ["method\tmean_top1\tstd_top1\tseeds"]
    for token in tokens:
        vals = np.array(by_token[token])
        lines.append(f"{token}\t{vals.mean():.4f}\t{vals.std():.4f}\t{len(vals)}")
    table = "\n".join(lines) + "\n"
    out_dir = args.out_dir or "run"
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.tsv"), "w") as f:
        f.write(table)
    sys.stdout.write(table)
    return 0


def cmd_targets(args):
    cfg = resolve_config(args)
    if not args.checkpoint:
        raise DataFormatError("targets requires --checkpoint")
    if not os.path.exists(args.checkpoint):
        raise DataFormatError(f"checkpoint not found: {args.checkpoint}")
    model = md.load_checkpoint(args.checkpoint)
    train_set, _ = load_datasets(cfg)
    d = model.descriptor
    if (d.input_dim, d.num_classes) != (train_set.input_dim, train_set.num_classes):
        raise DataFormatError(
            f"checkpoint {args.checkpoint} has input dim {d.input_dim} and {d.num_classes} classes; "
            f"the dataset has {train_set.input_dim} and {train_set.num_classes}"
        )
    train_cfg = make_train_config(cfg)
    batches = epoch_batches(train_set.class_index, train_cfg.sampler, epoch=0)
    if not batches:
        raise ConfigError("dataset too small for one batch at this n_hat")
    ids = np.asarray(batches[0])
    x = train_set.inputs[ids].astype(np.float64)
    y = train_set.labels[ids]
    features, logits = model.forward(Tensor(x))
    targets = build_soft_targets(features, logits, labels=y, cfg=train_cfg.bake)
    for row in range(min(args.rows, targets.shape[0])):
        top = np.argsort(-targets[row], kind="stable")[:3]
        cells = " ".join(f"{int(c)}:{targets[row, c]:.4f}" for c in top)
        print(f"row {row} gt={int(y[row])} top3: {cells}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"train": cmd_train, "compare": cmd_compare, "targets": cmd_targets}
    try:
        return handlers[args.subcommand](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - single CLI failure funnel
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
