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
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from . import data as dt
from . import models as md
from . import trainer as tr
from .bake import BakeConfig, build_soft_targets
from .errors import ConfigError, DataFormatError
from .losses import LossConfig
from .numerics import Tensor
from .sampling import SamplerConfig, epoch_batches

DEFAULTS = {
    "method": "bake",
    "omega": 0.5,
    "tau": 4.0,
    "lambda": 1.0,
    "epsilon": 0.1,
    "m": 1,
    "n_hat": 32,
    "mode": "closed",
    "knowledge": "pred",
    "dataset": "synth",
    "epochs": 30,
    "lr": 0.1,
    "momentum": 0.9,
    "weight_decay": 0.0,
    "schedule": "cosine:5",
    "seed": 0,
    "synth_classes": 10,
    "synth_per_class": 200,
    "synth_dim": 32,
    "synth_spread": 3.0,
    "hidden": "256,128",
    "conv": False,
    "idx_train_images": None,
    "idx_train_labels": None,
    "idx_test_images": None,
    "idx_test_labels": None,
    "cifar_train": None,
    "cifar_test": None,
    "cifar_classes": 100,
    "cifar_mean": "0.507,0.487,0.441",
    "cifar_std": "0.267,0.256,0.276",
}


def _add_common_flags(p):
    p.add_argument("--method", choices=tr.METHODS, help=f"training method (default {DEFAULTS['method']})")
    p.add_argument("--omega", type=float, help=f"ensembling weight in [0,1] (default {DEFAULTS['omega']})")
    p.add_argument("--tau", type=float, help=f"temperature of the soft targets and the KL term (default {DEFAULTS['tau']})")
    p.add_argument("--lambda", dest="lambda_", type=float, help=f"distillation loss weight (default {DEFAULTS['lambda']})")
    p.add_argument("--epsilon", type=float, help=f"label smoothing epsilon (default {DEFAULTS['epsilon']})")
    p.add_argument("--m", type=int, help=f"same-class companions per anchor (default {DEFAULTS['m']})")
    p.add_argument("--n-hat", type=int, help=f"anchors per batch (default {DEFAULTS['n_hat']})")
    p.add_argument("--mode", help=f"propagation mode: closed | iterate:T | one-step (default {DEFAULTS['mode']})")
    p.add_argument("--knowledge", choices=["pred", "onehot"], help=f"ensembled knowledge source (default {DEFAULTS['knowledge']})")
    p.add_argument("--dataset", choices=["synth", "idx", "cifar"], help=f"dataset kind (default {DEFAULTS['dataset']})")
    p.add_argument("--epochs", type=int, help=f"training epochs (default {DEFAULTS['epochs']})")
    p.add_argument("--lr", type=float, help=f"base learning rate (default {DEFAULTS['lr']})")
    p.add_argument("--momentum", type=float, help=f"SGD momentum (default {DEFAULTS['momentum']})")
    p.add_argument("--weight-decay", type=float, help=f"weight decay (default {DEFAULTS['weight_decay']})")
    p.add_argument("--schedule", help=f"cosine:WARMUP or step:M1,M2:FACTOR (default {DEFAULTS['schedule']})")
    p.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULTS['seed']})")
    p.add_argument("--hidden", help=f"comma-separated MLP widths (default {DEFAULTS['hidden']})")
    p.add_argument("--conv", action="store_const", const=True, help="prepend the small conv stem (image datasets)")
    p.add_argument("--synth-classes", type=int, help=f"synthetic classes (default {DEFAULTS['synth_classes']})")
    p.add_argument("--synth-per-class", type=int, help=f"synthetic examples per class (default {DEFAULTS['synth_per_class']})")
    p.add_argument("--synth-dim", type=int, help=f"synthetic input dimension (default {DEFAULTS['synth_dim']})")
    p.add_argument("--synth-spread", type=float, help=f"synthetic cluster spread (default {DEFAULTS['synth_spread']})")
    p.add_argument("--idx-train-images", help="IDX train image file")
    p.add_argument("--idx-train-labels", help="IDX train label file")
    p.add_argument("--idx-test-images", help="IDX test image file")
    p.add_argument("--idx-test-labels", help="IDX test label file")
    p.add_argument("--cifar-train", help="comma-separated CIFAR train binaries")
    p.add_argument("--cifar-test", help="comma-separated CIFAR test binaries")
    p.add_argument("--cifar-classes", type=int, help=f"CIFAR class count (default {DEFAULTS['cifar_classes']})")
    p.add_argument("--cifar-mean", help=f"per-channel mean (default {DEFAULTS['cifar_mean']})")
    p.add_argument("--cifar-std", help=f"per-channel std (default {DEFAULTS['cifar_std']})")
    p.add_argument("--config", help="JSON config file (flags override file values)")
    p.add_argument("--out-dir", help="run output directory")


def build_parser():
    parser = argparse.ArgumentParser(prog="bakekit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    p_train = sub.add_parser("train", help="train one model and write manifest + metrics")
    _add_common_flags(p_train)
    p_cmp = sub.add_parser("compare", help="run several (method, seed) cells and summarize")
    _add_common_flags(p_cmp)
    p_cmp.add_argument("--methods", help="comma-separated method tokens, e.g. vanilla,bake,bake:omega=0.9")
    p_cmp.add_argument("--seeds", type=int, default=3, help="number of seeds per method (default 3)")
    p_tgt = sub.add_parser("targets", help="print top-3 soft targets for one sampled batch")
    _add_common_flags(p_tgt)
    p_tgt.add_argument("--checkpoint", help="model checkpoint to load")
    p_tgt.add_argument("--rows", type=int, default=8, help="batch rows to print (default 8)")
    return parser


def _flag(key):
    return "lambda_" if key == "lambda" else key


def _check_file_value(key, value, action):
    """Hold a config-file value to its flag's own ``type`` and ``choices``."""
    if value is None and DEFAULTS[key] is None:
        return
    # a store_const flag (--conv) takes its const's type; other untyped flags take strings
    kind = action.type or type(action.const if action.const is not None else "")
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"config key {key!r}: expected {kind.__name__}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")


def resolve_config(args):
    """Defaults, then config file, then explicit flags."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as f:
            loaded = json.load(f)
        if "config" in loaded and isinstance(loaded["config"], dict):
            loaded = loaded["config"]  # accept a manifest as a config source
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        flags = argparse.ArgumentParser(add_help=False)
        _add_common_flags(flags)
        actions = {action.dest: action for action in flags._actions}
        for key, value in loaded.items():
            _check_file_value(key, value, actions[_flag(key)])
        cfg.update(loaded)
    for key in DEFAULTS:
        value = getattr(args, _flag(key), None)
        if value is not None:
            cfg[key] = value
    if not 0.0 <= cfg["omega"] <= 1.0:
        raise ConfigError(f"--omega {cfg['omega']} outside valid range [0,1]")
    return cfg


def _parse_mode(mode):
    if mode == "closed":
        return "closed_form", 1
    if mode == "one-step":
        return "one_step", 1
    if mode.startswith("iterate:"):
        t = int(mode.split(":", 1)[1])
        return "iterate", t
    raise ConfigError(f"unrecognized --mode {mode!r}")


def _parse_schedule(spec, epochs):
    kind, _, rest = spec.partition(":")
    if kind == "cosine":
        warm = int(rest) if rest else 5
        return tr.CosineSchedule(total_epochs=epochs, warmup_epochs=warm)
    if kind == "step":
        milestones, _, factor = rest.partition(":")
        return tr.StepSchedule(
            milestones=tuple(int(m) for m in milestones.split(",") if m),
            factor=float(factor) if factor else 0.1,
        )
    raise ConfigError(f"unrecognized --schedule {spec!r}")


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
    mean = [float(v) for v in cfg["cifar_mean"].split(",")]
    std = [float(v) for v in cfg["cifar_std"].split(",")]
    train = dt.load_cifar_binary(
        cfg["cifar_train"].split(","), cfg["cifar_classes"], mean, std, split="train"
    )
    test = dt.load_cifar_binary(
        cfg["cifar_test"].split(","), cfg["cifar_classes"], mean, std, split="test"
    )
    return train, test


def make_model(cfg, train_set):
    hidden = tuple(int(w) for w in cfg["hidden"].split(","))
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
    cfg = dict(base_cfg)
    name, _, overrides = token.partition(":")
    if name not in tr.METHODS:
        raise ConfigError(f"unknown method {name!r} in --methods")
    cfg["method"] = name
    for pair in filter(None, overrides.split(",")):
        key, _, value = pair.partition("=")
        if key not in ("omega", "tau", "lambda", "m", "epsilon", "mode"):
            raise ConfigError(f"unsupported override {key!r} in method token {token!r}")
        cfg[key] = type(DEFAULTS[key])(value) if DEFAULTS[key] is not None else value
    return cfg


def _compare_cell(job):
    token, cfg = job
    _, metrics, _ = run_training(cfg)
    return token, cfg["seed"], metrics[-1].test_top1 if metrics else float("nan")


def cmd_compare(args):
    base = resolve_config(args)
    tokens = [t for t in (args.methods or "").split(",") if t]
    if not tokens:
        raise ConfigError("--methods must list at least one method")
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    jobs = []
    for token in tokens:
        for seed in range(base["seed"], base["seed"] + args.seeds):
            cfg = _parse_method_token(token, base)
            cfg["seed"] = seed
            jobs.append((token, cfg))
    workers = int(os.environ.get("BAKE_KIT_THREADS", "1"))
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
