"""Command-line entry point: train, compare, and inspect soft targets.

Exit codes: 0 success, 1 runtime failure, 2 configuration error, 3 data
error. Metrics are line-delimited JSON (one record per epoch); wall-clock
timings go to a separate file so metrics stay byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, astuple
from typing import NamedTuple

import numpy as np

from . import __version__
from . import data as dt
from . import models as md
from . import trainer as tr
from .bake import KNOWLEDGE_SOURCES, BakeConfig, build_soft_targets
from .errors import ConfigError, DataFormatError
from .sampling import SAMPLER_VERSION, SamplerConfig, batch_count, epoch_batches


SUBCOMMANDS = ("train", "compare", "targets")
TRAINING = ("train", "compare")  # settings that only a training run reads


class Option(NamedTuple):
    """One config key; its flag, file check, token override and default all come from here."""

    key: str
    type: type
    default: object
    help: str
    choices: tuple | None = None
    token: tuple = ()  # the methods that read it, and so may override it in a ``compare`` token; () is all, no token
    commands: tuple = SUBCOMMANDS  # the subcommands that read it, and so take its flag


OPTIONS = (
    Option("method", str, tr.TrainConfig.method, "training method", tr.METHODS, commands=("train",)),
    Option("omega", float, BakeConfig.omega, "ensembling weight in [0,1]", token=("bake",)),
    Option("tau", float, BakeConfig.tau, "temperature of the soft targets and the KL term", token=("bake",)),
    Option("lambda", float, BakeConfig.distill_weight, "distillation loss weight", token=("bake",), commands=TRAINING),
    Option(
        "epsilon", float, tr.TrainConfig.smoothing_epsilon, "label smoothing epsilon", None, ("label_smoothing",), TRAINING
    ),
    Option("m", int, SamplerConfig.m, "same-class companions per anchor", token=("bake",)),
    Option("n_hat", int, SamplerConfig.n_hat, "anchors per batch"),
    Option("mode", str, "closed", "propagation mode: closed | iterate:T", token=("bake",)),
    Option("knowledge", str, BakeConfig.knowledge_source, "ensembled knowledge source", KNOWLEDGE_SOURCES, ("bake",)),
    Option("epochs", int, tr.TrainConfig.epochs, "training epochs", commands=TRAINING),
    Option("lr", float, tr.TrainConfig.base_lr, "base learning rate", commands=TRAINING),
    Option("momentum", float, tr.TrainConfig.momentum, "SGD momentum", commands=TRAINING),
    Option("weight_decay", float, tr.TrainConfig.weight_decay, "weight decay", commands=TRAINING),
    Option(
        "schedule", str, f"cosine:{tr.CosineSchedule.warmup_epochs}", "cosine:WARMUP or step:M1,M2:FACTOR",
        commands=TRAINING,
    ),
    Option("seed", int, SamplerConfig.seed, "RNG seed"),
    Option("synth_classes", int, 10, "synthetic classes"),
    Option("synth_per_class", int, 200, "synthetic examples per class"),
    Option("synth_dim", int, 32, "synthetic input dimension"),
    Option("synth_spread", float, 3.0, "synthetic cluster spread"),
    Option(
        "hidden", str, ",".join(map(str, md.ModelDescriptor.hidden)), "comma-separated MLP widths",
        commands=TRAINING,
    ),
    Option("conv", bool, False, "prepend the small conv stem, shaped as the IDX or CIFAR images", commands=TRAINING),
    Option("idx_train_images", str, None, "IDX train image file; the IDX files make the run's data IDX"),
    Option("idx_train_labels", str, None, "IDX train label file"),
    Option("idx_test_images", str, None, "IDX test image file"),
    Option("idx_test_labels", str, None, "IDX test label file"),
    Option("cifar_train", str, None, "comma-separated CIFAR train binaries; the CIFAR files make the run's data CIFAR"),
    Option("cifar_test", str, None, "comma-separated CIFAR test binaries"),
)
OPTION = {opt.key: opt for opt in OPTIONS}
DEFAULTS = {opt.key: opt.default for opt in OPTIONS}
# the files that name each kind of data (a run given none reads synth); a data setting's kind is its key's prefix
DATA_FILES = {
    "idx": ("idx_train_images", "idx_train_labels", "idx_test_images", "idx_test_labels"),
    "cifar": ("cifar_train", "cifar_test"),
}


def _add_options(p, command):
    """The flags of the settings ``command`` reads, and ``--config``."""
    for opt in OPTIONS:
        if command not in opt.commands:
            continue
        flag = "--" + opt.key.replace("_", "-")
        if opt.type is bool:
            p.add_argument(flag, dest=opt.key, action="store_const", const=True, help=opt.help)
        else:
            shown = "" if opt.default is None else f" (default {opt.default})"
            p.add_argument(flag, dest=opt.key, type=opt.type, choices=opt.choices, help=opt.help + shown)
    p.add_argument(
        "--config", help="JSON config file (flags override file values; keys this subcommand does not read are ignored)"
    )
    return p


def build_parser():
    parser = argparse.ArgumentParser(prog="bakekit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    about = {
        "train": "train one model and write manifest + metrics",
        "compare": "run several (method, seed) cells and summarize",
        "targets": "print top-3 soft targets for one sampled batch",
    }
    # no abbreviations: ``compare --method`` would otherwise be taken for ``--methods``
    p = {c: _add_options(sub.add_parser(c, help=about[c], allow_abbrev=False), c) for c in SUBCOMMANDS}
    for command in TRAINING:
        p[command].add_argument("--out-dir", help="run output directory")
    p["compare"].add_argument("--methods", help="comma-separated method tokens, e.g. vanilla,bake:omega=0.9,mode=iterate:3")
    p["compare"].add_argument("--seeds", type=int, default=3, help="number of seeds per method (default 3)")
    p["targets"].add_argument("--checkpoint", help="model checkpoint to load")
    p["targets"].add_argument("--rows", type=int, default=8, help="batch rows to print (default 8)")
    return parser


def _refuse_unread(keys, methods):
    """Refuse a flag or token key that none of ``methods`` reads (config files serve every method)."""
    for key in keys:
        readers = OPTION[key].token or tr.METHODS
        if not set(methods) & set(readers):
            raise ConfigError(f"setting {key!r} is read only by {', '.join(readers)}, not by {', '.join(methods)}")


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


def resolve_config(args, methods=None):
    """Defaults, then config file, then explicit flags. All of it short of data is built as each of ``methods``
    (default: its own) reads it, so a bad value fails before any work, and a flag none of them reads is refused."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as f:
            try:
                loaded = json.load(f)
            except ValueError as exc:
                raise ConfigError(f"config file {args.config}: not valid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config}: expected a JSON object, got {type(loaded).__name__}")
        if isinstance(loaded.get("config"), dict):  # accept a manifest as a config source
            # it reproduces its run or is refused; sampler version 1 and float64 runs wrote no field
            stamps = (("sampler_version", 1, SAMPLER_VERSION), ("dtype", "float64", md.COMPUTE_DTYPE.name))
            for field, missing, current in stamps:
                if (value := loaded.get(field, missing)) != current:
                    raise ConfigError(
                        f"manifest {args.config}: {field} {value!r} is not this version's {current!r}, so this "
                        f"run would not reproduce it; to use its settings anyway, pass the manifest's \"config\" "
                        f"object as a plain config file"
                    )
            loaded = loaded["config"]
        unknown = set(loaded) - set(OPTION)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            _check_file_value(OPTION[key], value)
        cfg.update(loaded)
    flags = {key: value for key in DEFAULTS if (value := getattr(args, key, None)) is not None}
    cfg.update(flags)
    synth, training = data_kind(cfg, flags) == "synth", args.subcommand in TRAINING
    if synth and training and cfg["conv"]:
        raise ConfigError("--conv needs image data (idx or cifar files); synth data has no image shape")
    methods = methods or [cfg["method"]]
    for method in methods:
        make_train_config({**cfg, "method": method})
    hidden = _parse_hidden(cfg["hidden"])
    if synth:  # what the run's data and model would refuse, refused before any data is drawn or checkpoint read
        dt.check_synth(cfg["synth_classes"], cfg["synth_per_class"], cfg["synth_dim"], cfg["synth_spread"])
        if training:
            md.ModelDescriptor(cfg["synth_dim"], cfg["synth_classes"], hidden)
        batch_count(cfg["synth_classes"] * cfg["synth_per_class"], cfg["n_hat"])  # the train split fills a batch
    _refuse_unread(flags, methods)
    return cfg


def _parse_mode(mode):
    if mode == "closed":
        return "closed_form", 1
    if mode.startswith("iterate:"):
        return "iterate", _convert(int, mode.split(":", 1)[1], f"--mode {mode!r}")
    raise ConfigError(f"unrecognized --mode {mode!r}")


def _parse_schedule(spec):
    kind, _, rest = spec.partition(":")
    where = f"--schedule {spec!r}"
    if kind == "cosine":
        return tr.CosineSchedule(_convert(int, rest, where)) if rest else tr.CosineSchedule()
    if kind == "step":
        milestones, _, factor = rest.partition(":")
        return tr.StepSchedule(
            milestones=tuple(_convert(int, m, where) for m in milestones.split(",") if m),
            factor=_convert(float, factor, where) if factor else tr.StepSchedule.factor,
        )
    raise ConfigError(f"unrecognized {where}")


def _parse_hidden(spec):
    """Comma-separated integer widths; a malformed one is a config error naming ``--hidden``."""
    return md.check_hidden(tuple(_convert(int, v, f"--hidden {spec!r}") for v in spec.split(",")))


def make_train_config(cfg):
    """``cfg``'s TrainConfig; a setting its method does not read takes its default, so only what it reads is checked."""
    cfg = {**cfg, **{opt.key: opt.default for opt in OPTIONS if opt.token and cfg["method"] not in opt.token}}
    mode, iters = _parse_mode(cfg["mode"])
    bake_cfg = BakeConfig(
        omega=cfg["omega"],
        tau=cfg["tau"],
        distill_weight=cfg["lambda"],
        propagation_mode=mode,
        iterations=iters,
        knowledge_source=cfg["knowledge"],
    )
    return tr.TrainConfig(
        epochs=cfg["epochs"],
        base_lr=cfg["lr"],
        momentum=cfg["momentum"],
        weight_decay=cfg["weight_decay"],
        schedule=_parse_schedule(cfg["schedule"]),
        method=cfg["method"],
        smoothing_epsilon=cfg["epsilon"],
        bake=bake_cfg,
        sampler=SamplerConfig(n_hat=cfg["n_hat"], m=cfg["m"], seed=cfg["seed"]),
    )


def data_kind(cfg, flags=()):
    """The kind of data ``cfg``'s files name, or synth when it names none; each file of that kind must be
    given, and a synth key of ``flags`` is refused when files name the data (config files serve any data)."""
    named = [kind for kind, files in DATA_FILES.items() if any(cfg[key] is not None for key in files)]
    if len(named) > 1:
        raise ConfigError("both idx and cifar files are given; a run reads one kind of data")
    kind = named[0] if named else "synth"
    if kind != "synth" and (refused := [key for key in flags if key.startswith("synth_")]):
        raise ConfigError(f"setting {refused[0]!r} is read only by synth data, not by {kind} data")
    if any(cfg[key] is None for key in DATA_FILES.get(kind, ())):
        *rest, last = ("--" + key.replace("_", "-") for key in DATA_FILES[kind])
        raise ConfigError(f"{kind} data requires {', '.join(rest)} and {last}")
    return kind


def load_datasets(cfg):
    kind = data_kind(cfg)
    if kind == "synth":
        return dt.synth_clusters(
            cfg["synth_classes"],
            cfg["synth_per_class"],
            cfg["synth_dim"],
            cfg["synth_spread"],
            seed=cfg["seed"],
        )
    if kind == "idx":
        train = dt.load_idx(cfg["idx_train_images"], cfg["idx_train_labels"])
        test = dt.load_idx(cfg["idx_test_images"], cfg["idx_test_labels"])
        if train.image_shape != test.image_shape:
            raise DataFormatError(f"IDX train images are {train.image_shape} but test images are {test.image_shape}")
        train.num_classes = test.num_classes = max(train.num_classes, test.num_classes)
        if train.num_classes < 2:
            raise DataFormatError(
                f"IDX labels {cfg['idx_train_labels']} and {cfg['idx_test_labels']} name one class; "
                f"a classifier needs at least 2"
            )
        return train, test
    train, test = (dt.load_cifar_binary(cfg[key].split(",")) for key in DATA_FILES["cifar"])
    if train.num_classes != test.num_classes:
        raise DataFormatError(f"CIFAR train files are CIFAR-{train.num_classes}, test files CIFAR-{test.num_classes}")
    return train, test


def make_model(cfg, train_set):
    descriptor = md.ModelDescriptor(
        input_dim=train_set.input_dim,
        num_classes=train_set.num_classes,
        hidden=_parse_hidden(cfg["hidden"]),
        conv_stem=md.ConvStem(*train_set.image_shape) if cfg["conv"] else None,
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
        "dtype": model.dtype.name,
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
            record = {k: v if math.isfinite(v) else None for k, v in record.items()}  # strict JSON has no NaN
            f.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")
    with open(os.path.join(out_dir, "timings.txt"), "w") as f:
        for m in metrics:
            f.write(f"{m.epoch}\t{m.wall_seconds:.3f}\n")
    md.save_checkpoint(model, os.path.join(out_dir, "model.ckpt"))


def cmd_train(args):
    cfg = resolve_config(args)
    out_dir = args.out_dir or "run"
    model, metrics, manifest = run_training(cfg)
    _write_run(out_dir, model, metrics, manifest)
    nonfinite = sum(m.nonfinite_steps for m in metrics)
    if nonfinite:  # a diverged model's top-1 is not a result: evaluate ranks NaN logits as class 0
        print(f"diverged: {nonfinite} steps had a non-finite loss; no final top-1 is reported")
    elif metrics:
        print(f"final test top-1 {metrics[-1].test_top1:.4f} top-5 {metrics[-1].test_top5:.4f}")
    return 0


def _parse_method_token(token, base):
    """One ``--methods`` token's cell config, and the TrainConfig it trains."""
    name, _, spec = token.partition(":")
    cfg = {**base, "method": name}
    overrides = set()
    for key, value in (pair.partition("=")[::2] for pair in filter(None, spec.split(","))):
        if key not in OPTION or not OPTION[key].token:
            raise ConfigError(f"unsupported override {key!r} in method token {token!r}")
        if key in overrides:
            raise ConfigError(f"method token {token!r} sets {key!r} twice")
        overrides.add(key)
        cfg[key] = _convert(OPTION[key].type, value, f"method token {token!r}")
    try:
        config = make_train_config(cfg)
        _refuse_unread(overrides, [name])
    except ConfigError as exc:
        raise ConfigError(f"method token {token!r}: {exc}") from None
    return cfg, config


# NumPy's wheels link OpenBLAS, which reads its thread count from this variable
# when it loads. Several processes each with a multi-threaded BLAS
# oversubscribe the cores and run slower than one.
BLAS_THREADS_VAR = "OPENBLAS_NUM_THREADS"


def _usable_cores():
    """The cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _map_pinned(fn, jobs, workers):
    """``map(fn, jobs)`` over ``workers`` spawned processes, each with one BLAS thread.

    The variable is set while the workers start; ``spawn`` starts them fresh,
    so each loads its BLAS with it."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = os.environ.get(BLAS_THREADS_VAR)
    os.environ[BLAS_THREADS_VAR] = "1"
    try:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            return list(pool.map(fn, jobs))
    finally:
        if saved is None:
            del os.environ[BLAS_THREADS_VAR]
        else:
            os.environ[BLAS_THREADS_VAR] = saved


def _compare_cell(cfg):
    """One cell's final top-1, and whether any of its steps had a non-finite loss."""
    _, metrics, _ = run_training(cfg)
    return metrics[-1].test_top1, any(m.nonfinite_steps for m in metrics)


def _split_methods(spec):
    """``--methods`` tokens, at least one, each starting with a method name; only a comma followed by a method name
    starts a new one."""
    tokens = []
    for piece in filter(None, spec.split(",")):
        if (name := piece.partition(":")[0]) in tr.METHODS:
            tokens.append(piece)
        elif tokens:
            tokens[-1] += "," + piece
        else:
            raise ConfigError(f"unknown method {name!r} in --methods")
    if not tokens:
        raise ConfigError("--methods must list at least one method")
    return tokens


def cmd_compare(args):
    tokens = _split_methods(args.methods or "")
    base = resolve_config(args, dict.fromkeys(token.partition(":")[0] for token in tokens))  # as tokens read it
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    if base["epochs"] < 1:
        raise ConfigError(f"compare needs epochs >= 1 to report a top-1, got {base['epochs']}")
    # every cell is checked before the first one trains
    cells, first_token = [], {}
    for token in tokens:
        cfg, config = _parse_method_token(token, base)
        # a token overrides only what its method reads, so two tokens differ in what they train iff their configs do
        if config in first_token:
            raise ConfigError(f"method tokens {first_token[config]!r} and {token!r} train the same config")
        first_token[config] = token
        cells.append(cfg)
    seeds = range(base["seed"], base["seed"] + args.seeds)
    SamplerConfig(seed=seeds[-1])  # the base seed is in range, so the last one bounds the rest
    jobs = [{**cfg, "seed": seed} for cfg in cells for seed in seeds]
    workers = min(len(jobs), _usable_cores())  # with one worker the cells run in-process
    results = _map_pinned(_compare_cell, jobs, workers) if workers > 1 else [_compare_cell(cfg) for cfg in jobs]
    lines = ["method\tmean_top1\tstd_top1\tseeds\tdiverged"]
    for i, token in enumerate(tokens):
        row = results[i * args.seeds:(i + 1) * args.seeds]
        finished = np.array([top1 for top1, diverged in row if not diverged])
        mean, std = (finished.mean(), finished.std()) if finished.size else (math.nan, math.nan)
        lines.append(f"{token}\t{mean:.4f}\t{std:.4f}\t{args.seeds}\t{args.seeds - finished.size}")
    table = "\n".join(lines) + "\n"
    out_dir = args.out_dir or "run"
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.tsv"), "w") as f:
        f.write(table)
    sys.stdout.write(table)
    return 0


def cmd_targets(args):
    cfg = resolve_config(args, ["bake"])  # soft targets read the bake settings, whatever the method
    if args.rows < 1:
        raise ConfigError("--rows must be >= 1")
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
    if d.conv_stem and (stem := astuple(d.conv_stem)[:3]) != train_set.image_shape:  # (C, H, W)
        raise DataFormatError(
            f"checkpoint {args.checkpoint} has a conv stem for {stem} images; the dataset's image shape is "
            f"{train_set.image_shape}"
        )
    train_cfg = make_train_config({**cfg, "method": "bake"})
    ids = epoch_batches(train_set.class_index, train_cfg.sampler, epoch=0)[0]
    x, y = train_set.inputs[ids], train_set.labels[ids]
    features, logits = model.forward(x)
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
    except (DataFormatError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - single CLI failure funnel
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
