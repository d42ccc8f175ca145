"""The training loop: sample batch, forward, build targets, loss, SGD step."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import losses as ls
from .bake import BakeConfig, build_soft_targets
from .errors import ConfigError
from .numerics import blas_threads
from .sampling import SamplerConfig, epoch_batches

METHODS = ("vanilla", "label_smoothing", "bake")
# test examples per forward in ``evaluate``: the default training batch, so evaluation never holds more
# activations (or conv-stem im2col buffers) than a training step of the default recipe
EVAL_BATCH = SamplerConfig().batch_size


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    base_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    warmup_epochs: int = 5  # linear warm-up to base_lr, then half-cosine decay to zero at the last epoch
    method: str = "bake"
    smoothing_epsilon: float = 0.1  # label_smoothing's epsilon
    bake: BakeConfig = field(default_factory=BakeConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 < self.base_lr < math.inf:
            raise ConfigError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.warmup_epochs < 0:
            raise ConfigError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 <= self.smoothing_epsilon < 1.0:
            raise ConfigError(f"smoothing_epsilon must be in [0, 1), got {self.smoothing_epsilon}")
        if self.method == "bake" and self.sampler.batch_size < 2:  # its affinities need another example
            raise ConfigError(f"bake needs a batch of at least 2, got n_hat * (m + 1) = {self.sampler.batch_size}")


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_ce: float
    train_kl: float
    test_top1: float
    test_top5: float
    wall_seconds: float
    nonfinite_steps: int = 0  # steps whose loss was NaN or infinite; training steps on through them


def lr_at(warm, epoch, base_lr, epochs):
    """Learning rate at a (possibly fractional) epoch of an ``epochs``-long run that warms up for ``warm`` epochs."""
    if epoch < warm:
        return base_lr * epoch / warm
    span = max(epochs - warm, 1)
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * (epoch - warm) / span))


def sgd_step(p, g, v, lr, momentum, weight_decay):
    """In-place SGD with momentum on parameter vectors: v <- m*v + g + wd*p; p <- p - lr*v.

    ``g`` is read, never written; at weight_decay 0 the ``wd*p`` term is skipped."""
    v *= momentum
    v += g + weight_decay * p if weight_decay else g
    p -= lr * v


def evaluate(model, dataset):
    """(top-1, top-5) accuracy; ties broken toward the lowest class index."""
    if len(dataset) == 0:
        raise ConfigError("evaluate requires a nonempty dataset")
    k = dataset.num_classes
    top_k = min(5, k)
    hits1 = hits5 = 0
    for start in range(0, len(dataset), EVAL_BATCH):
        x = dataset.inputs[start : start + EVAL_BATCH].copy()  # the model keeps its batch; a view would keep them all
        y = dataset.labels[start : start + EVAL_BATCH]
        _, logits = model.forward(x)
        order = np.argsort(-logits, axis=1, kind="stable")
        hits1 += int((order[:, 0] == y).sum())
        hits5 += int((order[:, :top_k] == y[:, None]).any(axis=1).sum())
    return hits1 / len(dataset), hits5 / len(dataset)


def batch_loss(model, x, y, cfg, target_threads=None):
    """Forward one batch under ``cfg.method``; returns (loss value, its gradient array with respect to the logits,
    ce value, kl value).

    The value and gradient are in the dtype the model computes in, ready for
    ``model.backward``; bake's soft targets are float64, built on
    ``target_threads`` OpenBLAS threads (None: the current count).

    bake adds ``cfg.bake.distill_weight`` times the KL to detached soft
    targets, both at the one temperature ``cfg.bake.tau``.
    """
    features, logits = model.forward(x)
    if cfg.method == "bake":
        with blas_threads(target_threads):
            targets = build_soft_targets(features, logits, labels=y, cfg=cfg.bake)
        return ls.bake_loss(logits, y, targets, cfg.bake.tau, cfg.bake.distill_weight)
    ce, grad = ls.cross_entropy(logits, y)
    value = ce
    if cfg.method == "label_smoothing":
        value, grad = ls.label_smoothing_loss(logits, y, cfg.smoothing_epsilon)
    return value, grad, float(ce), 0.0


def train(model, train_set, test_set, cfg):
    """Run the configured number of epochs; returns (model, metrics list).

    The epochs run on one OpenBLAS thread, and bake's soft targets on the count
    found on entry, which is restored on return. At desk scale a second thread
    slows every step: a gemm split across two cores pulls the lines of
    ``model.flat`` that its weights view into the other core's cache, and the
    SGD step that rewrites the vector next must take each one back. The N×N
    soft-target solve is the one product large enough to gain from it."""
    # random batching unless bake: the per-class mechanism only serves affinity quality
    sampler = cfg.sampler if cfg.method == "bake" else replace(cfg.sampler, m=0)
    velocity = np.zeros_like(model.flat)
    metrics = []
    with blas_threads(1) as target_threads:
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            batches = epoch_batches(train_set.class_index, sampler, epoch)
            n = len(batches)
            sum_loss = sum_ce = sum_kl = 0.0
            nonfinite = 0
            for it, ids in enumerate(batches):
                x, y = train_set.inputs[ids], train_set.labels[ids]
                value, grad, ce_val, kl_val = batch_loss(model, x, y, cfg, target_threads)
                model.backward(grad)
                lr = lr_at(cfg.warmup_epochs, epoch + it / n, cfg.base_lr, cfg.epochs)
                sgd_step(model.flat, model.grad, velocity, lr, cfg.momentum, cfg.weight_decay)
                value = float(value)
                nonfinite += not math.isfinite(value)
                sum_loss += value
                sum_ce += ce_val
                sum_kl += kl_val
            top1, top5 = evaluate(model, test_set)
            metrics.append(
                EpochMetrics(
                    epoch=epoch,
                    train_loss=sum_loss / n,
                    train_ce=sum_ce / n,
                    train_kl=sum_kl / n,
                    test_top1=top1,
                    test_top5=top5,
                    wall_seconds=time.perf_counter() - t0,
                    nonfinite_steps=nonfinite,
                )
            )
    return model, metrics
