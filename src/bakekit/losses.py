"""Training objectives: one soft-target cross-entropy, and CE, label smoothing
and temperature distillation built on it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bake import one_hot
from .errors import ConfigError, ShapeMismatchError
from .numerics import soft_cross_entropy  # one tape node; CE, smoothing and the KL use it


@dataclass(frozen=True)
class LossConfig:
    """distill_weight scales the KL term; the temperature is ``BakeConfig.tau``."""

    distill_weight: float = 1.0
    smoothing_epsilon: float = 0.1

    def __post_init__(self):
        if self.distill_weight < 0.0:
            raise ConfigError(f"distill_weight must be >= 0, got {self.distill_weight}")
        if not 0.0 <= self.smoothing_epsilon < 1.0:
            raise ConfigError(
                f"smoothing_epsilon must be in [0, 1), got {self.smoothing_epsilon}"
            )


def _check_labels(labels, k):
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise ShapeMismatchError(f"label {bad} outside [0, {k})")
    return labels


def cross_entropy(logits, labels):
    """Mean over the batch of -log softmax(logits)[y]; no temperature."""
    k = logits.shape[1]
    return soft_cross_entropy(logits, one_hot(_check_labels(labels, k), k))


def kl_distillation(logits, targets, tau):
    """Mean tau^2-scaled KL(targets || softmax(logits/tau)).

    ``targets`` is a constant array (detached by construction); only the
    logits receive gradient. 0*log 0 is taken as 0.
    """
    if tau <= 0.0:
        raise ConfigError(f"tau must be > 0, got {tau}")
    q = np.asarray(getattr(targets, "data", targets), dtype=np.float64)
    row_sums = q.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ShapeMismatchError(
            f"target row {bad} sums to {row_sums[bad]:.8f}, expected 1"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        qlogq = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
    cross = soft_cross_entropy(logits * (1.0 / tau), q)
    return (cross + float(qlogq.sum()) / q.shape[0]) * tau**2


def label_smoothing_loss(logits, labels, epsilon):
    """Cross-entropy against (1-eps)*onehot + eps/K targets."""
    if not 0.0 <= epsilon < 1.0:
        raise ConfigError(f"epsilon must be in [0, 1), got {epsilon}")
    k = logits.shape[1]
    labels = _check_labels(labels, k)
    return soft_cross_entropy(logits, (1.0 - epsilon) * one_hot(labels, k) + epsilon / k)
