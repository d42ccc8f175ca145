"""Training objectives: one soft-target cross-entropy, and CE, label smoothing
and temperature distillation built on it."""

from __future__ import annotations

import math

import numpy as np

from .bake import one_hot
from .errors import ConfigError, ShapeMismatchError
from .numerics import soft_cross_entropy  # one tape node; CE, smoothing and the KL use it


def cross_entropy(logits, labels):
    """Mean over the batch of -log softmax(logits)[y]; no temperature; ``one_hot`` checks the labels."""
    return soft_cross_entropy(logits, one_hot(labels, logits.shape[1]))


def kl_distillation(logits, targets, tau):
    """Mean tau^2-scaled KL(targets || softmax(logits/tau)).

    ``targets`` is a constant array (detached by construction), checked in
    float64 and cast to the logits' dtype by the loss node; only the logits
    receive gradient. 0*log 0 is taken as 0.
    """
    if not 0.0 < tau < math.inf:
        raise ConfigError(f"tau must be finite and > 0, got {tau}")
    q = np.asarray(targets, dtype=np.float64)
    row_sums = q.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ShapeMismatchError(
            f"target row {bad} sums to {row_sums[bad]:.8f}, expected 1"
        )
    qlogq = q * np.log(q, out=np.zeros_like(q), where=q > 0.0)
    cross = soft_cross_entropy(logits * (1.0 / tau), q)
    return (cross + float(qlogq.sum()) / q.shape[0]) * tau**2


def label_smoothing_loss(logits, labels, epsilon):
    """Cross-entropy against (1-eps)*onehot + eps/K targets."""
    if not 0.0 <= epsilon < 1.0:
        raise ConfigError(f"epsilon must be in [0, 1), got {epsilon}")
    k = logits.shape[1]
    return soft_cross_entropy(logits, (1.0 - epsilon) * one_hot(labels, k) + epsilon / k)
