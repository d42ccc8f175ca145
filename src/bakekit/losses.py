"""Training objectives, each one tape node: a soft-target cross-entropy, and on it
CE, label smoothing, temperature distillation and BAKE's CE + lambda * KL."""

from __future__ import annotations

import numpy as np

from .bake import one_hot, temperature_factors
from .errors import ConfigError, ShapeMismatchError
from .numerics import loss_node, soft_cross_entropy, soft_xent


def cross_entropy(logits, labels):
    """Mean over the batch of -log softmax(logits)[y]; no temperature; ``one_hot`` checks the labels."""
    return soft_cross_entropy(logits, one_hot(labels, logits.shape[1], logits.data.dtype))


def _check_rows(q, z):
    """Refuse a target row whose sum misses 1 by more than 1e-6 or is not finite.

    A non-finite row passes while the logits ``z`` are not finite either: the
    model has diverged, and its non-finite loss is what shows it."""
    miss = np.abs(q.sum(axis=1) - 1.0)
    if miss.max(initial=0.0) <= 1e-6:
        return
    bad = np.flatnonzero(~(miss <= 1e-6) if np.isfinite(z).all() else miss > 1e-6)
    if bad.size:
        raise ShapeMismatchError(f"target row {bad[0]} sums to {q[bad[0]].sum():.8f}, expected 1")


def _kl(logits, targets, tau):
    """The value of ``kl_distillation`` and its gradient array, on the logits' data."""
    dtype = logits.data.dtype
    inv_tau, tau_sq = temperature_factors(tau, dtype)
    q = np.asarray(targets, dtype=np.float64)
    _check_rows(q, logits.data)
    qlogq = np.log(q, out=np.zeros_like(q), where=q > 0.0)  # 0 * log 0 is taken as 0
    qlogq *= q
    neg_entropy = np.asarray(float(qlogq.sum()) / q.shape[0], dtype=dtype)
    cross, grad = soft_xent(logits.data * inv_tau, q.astype(dtype))
    grad *= tau_sq * inv_tau
    return (cross + neg_entropy) * tau_sq, grad


def kl_distillation(logits, targets, tau):
    """Mean tau^2-scaled KL(targets || softmax(logits/tau)), as one node.

    ``targets`` is a constant array (detached by construction), checked in
    float64 and cast to the logits' dtype; only the logits receive gradient.
    0*log 0 is taken as 0. A target row whose sum is not finite or misses 1
    by more than 1e-6 is refused, as is a tau whose 1/tau or tau^2 is not a
    finite, nonzero value of the logits' dtype.
    """
    return loss_node(logits, *_kl(logits, targets, tau))


def bake_loss(logits, labels, targets, tau, weight):
    """``cross_entropy + weight * kl_distillation`` as one node; returns it with the CE and KL values.

    ``weight`` is cast to the logits' dtype; the targets are checked as
    ``kl_distillation`` checks them.
    """
    z = logits.data
    kl, grad = _kl(logits, targets, tau)
    ce, ce_grad = soft_xent(z, one_hot(labels, z.shape[1], z.dtype))
    weight = np.asarray(weight, dtype=z.dtype)
    grad *= weight
    grad += ce_grad
    return loss_node(logits, ce + kl * weight, grad), float(ce), float(kl)


def label_smoothing_loss(logits, labels, epsilon):
    """Cross-entropy against (1-eps)*onehot + eps/K targets."""
    if not 0.0 <= epsilon < 1.0:
        raise ConfigError(f"epsilon must be in [0, 1), got {epsilon}")
    k = logits.shape[1]
    return soft_cross_entropy(logits, (1.0 - epsilon) * one_hot(labels, k, logits.data.dtype) + epsilon / k)
