"""Batch knowledge ensembling: refined soft targets from in-batch affinities.

All functions here operate on plain float64 arrays and are deliberately
outside the autodiff graph: soft targets never carry gradient. Only
``build_soft_targets`` takes the model's output tensors: it reads their data,
never their tape, and upcasts features and logits to float64 once, so targets
are float64 whatever a model computes in. ``one_hot`` checks its labels, so
every loss and knowledge source that turns labels into targets refuses a label
outside [0, K) alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Imported by name, not wrapped: perfbench's tracer hooks bakekit.bake.linear_solve.
from numpy.linalg import solve as linear_solve

from .errors import ConfigError, DegenerateBatchError, ShapeMismatchError
from .numerics import Tensor

PROPAGATION_MODES = ("closed_form", "iterate")
KNOWLEDGE_SOURCES = ("pred", "onehot")


@dataclass(frozen=True)
class BakeConfig:
    """Knobs for soft-target construction and the distillation term.

    omega: mixing weight between a sample's own prediction and propagated
    in-batch knowledge. tau: the one temperature, shared by the softened
    predictions propagated here and the KL term of the loss.
    distill_weight: lambda, the weight of that KL term in bake's loss.
    propagation_mode: closed_form (infinite-iteration limit, omega < 1) or
    iterate (``iterations`` rounds). knowledge_source: propagate model
    predictions (``pred``) or one-hot ground-truth labels (``onehot``).
    """

    omega: float = 0.5
    tau: float = 4.0
    distill_weight: float = 1.0
    propagation_mode: str = "closed_form"
    iterations: int = 1
    knowledge_source: str = "pred"

    def __post_init__(self):
        if not 0.0 <= self.omega <= 1.0:
            raise ConfigError(f"omega must be in [0,1], got {self.omega}")
        if not 0.0 < self.tau < math.inf:
            raise ConfigError(f"tau must be finite and > 0, got {self.tau}")
        if not 0.0 <= self.distill_weight < math.inf:
            raise ConfigError(f"distill_weight must be finite and >= 0, got {self.distill_weight}")
        if self.propagation_mode not in PROPAGATION_MODES:
            raise ConfigError(
                f"propagation_mode must be one of {PROPAGATION_MODES}, got {self.propagation_mode!r}"
            )
        if self.propagation_mode == "closed_form" and self.omega >= 1.0:
            raise ConfigError(
                f"closed-form propagation requires omega < 1 (got {self.omega}); "
                "use iterate mode for omega = 1"
            )
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.knowledge_source not in KNOWLEDGE_SOURCES:
            raise ConfigError(
                f"knowledge_source must be one of {KNOWLEDGE_SOURCES}, got {self.knowledge_source!r}"
            )


def _softmax_rows(x):
    """Row softmax of ``x`` as float64 (``-inf`` gives exactly 0), in place when ``x`` is float64.
    Only for arrays made here, so no caller's input is written."""
    x = np.asarray(x, np.float64)
    x -= x.max(axis=1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=1, keepdims=True)
    return x


def affinity_matrix(features):
    """Row-stochastic, zero-diagonal affinity matrix from batch features.

    Rows are l2-normalized, pairwise dot products are softmax-normalized
    per row; the diagonal is set to -inf, so it gets exactly 0 and stays out
    of the denominator.
    """
    n = features.shape[0]
    if n < 2:
        raise DegenerateBatchError(
            f"affinity requires a batch of at least 2 samples, got {n}"
        )
    norms = np.sqrt((features * features).sum(axis=1))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ShapeMismatchError(f"zero feature row at index {zero[0]}")
    fn = features / norms[:, None]
    sims = fn @ fn.T
    np.fill_diagonal(sims, -np.inf)
    return _softmax_rows(sims)


def propagate_iterative(a, p, omega, t):
    """t rounds of Q <- omega*A@Q + (1-omega)*P, starting from Q = P."""
    if t < 1:
        raise ConfigError(f"iteration count must be >= 1, got {t}")
    q = p
    for _ in range(t):
        q = omega * (a @ q) + (1.0 - omega) * p
    return q


def propagate_closed_form(a, p, omega):
    """Infinite-iteration limit: (1-omega) * solve(I - omega*A, P).

    Requires omega < 1 strictly; at omega = 1 the limit degenerates and
    iterate mode is the supported configuration. For omega < 1 the rows of
    omega*A sum to omega, so I - omega*A is strictly diagonally dominant and
    never singular.
    """
    if omega >= 1.0:
        raise ConfigError(
            f"closed-form propagation requires omega < 1 (got {omega}); "
            "use iterate mode for omega = 1"
        )
    system = a * -omega
    system.flat[:: a.shape[0] + 1] += 1.0  # I - omega*A
    return (1.0 - omega) * linear_solve(system, p)


def one_hot(labels, k):
    """Rows of the K-class identity; a label outside [0, K) is refused."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise ShapeMismatchError(f"label {bad} outside [0, {k})")
    out = np.zeros((labels.shape[0], k), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def build_soft_targets(features, logits, labels=None, cfg=BakeConfig()):
    """Refined soft targets for one batch; always detached from gradients.

    ``features`` and ``logits`` are arrays or tensors; either way only their
    data is read, as float64.
    """
    features, logits = (np.asarray(x.data if isinstance(x, Tensor) else x, np.float64) for x in (features, logits))
    if cfg.knowledge_source == "onehot":
        if labels is None:
            raise ConfigError("knowledge_source=onehot requires labels")
        p = one_hot(labels, logits.shape[1])
    else:
        p = _softmax_rows(logits / cfg.tau)
    a = affinity_matrix(features)
    if cfg.propagation_mode == "closed_form":
        return propagate_closed_form(a, p, cfg.omega)
    return propagate_iterative(a, p, cfg.omega, cfg.iterations)
