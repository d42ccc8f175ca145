"""Batch knowledge ensembling: refined soft targets from in-batch affinities.

All functions here operate on plain float64 arrays and are deliberately
outside the autodiff graph: soft targets never carry gradient. Tensors are
accepted anywhere an array is (their data is read, never their tape).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Imported by name, not wrapped: perfbench's tracer hooks bakekit.bake.linear_solve.
from numpy.linalg import solve as linear_solve

from .errors import ConfigError, DegenerateBatchError, ShapeMismatchError
from .numerics import softmax_data

PROPAGATION_MODES = ("closed_form", "iterate")
KNOWLEDGE_SOURCES = ("predictions", "ground_truth_onehot")


@dataclass(frozen=True)
class BakeConfig:
    """Knobs for soft-target construction.

    omega: mixing weight between a sample's own prediction and propagated
    in-batch knowledge. tau: the one temperature, shared by the softened
    predictions propagated here and the KL term of the loss.
    propagation_mode: closed_form (infinite-iteration limit) or iterate
    (``iterations`` rounds). knowledge_source: propagate model predictions
    or one-hot ground-truth labels.
    """

    omega: float = 0.5
    tau: float = 4.0
    propagation_mode: str = "closed_form"
    iterations: int = 1
    knowledge_source: str = "predictions"

    def __post_init__(self):
        if not 0.0 <= self.omega <= 1.0:
            raise ConfigError(f"omega must be in [0,1], got {self.omega}")
        if self.tau <= 0.0:
            raise ConfigError(f"tau must be > 0, got {self.tau}")
        if self.propagation_mode not in PROPAGATION_MODES:
            raise ConfigError(
                f"propagation_mode must be one of {PROPAGATION_MODES}, got {self.propagation_mode!r}"
            )
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.knowledge_source not in KNOWLEDGE_SOURCES:
            raise ConfigError(
                f"knowledge_source must be one of {KNOWLEDGE_SOURCES}, got {self.knowledge_source!r}"
            )


def _as_data(x):
    return np.asarray(getattr(x, "data", x), dtype=np.float64)


def affinity_matrix(features):
    """Row-stochastic, zero-diagonal affinity matrix from batch features.

    Rows are l2-normalized, pairwise dot products are softmax-normalized
    per row; the diagonal is set to -inf, so it gets exactly 0 and stays out
    of the denominator.
    """
    f = _as_data(features)
    n = f.shape[0]
    if n < 2:
        raise DegenerateBatchError(
            f"affinity requires a batch of at least 2 samples, got {n}"
        )
    norms = np.sqrt((f * f).sum(axis=1))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ShapeMismatchError(f"zero feature row at index {zero[0]}")
    fn = f / norms[:, None]
    sims = fn @ fn.T
    np.fill_diagonal(sims, -np.inf)
    return softmax_data(sims)


def propagate_iterative(a, p, omega, t):
    """t rounds of Q <- omega*A@Q + (1-omega)*P, starting from Q = P."""
    if t < 1:
        raise ConfigError(f"iteration count must be >= 1, got {t}")
    a, p = _as_data(a), _as_data(p)
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
    a, p = _as_data(a), _as_data(p)
    n = a.shape[0]
    return (1.0 - omega) * linear_solve(np.eye(n) - omega * a, p)


def one_hot(labels, k):
    labels = np.asarray(labels)
    out = np.zeros((labels.shape[0], k), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def build_soft_targets(features, logits, labels=None, cfg=BakeConfig()):
    """Refined soft targets for one batch; always detached from gradients."""
    logits = _as_data(logits)
    if cfg.knowledge_source == "ground_truth_onehot":
        if labels is None:
            raise ConfigError("knowledge_source=ground_truth_onehot requires labels")
        p = one_hot(labels, logits.shape[1])
    else:
        p = softmax_data(logits / cfg.tau)
    a = affinity_matrix(features)
    if cfg.propagation_mode == "closed_form":
        return propagate_closed_form(a, p, cfg.omega)
    return propagate_iterative(a, p, cfg.omega, cfg.iterations)
