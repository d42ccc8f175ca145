"""Mini-batch construction: per-class companion sampling and plain shuffles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SamplerConfig:
    """n_hat anchors per batch, m same-class companions per anchor.

    Emitted batch size is n_hat * (m + 1). m = 0 degenerates to plain
    seeded random batching.
    """

    n_hat: int = 32
    m: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_hat < 1:
            raise ConfigError(f"n_hat must be >= 1, got {self.n_hat}")
        if self.m < 0:
            raise ConfigError(f"m must be >= 0, got {self.m}")
        if not 0 <= self.seed < 2**64:  # epoch_batches mixes it into a uint64
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")

    @property
    def batch_size(self):
        return self.n_hat * (self.m + 1)


def batch_count(examples, n_hat):
    """The full batches of n_hat anchors that ``examples`` examples fill; none is a ConfigError."""
    if examples < n_hat:
        raise ConfigError(f"dataset too small for one batch: {examples} examples, fewer than n_hat={n_hat}")
    return examples // n_hat


def epoch_batches(class_index, cfg, epoch):
    """One epoch's batches, deterministic in (cfg, epoch): an int64 array of
    example ids with one row of n_hat * (m + 1) per batch.

    Anchors are a fresh shuffle of the whole dataset; each anchor is
    followed by m companions drawn from its class, anchor excluded. When
    the class has >= m + 1 examples the companions are distinct; when it
    is too small they are drawn with replacement, and a class of one gives
    the anchor itself. The trailing group of fewer than n_hat anchors is
    dropped; fewer than n_hat examples in all is a ConfigError. Example ids
    are assumed unique across classes.

    The draws are array-wide: one shuffle, then one ``integers`` call per
    companion slot with a bound per anchor (Floyd's algorithm run across
    all anchors at once), so an epoch costs O(examples * m) array work.
    """
    if not class_index or any(len(v) == 0 for v in class_index.values()):
        raise ConfigError("class_index must be nonempty with nonempty classes")
    members = np.concatenate(list(class_index.values()), dtype=np.int64)
    n_batches = batch_count(len(members), cfg.n_hat)
    rng = np.random.default_rng(np.uint64(cfg.seed) ^ np.uint64(epoch))
    sizes = np.array([len(ids) for ids in class_index.values()])
    class_start = np.repeat(np.cumsum(sizes) - sizes, sizes)
    perm = np.arange(len(members))
    rng.shuffle(perm)
    # One row per anchor, as a column of positions in ``members``.
    rows = np.argsort(members, kind="stable")[perm[: n_batches * cfg.n_hat], None]
    start = class_start[rows]
    pool = np.repeat(sizes, sizes)[rows] - 1  # the class without the anchor
    distinct = pool >= cfg.m
    picks = np.zeros((len(rows), cfg.m), dtype=np.int64)
    for k in range(cfg.m):
        # Floyd: draw from [0, pool-m+k]; a value already picked becomes pool-m+k.
        high = np.where(distinct, pool - cfg.m + k + 1, np.maximum(pool, 1))
        draw = rng.integers(0, high)
        taken = distinct & (picks[:, :k] == draw).any(axis=1, keepdims=True)
        picks[:, k : k + 1] = np.where(taken, high - 1, draw)
    # Pool slot j skips the anchor at its class position; a class of one yields the anchor.
    slots = np.where(pool == 0, rows, start + picks + (picks >= rows - start))
    return members[np.concatenate([rows, slots], axis=1)].reshape(n_batches, cfg.batch_size)
