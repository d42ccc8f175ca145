"""Microbenchmarks of BAKE's per-batch work: affinity, closed-form propagation,
the soft-target cross-entropy, and one bake step against one vanilla step.

Run from a checkout root with ``python3 -m pytest -q microbench --benchmark-only``
(needs ``pytest-benchmark``). It is not part of the test suite, whose
``testpaths`` is ``tests``. ``test_step`` at equal batch size gives BAKE's
overhead over plain cross-entropy: the ratio of its ``bake`` and ``vanilla``
medians.
"""

import numpy as np
import pytest

from bakekit import data as dt
from bakekit import models as md
from bakekit.bake import affinity_matrix, propagate_closed_form
from bakekit.losses import kl_distillation, soft_cross_entropy
from bakekit.numerics import Tensor
from bakekit.sampling import SamplerConfig, epoch_batches
from bakekit.trainer import TrainConfig, batch_loss

SIZES = [64, 256, 1024]


@pytest.mark.parametrize("n", SIZES)
def test_affinity_matrix(benchmark, n):
    features = np.random.default_rng(0).normal(size=(n, 128))
    a = benchmark(affinity_matrix, features)
    assert np.allclose(a.sum(axis=1), 1.0) and not a.diagonal().any()


@pytest.mark.parametrize("n", SIZES)
def test_propagate_closed_form(benchmark, n):
    rng = np.random.default_rng(1)
    a = affinity_matrix(rng.normal(size=(n, 128)))
    p = rng.dirichlet(np.ones(100), size=n)  # CIFAR-100's class count
    q = benchmark(propagate_closed_form, a, p, 0.5)
    assert np.allclose(q.sum(axis=1), 1.0)


@pytest.mark.parametrize("n,k", [(64, 10), (256, 100)])
def test_soft_cross_entropy(benchmark, n, k):
    """Forward and backward of a bake step's two soft-target terms: the CE and the KL."""
    rng = np.random.default_rng(2)
    z = Tensor(rng.normal(size=(n, k)), requires_grad=True)
    onehot = np.eye(k)[rng.integers(0, k, size=n)]
    q = rng.dirichlet(np.ones(k), size=n)

    def step():
        loss = soft_cross_entropy(z, onehot) + kl_distillation(z, q, 4.0)
        loss.backward()
        return loss

    assert np.isfinite(benchmark(step).item())


@pytest.mark.parametrize("method", ["vanilla", "bake"])
def test_step(benchmark, method):
    """``batch_loss`` + ``backward`` on one desk-scale batch of N=64 (32 anchors, M=1)."""
    train_set, _ = dt.synth_clusters(10, 200, 32, 3.0, seed=0)
    ids = np.asarray(epoch_batches(train_set.class_index, SamplerConfig(32, 1, 0), 0)[0])
    x, y = train_set.inputs[ids].astype(np.float64), train_set.labels[ids]
    model = md.init(md.ModelDescriptor(32, 10), seed=0)
    cfg = TrainConfig(method=method)

    def step():
        loss, _, _ = batch_loss(model, x, y, cfg)
        loss.backward()
        return loss

    assert np.isfinite(benchmark(step).item())
