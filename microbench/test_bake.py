"""Microbenchmarks of BAKE's per-batch work: affinity, closed-form propagation,
the soft-target cross-entropy, one bake step against one vanilla step, and
one SGD step on the parameter vector.

Run from a checkout root with ``python3 -m pytest -q microbench --benchmark-only``
(needs ``pytest-benchmark``). It is not part of the test suite, whose
``testpaths`` is ``tests``. ``test_step`` at equal batch size gives BAKE's
overhead over plain cross-entropy: the ratio of its ``bake`` and ``vanilla``
medians, at desk size and at bake_wide's. ``test_step`` runs models that
compute in float32 (the training default) and in float64, so the ratio of
their medians is what float32 saves per step. The SGD step adds a gradient
in the dtype a model computes in to a float64 velocity, and updates the
float64 parameters, as training does.
"""

import numpy as np
import pytest

from bakekit import data as dt
from bakekit import models as md
from bakekit.bake import affinity_matrix, propagate_closed_form
from bakekit.losses import kl_distillation, soft_cross_entropy
from bakekit.numerics import Tensor
from bakekit.sampling import SamplerConfig, epoch_batches
from bakekit.trainer import TrainConfig, batch_loss, sgd_step

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


DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])


@DTYPES
@pytest.mark.parametrize("method", ["vanilla", "bake"])
@pytest.mark.parametrize(
    "classes,per_class,n_hat", [(10, 200, 32), (100, 500, 128)], ids=["desk", "bake_wide"]
)
def test_step(benchmark, method, classes, per_class, n_hat, dtype):
    """``batch_loss`` + ``backward`` on one batch of 2 * n_hat examples (M=1):
    N=64, K=10 at desk size and N=256, K=100 at bake_wide's."""
    train_set, _ = dt.synth_clusters(classes, per_class, 32, 3.0, seed=0)
    ids = epoch_batches(train_set.class_index, SamplerConfig(n_hat, 1, 0), 0)[0]
    x, y = train_set.inputs[ids], train_set.labels[ids]
    descriptor = md.ModelDescriptor(32, classes)
    model = md.Model(descriptor, md.init(descriptor, seed=0).flat, dtype)
    cfg = TrainConfig(method=method)

    def step():
        loss, _, _ = batch_loss(model, x, y, cfg)
        loss.backward()
        return loss

    assert np.isfinite(benchmark(step).item())


@DTYPES
@pytest.mark.parametrize("k", [10, 100], ids=["desk", "bake_wide"])
def test_sgd_step(benchmark, k, dtype):
    """One momentum SGD step on MLP 256,128 over 32 inputs: 42,634 parameters
    at desk size (K=10), 54,244 at bake_wide's K=100; ``model.grad`` is in
    ``dtype``."""
    descriptor = md.ModelDescriptor(32, k)
    model = md.Model(descriptor, md.init(descriptor, seed=0).flat, dtype)
    model.grad[:] = np.random.default_rng(3).normal(size=model.grad.size) * 1e-3
    velocity = np.zeros_like(model.flat)
    benchmark(sgd_step, model.flat, model.grad, velocity, 0.01, 0.9, 0.0)
    assert np.isfinite(model.flat).all()
