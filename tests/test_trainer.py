import dataclasses

import numpy as np
import pytest

from bakekit import data as dt
from bakekit import models as md
from bakekit import trainer as tr
from bakekit.errors import ConfigError
from bakekit.numerics import Tensor, _toposort
from bakekit.sampling import SamplerConfig


class TestSgdStep:
    def test_plain_gradient_descent(self):
        p = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        v = np.zeros(2)
        tr.sgd_step(p, g, v, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert np.allclose(p, [0.95, 2.05], atol=1e-15)

    def test_zero_grad_zero_velocity_no_change(self):
        p = np.array([3.0])
        tr.sgd_step(p, np.zeros(1), np.zeros(1), 0.1, 0.9, 0.0)
        assert p[0] == 3.0

    def test_two_momentum_steps_unrolled(self):
        p = np.zeros(1)
        g = np.array([2.0])
        v = np.zeros(1)
        tr.sgd_step(p, g, v, lr=0.1, momentum=0.9, weight_decay=0.0)
        tr.sgd_step(p, g, v, lr=0.1, momentum=0.9, weight_decay=0.0)
        # displacement = lr * (g + 1.9 g)
        assert abs(p[0] + 0.1 * (2.0 + 1.9 * 2.0)) < 1e-12

    def test_weight_decay(self):
        p = np.array([10.0])
        v = np.zeros(1)
        tr.sgd_step(p, np.zeros(1), v, lr=0.1, momentum=0.0, weight_decay=0.01)
        assert abs(p[0] - (10.0 - 0.1 * 0.1)) < 1e-12

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_gradient_is_not_written(self, weight_decay):
        g = np.array([0.5, -2.0])
        tr.sgd_step(np.array([1.0, 3.0]), g, np.array([0.1, 0.2]), 0.1, 0.9, weight_decay)
        assert np.array_equal(g, [0.5, -2.0])

    def test_step_on_flat_vector_moves_named_params(self):
        """A float64 model's params move with ``flat``; a float32 model's
        weights catch up at its next forward."""
        descriptor = md.ModelDescriptor(4, 3, hidden=(5,))
        flat = md.init(descriptor, seed=0).flat
        before = {k: p.data.copy() for k, p in md.Model(descriptor, flat, np.float64).params.items()}
        for dtype in (np.float64, np.float32):
            model = md.Model(descriptor, flat.copy(), dtype)
            model.grad[:] = 1.0
            tr.sgd_step(model.flat, model.grad, np.zeros_like(model.flat), 0.5, 0.0, 0.0)
            if dtype == np.float32:
                model.forward(np.zeros((1, 4)))
            for k, p in model.params.items():
                assert np.array_equal(p.data, (before[k] - 0.5).astype(dtype))


class TestDtype:
    """A training step computes in the model's dtype: every tape node's data and
    gradient, the parameter leaves and so ``model.grad`` included. SGD adds
    that gradient into a float64 velocity and updates the float64 ``flat``. A
    0-d float64 constant would silently promote a float32 tape to float64."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("method", tr.METHODS)
    def test_training_step_stays_in_model_dtype(self, monkeypatch, method, dtype):
        losses, vectors = [], []
        real_loss, real_step = tr.batch_loss, tr.sgd_step

        def recording_loss(*args):
            losses.append(real_loss(*args))
            return losses[-1]

        def recording_step(p, g, v, *rest):
            vectors.append((p.dtype, g.dtype, v.dtype))
            real_step(p, g, v, *rest)

        monkeypatch.setattr(tr, "batch_loss", recording_loss)
        monkeypatch.setattr(tr, "sgd_step", recording_step)
        train_set, test_set = dt.synth_clusters(4, 20, 6, 3.0, seed=0)
        descriptor = md.ModelDescriptor(6, 4, hidden=(8, 5))
        model = md.Model(descriptor, md.init(descriptor, seed=0).flat, dtype)
        cfg = tr.TrainConfig(epochs=1, method=method, weight_decay=1e-4, sampler=SamplerConfig(8, 1, 0))
        tr.train(model, train_set, test_set, cfg)
        assert losses and len(vectors) == len(losses)
        leaves = {id(p) for p in model.params.values()}
        for loss, _, _ in losses:
            nodes = _toposort(loss)
            assert len(nodes) > 10 and leaves <= {id(node) for node in nodes}
            for node in nodes:
                assert (node.data.dtype, node.grad.dtype) == (dtype, dtype), node
        f64 = np.dtype(np.float64)
        assert set(vectors) == {(f64, np.dtype(dtype), f64)}

    @pytest.mark.parametrize("method, count", [("vanilla", 11), ("label_smoothing", 11), ("bake", 17)])
    def test_tape_nodes_per_step(self, method, count):
        """Six parameter leaves, three dense layers, one ReLU and the loss;
        bake adds its KL term and the weighted sum. No node casts."""
        descriptor = md.ModelDescriptor(6, 4, hidden=(8, 5))
        model = md.init(descriptor, seed=0)
        x = np.random.default_rng(1).normal(size=(8, 6))
        y = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        loss, _, _ = tr.batch_loss(model, x, y, tr.TrainConfig(method=method))
        assert len(_toposort(loss)) == count


class TestLrAt:
    def test_cosine_warmup_endpoint(self):
        sched = tr.CosineSchedule(warmup_epochs=5)
        assert tr.lr_at(sched, 5, 0.4, 100) == 0.4

    def test_cosine_warmup_is_linear(self):
        sched = tr.CosineSchedule(warmup_epochs=5)
        assert abs(tr.lr_at(sched, 2.5, 0.4, 100) - 0.2) < 1e-12

    def test_cosine_final_epoch_near_zero(self):
        sched = tr.CosineSchedule(warmup_epochs=5)
        assert tr.lr_at(sched, 99, 1.0, 100) <= 0.02

    def test_step_schedule_late_milestones(self):
        sched = tr.StepSchedule(milestones=(100, 150), factor=0.1)
        assert tr.lr_at(sched, 50, 0.1, 200) == 0.1
        assert abs(tr.lr_at(sched, 120, 0.1, 200) - 0.01) < 1e-15
        assert abs(tr.lr_at(sched, 180, 0.1, 200) - 0.001) < 1e-15

    def test_milestones_must_increase(self):
        with pytest.raises(ConfigError):
            tr.StepSchedule(milestones=(150, 100))


class TestEvaluate:
    def test_perfect_predictor(self):
        train, test = dt.synth_clusters(3, 20, 4, spread=1e-9, seed=0)

        class Oracle:
            def forward(self, x):
                data = x.data if isinstance(x, Tensor) else x
                logits = np.zeros((data.shape[0], 3))
                centers = np.stack(
                    [test.inputs[test.class_index[c][0]] for c in range(3)]
                ).astype(np.float64)
                d = ((data[:, None, :] - centers[None]) ** 2).sum(axis=2)
                logits = -d
                return None, Tensor(logits)

        top1, top5 = tr.evaluate(Oracle(), test)
        assert top1 == 1.0 and top5 == 1.0

    def test_constant_predictor_tie_break(self):
        train, _ = dt.synth_clusters(10, 10, 4, 1.0, seed=1)

        class Constant:
            def forward(self, x):
                n = (x.data if isinstance(x, Tensor) else x).shape[0]
                return None, Tensor(np.zeros((n, 10)))

        top1, top5 = tr.evaluate(Constant(), train)
        # ties resolve to the lowest class indices: classes 0..4 count as top-5
        assert top1 == 0.1 and top5 == 0.5

    def test_top1_le_top5(self):
        train, test = dt.synth_clusters(6, 10, 4, 2.0, seed=2)
        model = md.init(md.ModelDescriptor(4, 6, hidden=(8,)), seed=0)
        top1, top5 = tr.evaluate(model, test)
        assert top1 <= top5 <= 1.0


def small_config(method="vanilla", epochs=2, seed=0, **kwargs):
    return tr.TrainConfig(
        epochs=epochs,
        base_lr=0.05,
        method=method,
        sampler=SamplerConfig(n_hat=16, m=1, seed=seed),
        **kwargs,
    )


class TestTrain:
    def test_zero_epochs_is_a_no_op(self):
        train, test = dt.synth_clusters(3, 20, 4, 1.0, seed=0)
        model = md.init(md.ModelDescriptor(4, 3), seed=0)
        before = {k: v.data.copy() for k, v in model.params.items()}
        model, metrics = tr.train(model, train, test, small_config(epochs=0))
        assert metrics == []
        assert all(np.array_equal(before[k], model.params[k].data) for k in before)

    def test_separable_data_reaches_full_accuracy(self):
        train, test = dt.synth_clusters(4, 40, 8, spread=1e-6, seed=1)
        model = md.init(md.ModelDescriptor(8, 4, hidden=(16,)), seed=1)
        cfg = small_config(epochs=5, seed=1)
        _, metrics = tr.train(model, train, test, cfg)
        assert metrics[-1].test_top1 == 1.0

    def test_metric_stream_determinism(self):
        train, test = dt.synth_clusters(3, 30, 6, 2.0, seed=2)
        runs = []
        for _ in range(2):
            model = md.init(md.ModelDescriptor(6, 3), seed=2)
            _, metrics = tr.train(model, train, test, small_config("bake", epochs=3, seed=2))
            runs.append([(m.train_loss, m.train_ce, m.train_kl, m.test_top1) for m in metrics])
        assert runs[0] == runs[1]

    def test_loss_decomposition(self):
        train, test = dt.synth_clusters(3, 30, 6, 2.0, seed=3)
        model = md.init(md.ModelDescriptor(6, 3), seed=3)
        _, metrics = tr.train(model, train, test, small_config("bake", epochs=3, seed=3))
        for m in metrics:
            assert abs(m.train_loss - (m.train_ce + 1.0 * m.train_kl)) < 1e-6
            assert m.test_top1 <= m.test_top5
            assert m.wall_seconds >= 0.0

    def test_non_bake_methods_use_random_sampling(self):
        train, test = dt.synth_clusters(3, 30, 6, 2.0, seed=4)
        model = md.init(md.ModelDescriptor(6, 3), seed=4)
        _, metrics = tr.train(model, train, test, small_config("label_smoothing", epochs=1, seed=4))
        assert metrics[0].train_kl == 0.0

    def test_epoch_without_a_batch_raises(self):
        train, test = dt.synth_clusters(3, 3, 4, 1.0, seed=0)
        model = md.init(md.ModelDescriptor(4, 3), seed=0)
        cfg = tr.TrainConfig(epochs=1, sampler=SamplerConfig(n_hat=64))
        with pytest.raises(ConfigError, match="9 examples, fewer than n_hat=64"):
            tr.train(model, train, test, cfg)

    def test_replaced_epochs_move_the_cosine_horizon(self, monkeypatch):
        train, test = dt.synth_clusters(3, 20, 4, 1.0, seed=0)
        model = md.init(md.ModelDescriptor(4, 3), seed=0)
        cfg = small_config(epochs=2, schedule=tr.CosineSchedule(warmup_epochs=0))
        lrs = []
        monkeypatch.setattr(tr, "sgd_step", lambda p, g, v, lr, momentum, weight_decay: lrs.append(lr))
        tr.train(model, train, test, dataclasses.replace(cfg, epochs=4))
        assert lrs[0] == 0.05 and lrs[-1] > 0.0
        assert all(a > b for a, b in zip(lrs, lrs[1:]))  # one decay over all 4 epochs, no restart

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            tr.TrainConfig(base_lr=0.0)
        for base_lr in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="base_lr must be finite and > 0"):
                tr.TrainConfig(base_lr=base_lr)
        with pytest.raises(ConfigError):
            tr.TrainConfig(method="magic")
        with pytest.raises(ConfigError, match="epochs must be >= 0, got -1"):
            tr.TrainConfig(epochs=-1)
        with pytest.raises(ConfigError, match=r"bake needs a batch of at least 2, got n_hat \* \(m \+ 1\) = 1"):
            tr.TrainConfig(sampler=SamplerConfig(n_hat=1, m=0))
        assert tr.TrainConfig(method="vanilla", sampler=SamplerConfig(n_hat=1, m=0)).sampler.batch_size == 1
        for momentum in (-1.0, 1.0, float("nan")):
            with pytest.raises(ConfigError, match=r"momentum must be in \[0, 1\)"):
                tr.TrainConfig(momentum=momentum)
        for weight_decay in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="weight_decay must be finite and >= 0"):
                tr.TrainConfig(weight_decay=weight_decay)
        for factor in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="factor must be finite and > 0"):
                tr.StepSchedule(milestones=(1,), factor=factor)
        with pytest.raises(ConfigError, match="warmup_epochs must be >= 0, got -2"):
            tr.CosineSchedule(warmup_epochs=-2)
