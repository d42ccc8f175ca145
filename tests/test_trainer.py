import dataclasses
import tracemalloc

import numpy as np
import pytest

from bakekit import data as dt
from bakekit import models as md
from bakekit import numerics as nm
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
        """A model's params move with ``flat``, in float64 and float32 alike."""
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
    that gradient into a velocity of that dtype and updates ``flat``, also of
    that dtype. A 0-d float64 constant would silently promote a float32 tape to
    float64."""

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
        assert set(vectors) == {(np.dtype(dtype),) * 3}

    @pytest.mark.parametrize("method, count", [("vanilla", 11), ("label_smoothing", 11), ("bake", 11)])
    def test_tape_nodes_per_step(self, method, count):
        """Six parameter leaves, three dense layers, one ReLU and the loss.
        Bake's CE + lambda * KL is one node too, so its KL term and weighted
        sum add none. No node casts."""
        descriptor = md.ModelDescriptor(6, 4, hidden=(8, 5))
        model = md.init(descriptor, seed=0)
        x = np.random.default_rng(1).normal(size=(8, 6))
        y = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        loss, _, _ = tr.batch_loss(model, x, y, tr.TrainConfig(method=method))
        assert len(_toposort(loss)) == count


class TestLrAt:
    def test_cosine_warmup_endpoint(self):
        assert tr.lr_at(5, 5, 0.4, 100) == 0.4

    def test_cosine_warmup_is_linear(self):
        assert abs(tr.lr_at(5, 2.5, 0.4, 100) - 0.2) < 1e-12

    def test_cosine_final_epoch_near_zero(self):
        assert tr.lr_at(5, 99, 1.0, 100) <= 0.02


def traced_peak(call):
    """The peak bytes that numpy and Python allocate during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    def test_empty_dataset_errors(self):
        model = md.init(md.ModelDescriptor(4, 3, hidden=(8,)), seed=0)
        with pytest.raises(ConfigError, match="evaluate requires a nonempty dataset"):
            tr.evaluate(model, dt.Dataset(np.zeros((0, 4)), np.zeros(0, np.int64), 3))

    @pytest.mark.parametrize("conv", [False, True], ids=["mlp", "conv"])
    def test_batch_size_does_not_change_the_accuracies(self, monkeypatch, conv):
        # 150 examples: one batch at 512, a short last batch at 7 and at 64
        shape, k = (3, 12, 12), 10
        rng = np.random.default_rng(5)
        test = dt.Dataset(rng.normal(size=(150, 432)), rng.integers(0, k, size=150), k, image_shape=shape)
        stem = md.ConvStem(*shape) if conv else None
        model = md.init(md.ModelDescriptor(432, k, hidden=(32,), conv_stem=stem), seed=0)
        results = set()
        for batch in (1, 7, 64, 512):
            monkeypatch.setattr(tr, "EVAL_BATCH", batch)
            results.add(tr.evaluate(model, test))
        assert len(results) == 1
        (top1, top5), = results
        assert 0 < top1 < top5 < 1

    def test_conv_evaluation_peaks_no_higher_than_a_training_step(self):
        # evaluation forwards EVAL_BATCH examples at a time, as many as a default bake step trains on
        shape, k = (3, 16, 16), 10
        rng = np.random.default_rng(6)
        test = dt.Dataset(rng.normal(size=(512, 768)), rng.integers(0, k, size=512), k, image_shape=shape)
        model = md.init(md.ModelDescriptor(768, k, conv_stem=md.ConvStem(*shape)), seed=0)
        cfg = tr.TrainConfig(method="bake")
        x, y = test.inputs[: cfg.sampler.batch_size], test.labels[: cfg.sampler.batch_size]
        step = traced_peak(lambda: tr.batch_loss(model, x, y, cfg)[0].backward())
        evaluation = traced_peak(lambda: tr.evaluate(model, test))
        assert evaluation <= 1.5 * step, evaluation / step

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("base_lr, diverges", [(0.05, False), (1e30, True)])
    def test_nonfinite_steps_are_counted_and_stepped_through(self, monkeypatch, base_lr, diverges):
        train, test = dt.synth_clusters(3, 30, 6, 2.0, seed=5)
        model = md.init(md.ModelDescriptor(6, 3), seed=5)
        losses, real_loss = [], tr.batch_loss
        monkeypatch.setattr(tr, "batch_loss", lambda *args: losses.append(real_loss(*args)) or losses[-1])
        _, metrics = tr.train(model, train, test, dataclasses.replace(small_config(epochs=3), base_lr=base_lr))
        steps = len(losses) // len(metrics)
        finite = [np.isfinite(loss.item()) for loss, _, _ in losses]
        per_epoch = [steps - sum(finite[e * steps : (e + 1) * steps]) for e in range(3)]
        assert [m.nonfinite_steps for m in metrics] == per_epoch
        assert any(m.nonfinite_steps for m in metrics) == diverges
        assert len(losses) == 3 * steps  # every step ran, after a non-finite one too

    def test_epoch_without_a_batch_raises(self):
        train, test = dt.synth_clusters(3, 3, 4, 1.0, seed=0)
        model = md.init(md.ModelDescriptor(4, 3), seed=0)
        cfg = tr.TrainConfig(epochs=1, sampler=SamplerConfig(n_hat=64))
        with pytest.raises(ConfigError, match="9 examples, fewer than n_hat=64"):
            tr.train(model, train, test, cfg)

    def test_replaced_epochs_move_the_cosine_horizon(self, monkeypatch):
        train, test = dt.synth_clusters(3, 20, 4, 1.0, seed=0)
        model = md.init(md.ModelDescriptor(4, 3), seed=0)
        cfg = small_config(epochs=2, warmup_epochs=0)
        lrs = []
        monkeypatch.setattr(tr, "sgd_step", lambda p, g, v, lr, momentum, weight_decay: lrs.append(lr))
        tr.train(model, train, test, dataclasses.replace(cfg, epochs=4))
        assert lrs[0] == 0.05 and lrs[-1] > 0.0
        assert all(a > b for a, b in zip(lrs, lrs[1:]))  # one decay over all 4 epochs, no restart

    @pytest.mark.parametrize("outer", [1, 2])
    def test_steps_on_one_blas_thread_and_solves_at_the_count_it_found(self, monkeypatch, outer):
        if nm._openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS")
        get = nm._openblas()[0]
        train, test = dt.synth_clusters(3, 20, 4, 1.0, seed=0)
        model = md.init(md.ModelDescriptor(4, 3), seed=0)
        counts = {"step": set(), "targets": set()}
        real_step, real_targets = tr.sgd_step, tr.build_soft_targets
        monkeypatch.setattr(tr, "sgd_step", lambda *a: counts["step"].add(get()) or real_step(*a))
        monkeypatch.setattr(
            tr, "build_soft_targets", lambda *a, **k: counts["targets"].add(get()) or real_targets(*a, **k)
        )
        with nm.blas_threads(outer):
            tr.train(model, train, test, small_config("bake", epochs=1))
            assert get() == outer
        assert counts == {"step": {1}, "targets": {outer}}

    @pytest.mark.parametrize("method", ["vanilla", "bake"])
    def test_trains_alike_without_openblas(self, monkeypatch, method):
        train, test = dt.synth_clusters(3, 20, 4, 1.0, seed=0)
        runs = []
        for lookup in (nm._openblas, lambda: None):
            monkeypatch.setattr(nm, "_openblas", lookup)
            model = md.init(md.ModelDescriptor(4, 3, hidden=(8,)), seed=0)
            _, metrics = tr.train(model, train, test, small_config(method, epochs=2))
            runs.append([dataclasses.replace(m, wall_seconds=0.0) for m in metrics])
        assert runs[0] == runs[1]

    def test_bake_trains_byte_identically_on_one_or_two_outer_threads(self):
        if nm._openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS")
        train, test = dt.synth_clusters(4, 40, 8, 2.0, seed=6)
        runs = []
        for outer in (1, 2):
            model = md.init(md.ModelDescriptor(8, 4, hidden=(16,)), seed=6)
            with nm.blas_threads(outer):
                _, metrics = tr.train(model, train, test, small_config("bake", epochs=2, seed=6))
            values = [dataclasses.replace(m, wall_seconds=0.0) for m in metrics]
            runs.append((np.array([list(dataclasses.astuple(m)) for m in values]).tobytes(), model.flat.tobytes()))
        assert runs[0] == runs[1]

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
        with pytest.raises(ConfigError, match="warmup_epochs must be >= 0, got -2"):
            tr.TrainConfig(warmup_epochs=-2)
