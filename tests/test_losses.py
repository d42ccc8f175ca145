import numpy as np
import pytest

from bakekit import models as md
from bakekit.bake import BakeConfig, build_soft_targets
from bakekit.errors import ConfigError, ShapeMismatchError
from bakekit.losses import bake_loss, cross_entropy, kl_distillation, label_smoothing_loss
from bakekit.numerics import Tensor, soft_cross_entropy
from bakekit.trainer import TrainConfig, batch_loss

from test_numerics import finite_diff


def tempered_targets(logits, tau):
    """softmax(logits / tau) as the soft targets apply it: at omega=0 they are
    the tau-softened predictions themselves."""
    z = np.repeat(np.asarray(logits, dtype=np.float64), 2, axis=0)  # affinity needs a pair
    return build_soft_targets(np.ones((2, 1)), z, cfg=BakeConfig(omega=0.0, tau=tau))[:1]


class TestTemperatureProbs:
    def test_large_tau_flattens(self):
        p = tempered_targets([[3.0, -1.0, 0.5]], 1e6)
        assert np.abs(p - 1 / 3).max() < 1e-5

    def test_analytic(self):
        p = tempered_targets([[np.log(4.0), 0.0]], 1.0)
        assert np.allclose(p, [[0.8, 0.2]], atol=1e-12)

    def test_tau_scaling_equivalence(self):
        p = tempered_targets([[2 * np.log(4.0), 0.0]], 2.0)
        assert np.allclose(p, [[0.8, 0.2]], atol=1e-12)

    def test_nonpositive_tau(self):
        with pytest.raises(ConfigError):
            tempered_targets([[1.0, 2.0]], 0.0)


class TestCrossEntropy:
    def test_uniform_prediction(self):
        loss, _ = cross_entropy(np.zeros((3, 10)), np.array([0, 4, 9]))
        assert abs(loss - np.log(10)) < 1e-12

    def test_confident_correct(self):
        z = np.zeros((2, 4))
        z[0, 1] = z[1, 2] = 1e3
        assert cross_entropy(z, np.array([1, 2]))[0] < 1e-10

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(6, 5))
        y = rng.integers(0, 5, size=6)
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        expected = -np.mean([np.log(p[i, y[i]]) for i in range(6)])
        assert abs(cross_entropy(z, y)[0] - expected) < 1e-12

    def test_out_of_range_label(self):
        with pytest.raises(ShapeMismatchError, match="label"):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


class TestKlDistillation:
    def test_zero_at_equal_distributions(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(4, 5))
        q = np.exp(z / 4 - (z / 4).max(axis=1, keepdims=True))
        q /= q.sum(axis=1, keepdims=True)
        loss, grad = kl_distillation(z, q, 4.0)
        assert abs(loss) < 1e-12
        assert np.abs(grad).max() < 1e-12

    def test_analytic_kl(self):
        loss, _ = kl_distillation(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), 1.0)
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_tau_squared_scaling_vs_direct_sum(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(5, 6))
        q = rng.random((5, 6)) + 0.1
        q /= q.sum(axis=1, keepdims=True)
        tau = 4.0
        p = np.exp(z / tau - (z / tau).max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        direct = np.mean([(q[i] * (np.log(q[i]) - np.log(p[i]))).sum() for i in range(5)])
        loss, _ = kl_distillation(z, q, tau)
        assert abs(loss - 16.0 * direct) < 1e-10

    def test_nonnegative_gibbs(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            z = rng.normal(size=(4, 6))
            q = rng.random((4, 6)) + 1e-3
            q /= q.sum(axis=1, keepdims=True)
            assert kl_distillation(z, q, 2.0)[0] >= -1e-12

    def test_one_hot_target_zero_log_zero(self):
        loss, _ = kl_distillation(np.zeros((1, 3)), np.array([[0.0, 1.0, 0.0]]), 1.0)
        assert np.isfinite(loss)
        assert abs(loss - np.log(3.0)) < 1e-12

    def test_non_stochastic_target_errors(self):
        with pytest.raises(ShapeMismatchError, match="sums to"):
            kl_distillation(np.zeros((1, 2)), np.array([[0.6, 0.6]]), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_target_row_errors(self, bad):
        q = np.array([[1 / 3, 1 / 3, 1 / 3], [bad, 0.5, 0.5]])
        for loss in (lambda z: kl_distillation(z, q, 1.0), lambda z: bake_loss(z, np.array([0, 1]), q, 1.0, 1.0)):
            with pytest.raises(ShapeMismatchError, match=f"target row 1 sums to {bad}"):
                loss(np.zeros((2, 3), np.float32))

    def test_nonfinite_targets_of_diverged_logits_give_nonfinite_loss(self):
        # a diverged model's targets are NaN too; its non-finite loss is what shows it
        z, q = np.full((2, 3), np.nan, np.float32), np.full((2, 3), np.nan)
        with np.errstate(invalid="ignore"):
            assert np.isnan(kl_distillation(z, q, 1.0)[0])
            assert np.isnan(bake_loss(z, np.array([0, 1]), q, 1.0, 1.0)[0])

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_tau(self, tau):
        with pytest.raises(ConfigError, match="tau must be finite and > 0"):
            kl_distillation(np.zeros((1, 2)), np.array([[0.5, 0.5]]), tau)

    @pytest.mark.parametrize(
        "dtype,tau,refused",
        [(np.float32, 1e-300, True), (np.float32, 1e20, True), (np.float32, 1e19, False),
         (np.float64, 1e-300, True), (np.float64, 1e160, True), (np.float64, 1e20, False)],
    )
    def test_tau_range_is_the_logits_dtype(self, dtype, tau, refused):
        # 1/tau and tau^2 must be finite and nonzero where the loss computes
        z, y, q = np.zeros((1, 2), dtype), np.array([0]), np.array([[0.5, 0.5]])
        for loss in (lambda: kl_distillation(z, q, tau), lambda: bake_loss(z, y, q, tau, 1.0)):
            if refused:
                with pytest.raises(ConfigError, match=f"outside the finite, nonzero {np.dtype(dtype).name} range"):
                    loss()
            else:
                assert np.isfinite(loss()[0])


class TestBakeLoss:
    """The bake method's objective: one value and gradient pair, ``losses.bake_loss``, which ``trainer.batch_loss``
    returns."""

    def _random_batch(self, seed, n=6, k=4, d=3, dtype=np.float32):
        rng = np.random.default_rng(seed)
        descriptor = md.ModelDescriptor(d, k, hidden=(8, 5))
        model = md.Model(descriptor, md.init(descriptor, seed=seed).flat, dtype)
        return model, rng.normal(size=(n, d)), rng.integers(0, k, size=n)

    @pytest.mark.parametrize("weight", [1.0, 0.7])
    def test_one_node_equals_separate_nodes(self, weight):
        """Value and gradient of CE + weight * KL as one pair against the CE and
        KL pairs apart, bit for bit: both compute ``kl_grad * weight + ce_grad``."""
        rng = np.random.default_rng(14)
        z = rng.normal(size=(8, 5)).astype(np.float32) * 3
        y, q = rng.integers(0, 5, size=8), rng.dirichlet(np.ones(5), size=8)
        (ce, g_ce), (kl, g_kl) = cross_entropy(z, y), kl_distillation(z, q, 3.0)
        loss, grad, ce_val, kl_val = bake_loss(z, y, q, 3.0, weight)
        assert (ce_val, kl_val) == (float(ce), float(kl))
        assert loss.dtype == grad.dtype == np.float32
        w = np.float32(weight)
        assert loss == ce + kl * w
        assert np.array_equal(grad, g_ce + g_kl * w)

    def test_lambda_zero_equals_cross_entropy(self):
        model, x, y = self._random_batch(4)
        loss = batch_loss(model, x, y, TrainConfig(bake=BakeConfig(distill_weight=0.0)))[0]
        _, z = model.forward(x)
        assert loss == cross_entropy(z, y)[0]

    def test_omega_zero_equals_cross_entropy_value_and_grad(self):
        model, x, y = self._random_batch(5, dtype=np.float64)
        loss, grad, _, _ = batch_loss(model, x, y, TrainConfig(bake=BakeConfig(omega=0.0)))
        model.backward(grad)
        g_bake = {k: p.grad.copy() for k, p in model.params.items()}
        _, z = model.forward(x)
        ce, grad = cross_entropy(z, y)
        model.backward(grad)
        assert abs(loss - ce) < 1e-10
        for k, p in model.params.items():
            assert np.abs(g_bake[k] - p.grad).max() < 1e-10

    def test_matches_component_recomposition(self):
        model, x, y = self._random_batch(6, n=8, k=5)
        cfg = TrainConfig(bake=BakeConfig(omega=0.5, tau=4.0))
        total = batch_loss(model, x, y, cfg)[0]
        f, z = model.forward(x)
        q = build_soft_targets(f, z, labels=y, cfg=cfg.bake)
        expected = cross_entropy(z, y)[0] + kl_distillation(z, q, 4.0)[0]
        assert abs(total - expected) < 1e-12


class TestLabelSmoothing:
    def test_epsilon_zero_equals_cross_entropy(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(5, 4))
        y = rng.integers(0, 4, size=5)
        assert abs(label_smoothing_loss(z, y, 0.0)[0] - cross_entropy(z, y)[0]) < 1e-12

    @pytest.mark.parametrize("epsilon", [-0.1, 1.0, float("nan")])
    def test_epsilon_outside_unit_interval(self, epsilon):
        # at 1 the targets are uniform and the labels drop out; below 0 they leave the simplex
        with pytest.raises(ConfigError, match=r"epsilon must be in \[0, 1\), got"):
            label_smoothing_loss(np.zeros((2, 3)), np.array([0, 1]), epsilon)

    def test_uniform_logits_target_independent(self):
        loss, _ = label_smoothing_loss(np.zeros((4, 10)), np.arange(4), 0.1)
        assert abs(loss - np.log(10)) < 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(3, 5))
        y = rng.integers(0, 5, size=3)
        eps = 0.2
        log_p = z - z.max(axis=1, keepdims=True)
        log_p = log_p - np.log(np.exp(log_p).sum(axis=1, keepdims=True))
        t = np.full((3, 5), eps / 5)
        t[np.arange(3), y] += 1 - eps
        expected = -(t * log_p).sum() / 3
        assert abs(label_smoothing_loss(z, y, eps)[0] - expected) < 1e-12

    def test_batch_loss_reports_plain_cross_entropy(self):
        # train_ce is the unsmoothed CE; the smoothed loss is what is minimised
        rng = np.random.default_rng(11)
        model = md.init(md.ModelDescriptor(3, 4, hidden=(8, 5)), seed=11)
        x, y = rng.normal(size=(6, 3)), rng.integers(0, 4, size=6)
        cfg = TrainConfig(method="label_smoothing", smoothing_epsilon=0.2)
        loss, grad, ce_val, kl_val = batch_loss(model, x, y, cfg)
        _, z = model.forward(x)
        assert ce_val == cross_entropy(z, y)[0]
        smoothed, smoothed_grad = label_smoothing_loss(z, y, 0.2)
        assert loss == smoothed and np.array_equal(grad, smoothed_grad)
        assert ce_val != loss and kl_val == 0.0


class TestLossProperties:
    def test_soft_cross_entropy_gradient(self):
        # d/dz of -mean_i sum_k q_ik log softmax(z_i)_k is (softmax(z) - q) / n
        rng = np.random.default_rng(12)
        z_val = rng.normal(size=(5, 4))
        q = rng.random((5, 4)) + 0.1
        q /= q.sum(axis=1, keepdims=True)
        z = Tensor(z_val, requires_grad=True)
        soft_cross_entropy(z, q).backward()
        p = np.exp(z_val - z_val.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        assert np.abs(z.grad - (p - q) / 5).max() < 1e-15

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 4, size=5)
        q = rng.random((5, 4)) + 0.1
        q /= q.sum(axis=1, keepdims=True)
        cases = [
            lambda t: cross_entropy(t, y),
            lambda t: kl_distillation(t, q, 3.0),
            lambda t: label_smoothing_loss(t, y, 0.1),
            lambda t: bake_loss(t, y, q, 3.0, 0.7),
        ]
        z = rng.normal(size=(5, 4))
        for fn in cases:
            grad = fn(z)[1]
            fd = finite_diff(lambda a: float(fn(a)[0]), z)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert (np.abs(grad - fd) / denom).max() < 1e-4

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        z = rng.normal(size=(4, 6))
        y = rng.integers(0, 6, size=4)
        q = rng.random((4, 6))
        q /= q.sum(axis=1, keepdims=True)
        shift = rng.normal(size=(4, 1)) * 50
        for fn in (
            lambda t: cross_entropy(t, y),
            lambda t: kl_distillation(t, q, 2.0),
            lambda t: label_smoothing_loss(t, y, 0.1),
        ):
            a = fn(z)[0]
            b = fn(z + shift)[0]
            assert abs(a - b) < 1e-9

    def test_loss_config_validation(self):
        with pytest.raises(ConfigError):
            BakeConfig(distill_weight=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(smoothing_epsilon=1.0)
