import numpy as np
import pytest

from bakekit.bake import (
    BakeConfig,
    _softmax_rows,
    affinity_matrix,
    build_soft_targets,
    one_hot,
    propagate_closed_form,
    propagate_iterative,
    temperature_factors,
)
from bakekit.errors import ConfigError, DegenerateBatchError, ShapeMismatchError


def random_prob_rows(rng, n, k):
    p = rng.random((n, k)) + 1e-3
    return p / p.sum(axis=1, keepdims=True)


class TestSoftmaxRows:
    """``_softmax_rows``, the row softmax of affinities and softened predictions."""

    def test_uniform_on_equal_logits(self):
        out = _softmax_rows(np.zeros((1, 3)))
        assert np.allclose(out, [[1 / 3] * 3], atol=1e-12)

    def test_analytic_exponentials(self):
        out = _softmax_rows(np.array([[np.log(2.0), 0.0]]))
        assert np.allclose(out, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_mask_removes_entry(self):
        out = _softmax_rows(np.array([[-np.inf, 1.0, 1.0]]))
        assert out[0, 0] == 0.0
        assert np.allclose(out, [[0.0, 0.5, 0.5]], atol=1e-12)

    def test_rows_sum_to_one_with_overflow_safety(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 9)) * 500  # would overflow a naive exp
        out = _softmax_rows(x)
        assert np.isfinite(out).all()
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9


class TestAffinityMatrix:
    def test_n2_is_exact_swap(self):
        rng = np.random.default_rng(0)
        a = affinity_matrix(rng.normal(size=(2, 7)))
        assert np.array_equal(a, [[0.0, 1.0], [1.0, 0.0]])

    def test_identical_features_give_half(self):
        f = np.tile([[1.0, 2.0, 3.0]], (3, 1))
        a = affinity_matrix(f)
        off = a[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5, atol=1e-12)
        assert np.all(np.diag(a) == 0.0)

    def test_matches_per_entry_formula(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(4, 6))
        fn = f / np.linalg.norm(f, axis=1, keepdims=True)
        sims = fn @ fn.T
        a = affinity_matrix(f)
        for i in range(4):
            denom = sum(np.exp(sims[i, j]) for j in range(4) if j != i)
            for j in range(4):
                expected = 0.0 if i == j else np.exp(sims[i, j]) / denom
                assert abs(a[i, j] - expected) < 1e-12
        assert np.abs(a.sum(axis=1) - 1.0).max() < 1e-9

    def test_batch_of_one_rejected(self):
        with pytest.raises(DegenerateBatchError):
            affinity_matrix(np.ones((1, 5)))

    def test_zero_row_reports_index(self):
        x = np.ones((4, 3))
        x[2] = 0.0
        with pytest.raises(ShapeMismatchError, match="index 2"):
            affinity_matrix(x)

    def test_per_row_rescaling_invariance(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(5, 4))
        scales = rng.uniform(0.1, 10.0, size=5)
        assert np.abs(affinity_matrix(f * scales[:, None]) - affinity_matrix(f)).max() < 1e-10


class TestPropagation:
    def test_one_step_omega_zero_is_identity(self):
        rng = np.random.default_rng(4)
        a = affinity_matrix(rng.normal(size=(5, 3)))
        p = random_prob_rows(rng, 5, 4)
        assert np.array_equal(propagate_iterative(a, p, 0.0, 1), p)

    def test_one_step_pure_swap(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = np.eye(2)
        assert np.array_equal(propagate_iterative(a, p, 1.0, 1), [[0, 1], [1, 0]])

    def test_one_step_half_mix(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        q = propagate_iterative(a, np.eye(2), 0.5, 1)
        assert np.allclose(q, 0.5, atol=1e-15)

    def test_iterative_t1_equals_one_step(self):
        rng = np.random.default_rng(5)
        a = affinity_matrix(rng.normal(size=(6, 3)))
        p = random_prob_rows(rng, 6, 5)
        assert np.array_equal(
            propagate_iterative(a, p, 0.3, 1), 0.3 * (a @ p) + (1.0 - 0.3) * p
        )

    def test_iterative_omega_zero_fixed_point(self):
        rng = np.random.default_rng(6)
        a = affinity_matrix(rng.normal(size=(4, 3)))
        p = random_prob_rows(rng, 4, 3)
        assert np.array_equal(propagate_iterative(a, p, 0.0, 7), p)

    @pytest.mark.parametrize("t", [0, -1])
    def test_iterative_needs_one_round(self, t):
        # zero rounds would hand back P itself, which ignores omega and the batch
        with pytest.raises(ConfigError, match=f"iteration count must be >= 1, got {t}"):
            propagate_iterative(np.eye(2), np.eye(2), 0.5, t)

    def test_iterative_2x2_geometric_limit(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        q = propagate_iterative(a, np.eye(2), 0.5, 50)
        assert np.abs(q - [[2 / 3, 1 / 3], [1 / 3, 2 / 3]]).max() < 1e-8

    def test_closed_form_omega_zero(self):
        rng = np.random.default_rng(7)
        a = affinity_matrix(rng.normal(size=(4, 3)))
        p = random_prob_rows(rng, 4, 3)
        assert np.abs(propagate_closed_form(a, p, 0.0) - p).max() < 1e-14

    def test_closed_form_hand_2x2(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        q = propagate_closed_form(a, np.eye(2), 0.5)
        assert np.abs(q - [[2 / 3, 1 / 3], [1 / 3, 2 / 3]]).max() < 1e-12

    def test_closed_form_matches_iterative_oracle(self):
        rng = np.random.default_rng(8)
        a = affinity_matrix(rng.normal(size=(32, 10)))
        p = random_prob_rows(rng, 32, 7)
        q_inf = propagate_closed_form(a, p, 0.5)
        q_it = propagate_iterative(a, p, 0.5, 200)
        assert np.abs(q_inf - q_it).max() < 1e-8

    def test_closed_form_solves_its_system(self):
        # (I - omega*A) Q = (1 - omega) P to rounding, with omega up to 0.99
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 65))
            omega = float(rng.uniform(0.0, 0.99))
            a = affinity_matrix(rng.normal(size=(n, 5)))
            p = random_prob_rows(rng, n, 3)
            q = propagate_closed_form(a, p, omega)
            assert np.abs(q - omega * (a @ q) - (1.0 - omega) * p).max() <= 1e-12

    def test_closed_form_ignores_memory_order(self):
        # the diagonal of I - omega*A is found by index, not through a view that only C order gives
        rng = np.random.default_rng(5)
        a = affinity_matrix(rng.normal(size=(9, 4)))
        p = random_prob_rows(rng, 9, 3)
        q = propagate_closed_form(a, p, 0.7)
        assert np.array_equal(propagate_closed_form(np.asfortranarray(a), p, 0.7), q)
        assert np.array_equal(propagate_closed_form(a, np.asfortranarray(p), 0.7), q)

    def test_closed_form_rejects_omega_one(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ConfigError, match="iterate mode"):
            propagate_closed_form(a, np.eye(2), 1.0)

    def test_geometric_contraction(self):
        rng = np.random.default_rng(9)
        a = affinity_matrix(rng.normal(size=(12, 6)))
        p = random_prob_rows(rng, 12, 4)
        for omega in (0.2, 0.5, 0.9):
            q_inf = propagate_closed_form(a, p, omega)
            for t in (1, 3, 10):
                diff = np.abs(propagate_iterative(a, p, omega, t) - q_inf).max()
                assert diff <= omega**t + 1e-10

    def test_row_stochastic_without_renormalization(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            n, k = int(rng.integers(2, 20)), int(rng.integers(2, 9))
            a = affinity_matrix(rng.normal(size=(n, 5)))
            p = random_prob_rows(rng, n, k)
            for q in (
                propagate_iterative(a, p, 0.7, 1),
                propagate_iterative(a, p, 0.7, 5),
                propagate_closed_form(a, p, 0.7),
            ):
                assert np.abs(q.sum(axis=1) - 1.0).max() < 1e-8
                assert q.min() >= -1e-12 and q.max() <= 1.0 + 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        f = rng.normal(size=(8, 5))
        logits = rng.normal(size=(8, 6))
        cfg = BakeConfig(omega=0.5, tau=4.0)
        q = build_soft_targets(f, logits, cfg=cfg)
        perm = rng.permutation(8)
        q_perm = build_soft_targets(f[perm], logits[perm], cfg=cfg)
        assert np.abs(q_perm - q[perm]).max() < 1e-12


def read_only(x):
    """A view of ``x`` that raises on any write."""
    view = x.view()
    view.flags.writeable = False
    return view


@pytest.mark.parametrize("wrap", [np.asarray, read_only], ids=["array", "read-only"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_target_path_never_writes_its_inputs(dtype, wrap):
    # a float64 array reaches the row softmax uncopied, so only this guards the in-place helper
    rng = np.random.default_rng(14)
    features, logits = rng.normal(size=(6, 4)).astype(dtype), rng.normal(size=(6, 5)).astype(dtype)
    a, p = affinity_matrix(features.astype(np.float64)).astype(dtype), random_prob_rows(rng, 6, 5).astype(dtype)
    inputs = (features, logits, a, p)
    before = [x.copy() for x in inputs]
    affinity_matrix(features)
    propagate_closed_form(a, p, 0.5)
    for mode, source in (("closed_form", "pred"), ("iterate", "pred"), ("closed_form", "onehot")):
        cfg = BakeConfig(propagation_mode=mode, iterations=2, knowledge_source=source)
        build_soft_targets(wrap(features), wrap(logits), labels=np.arange(6) % 5, cfg=cfg)
    for x, old in zip(inputs, before):
        assert x.dtype == dtype and x.tobytes() == old.tobytes()


class TestBuildSoftTargets:
    def test_hand_worked_closed_form(self):
        # softmax([4 ln 3, 0] / 4) = [0.75, 0.25]; 2x2 solve gives 7/12, 5/12
        z = np.array([[4 * np.log(3.0), 0.0], [0.0, 4 * np.log(3.0)]])
        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        q = build_soft_targets(f, z, cfg=BakeConfig(omega=0.5, tau=4.0))
        assert np.abs(q - [[7 / 12, 5 / 12], [5 / 12, 7 / 12]]).max() < 1e-12

    def test_omega_zero_returns_own_prediction(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(5, 4))
        f = rng.normal(size=(5, 3))
        q = build_soft_targets(f, z, cfg=BakeConfig(omega=0.0, tau=1.0))
        expected = np.exp(z - z.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.abs(q - expected).max() < 1e-14

    def test_ground_truth_knowledge_source(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        z = np.zeros((2, 2))
        cfg = BakeConfig(omega=0.5, knowledge_source="onehot")
        q = build_soft_targets(f, z, labels=np.array([0, 1]), cfg=cfg)
        assert np.abs(q - [[2 / 3, 1 / 3], [1 / 3, 2 / 3]]).max() < 1e-12

    @pytest.mark.parametrize("label", [-1, 2])
    def test_ground_truth_label_outside_range(self, label):
        cfg = BakeConfig(omega=0.5, knowledge_source="onehot")
        with pytest.raises(ShapeMismatchError, match=rf"label {label} outside \[0, 2\)"):
            build_soft_targets(np.eye(2), np.zeros((2, 2)), labels=np.array([0, label]), cfg=cfg)

    def test_detached_from_feature_gradients(self):
        rng = np.random.default_rng(3)
        f, z = rng.normal(size=(3, 4)).astype(np.float32), rng.normal(size=(3, 5)).astype(np.float32)
        q = build_soft_targets(f, z)
        assert type(q) is np.ndarray and q.dtype == np.float64
        assert np.array_equal(q, build_soft_targets(f.astype(np.float64), z.astype(np.float64)))

    def test_ground_truth_requires_labels(self):
        cfg = BakeConfig(knowledge_source="onehot")
        with pytest.raises(ConfigError, match="labels"):
            build_soft_targets(np.ones((2, 3)), np.ones((2, 2)), cfg=cfg)

    def test_dispatches_iterate_mode(self):
        rng = np.random.default_rng(13)
        f, z = rng.normal(size=(6, 4)), rng.normal(size=(6, 5))
        q_it = build_soft_targets(
            f, z, cfg=BakeConfig(omega=0.5, propagation_mode="iterate", iterations=3)
        )
        a = affinity_matrix(f)
        p = np.exp(z / 4.0 - (z / 4.0).max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        assert np.abs(q_it - propagate_iterative(a, p, 0.5, 3)).max() < 1e-12

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BakeConfig(omega=-0.1)
        with pytest.raises(ConfigError):
            BakeConfig(tau=0.0)
        for tau in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="tau must be finite and > 0"):
                BakeConfig(tau=tau)
        for weight in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="distill_weight must be finite and >= 0"):
                BakeConfig(distill_weight=weight)
        for weight in (1e39, 3.5e38):  # finite in float64, inf in the float32 loss
            with pytest.raises(ConfigError, match="is outside the finite float32 range"):
                BakeConfig(distill_weight=weight)
        assert BakeConfig(distill_weight=3.4e38).distill_weight == 3.4e38
        with pytest.raises(ConfigError, match="closed-form propagation requires omega < 1"):
            BakeConfig(omega=1.0)
        assert BakeConfig(omega=1.0, propagation_mode="iterate").omega == 1.0
        with pytest.raises(ConfigError):
            BakeConfig(propagation_mode="magic")
        for source in ("oracle", "predictions", "ground_truth_onehot"):  # one spelling each: pred, onehot
            with pytest.raises(ConfigError, match="knowledge_source must be one of"):
                BakeConfig(knowledge_source=source)

    @pytest.mark.parametrize("tau", [1e-300, 1e-23, 1e20, 1e160])
    def test_tau_whose_factors_leave_float32_refused(self, tau):
        # 1/tau or tau^2 would be inf or 0 in a float32 KL term
        with pytest.raises(ConfigError, match=r"puts 1/tau or tau\^2 outside the finite, nonzero float32 range"):
            BakeConfig(tau=tau)

    @pytest.mark.parametrize("tau", [1e-19, 1e19])
    def test_tau_near_the_float32_range_accepted(self, tau):
        assert BakeConfig(tau=tau).tau == tau


class TestTemperatureFactors:
    def test_read_only_and_computed_once(self):
        inv_tau, tau_sq = temperature_factors(4.0, np.float32)
        assert (inv_tau.dtype, tau_sq.dtype) == (np.float32, np.float32)
        assert (inv_tau, tau_sq) == (np.float32(0.25), np.float32(16.0))
        for f in (inv_tau, tau_sq):
            with pytest.raises(ValueError, match="read-only"):
                f[...] = 1.0
        assert temperature_factors(4.0, np.float32)[0] is inv_tau

    @pytest.mark.parametrize("tau", [float("nan"), 0.0, 1e-300])
    def test_refused_tau_raises_on_every_call(self, tau):
        for _ in range(2):  # an error is never cached
            with pytest.raises(ConfigError, match="tau"):
                temperature_factors(tau, np.float32)


class TestOneHot:
    def test_built_in_the_dtype_asked_for(self):
        y = np.array([3, 0, 2, 2, 1])
        out = one_hot(y, 4, np.float32)
        assert out.dtype == np.float32
        assert out.tobytes() == one_hot(y, 4).astype(np.float32).tobytes()
        assert one_hot(y, 4).dtype == np.float64
