import os
import subprocess
import sys

import numpy as np
import pytest

from bakekit import models as md
from bakekit import numerics as nm
from bakekit.errors import ShapeMismatchError
from bakekit.numerics import Tensor

import tape_reference


def finite_diff(f, x, h=1e-5):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def zero_bias(w):
    return Tensor(np.zeros(np.shape(w)[1]))


class TestMatmul:
    """``x @ w`` through ``linear`` with a zero bias."""

    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(nm.linear(a, b, zero_bias(b)).data, [[1, 2], [3, 4]])

    def test_unit_selector(self):
        w = Tensor([[5.0], [7.0]])
        out = nm.linear(Tensor([[1.0, 0.0]]), w, zero_bias(w))
        assert np.array_equal(out.data, [[5.0]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = nm.linear(Tensor(a), Tensor(b), zero_bias(b))
        assert np.abs(out.data - expected).max() < 1e-12

    def test_shape_mismatch(self):
        w = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
            nm.linear(Tensor(np.zeros((2, 3))), w, zero_bias(w))


class TestLinear:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        vals = {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 5)), "b": rng.normal(size=5)}
        targets = rng.dirichlet(np.ones(5), size=3)

        def loss_at(**given):
            t = {k: Tensor(given.get(k, v), requires_grad=True) for k, v in vals.items()}
            return t, nm.soft_cross_entropy(nm.linear(t["x"], t["w"], t["b"]), targets)

        tensors, loss = loss_at()
        loss.backward()
        for name, val in vals.items():
            fd = finite_diff(lambda a: loss_at(**{name: a})[1].item(), val)
            assert np.abs(tensors[name].grad - fd).max() < 1e-8, name

    def test_bias_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError, match=r"bias \(1, 3\)"):
            nm.linear(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3))))


class TestRelu:
    def test_infinities_and_signed_zeros(self):
        x = np.array([-np.inf, -0.0, 0.0, 2.0, np.inf])
        assert np.array_equal(nm.relu(Tensor(x)).data, np.maximum(x, 0.0))
        for v in x:  # one scalar graph per entry: the upstream gradient is 1
            leaf = Tensor(v, requires_grad=True)
            nm.relu(leaf).backward()
            assert leaf.grad == (1.0 if v > 0 else 0.0), v


class TestBackward:
    def test_non_scalar_loss_errors(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeMismatchError, match="scalar"):
            x.backward()

    def test_item_of_a_non_scalar_errors(self):
        with pytest.raises(ShapeMismatchError, match=r"item\(\) on tensor of shape \(2,\)"):
            Tensor(np.ones(2)).item()

    @pytest.mark.parametrize("seed", range(5))
    def test_composed_graph_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        w_val = rng.normal(size=(4, 5))
        x_val = rng.normal(size=(3, 4))

        c_val = rng.normal(size=3)
        onehot = np.eye(3)[rng.integers(0, 3, size=3)]

        def run(w_arr):
            w = Tensor(w_arr, requires_grad=True)
            h = nm.relu(nm.linear(Tensor(x_val), w, zero_bias(w_arr)))
            z = nm.linear(h, h.reshape(5, 3), Tensor(c_val))  # two branches of one node meet again
            return w, nm.soft_cross_entropy(z, onehot)

        w, loss = run(w_val)
        loss.backward()
        fd = finite_diff(lambda a: run(a)[1].item(), w_val)
        denom = np.maximum(np.abs(fd), 1e-6)
        assert (np.abs(w.grad - fd) / denom).max() < 1e-4

    def test_shared_interior_node_through_views(self):
        # h feeds both operands of one linear, one of them through two
        # reshapes, whose vjps pass views of their own gradient; every node
        # must still own its gradient array
        rng = np.random.default_rng(12)
        x_val, w_val, b_val = rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
        c_val = rng.normal(size=3)
        onehot = np.eye(3)[rng.integers(0, 3, size=3)]

        def run(w_arr):
            w = Tensor(w_arr, requires_grad=True)
            h = nm.linear(Tensor(x_val), w, Tensor(b_val))
            flat = h.reshape(15)
            folded = flat.reshape(5, 3)
            z = nm.linear(h, folded, Tensor(c_val))
            loss = nm.soft_cross_entropy(z, onehot)
            return (w, h, flat, folded, z, loss), loss

        nodes, loss = run(w_val)
        loss.backward()
        fd = finite_diff(lambda a: run(a)[1].item(), w_val)
        assert np.abs(nodes[0].grad - fd).max() < 1e-8
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                assert not np.shares_memory(a.grad, b.grad)

    def test_conv_model_bake_loss_gradients_never_overlap(self):
        # every vjp hands _accumulate a fresh array: after a bake step through
        # the conv stem, no node's gradient shares memory with another's
        from bakekit import bake, losses

        rng = np.random.default_rng(16)
        stem = md.ConvStem(2, 14, 14)
        model = md.init(md.ModelDescriptor(2 * 14 * 14, 4, hidden=(12, 6), conv_stem=stem), seed=0)
        y = np.arange(8) % 4
        features, logits = tape_reference.forward(model, rng.normal(size=(8, 2 * 14 * 14)))
        targets = bake.build_soft_targets(features.data, logits.data, labels=y)
        loss = nm.loss_node(logits, *losses.bake_loss(logits.data, y, targets, 4.0, 1.0)[:2])
        loss.backward()
        nodes = nm._toposort(loss)
        ops = {node._vjp.__qualname__.split(".")[0] for node in nodes if node._vjp is not None}
        assert {"reshape", "conv2d", "relu", "avg_pool2d", "linear"} <= ops
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                assert not np.shares_memory(a.grad, b.grad)

    def test_leaf_used_by_two_ops_gets_both_contributions(self):
        # x feeds a relu and, as the weights, a linear: backward zero-fills
        # x's gradient array once and both contributions are added to it
        rng = np.random.default_rng(15)
        x_val, b = rng.normal(size=(3, 3)), Tensor(rng.normal(size=3))
        t = rng.dirichlet(np.ones(3), size=3)
        x = Tensor(x_val, requires_grad=True)
        loss = nm.soft_cross_entropy(nm.linear(nm.relu(x), x, b), t)
        into_relu, as_weights = Tensor(x_val, requires_grad=True), Tensor(x_val, requires_grad=True)
        nm.soft_cross_entropy(nm.linear(nm.relu(into_relu), as_weights, b), t).backward()
        fd = finite_diff(lambda a: nm.soft_cross_entropy(nm.linear(nm.relu(Tensor(a)), Tensor(a), b), t).item(), x_val)
        for _ in range(2):  # the second backward finds the first one's gradient array
            loss.backward()
            assert np.array_equal(x.grad, into_relu.grad + as_weights.grad)
            assert np.abs(x.grad - fd).max() < 1e-8

    def test_free_leaf_without_grad_gets_a_fresh_array(self):
        rng = np.random.default_rng(16)
        x_val, t = rng.normal(size=(4, 3)), rng.dirichlet(np.ones(3), size=4)
        x = Tensor(x_val, requires_grad=True)
        assert x.grad is None
        nm.soft_cross_entropy(x, t).backward()
        assert x.grad.shape == x_val.shape and not np.shares_memory(x.grad, x.data)
        fd = finite_diff(lambda a: nm.soft_cross_entropy(Tensor(a), t).item(), x_val)
        assert np.abs(x.grad - fd).max() < 1e-8

    def test_free_leaf_gradient_is_overwritten_not_added_to(self):
        rng = np.random.default_rng(17)
        x_val, t = rng.normal(size=(4, 3)), rng.dirichlet(np.ones(3), size=4)
        fresh = Tensor(x_val, requires_grad=True)
        nm.soft_cross_entropy(fresh, t).backward()
        x = Tensor(x_val, requires_grad=True)
        kept = x.grad = np.full_like(x_val, 7.0)
        loss = nm.soft_cross_entropy(x, t)
        for _ in range(2):  # the first backward finds 7s, the second its own gradient
            loss.backward()
            assert x.grad is kept
            assert np.array_equal(kept, fresh.grad)

    def test_backward_through_one_model_leaves_another_untouched(self):
        descriptor = md.ModelDescriptor(6, 4, hidden=(8, 5))
        a, b = md.init(descriptor, seed=1), md.init(descriptor, seed=2)
        x = np.random.default_rng(18).normal(size=(3, 6))
        targets = np.eye(4)[[0, 1, 3]]
        nm.soft_cross_entropy(tape_reference.forward(b, x)[1], targets).backward()
        before = b.grad.copy()
        assert before.any()
        nm.soft_cross_entropy(tape_reference.forward(a, x)[1], targets).backward()
        assert a.grad.any()
        assert np.array_equal(b.grad, before)

    def test_detached_upstream_gradient_is_zero(self):
        x = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
        y = nm.relu(x)
        bias = Tensor(np.zeros(2))
        z = nm.linear(Tensor(y.data), x, bias)  # a leaf over y's data: no tape edge to x
        t = np.array([[1.0, 0.0], [0.25, 0.75]])
        nm.soft_cross_entropy(z, t).backward()
        direct = Tensor(x.data, requires_grad=True)
        nm.soft_cross_entropy(nm.linear(Tensor(y.data), direct, bias), t).backward()
        assert np.array_equal(x.grad, direct.grad)  # only the direct path

    def test_log_softmax_gradient(self):
        # the log-softmax lives inside soft_cross_entropy's one tape node
        rng = np.random.default_rng(7)
        x_val = rng.normal(size=(4, 6))
        onehot = np.eye(6)[rng.integers(0, 6, size=4)]

        def f(arr):
            t = Tensor(arr, requires_grad=True)
            return t, nm.soft_cross_entropy(t, onehot)

        t, loss = f(x_val)
        loss.backward()
        fd = finite_diff(lambda a: f(a)[1].item(), x_val)
        assert np.abs(t.grad - fd).max() < 1e-8


class TestConvOps:
    @pytest.mark.parametrize("leaf", ["x", "w", "b"])
    def test_conv2d_matches_finite_differences(self, leaf):
        rng = np.random.default_rng(8)
        values = {"x": rng.normal(size=(2, 2, 6, 6)), "w": rng.normal(size=(3, 2, 3, 3)), "b": rng.normal(size=3)}
        targets = rng.dirichlet(np.ones(12), size=2)

        def f(value):
            t = {name: Tensor(value if name == leaf else v, requires_grad=True) for name, v in values.items()}
            out = nm.avg_pool2d(nm.relu(nm.conv2d(t["x"], t["w"], t["b"])), 2)
            return t[leaf], nm.soft_cross_entropy(out.reshape(2, -1), targets)

        t, loss = f(values[leaf])
        loss.backward()
        fd = finite_diff(lambda a: f(a)[1].item(), values[leaf])
        assert np.abs(t.grad - fd).max() < 1e-6

    @pytest.mark.parametrize("x_shape,out_channels", [((2, 1, 6, 6), 3), ((3, 4, 7, 9), 5)])
    def test_conv2d_gradients_match_scatter_reference(self, x_shape, out_channels):
        """Gradients to rounding, against explicit im2col indices scattered with ``np.add.at``."""
        rng = np.random.default_rng(9)
        n, c, h, w = x_shape
        ho, wo = h - 2, w - 2
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        k = Tensor(rng.normal(size=(out_channels, c, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=out_channels), requires_grad=True)
        targets = rng.dirichlet(np.ones(out_channels * ho * wo), size=n)
        out = nm.conv2d(x, k, b)
        nm.soft_cross_entropy(out.reshape(n, -1), targets).backward()
        gout = out.grad.reshape(n, out_channels, ho * wo).transpose(0, 2, 1)  # N x P x O

        ci, ki, kj = np.meshgrid(np.arange(c), np.arange(3), np.arange(3), indexing="ij")
        pi, pj = np.meshgrid(np.arange(ho), np.arange(wo), indexing="ij")
        flat = (pi * w + pj).reshape(-1, 1) + (ci * h * w + ki * w + kj).reshape(1, -1)  # P x C*9
        cols = x.data.reshape(n, -1)[:, flat]  # N x P x C*9
        gx = np.zeros((n, c * h * w))
        np.add.at(gx, (np.arange(n)[:, None, None], flat[None]), gout @ k.data.reshape(out_channels, -1))
        for grad, ref in (
            (x.grad, gx.reshape(x_shape)),
            (k.grad, np.einsum("npo,npk->ok", gout, cols).reshape(k.data.shape)),
            (b.grad, gout.sum(axis=(0, 1))),
        ):
            assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_conv2d_channel_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="channels"):
            nm.conv2d(
                Tensor(np.zeros((1, 2, 5, 5))),
                Tensor(np.zeros((3, 1, 3, 3))),
                Tensor(np.zeros(3)),
            )

    @pytest.mark.parametrize(
        "x_shape, w_shape", [((2, 5, 5), (3, 2, 3, 3)), ((1, 2, 5, 5), (2, 3, 3))], ids=["input", "kernel"]
    )
    def test_conv2d_refuses_a_3d_input_or_kernel(self, x_shape, w_shape):
        with pytest.raises(ShapeMismatchError, match="NCHW"):
            nm.conv2d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), Tensor(np.zeros(3)))

    @pytest.mark.parametrize("kernel", [(6, 3), (3, 5)], ids=["rows", "cols"])
    def test_conv2d_refuses_a_kernel_larger_than_the_image(self, kernel):
        with pytest.raises(ShapeMismatchError, match="larger"):
            nm.conv2d(Tensor(np.zeros((1, 2, 5, 4))), Tensor(np.zeros((3, 2, *kernel))), Tensor(np.zeros(3)))

    def test_avg_pool2d_refuses_a_3d_input(self):
        with pytest.raises(ShapeMismatchError, match="NCHW"):
            nm.avg_pool2d(Tensor(np.zeros((2, 4, 4))), 2)

    @pytest.mark.parametrize("hw", [(2, 5), (5, 2)], ids=["rows", "cols"])
    def test_avg_pool2d_refuses_a_window_larger_than_the_image(self, hw):
        with pytest.raises(ShapeMismatchError, match="larger"):
            nm.avg_pool2d(Tensor(np.zeros((1, 2, *hw))), 3)

    @pytest.mark.parametrize("bias_shape", [(2,), (4,), (1,), (3, 1), ()])
    def test_conv2d_bias_must_be_one_per_kernel(self, bias_shape):
        with pytest.raises(ShapeMismatchError, match="bias"):
            nm.conv2d(Tensor(np.zeros((1, 2, 5, 5))), Tensor(np.zeros((3, 2, 3, 3))), Tensor(np.zeros(bias_shape)))

    def test_conv2d_any_kernel_size_matches_a_direct_sum(self):
        rng = np.random.default_rng(10)
        x_val, w_val, b_val = rng.normal(size=(2, 2, 7, 6)), rng.normal(size=(3, 2, 5, 2)), rng.normal(size=3)
        out = nm.conv2d(Tensor(x_val), Tensor(w_val), Tensor(b_val)).data
        assert out.shape == (2, 3, 3, 5)
        for i in range(3):
            for j in range(5):
                window = x_val[:, None, :, i : i + 5, j : j + 2] * w_val[None]
                assert np.abs(out[:, :, i, j] - window.sum(axis=(2, 3, 4)) - b_val).max() < 1e-12

        def f(value):
            x = Tensor(value, requires_grad=True)
            loss = nm.soft_cross_entropy(nm.conv2d(x, Tensor(w_val), Tensor(b_val)).reshape(2, -1), np.full((2, 45), 1 / 45))
            return x, loss

        x, loss = f(x_val)
        loss.backward()
        assert np.abs(x.grad - finite_diff(lambda a: f(a)[1].item(), x_val)).max() < 1e-6


class TestBlasThreads:
    """``blas_threads`` against numpy's bundled OpenBLAS; skipped on a numpy built without one."""

    @pytest.fixture
    def get(self):
        if nm._openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS")
        return nm._openblas()[0]

    @pytest.mark.parametrize("outer, inner", [(1, 2), (2, 1), (2, 2)])
    def test_sets_the_count_and_restores_it(self, get, outer, inner):
        with nm.blas_threads(outer) as found_outer:
            with nm.blas_threads(inner) as found:
                assert (found, get()) == (outer, inner)
            assert get() == outer
        assert get() == found_outer

    def test_restores_the_count_after_an_exception(self, get):
        with nm.blas_threads(1):
            with pytest.raises(RuntimeError, match="inside"):
                with nm.blas_threads(2):
                    raise RuntimeError("inside")
            assert get() == 1

    def test_none_changes_nothing_and_looks_nothing_up(self, monkeypatch):
        monkeypatch.setattr(nm, "_openblas", lambda: pytest.fail("looked up"))
        with nm.blas_threads(None) as found:
            assert found is None

    def test_without_the_library_it_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(nm, "_openblas", lambda: None)
        with nm.blas_threads(1) as found:
            assert found is None

    def test_importing_bakekit_looks_up_no_library(self):
        code = (
            "import bakekit, bakekit.cli, bakekit.trainer\n"
            "from bakekit import numerics\n"
            "assert numerics._openblas.cache_info().currsize == 0\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
