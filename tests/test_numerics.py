import numpy as np
import pytest

from bakekit import numerics as nm
from bakekit.errors import ShapeMismatchError
from bakekit.numerics import Tensor


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


class TestElementwise:
    def test_add_rejects_another_shape(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\) and \(3,\)"):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros(3))

    def test_add_rejects_non_scalar_constant(self):
        with pytest.raises(ShapeMismatchError, match="scalar"):
            Tensor(np.zeros((2, 3))) + np.zeros(3)

    def test_mul_rejects_non_scalar_constant(self):
        with pytest.raises(ShapeMismatchError, match="scalar"):
            Tensor(np.zeros((2, 3))) * np.ones((2, 3))


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

    @pytest.mark.parametrize("seed", range(5))
    def test_composed_graph_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        w_val = rng.normal(size=(4, 5))
        x_val = rng.normal(size=(3, 4))

        labels = rng.integers(0, 5, size=3)
        onehot = np.eye(5)[labels]

        def run(w_arr):
            w = Tensor(w_arr, requires_grad=True)
            h = nm.relu(nm.linear(Tensor(x_val), w, zero_bias(w_arr)))
            z = h + h * 0.5 + -0.3  # two branches of one node meet again
            return w, nm.soft_cross_entropy(z, onehot)

        w, loss = run(w_val)
        loss.backward()
        fd = finite_diff(lambda a: run(a)[1].item(), w_val)
        denom = np.maximum(np.abs(fd), 1e-6)
        assert (np.abs(w.grad - fd) / denom).max() < 1e-4

    def test_shared_interior_node_through_views(self):
        # h feeds a reshape and both sides of h + h, whose vjps pass views of
        # their own gradient; every node must still own its gradient array
        rng = np.random.default_rng(12)
        x_val, w_val, b_val = rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
        onehot = np.eye(5)[rng.integers(0, 5, size=3)]

        def run(w_arr):
            w = Tensor(w_arr, requires_grad=True)
            h = nm.linear(Tensor(x_val), w, Tensor(b_val))
            flat = h.reshape(15)
            doubled = h + h
            mixed = doubled + flat.reshape(3, 5)
            z = mixed + -0.3
            loss = nm.soft_cross_entropy(z, onehot)
            return (w, h, flat, doubled, mixed, z, loss), loss

        nodes, loss = run(w_val)
        loss.backward()
        fd = finite_diff(lambda a: run(a)[1].item(), w_val)
        assert np.abs(nodes[0].grad - fd).max() < 1e-8
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                assert not np.shares_memory(a.grad, b.grad)

    def test_detached_upstream_gradient_is_zero(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x * 3.0
        z = Tensor(y.data) * 2.0 + x  # a leaf over y's data: no tape edge to x
        t = np.array([[1.0, 0.0], [0.25, 0.75]])
        nm.soft_cross_entropy(z, t).backward()
        direct = Tensor(z.data, requires_grad=True)
        nm.soft_cross_entropy(direct, t).backward()
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
    def test_conv2d_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x_val = rng.normal(size=(2, 2, 6, 6))
        w_val = rng.normal(size=(3, 2, 3, 3))
        b_val = rng.normal(size=3)
        targets = rng.dirichlet(np.ones(12), size=2)

        def f(wv):
            x = Tensor(x_val, requires_grad=True)
            w = Tensor(wv, requires_grad=True)
            b = Tensor(b_val, requires_grad=True)
            out = nm.avg_pool2d(nm.relu(nm.conv2d(x, w, b)), 2)
            return (x, w, b), nm.soft_cross_entropy(out.reshape(2, -1), targets)

        (x, w, b), loss = f(w_val)
        loss.backward()
        fd_w = finite_diff(lambda a: f(a)[1].item(), w_val)
        assert np.abs(w.grad - fd_w).max() < 1e-6

    @pytest.mark.parametrize("x_shape,out_channels", [((2, 1, 6, 6), 3), ((3, 4, 7, 9), 5)])
    def test_conv2d_gradients_match_scatter_reference(self, x_shape, out_channels):
        """Exact gradients, against explicit im2col indices scattered with ``np.add.at``."""
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
        # N x P x C*9, C-ordered as in the forward: einsum's summation order follows the layout
        cols = np.ascontiguousarray(x.data.reshape(n, -1)[:, flat])
        gx = np.zeros((n, c * h * w))
        np.add.at(gx, (np.arange(n)[:, None, None], flat[None]), gout @ k.data.reshape(out_channels, -1))
        assert np.array_equal(x.grad, gx.reshape(x_shape))
        gk = np.einsum("npo,npk->ok", gout, cols).reshape(k.data.shape)
        assert np.array_equal(k.grad, gk)
        assert np.array_equal(b.grad, gout.sum(axis=(0, 1)))

    def test_conv2d_channel_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="channels"):
            nm.conv2d(
                Tensor(np.zeros((1, 2, 5, 5))),
                Tensor(np.zeros((3, 1, 3, 3))),
                Tensor(np.zeros(3)),
            )
