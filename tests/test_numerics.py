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


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal((a @ b).data, [[1, 2], [3, 4]])

    def test_unit_selector(self):
        out = Tensor([[1.0, 0.0]]) @ Tensor([[5.0], [7.0]])
        assert np.array_equal(out.data, [[5.0]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = Tensor(a) @ Tensor(b)
        assert np.abs(out.data - expected).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


class TestSoftmaxRows:
    """Row softmax on plain arrays: ``masked_softmax_data``."""

    def test_uniform_on_equal_logits(self):
        out = nm.masked_softmax_data([[0.0, 0.0, 0.0]])
        assert np.allclose(out, [[1 / 3] * 3], atol=1e-12)

    def test_analytic_exponentials(self):
        out = nm.masked_softmax_data([[np.log(2.0), 0.0]])
        assert np.allclose(out, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_mask_removes_entry(self):
        out = nm.masked_softmax_data([[5.0, 1.0, 1.0]], masked=np.array([[True, False, False]]))
        assert out[0, 0] == 0.0
        assert np.allclose(out, [[0.0, 0.5, 0.5]], atol=1e-12)

    def test_rows_sum_to_one_with_overflow_safety(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 9)) * 500  # would overflow a naive exp
        out = nm.masked_softmax_data(x)
        assert np.isfinite(out).all()
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9

    def test_fully_masked_row_errors(self):
        with pytest.raises(ShapeMismatchError, match="fully masked"):
            nm.masked_softmax_data([[1.0, 2.0]], masked=np.array([[True, True]]))


class TestBackward:
    def test_sum_gradient_all_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        assert x.grad == 6.0

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
            h = nm.relu(Tensor(x_val) @ w)
            z = (h + 0.7) * (h + -0.3)  # product of two branches of one node
            log_p = nm.log_softmax_rows(z)
            loss = (log_p * onehot).sum() * (-1.0 / 3) + (h * h).sum() * (1.0 / h.size)
            return w, loss

        w, loss = run(w_val)
        loss.backward()
        fd = finite_diff(lambda a: run(a)[1].item(), w_val)
        denom = np.maximum(np.abs(fd), 1e-6)
        assert (np.abs(w.grad - fd) / denom).max() < 1e-4

    def test_detached_upstream_gradient_is_zero(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x * 3.0
        z = Tensor(y.data) * 2.0 + x  # a leaf over y's data: no tape edge to x
        z.sum().backward()
        assert np.array_equal(x.grad, np.ones((2, 2)))  # only the direct path

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(7)
        x_val = rng.normal(size=(4, 6))
        onehot = np.eye(6)[rng.integers(0, 6, size=4)]

        def f(arr):
            t = Tensor(arr, requires_grad=True)
            return t, (nm.log_softmax_rows(t) * onehot).sum() * (-1.0 / 4)

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

        def f(wv):
            x = Tensor(x_val, requires_grad=True)
            w = Tensor(wv, requires_grad=True)
            b = Tensor(b_val, requires_grad=True)
            out = nm.avg_pool2d(nm.relu(nm.conv2d(x, w, b)), 2)
            return (x, w, b), (out * out).sum()

        (x, w, b), loss = f(w_val)
        loss.backward()
        fd_w = finite_diff(lambda a: f(a)[1].item(), w_val)
        assert np.abs(w.grad - fd_w).max() < 1e-6

    def test_conv2d_channel_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="channels"):
            nm.conv2d(
                Tensor(np.zeros((1, 2, 5, 5))),
                Tensor(np.zeros((3, 1, 3, 3))),
                Tensor(np.zeros(3)),
            )
