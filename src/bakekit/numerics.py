"""Dense float64 tensors and reverse-mode autodiff.

Every tensor op records a vector-Jacobian closure on the node it produces;
``backward`` replays the graph in reverse topological order. Ops are pure:
they never mutate their inputs. ``softmax_data`` works on plain arrays,
outside the graph, for detached target construction.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError


class Tensor:
    """A dense array node in the computation graph.

    Leaves are created directly; interior nodes carry a vjp closure and
    references to their parents. ``grad`` is populated by ``backward``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjp = None

    @classmethod
    def _op(cls, data, parents, vjp):
        out = cls(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data)

    def backward(self):
        """Accumulate gradients of this scalar into all requires_grad leaves."""
        if self.data.ndim != 0:
            raise ShapeMismatchError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        order = _toposort(self)
        for node in order:
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._vjp is not None:
                node._vjp(node.grad)

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _toposort(root):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _const(x):
    return np.asarray(x, dtype=np.float64)


# -- elementwise / structural primitives ---------------------------------


def add(a, b):
    if isinstance(b, Tensor):
        out_data = a.data + b.data

        def vjp(g, a=a, b=b):
            if a.requires_grad:
                a.grad += _unbroadcast(g, a.data.shape)
            if b.requires_grad:
                b.grad += _unbroadcast(g, b.data.shape)

        return Tensor._op(out_data, (a, b), vjp)
    c = _const(b)

    def vjp(g, a=a):
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.data.shape)

    return Tensor._op(a.data + c, (a,), vjp)


def mul(a, c):
    """Tensor ``a`` times the constant ``c``."""
    c = _const(c)

    def vjp(g, a=a):
        if a.requires_grad:
            a.grad += _unbroadcast(g * c, a.data.shape)

    return Tensor._op(a.data * c, (a,), vjp)


def relu(x):
    keep = x.data > 0

    def vjp(g, x=x):
        if x.requires_grad:
            x.grad += g * keep

    return Tensor._op(np.where(keep, x.data, 0.0), (x,), vjp)


def reshape(x, *shape):
    old = x.data.shape

    def vjp(g, x=x):
        if x.requires_grad:
            x.grad += g.reshape(old)

    return Tensor._op(x.data.reshape(*shape), (x,), vjp)


# -- linear algebra ------------------------------------------------------


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(
            f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}"
        )

    def vjp(g, a=a, b=b):
        if a.requires_grad:
            a.grad += g @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ g

    return Tensor._op(a.data @ b.data, (a, b), vjp)


# -- softmax -------------------------------------------------------------


def softmax_data(x):
    """Row softmax of a plain array; ``-inf`` entries get exactly 0.

    Not part of the autodiff graph: affinities and soft targets never carry
    gradient.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def soft_cross_entropy(x, targets):
    """Mean over the rows of -sum_k targets[k] * log softmax(x)[k].

    ``targets`` is a constant array of x's shape; only ``x`` receives gradient.
    """
    t = _const(targets)
    scale = -1.0 / x.data.shape[0]
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    log_p = shifted - np.log(e.sum(axis=1, keepdims=True))

    def vjp(g, x=x):  # not (softmax - t) / n: that moves the last bits of training
        if x.requires_grad:
            gl = (g * scale) * t
            x.grad += gl - e / e.sum(axis=1, keepdims=True) * gl.sum(axis=1, keepdims=True)

    return Tensor._op((log_p * t).sum() * scale, (x,), vjp)


# -- convolution stem support --------------------------------------------


def conv2d(x, w, b):
    """Valid 3x3 convolution over NCHW input, via im2col. Differentiable."""
    xd = x.data
    n, c, h, wdt = xd.shape
    o, ci, kh, kw = w.data.shape
    if ci != c:
        raise ShapeMismatchError(f"conv2d: input channels {c} != kernel channels {ci}")
    windows = np.lib.stride_tricks.sliding_window_view(xd, (kh, kw), axis=(2, 3))
    ho, wo = windows.shape[2], windows.shape[3]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, ho * wo, c * kh * kw)
    wmat = w.data.reshape(o, c * kh * kw)
    out = cols @ wmat.T + b.data
    out_data = out.transpose(0, 2, 1).reshape(n, o, ho, wo)

    def vjp(g, x=x, w=w, b=b):
        gout = g.reshape(n, o, ho * wo).transpose(0, 2, 1)  # N x P x O
        if b.requires_grad:
            b.grad += gout.sum(axis=(0, 1))
        if w.requires_grad:
            gw = np.einsum("npo,npk->ok", gout, cols)
            w.grad += gw.reshape(o, c, kh, kw)
        if x.requires_grad:
            gcols = gout @ wmat  # N x P x (C*kh*kw)
            gx = np.zeros((n, c * h * wdt))
            flat = _im2col_indices(c, h, wdt, kh, kw)
            np.add.at(gx, (np.arange(n)[:, None, None], flat[None]), gcols)
            x.grad += gx.reshape(n, c, h, wdt)

    return Tensor._op(out_data, (x, w, b), vjp)


def _im2col_indices(c, h, w, kh, kw):
    """Flat input indices for each (patch, patch-element) pair."""
    ho, wo = h - kh + 1, w - kw + 1
    ci, ki, kj = np.meshgrid(np.arange(c), np.arange(kh), np.arange(kw), indexing="ij")
    elem = (ci * h * w + ki * w + kj).ravel()  # C*kh*kw
    pi, pj = np.meshgrid(np.arange(ho), np.arange(wo), indexing="ij")
    patch = (pi * w + pj).ravel()  # P
    return patch[:, None] + elem[None, :]


def avg_pool2d(x, k=2):
    """Non-overlapping k x k mean pooling; trailing rows/cols are trimmed."""
    n, c, h, w = x.data.shape
    ho, wo = h // k, w // k
    trimmed = x.data[:, :, : ho * k, : wo * k]
    out_data = trimmed.reshape(n, c, ho, k, wo, k).mean(axis=(3, 5))

    def vjp(g, x=x):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[:, :, : ho * k, : wo * k] = np.repeat(
                np.repeat(g, k, axis=2), k, axis=3
            ) / (k * k)
            x.grad += gx

    return Tensor._op(out_data, (x,), vjp)
