"""Dense floating-point tensors and reverse-mode autodiff.

A tensor keeps the dtype of a floating input (anything else becomes
float64), and every op computes in the dtype of the tensors it is given:
constants are cast to it, so a float32 graph stays float32. No op changes
dtype: a graph's leaves enter it in the dtype it computes in.

Every tensor op records a vector-Jacobian closure on the node it produces;
``backward`` replays the graph in reverse topological order. Ops are pure:
they never mutate their inputs. A closure hands each contribution to
``_accumulate``: an interior node's first contribution becomes its gradient,
later ones are added to it.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError


class Tensor:
    """A dense array node in the computation graph.

    Leaves are created directly; interior nodes carry a vjp closure and
    references to their parents. ``grad`` is written by ``backward``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
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

    def item(self):
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data)

    def backward(self):
        """Write gradients of this scalar into all requires_grad leaves.

        A leaf's existing ``grad`` array is zeroed and refilled in place, so a
        model's leaf gradients land in ``model.grad``: copy one to keep it past
        the next call. Interior nodes get fresh arrays, never zero-filled."""
        if self.data.ndim != 0:
            raise ShapeMismatchError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        order = _toposort(self)
        for node in order:
            if node._vjp is not None:
                node.grad = None
            elif node.grad is None:
                node.grad = np.zeros_like(node.data)
            else:
                node.grad.fill(0.0)
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


def _accumulate(node, g, upstream=None):
    """Add contribution ``g`` to ``node.grad``, storing the first one.

    ``upstream`` is the consumer's own gradient: a first contribution that may
    be a view of it is copied, so no two nodes share a gradient array."""
    if node.grad is None:
        node.grad = g.copy() if upstream is not None and np.may_share_memory(g, upstream) else g
    else:
        node.grad += g


def _scalar(c, op, dtype):
    """``c`` as a 0-d array of ``dtype``; anything but a scalar is a ShapeMismatchError.

    A 0-d float64 array would promote a float32 operand to float64."""
    c = np.asarray(c, dtype=dtype)
    if c.ndim != 0:
        raise ShapeMismatchError(f"{op}: expected a scalar constant, got shape {c.shape}")
    return c


# -- elementwise / structural primitives ---------------------------------


def add(a, b):
    """Tensor ``a`` plus a tensor of its own shape, or plus a scalar constant."""
    if isinstance(b, Tensor):
        if b.data.shape != a.data.shape:
            raise ShapeMismatchError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
        parents = (a, b)
        out_data = a.data + b.data
    else:
        parents = (a,)
        out_data = a.data + _scalar(b, "add", a.data.dtype)

    def vjp(g, parents=parents):
        for p in parents:
            if p.requires_grad:
                _accumulate(p, g, g)

    return Tensor._op(out_data, parents, vjp)


def mul(a, c):
    """Tensor ``a`` times the scalar constant ``c``."""
    c = _scalar(c, "mul", a.data.dtype)

    def vjp(g, a=a):
        if a.requires_grad:
            _accumulate(a, g * c)

    return Tensor._op(a.data * c, (a,), vjp)


def relu(x):
    def vjp(g, x=x):
        if x.requires_grad:
            _accumulate(x, g * (x.data > 0))

    return Tensor._op(np.maximum(x.data, 0.0), (x,), vjp)


def reshape(x, *shape):
    old = x.data.shape

    def vjp(g, x=x):
        if x.requires_grad:
            _accumulate(x, g.reshape(old), g)

    return Tensor._op(x.data.reshape(*shape), (x,), vjp)


# -- linear algebra ------------------------------------------------------


def linear(x, w, b):
    """``x @ w + b`` for an N x D batch, D x K weights and K biases, as one node."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeMismatchError(
            f"linear: incompatible shapes {x.data.shape} and {w.data.shape}"
        )
    if b.data.shape != w.data.shape[1:]:
        raise ShapeMismatchError(f"linear: bias {b.data.shape} for weights {w.data.shape}")

    def vjp(g, x=x, w=w, b=b):
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        if w.requires_grad:
            _accumulate(w, x.data.T @ g)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0))

    return Tensor._op(x.data @ w.data + b.data, (x, w, b), vjp)


# -- loss ----------------------------------------------------------------


def soft_cross_entropy(x, targets):
    """Mean over the rows of -sum_k targets[k] * log softmax(x)[k].

    ``targets`` is a constant array of x's shape, cast to x's dtype; only ``x``
    receives gradient.
    """
    t = np.asarray(targets, dtype=x.data.dtype)
    scale = -1.0 / x.data.shape[0]
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    log_p = shifted - np.log(e.sum(axis=1, keepdims=True))

    def vjp(g, x=x):  # not (softmax - t) / n: that moves the last bits of training
        if x.requires_grad:
            gl = (g * scale) * t
            _accumulate(x, gl - e / e.sum(axis=1, keepdims=True) * gl.sum(axis=1, keepdims=True))

    return Tensor._op((log_p * t).sum() * scale, (x,), vjp)


# -- convolution stem support --------------------------------------------


def conv2d(x, w, b):
    """Valid 3x3 convolution over NCHW input, via im2col. Differentiable."""
    xd = x.data
    n, c = xd.shape[:2]
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
            _accumulate(b, gout.sum(axis=(0, 1)))
        if w.requires_grad:
            gw = np.einsum("npo,npk->ok", gout, cols)
            _accumulate(w, gw.reshape(o, c, kh, kw))
        if x.requires_grad:
            # (N, Ho, Wo, C, kh, kw): each window's gradient, in the forward's layout
            gwin = (gout @ wmat).reshape(n, ho, wo, c, kh, kw)
            gx = np.zeros_like(xd)
            # reversed offsets: each input pixel sums its windows in ascending
            # window order, as a scatter over the windows in order would
            for i in reversed(range(kh)):
                for j in reversed(range(kw)):
                    gx[:, :, i : i + ho, j : j + wo] += gwin[..., i, j].transpose(0, 3, 1, 2)
            _accumulate(x, gx)

    return Tensor._op(out_data, (x, w, b), vjp)


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
            _accumulate(x, gx)

    return Tensor._op(out_data, (x,), vjp)
