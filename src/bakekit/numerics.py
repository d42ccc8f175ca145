"""Dense floating-point array kernels, and the reverse-mode autodiff they are checked against.

A tensor keeps the dtype of a floating input (anything else becomes
float64), and every op computes in the dtype of the tensors it is given:
constant targets are cast to it, so a float32 graph stays float32. No op
changes dtype: a graph's leaves enter it in the dtype it computes in.

Training runs on arrays, not on the tape: ``soft_xent`` gives a loss's value
and gradient array, and ``Model.forward`` and ``Model.backward`` run the
conv stem through ``conv2d_forward``, ``conv2d_rows``, ``conv2d_input_grad``,
``avg_pool2d_forward`` and ``avg_pool2d_grad``. The tape is the reference
those are held to, bit for bit, in the tests.

Every tensor op records a vector-Jacobian closure on the node it produces;
``backward`` replays the graph in reverse topological order. Ops are pure:
they never mutate their inputs. A closure hands each contribution to
``_accumulate``: an interior node's first contribution becomes its gradient,
later ones are added to it. A leaf keeps its gradient array, and ``backward``
zero-fills the buffer that array lives in, once, before adding into it: a
model's parameter gradients are views of one buffer, ``model.grad``, so a
parameter a loss skips reads zero.

``blas_threads`` sets how many threads numpy's bundled OpenBLAS runs on, for
the length of a block.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

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

        A leaf keeps its ``grad`` array (it gets one on its first backward).
        Before the pass, the buffer each reached leaf's ``grad`` lives in (the
        array, or the array it views) is zero-filled once, so a model's leaf
        gradients land in ``model.grad``, zeros for a parameter this loss
        skips: copy one to keep it past the next call. Interior nodes get
        fresh arrays, never zero-filled."""
        if self.data.ndim != 0:
            raise ShapeMismatchError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        order = _toposort(self)
        buffers = {}
        for node in order:
            if node._vjp is not None:
                node.grad = None
            elif node.grad is None:
                node.grad = np.zeros_like(node.data)
            else:
                buffer = node.grad.base if isinstance(node.grad.base, np.ndarray) else node.grad
                buffers[id(buffer)] = buffer
        for buffer in buffers.values():
            buffer.fill(0.0)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._vjp is not None:
                node._vjp(node.grad)

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


def _accumulate(node, g):
    """Add contribution ``g`` to ``node.grad``, storing an interior node's first one.

    A leaf's ``grad`` was zero-filled by ``backward``, so every contribution
    is added to it. ``g`` must be an array no other node's gradient shares:
    each vjp hands over a fresh one."""
    if node.grad is None:
        node.grad = g
    else:
        node.grad += g


# -- BLAS threads --------------------------------------------------------


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None.

    Looked up on first use, never at import; an MKL or Accelerate build has no
    such library, and gets None."""
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(handle, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


@contextlib.contextmanager
def blas_threads(n):
    """Run the block on ``n`` OpenBLAS threads; yields the count found on entry and restores it on exit.

    With ``n`` None, or without numpy's bundled OpenBLAS, it changes nothing
    and yields None."""
    blas = None if n is None else _openblas()
    if blas is None:
        yield None
        return
    get, set_ = blas
    found = get()
    set_(n)
    try:
        yield found
    finally:
        set_(found)


# -- elementwise / structural primitives ---------------------------------


def relu(x):
    def vjp(g, x=x):
        if x.requires_grad:
            _accumulate(x, g * (x.data > 0))

    return Tensor._op(np.maximum(x.data, 0.0), (x,), vjp)


def reshape(x, *shape):
    old = x.data.shape

    def vjp(g, x=x):
        if x.requires_grad:
            _accumulate(x, g.reshape(old).copy())  # a reshape may be a view of g

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

    out = x.data @ w.data
    out += b.data
    return Tensor._op(out, (x, w, b), vjp)


# -- loss ----------------------------------------------------------------


def soft_xent(x, t):
    """Mean over the N rows of -sum_k t[k] * log softmax(x)[k], on arrays of one dtype.

    Returns the value and its gradient with respect to ``x``, the array
    ``(softmax(x) - t) / N``. That is the gradient only where each row of ``t``
    sums to 1; otherwise the exact one adds ``softmax(x) * (sum(t) - 1) / N``."""
    n = x.shape[0]
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    sums = e.sum(axis=1, keepdims=True)
    shifted -= np.log(sums)  # log softmax(x)
    shifted *= t
    e /= sums
    e -= t
    e /= n
    return shifted.sum() * (-1.0 / n), e


def loss_node(x, value, grad):
    """A node over ``x`` that holds ``value`` and hands ``g * grad`` back to ``x``."""

    def vjp(g, x=x):
        if x.requires_grad:
            _accumulate(x, g * grad)

    return Tensor._op(value, (x,), vjp)


def soft_cross_entropy(x, targets):
    """``soft_xent`` of tensor ``x`` as one node; ``targets``, a constant array of x's shape, is cast to x's dtype."""
    return loss_node(x, *soft_xent(x.data, np.asarray(targets, dtype=x.data.dtype)))


# -- convolution stem support --------------------------------------------


def conv2d_forward(x, w, b):
    """Valid convolution of an NCHW array with O×C×kh×kw kernels (the stem uses 3×3) and O biases.

    Returns the NCHW output and the (N·Ho·Wo)×(C·kh·kw) im2col matrix ``cols`` that the output is one 2-D gemm
    over, and that the weight gradient reads."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeMismatchError(f"conv2d: needs an NCHW input and 4-D kernels, got {x.shape} and {w.shape}")
    n, c, ih, iw = x.shape
    o, ci, kh, kw = w.shape
    if ci != c or b.shape != (o,):
        raise ShapeMismatchError(f"conv2d: kernels {w.shape} and bias {b.shape} for input channels {c}")
    if kh > ih or kw > iw:
        raise ShapeMismatchError(f"conv2d: kernels {w.shape} larger than the {ih}×{iw} image")
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    ho, wo = windows.shape[2], windows.shape[3]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * kh * kw)
    out = cols @ w.reshape(o, c * kh * kw).T + b
    return out.reshape(n, ho * wo, o).transpose(0, 2, 1).reshape(n, o, ho, wo), cols


def conv2d_rows(g):
    """An NCHW output gradient as the (N·Ho·Wo)×O rows of ``conv2d_forward``'s gemm."""
    n, o, ho, wo = g.shape
    return g.reshape(n, o, ho * wo).transpose(0, 2, 1).reshape(n * ho * wo, o)


def conv2d_input_grad(rows, w, x_shape):
    """The input gradient of ``conv2d_forward``, from its output gradient's ``conv2d_rows``: each window's gradient,
    one gemm, added over the kernel offsets in ascending order."""
    n, c, ih, iw = x_shape
    o, _, kh, kw = w.shape
    ho, wo = ih - kh + 1, iw - kw + 1
    # (N, Ho, Wo, C, kh, kw): each window's gradient, in the forward's layout
    gwin = (rows @ w.reshape(o, c * kh * kw)).reshape(n, ho, wo, c, kh, kw)
    gx = np.zeros(x_shape, rows.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i : i + ho, j : j + wo] += gwin[..., i, j].transpose(0, 3, 1, 2)
    return gx


def conv2d(x, w, b):
    """``conv2d_forward`` as one node."""
    out, cols = conv2d_forward(x.data, w.data, b.data)

    def vjp(g, x=x, w=w, b=b):
        rows = conv2d_rows(g)
        if b.requires_grad:
            _accumulate(b, rows.sum(axis=0))
        if w.requires_grad:
            _accumulate(w, (rows.T @ cols).reshape(w.data.shape))
        if x.requires_grad:
            _accumulate(x, conv2d_input_grad(rows, w.data, x.data.shape))

    return Tensor._op(out, (x, w, b), vjp)


def avg_pool2d_forward(x, k=2):
    """Non-overlapping k x k mean pooling of an NCHW array; trailing rows/cols are trimmed."""
    if x.ndim != 4:
        raise ShapeMismatchError(f"avg_pool2d: needs an NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    if k > h or k > w:
        raise ShapeMismatchError(f"avg_pool2d: a {k}×{k} window larger than the {h}×{w} image")
    ho, wo = h // k, w // k
    return x[:, :, : ho * k, : wo * k].reshape(n, c, ho, k, wo, k).mean(axis=(3, 5))


def avg_pool2d_grad(g, x_shape, k=2):
    """The input gradient of ``avg_pool2d_forward`` from its output gradient ``g``; trimmed rows/cols get zero."""
    ho, wo = g.shape[2:]
    gx = np.zeros(x_shape, g.dtype)
    gx[:, :, : ho * k, : wo * k] = np.repeat(np.repeat(g, k, axis=2), k, axis=3) / (k * k)
    return gx


def avg_pool2d(x, k=2):
    """``avg_pool2d_forward`` as one node."""

    def vjp(g, x=x):
        if x.requires_grad:
            _accumulate(x, avg_pool2d_grad(g, x.data.shape, k))

    return Tensor._op(avg_pool2d_forward(x.data, k), (x,), vjp)
