"""Small classifiers: an encoder producing features plus a linear head.

One forward pass returns both the encoder features (which drive affinity
estimation) and the logits (which drive the losses).
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nm
from .errors import ConfigError, DataFormatError, ShapeMismatchError
from .numerics import Tensor

CHECKPOINT_MAGIC = b"BAKECKP1"
COMPUTE_DTYPE = np.dtype(np.float32)  # what a model computes in unless asked otherwise


@dataclass(frozen=True)
class ConvStem:
    """Two 3x3-conv + 2x2-mean-pool blocks ahead of the MLP encoder."""

    in_channels: int
    height: int
    width: int
    channels: tuple = (8, 16)


def check_hidden(hidden):
    """``hidden`` if it is a nonempty sequence of widths >= 1; else a ConfigError."""
    if not hidden or min(hidden) < 1:
        raise ConfigError(f"hidden widths must be a nonempty list of integers >= 1, got {hidden}")
    return hidden


@dataclass(frozen=True)
class ModelDescriptor:
    input_dim: int
    num_classes: int
    hidden: tuple = (256, 128)
    conv_stem: ConvStem | None = None

    def __post_init__(self):
        if self.input_dim < 1 or self.num_classes < 2:
            raise ConfigError(f"invalid model descriptor: {self}")
        check_hidden(self.hidden)
        if self.conv_stem is not None:
            stem = self.conv_stem
            expected = stem.in_channels * stem.height * stem.width
            if expected != self.input_dim:
                raise ConfigError(
                    f"conv stem expects input_dim {expected}, descriptor says {self.input_dim}"
                )
            _stem_output_dim(stem)


def _stem_output_dim(stem):
    h, w = stem.height, stem.width
    for _ in stem.channels:
        h, w = (h - 2) // 2, (w - 2) // 2
        if h < 1 or w < 1:
            raise ConfigError("conv stem reduces spatial size below 1x1")
    return stem.channels[-1] * h * w


def _layout(descriptor):
    """(name, shape, fan_in) of every parameter, in storage order."""
    out = []
    mlp_in = descriptor.input_dim
    stem = descriptor.conv_stem
    if stem is not None:
        c_in = stem.in_channels
        for i, c_out in enumerate(stem.channels):
            fan = c_in * 9
            out += [(f"conv{i}.w", (c_out, c_in, 3, 3), fan), (f"conv{i}.b", (c_out,), fan)]
            c_in = c_out
        mlp_in = _stem_output_dim(stem)
    for i, width in enumerate(descriptor.hidden):
        out += [(f"dense{i}.w", (mlp_in, width), mlp_in), (f"dense{i}.b", (width,), mlp_in)]
        mlp_in = width
    k = descriptor.num_classes
    return out + [("head.w", (mlp_in, k), mlp_in), ("head.b", (k,), mlp_in)]


class Model:
    """All parameters in one vector ``flat``, a copy of the one the model is
    built from, in ``dtype``: the dtype the model computes and steps in
    (float32 unless asked otherwise).

    ``params`` is an ordered name -> Tensor dict whose ``.data`` and ``.grad``
    are writable views into ``flat`` and ``grad``, also in ``dtype``, so a write
    through either side shows in the other and in the next ``forward``.
    ``forward`` computes on arrays and keeps what ``backward`` reads: each dense
    layer's input, and each conv layer's im2col matrix and ReLU output.
    ``backward`` then writes every entry of ``grad``, with no zero fill and no
    tape, so ``grad`` holds the gradient of the last loss whose logits gradient
    it was given.
    """

    def __init__(self, descriptor, flat, dtype=COMPUTE_DTYPE):
        flat = np.array(flat, dtype=dtype)  # a copy, writable even when a checkpoint's read-only bytes are given
        layout = _layout(descriptor)
        sizes = [int(np.prod(shape)) for _, shape, _ in layout]
        if flat.shape != (sum(sizes),):
            raise ShapeMismatchError(f"parameter vector {flat.shape}, descriptor needs ({sum(sizes)},)")
        self.descriptor = descriptor
        self.dtype = flat.dtype
        self.flat = flat
        self.grad = np.zeros_like(flat)
        self.params = {}
        cuts = np.cumsum(sizes)[:-1]
        for (name, shape, _), data, grad in zip(layout, np.split(flat, cuts), np.split(self.grad, cuts)):
            self.params[name] = p = Tensor(data.reshape(shape), requires_grad=True)
            p.grad = grad.reshape(shape)
        layers = list(zip(*[iter(self.params.values())] * 2))  # each layer's (weights, biases), in storage order
        self._conv = layers[: -len(descriptor.hidden) - 1]
        self._dense = layers[len(self._conv) :]  # the hidden layers, then the head
        self._saved = None

    def forward(self, inputs):
        """Map an N x input_dim batch to (features N x D, logits N x K), arrays in ``dtype``.

        A batch of another dtype, array or anything with ``.data``, is cast to
        ``dtype``. What ``backward`` needs is kept until the next call, the
        cast batch included: a batch that views a larger array keeps it alive."""
        x = np.asarray(getattr(inputs, "data", inputs), dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.descriptor.input_dim:
            raise ShapeMismatchError(f"input of shape {x.shape}, model needs N x {self.descriptor.input_dim}")
        stem = self.descriptor.conv_stem
        convs, pooled = [], None
        if stem is not None:
            x = x.reshape(x.shape[0], stem.in_channels, stem.height, stem.width)
            for w, b in self._conv:
                shape = x.shape
                x, cols = nm.conv2d_forward(x, w.data, b.data)
                np.maximum(x, 0.0, out=x)
                convs.append((shape, cols, x))
                x = nm.avg_pool2d_forward(x, 2)
            pooled = x.shape
            x = x.reshape(x.shape[0], -1)
        layer_inputs = []
        last = len(self._dense) - 2  # the final hidden layer stays linear: its output is
        # the feature vector, and l2 normalization needs nonzero rows
        for i, (w, b) in enumerate(self._dense):
            layer_inputs.append(x)
            x = x @ w.data
            x += b.data
            if i < last:
                np.maximum(x, 0.0, out=x)
        self._saved = convs, pooled, layer_inputs
        return layer_inputs[-1], x

    def backward(self, grad_logits):
        """Write into ``grad`` the gradient of a loss whose gradient with respect
        to the last ``forward``'s logits is ``grad_logits``.

        Each parameter's gradient is one product written into its view of
        ``grad``; the batch gets no gradient."""
        convs, pooled, layer_inputs = self._saved
        g = grad_logits
        for i in range(len(self._dense) - 1, -1, -1):
            w, b = self._dense[i]
            np.matmul(layer_inputs[i].T, g, out=w.grad)
            g.sum(axis=0, out=b.grad)
            if i == 0 and not convs:
                return
            g = g @ w.data.T
            if 0 < i < len(self._dense) - 1:  # a ReLU output: its gradient passes where it is positive
                np.multiply(g, layer_inputs[i] > 0, out=g)
        g = g.reshape(pooled)
        for j in range(len(convs) - 1, -1, -1):
            shape, cols, relu = convs[j]
            w, b = self._conv[j]
            g = nm.avg_pool2d_grad(g, relu.shape, 2)
            np.multiply(g, relu > 0, out=g)
            rows = nm.conv2d_rows(g)
            rows.sum(axis=0, out=b.grad)
            np.matmul(rows.T, cols, out=w.grad.reshape(rows.shape[1], -1))
            if j:
                g = nm.conv2d_input_grad(rows, w.data, shape)


def init(descriptor, seed):
    """Seeded scaled-uniform fan-in initialization."""
    rng = np.random.default_rng(seed)
    arrays = []
    for _, shape, fan_in in _layout(descriptor):
        lim = 1.0 / np.sqrt(fan_in)
        arrays.append(rng.uniform(-lim, lim, size=shape).ravel())
    return Model(descriptor, np.concatenate(arrays))


def save_checkpoint(model, path):
    """Flat binary layout: magic, JSON descriptor, little-endian float32 params."""
    fields = asdict(model.descriptor)
    if fields["conv_stem"] is None:
        del fields["conv_stem"]
    desc = json.dumps(fields).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(desc)))
        f.write(desc)
        f.write(model.flat.astype("<f4").tobytes())


def load_checkpoint(path):
    """The float32 model a checkpoint stores, its ``flat`` a writable copy of
    the stored values."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise DataFormatError(f"bad checkpoint magic in {path}")
    if len(blob) < 12:
        raise DataFormatError(f"checkpoint truncated in its header: {path}")
    (desc_len,) = struct.unpack("<I", blob[8:12])
    try:
        fields = json.loads(blob[12 : 12 + desc_len])
        stem = fields.pop("conv_stem", None)
        if stem is not None:
            stem = ConvStem(**{**stem, "channels": tuple(stem["channels"])})
        fields["hidden"] = tuple(fields["hidden"])
        descriptor = ModelDescriptor(**fields, conv_stem=stem)
        expected = 4 * sum(int(np.prod(shape)) for _, shape, _ in _layout(descriptor))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataFormatError(f"bad checkpoint descriptor in {path}: {exc!r}") from None
    payload = blob[12 + desc_len :]
    if len(payload) != expected:
        raise DataFormatError(f"checkpoint truncated or padded: {len(payload)} parameter bytes, not {expected}")
    return Model(descriptor, np.frombuffer(payload, dtype="<f4"))
