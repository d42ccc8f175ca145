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
    through either side shows in the other and in the next ``forward``. A
    backward that reaches any parameter zero-fills all of ``grad`` before
    adding into it, so a parameter its loss does not reach reads zero.
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

    def forward(self, inputs):
        """Map an N x input_dim batch to (features N x D, logits N x K).

        A batch of another dtype, array or Tensor, is cast to ``dtype``, as a
        new leaf."""
        x = inputs
        if not isinstance(x, Tensor) or x.data.dtype != self.dtype:
            x = Tensor(np.asarray(getattr(x, "data", x), dtype=self.dtype))
        if x.shape[1] != self.descriptor.input_dim:
            raise ShapeMismatchError(
                f"input dim {x.shape[1]} != model input dim {self.descriptor.input_dim}"
            )
        p = self.params
        stem = self.descriptor.conv_stem
        if stem is not None:
            x = x.reshape(x.shape[0], stem.in_channels, stem.height, stem.width)
            for i in range(len(stem.channels)):
                x = nm.conv2d(x, p[f"conv{i}.w"], p[f"conv{i}.b"])
                x = nm.relu(x)
                x = nm.avg_pool2d(x, 2)
            x = x.reshape(x.shape[0], -1)
        last = len(self.descriptor.hidden) - 1
        for i in range(len(self.descriptor.hidden)):
            x = nm.linear(x, p[f"dense{i}.w"], p[f"dense{i}.b"])
            if i < last:
                x = nm.relu(x)  # the final hidden layer stays linear: its output
                # is the feature vector, and l2 normalization needs nonzero rows
        features = x
        logits = nm.linear(features, p["head.w"], p["head.b"])
        return features, logits


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
