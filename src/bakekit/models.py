"""Small classifiers: an encoder producing features plus a linear head.

One forward pass returns both the encoder features (which drive affinity
estimation) and the logits (which drive the losses).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .errors import ConfigError, DataFormatError, ShapeMismatchError
from .numerics import Tensor

CHECKPOINT_MAGIC = b"BAKECKP1"


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

    @property
    def feature_dim(self):
        return self.hidden[-1]


def _stem_output_dim(stem):
    h, w = stem.height, stem.width
    for _ in stem.channels:
        h, w = (h - 2) // 2, (w - 2) // 2
        if h < 1 or w < 1:
            raise ConfigError("conv stem reduces spatial size below 1x1")
    return stem.channels[-1] * h * w


class Model:
    """Parameter container; ``params`` is an ordered name -> Tensor dict."""

    def __init__(self, descriptor, params):
        self.descriptor = descriptor
        self.params = params

    def parameter_count(self):
        return sum(p.size for p in self.params.values())

    def forward(self, inputs):
        """Map an N x input_dim batch to (features N x D, logits N x K)."""
        x = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
        if x.shape[1] != self.descriptor.input_dim:
            raise ShapeMismatchError(
                f"input dim {x.shape[1]} != model input dim {self.descriptor.input_dim}"
            )
        stem = self.descriptor.conv_stem
        if stem is not None:
            x = x.reshape(x.shape[0], stem.in_channels, stem.height, stem.width)
            for i in range(len(stem.channels)):
                x = nm.conv2d(x, self.params[f"conv{i}.w"], self.params[f"conv{i}.b"])
                x = nm.relu(x)
                x = nm.avg_pool2d(x, 2)
            x = x.reshape(x.shape[0], -1)
        last = len(self.descriptor.hidden) - 1
        for i in range(len(self.descriptor.hidden)):
            x = x @ self.params[f"dense{i}.w"] + self.params[f"dense{i}.b"]
            if i < last:
                x = nm.relu(x)  # the final hidden layer stays linear: its output
                # is the feature vector, and l2 normalization needs nonzero rows
        features = x
        logits = features @ self.params["head.w"] + self.params["head.b"]
        return features, logits


def init(descriptor, seed):
    """Seeded scaled-uniform fan-in initialization."""
    rng = np.random.default_rng(seed)
    params = {}

    def uniform(shape, fan_in):
        lim = 1.0 / np.sqrt(fan_in)
        return Tensor(rng.uniform(-lim, lim, size=shape), requires_grad=True)

    mlp_in = descriptor.input_dim
    if descriptor.conv_stem is not None:
        stem = descriptor.conv_stem
        c_in = stem.in_channels
        for i, c_out in enumerate(stem.channels):
            fan = c_in * 9
            params[f"conv{i}.w"] = uniform((c_out, c_in, 3, 3), fan)
            params[f"conv{i}.b"] = uniform((c_out,), fan)
            c_in = c_out
        mlp_in = _stem_output_dim(stem)
    for i, width in enumerate(descriptor.hidden):
        params[f"dense{i}.w"] = uniform((mlp_in, width), mlp_in)
        params[f"dense{i}.b"] = uniform((width,), mlp_in)
        mlp_in = width
    params["head.w"] = uniform((mlp_in, descriptor.num_classes), mlp_in)
    params["head.b"] = uniform((descriptor.num_classes,), mlp_in)
    return Model(descriptor, params)


def _descriptor_to_dict(d):
    out = {"input_dim": d.input_dim, "num_classes": d.num_classes, "hidden": list(d.hidden)}
    if d.conv_stem is not None:
        s = d.conv_stem
        out["conv_stem"] = {
            "in_channels": s.in_channels,
            "height": s.height,
            "width": s.width,
            "channels": list(s.channels),
        }
    return out


def _descriptor_from_dict(d):
    stem = None
    if d.get("conv_stem"):
        s = d["conv_stem"]
        stem = ConvStem(s["in_channels"], s["height"], s["width"], tuple(s["channels"]))
    return ModelDescriptor(d["input_dim"], d["num_classes"], tuple(d["hidden"]), stem)


def save_checkpoint(model, path):
    """Flat binary layout: magic, JSON descriptor, little-endian float32 params."""
    desc = json.dumps(_descriptor_to_dict(model.descriptor)).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(desc)))
        f.write(desc)
        for p in model.params.values():
            f.write(p.data.astype("<f4").tobytes())


def load_checkpoint(path):
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise DataFormatError(f"bad checkpoint magic in {path}")
    (desc_len,) = struct.unpack("<I", blob[8:12])
    descriptor = _descriptor_from_dict(json.loads(blob[12 : 12 + desc_len]))
    model = init(descriptor, seed=0)
    offset = 12 + desc_len
    for name, p in model.params.items():
        nbytes = p.size * 4
        chunk = blob[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise DataFormatError(f"checkpoint truncated while reading {name}")
        values = np.frombuffer(chunk, dtype="<f4").astype(np.float64)
        model.params[name] = Tensor(values.reshape(p.shape), requires_grad=True)
        offset += nbytes
    if offset != len(blob):
        raise DataFormatError(f"checkpoint has {len(blob) - offset} trailing bytes")
    return model
