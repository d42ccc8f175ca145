"""Dataset acquisition: synthetic clusters plus IDX / CIFAR binary loaders."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_LABEL_BYTES = {10: 1, 100: 2}  # the two CIFAR record layouts, by class count: label bytes per record
# each layout's per-channel (mean, std) of its training split's [0, 1] pixels, to 3 places
CIFAR_CHANNEL_STATS = {
    10: ((0.491, 0.482, 0.447), (0.247, 0.243, 0.262)),
    100: ((0.507, 0.487, 0.441), (0.267, 0.256, 0.276)),
}


@dataclass
class Dataset:
    inputs: np.ndarray  # E x input_dim, float32
    labels: np.ndarray  # E ints in [0, num_classes)
    num_classes: int
    image_shape: tuple | None = None  # (C, H, W) of one example, or None when the examples are not images
    class_index: dict = field(init=False)  # {class: int64 ids}, built from labels

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            bad = self.labels[(self.labels < 0) | (self.labels >= self.num_classes)][0]
            raise DataFormatError(f"label {bad} outside [0, {self.num_classes})")
        self.class_index = build_class_index(self.labels)

    def __len__(self):
        return self.inputs.shape[0]

    @property
    def input_dim(self):
        return self.inputs.shape[1]

    def fingerprint(self):
        import hashlib

        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.inputs))  # hashed in place, not copied
        h.update(np.ascontiguousarray(self.labels))
        return h.hexdigest()


def build_class_index(labels):
    """{class: int64 array of its example ids, ascending}, for each class present."""
    order = np.argsort(labels, kind="stable")
    classes, starts = np.unique(np.asarray(labels)[order], return_index=True)
    return dict(zip(classes.tolist(), np.split(order, starts[1:])))


def check_synth(k_classes, per_class, dim, spread):
    """Refuse the parameters ``synth_clusters`` cannot draw from: a count below 1, or a spread not finite and > 0."""
    if k_classes < 1 or per_class < 1 or dim < 1 or not 0 < spread < math.inf:
        raise ConfigError(f"invalid synth parameters: k={k_classes} per_class={per_class} dim={dim} spread={spread}")


def synth_clusters(k_classes, per_class, dim, spread, seed):
    """Isotropic Gaussian clusters around seeded random centers.

    Returns disjoint (train, test) datasets of per_class and per_class // 5
    (at least 1) examples per class; ``check_synth`` refuses the rest, and a
    spread whose draws leave float32's range is a ``ConfigError`` too."""
    check_synth(k_classes, per_class, dim, spread)
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(k_classes, dim))

    def draw(count):
        # each class's float64 draw is rounded into the float32 inputs as it is
        # made, so no full-size float64 copy of the data exists
        inputs = np.empty((k_classes * count, dim), dtype=np.float32)
        with np.errstate(over="ignore"):  # a draw beyond float32's range rounds to inf, refused below
            for c in range(k_classes):
                inputs[c * count : (c + 1) * count] = centers[c] + spread * rng.normal(size=(count, dim))
        # min and max make no input-sized temporary: freeing one (1.6 MB at bake_wide's size) raises glibc's
        # mmap threshold, which cut the first training cell's minor faults from 184k to 4k
        if not np.isfinite([inputs.min(), inputs.max()]).all():
            raise ConfigError(f"synth spread {spread} draws inputs beyond float32's range")
        labels = np.repeat(np.arange(k_classes), count)
        return Dataset(inputs, labels, k_classes)

    return draw(per_class), draw(max(1, per_class // 5))


def _read_idx_header(blob, path, expected_magic, n_dims):
    if len(blob) < 4 * (1 + n_dims):
        raise DataFormatError(f"{path}: truncated IDX header")
    magic = struct.unpack(">I", blob[:4])[0]
    if magic != expected_magic:
        raise DataFormatError(
            f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    dims = struct.unpack(f">{n_dims}I", blob[4 : 4 + 4 * n_dims])
    return dims, blob[4 + 4 * n_dims :]


def load_idx(images_path, labels_path):
    """Load an IDX image/label file pair (big-endian headers, byte pixels).

    Images are 1 x rows x cols, at least one pixel each, and the class count is 1 + the largest label."""
    with open(images_path, "rb") as f:
        img_blob = f.read()
    with open(labels_path, "rb") as f:
        lbl_blob = f.read()
    (count, rows, cols), pixels = _read_idx_header(img_blob, images_path, IDX_IMAGES_MAGIC, 3)
    if count == 0:
        raise DataFormatError(f"{images_path}: holds no examples")
    if rows == 0 or cols == 0:
        raise DataFormatError(f"{images_path}: its {rows}x{cols} images hold no pixels")
    expected = count * rows * cols
    if len(pixels) != expected:
        raise DataFormatError(
            f"{images_path}: payload has {len(pixels)} bytes, header implies {expected}"
        )
    (lbl_count,), label_bytes = _read_idx_header(lbl_blob, labels_path, IDX_LABELS_MAGIC, 1)
    if len(label_bytes) != lbl_count:
        raise DataFormatError(
            f"{labels_path}: payload has {len(label_bytes)} bytes, header implies {lbl_count}"
        )
    if lbl_count != count:
        raise DataFormatError(
            f"image count {count} != label count {lbl_count}"
        )
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    inputs = np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows * cols)
    return Dataset(np.divide(inputs, 255.0, dtype=np.float32), labels, 1 + int(labels.max()), (1, rows, cols))


def load_cifar_binary(paths):
    """Load CIFAR binary records: label byte(s) then 3x32x32 pixels, in the layout the files' sizes name.

    A record of 3073 bytes is CIFAR-10; one of 3074 is CIFAR-100, whose coarse label byte precedes the fine label
    used here. Channels are scaled to [0, 1], then normalized with the layout's ``CIFAR_CHANNEL_STATS`` row.
    """
    sizes = [os.path.getsize(path) for path in paths]
    fits = [(k, n) for k, n in CIFAR_LABEL_BYTES.items() if all(size and size % (n + 3072) == 0 for size in sizes)]
    if len(fits) != 1:
        raise DataFormatError(
            f"{', '.join(map(str, paths))}: sizes {sizes} fit {'both' if fits else 'neither'} of the CIFAR record "
            f"sizes 3073 (CIFAR-10) and 3074 (CIFAR-100)"
        )
    [(k_classes, label_bytes)] = fits
    raw = np.concatenate([np.fromfile(path, dtype=np.uint8) for path in paths]).reshape(-1, label_bytes + 3072)
    # one float32 array, normalised in place; the explicit dtype keeps NumPy 1.x from dividing in float64
    inputs = np.divide(raw[:, label_bytes:], 255.0, dtype=np.float32)
    mean, std = (np.repeat(np.asarray(row, dtype=np.float32), 1024) for row in CIFAR_CHANNEL_STATS[k_classes])
    inputs -= mean
    inputs /= std
    return Dataset(inputs, raw[:, label_bytes - 1], k_classes, (3, 32, 32))
