"""``Model.forward`` on the tape: the reference that ``Model.backward`` is held to.

``forward`` builds the layers of a model from ``bakekit.numerics``' tape ops
over its parameter leaves, so a tape loss's ``backward`` writes the model's
``grad`` as ``Model.backward`` does. Tests that want a tape loss wrap a
(value, gradient) pair of ``bakekit.losses`` with ``numerics.loss_node``.
"""

import numpy as np

from bakekit import numerics as nm
from bakekit.numerics import Tensor


def forward(model, inputs):
    """(features, logits) of ``model`` on ``inputs`` as tape nodes over ``model.params``."""
    x = Tensor(np.asarray(getattr(inputs, "data", inputs), dtype=model.dtype))
    p = model.params
    stem = model.descriptor.conv_stem
    if stem is not None:
        x = x.reshape(x.shape[0], stem.in_channels, stem.height, stem.width)
        for i in range(len(stem.channels)):
            x = nm.avg_pool2d(nm.relu(nm.conv2d(x, p[f"conv{i}.w"], p[f"conv{i}.b"])), 2)
        x = x.reshape(x.shape[0], -1)
    last = len(model.descriptor.hidden) - 1
    for i in range(last + 1):
        x = nm.linear(x, p[f"dense{i}.w"], p[f"dense{i}.b"])
        if i < last:
            x = nm.relu(x)
    return x, nm.linear(x, p["head.w"], p["head.b"])


def loss(model, inputs, objective):
    """The tape node of ``objective(logits array)``, a (value, gradient) pair, over ``forward``'s logits."""
    _, logits = forward(model, inputs)
    return nm.loss_node(logits, *objective(logits.data)[:2])
