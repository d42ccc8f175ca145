"""Correctness checks on bakekit's outputs, run by the benchmark outside its timed window.

Each check returns (passed, detail). A failed check counts as a failed
operation and makes the run's ``correct`` false; none is ever skipped.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from bakekit.bake import build_soft_targets
from bakekit.numerics import Tensor

ITERATIONS = 200
CLOSED_VS_ITERATED_TOL = 1e-8
ROW_SUM_TOL = 1e-8


def companion_contract(labels, batches, m):
    """Each anchor is followed by m companions of its own class, and no anchor repeats."""
    group = m + 1
    anchors = []
    for batch in batches:
        if len(batch) % group:
            return False, f"batch of {len(batch)} ids is not a multiple of {group}"
        for pos in range(0, len(batch), group):
            anchor, companions = batch[pos], batch[pos + 1 : pos + group]
            anchors.append(anchor)
            wrong = [c for c in companions if labels[c] != labels[anchor]]
            if wrong:
                return False, f"companion {wrong[0]} of anchor {anchor} has another class"
    if len(set(anchors)) != len(anchors):
        return False, "an example is anchored twice in one epoch"
    return True, f"{len(anchors)} anchors, {len(batches)} batches"


def soft_targets(model, x, y, bake_cfg):
    """On one batch: closed-form targets are finite, row-stochastic and match 200 iterations."""
    features, logits = model.forward(Tensor(x))
    closed = build_soft_targets(features, logits, labels=y, cfg=replace(bake_cfg, propagation_mode="closed_form"))
    iterated = build_soft_targets(
        features, logits, labels=y, cfg=replace(bake_cfg, propagation_mode="iterate", iterations=ITERATIONS)
    )
    if not np.isfinite(closed).all():
        return False, "closed-form soft targets are not finite"
    if closed.min() < 0.0:
        return False, f"negative soft target {closed.min():.3e}"
    row_err = float(np.abs(closed.sum(axis=1) - 1.0).max())
    if row_err > ROW_SUM_TOL:
        return False, f"soft-target rows miss 1 by {row_err:.3e}"
    gap = float(np.abs(closed - iterated).max())
    if gap > CLOSED_VS_ITERATED_TOL:
        return False, f"closed form differs from {ITERATIONS} iterations by {gap:.3e}"
    return True, f"row error {row_err:.1e}, closed vs iterated {gap:.1e}"
