"""Spans around calls into bakekit's layers, installed from outside the package.

Each hook rebinds a name where its caller looks it up (a module attribute or
a class attribute) to a wrapper that records a span: name, start, end, parent
and a few call attributes. Spans are kept in memory and written out at the
end. Nothing under ``src/`` is edited.

A hook whose target no longer exists is reported as an absent layer, so a
refactor that deletes or renames a function leaves the traced run working.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time

import numpy as np

# (module, attribute path, span name). The module is where the caller looks
# the name up, which is not always where the function is defined.
HOOKS = (
    ("bakekit.data", "synth_clusters", "data.synth_clusters"),
    ("bakekit.data", "build_class_index", "data.build_class_index"),
    ("bakekit.trainer", "epoch_batches", "sampling.epoch_batches"),
    ("bakekit.models", "Model.forward", "models.forward"),
    ("bakekit.numerics", "Tensor.backward", "numerics.backward"),
    ("bakekit.numerics", "_toposort", None),  # counts tape nodes, no span
    ("bakekit.bake", "linear_solve", "numerics.linear_solve"),
    ("bakekit.bake", "affinity_matrix", "bake.affinity_matrix"),
    ("bakekit.bake", "propagate_closed_form", "bake.propagate_closed_form"),
    ("bakekit.trainer", "build_soft_targets", "bake.build_soft_targets"),
    ("bakekit.losses", "cross_entropy", "losses.cross_entropy"),
    ("bakekit.losses", "kl_distillation", "losses.kl_distillation"),
    ("bakekit.trainer", "sgd_step", "trainer.sgd_step"),
    ("bakekit.trainer", "evaluate", "trainer.evaluate"),
    ("bakekit.trainer", "train", "trainer.train"),
    ("bakekit.cli", "run_training", "cli.run_training"),
)

# Layers a plain-CE workload never calls. Their times are reported as shares
# of trainer.train time, which read 0 on such a workload instead of a time.
BYPASSABLE = (
    "numerics.linear_solve",
    "bake.affinity_matrix",
    "bake.propagate_closed_form",
    "losses.kl_distillation",
)

NAME, START, END, PARENT, ATTRS = range(5)


def _resolve(module_name, path):
    """(owner, attribute, current value), or None when any part is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = getattr(owner, attr, None)
    if not callable(target):
        return None
    return owner, attr, target


class Tracer:
    """Records spans for the current process; see the module docstring."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans = []
        self.stack = []
        self.absent = []
        self._installed = []

    def install(self):
        for module_name, path, name in self.hooks:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name or f"{module_name}.{path}")
                continue
            owner, attr, original = found
            if name is None:
                wrapper = self._node_counter(original)
            else:
                wrapper = self._spanning(original, name, _ATTRS.get(name))
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _spanning(self, original, name, attrs_of):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, None]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
            if attrs_of is not None:
                span[ATTRS] = {**(span[ATTRS] or {}), **attrs_of(args, result)}
            return result

        return wrapper

    def _node_counter(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            order = original(*args, **kwargs)
            if self.stack:
                span = self.spans[self.stack[-1]]
                span[ATTRS] = {**(span[ATTRS] or {}), "nodes": len(order)}
            return order

        return wrapper

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"absent": self.absent, "spans": self.spans}, f)


def _solve_attrs(args, result):
    a, b = args[0], args[1]
    b = np.asarray(getattr(b, "data", b))
    return {"n": int(np.shape(getattr(a, "data", a))[0]), "k": int(b.shape[1]) if b.ndim == 2 else 1}


def _sampler_attrs(args, batches):
    class_index, cfg = args[0], args[1]
    return {
        "anchors": len(batches) * cfg.n_hat,
        "examples": sum(len(v) for v in class_index.values()),
    }


def _backward_attrs(args, result):
    return {"finite": bool(np.isfinite(args[0].data).all())}


_ATTRS = {
    "numerics.linear_solve": _solve_attrs,
    "sampling.epoch_batches": _sampler_attrs,
    "numerics.backward": _backward_attrs,
}


# -- per-layer metrics ---------------------------------------------------


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans, epochs):
    """Per-layer figures from a span list; ``epochs`` is the traced op count.

    Returns {name: (value, unit)}. Times are seconds per epoch unless the
    unit says otherwise; a layer with no calls reads 0.
    """
    total, calls, self_time, durations = {}, {}, {}, {}
    nodes, steps, nonfinite, solve_flops = [], [], 0, 0.0
    solve_n, anchors, examples = [], 0, 0
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    for i, span in enumerate(spans):
        name, dur, attrs = span[NAME], span[END] - span[START], span[ATTRS] or {}
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + dur - child_time[i]
        durations.setdefault(name, []).append(dur)
        if name == "numerics.backward":
            nodes.append(attrs.get("nodes", 0))
            nonfinite += not attrs.get("finite", True)
        elif name == "numerics.linear_solve":
            n, k = attrs["n"], attrs["k"]
            solve_n.append(n)
            solve_flops += (2.0 / 3.0) * n**3 + 2.0 * n * n * k
        elif name == "sampling.epoch_batches":
            anchors += attrs["anchors"]
            examples += attrs["examples"]
    # A step runs from the end of the previous sgd_step, or of the epoch's
    # sampler call, to the end of its own sgd_step.
    mark = None
    for span in sorted(spans, key=lambda s: s[END]):
        if span[NAME] == "sampling.epoch_batches":
            mark = span[END]
        elif span[NAME] == "trainer.sgd_step":
            if mark is not None:
                steps.append(1e3 * (span[END] - mark))
            mark = span[END]

    per_epoch = 1.0 / max(epochs, 1)
    train_s = total.get("trainer.train", 0.0)

    def per_call(name):
        return total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    def share(seconds):
        return 100.0 * seconds / train_s if train_s > 0 else 0.0

    solve_s = total.get("numerics.linear_solve", 0.0)
    m = {
        "data.synth_clusters.s": (per_call("data.synth_clusters"), "s"),
        "data.build_class_index.s": (per_call("data.build_class_index"), "s"),
        "sampling.epoch_batches.s": (total.get("sampling.epoch_batches", 0.0) * per_epoch, "s/epoch"),
        "sampling.epoch_batches.calls": (calls.get("sampling.epoch_batches", 0) * per_epoch, "1/epoch"),
        "sampling.anchor_coverage": (anchors / examples if examples else 0.0, "ratio"),
        "models.forward.s": (total.get("models.forward", 0.0) * per_epoch, "s/epoch"),
        "models.forward.calls": (calls.get("models.forward", 0) * per_epoch, "1/epoch"),
        "numerics.backward.s": (total.get("numerics.backward", 0.0) * per_epoch, "s/epoch"),
        "numerics.tape_nodes": (float(np.mean(nodes)) if nodes else 0.0, "count"),
        "numerics.linear_solve.calls": (calls.get("numerics.linear_solve", 0) * per_epoch, "1/epoch"),
        "numerics.linear_solve.n": (float(np.mean(solve_n)) if solve_n else 0.0, "count"),
        "numerics.linear_solve.gflops_per_s": (solve_flops / solve_s / 1e9 if solve_s > 0 else 0.0, "GFLOP/s"),
        "bake.build_soft_targets.self_share": (share(self_time.get("bake.build_soft_targets", 0.0)), "%"),
        "losses.cross_entropy.s": (total.get("losses.cross_entropy", 0.0) * per_epoch, "s/epoch"),
        "trainer.sgd_step.s": (total.get("trainer.sgd_step", 0.0) * per_epoch, "s/epoch"),
        "trainer.evaluate.s": (total.get("trainer.evaluate", 0.0) * per_epoch, "s/epoch"),
        "trainer.self_s": (self_time.get("trainer.train", 0.0) * per_epoch, "s/epoch"),
        "trainer.step_ms.p50": (_percentile(steps, 50), "ms"),
        "trainer.step_ms.p99": (_percentile(steps, 99), "ms"),
        "trainer.steps": (float(len(steps)), "count"),
        "trainer.nonfinite_steps": (nonfinite * per_epoch, "1/epoch"),
        "cli.run_training.s.p50": (_percentile(durations.get("cli.run_training", []), 50), "s"),
    }
    for name in BYPASSABLE:
        m[f"{name}.share"] = (share(total.get(name, 0.0)), "%")
        m[f"{name}.s"] = (total.get(name, 0.0) * per_epoch, "s/epoch")
    m["bake.build_soft_targets.self_s"] = (self_time.get("bake.build_soft_targets", 0.0) * per_epoch, "s/epoch")
    return {k: (float(v) if math.isfinite(v) else 0.0, u) for k, (v, u) in m.items()}
