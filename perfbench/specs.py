"""The benchmark's workloads: CLI-default recipes at fixed problem sizes.

Each workload is closed-loop with one caller: the next training call starts
only when the previous one returned. The data, model and sampler seed of a
cell is derived from the benchmark's ``--seed`` (see ``config``); everything
else is ``bakekit.cli.DEFAULTS`` plus the overrides below. Why each
workload exists is recorded in BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

DESK = {"synth_classes": 10, "synth_per_class": 200, "n_hat": 32, "m": 1}

WORKLOADS = {
    "bake_desk": {**DESK, "method": "bake"},
    "vanilla_desk": {**DESK, "method": "vanilla"},
    "bake_wide": {"synth_classes": 100, "synth_per_class": 500, "n_hat": 128, "m": 1, "method": "bake", "epochs": 1},
}

# Smoke-test sizes. vanilla_desk keeps its data and runs past epoch 4, where
# it diverges at the seed, so the smoke test still sees failed epochs.
TINY = {
    "bake_desk": {"synth_per_class": 40, "n_hat": 8, "epochs": 2},
    "vanilla_desk": {"epochs": 6},
    "bake_wide": {"synth_classes": 20, "synth_per_class": 40, "n_hat": 16, "epochs": 1},
}

# Distinct data seeds per run: cell j trains on seed * CELL_SEEDS[name] + j
# (cycling), and final_top1 is the mean over one cell per seed, so that it
# depends on the seed alone and spreads less from seed to seed.
CELL_SEEDS = {"bake_desk": 4, "vanilla_desk": 4, "bake_wide": 1}

# Nominal seconds of one cell on the 2-core development host. A run trains a
# number of cells fixed by --seconds alone (see ``cells``), never by how fast
# the host happens to be, so the same seed and --seconds give the same
# operations, and the same failures, on every run.
CELL_SECONDS = {"bake_desk": 7.0, "vanilla_desk": 1.4, "bake_wide": 15.0}


def cells(name, seconds):
    """Cells one run trains: about ``seconds`` of work, and at least one per cell seed."""
    return max(CELL_SEEDS[name], round(seconds / CELL_SECONDS[name]))


def config(name, seed, tiny=False, cell=0):
    """The resolved CLI config dict of training cell ``cell`` of a workload."""
    from bakekit.cli import DEFAULTS

    k = CELL_SEEDS[name]
    return {**DEFAULTS, **WORKLOADS[name], **(TINY[name] if tiny else {}), "seed": seed * k + cell % k}


def examples_per_epoch(cfg):
    """Examples one epoch trains on: whole groups of n_hat anchors, each with
    m companions under bake and none otherwise (trainer.train sets m=0)."""
    n = cfg["synth_classes"] * cfg["synth_per_class"]
    group = cfg["m"] + 1 if cfg["method"] == "bake" else 1
    return (n // cfg["n_hat"]) * cfg["n_hat"] * group
