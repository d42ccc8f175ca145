"""The sampler's output and the benchmark's configs pass the benchmark's checks.

``perfbench/checks.py`` runs outside the timed window of every benchmark
run, and a failed check there counts as a failed operation. This test runs
the same checks on ``epoch_batches`` output, and trains each workload of
``perfbench/specs.py`` at its smoke-test size, so a change that breaks them,
or breaks how the benchmark builds its configs, fails here instead of only
in a benchmark run. It loads both modules by file path and changes nothing
under ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bakekit import cli
from bakekit import data as dt
from bakekit import models as md
from bakekit.bake import BakeConfig
from bakekit.sampling import SamplerConfig, epoch_batches

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
specs = _load("specs")


@pytest.fixture(scope="module")
def train_set():
    return dt.synth_clusters(5, 20, 8, 3.0, seed=0)[0]


@pytest.mark.parametrize("m", [0, 1])
def test_companion_contract(train_set, m):
    batches = epoch_batches(train_set.class_index, SamplerConfig(n_hat=16, m=m, seed=3), 0)
    passed, detail = checks.companion_contract(train_set.labels, batches, m)
    assert passed, detail


def test_companion_contract_catches_another_class(train_set):
    batches = epoch_batches(train_set.class_index, SamplerConfig(n_hat=16, m=1, seed=3), 0)
    anchor = batches[0, 0]
    batches[0, 1] = np.flatnonzero(train_set.labels != train_set.labels[anchor])[0]
    passed, _ = checks.companion_contract(train_set.labels, batches, 1)
    assert not passed


def test_soft_targets(train_set):
    ids = epoch_batches(train_set.class_index, SamplerConfig(n_hat=16, m=1, seed=3), 0)[0]
    model = md.init(md.ModelDescriptor(8, 5, hidden=(16,)), seed=0)
    x, y = train_set.inputs[ids].astype(np.float64), train_set.labels[ids]
    passed, detail = checks.soft_targets(model, x, y, BakeConfig())
    assert passed, detail


@pytest.mark.parametrize("name", sorted(specs.WORKLOADS))
def test_workload_config_trains(name):
    """Each workload's smoke-test config trains every epoch; bake's soft targets pass."""
    cfg = specs.config(name, 1, tiny=True)
    model, metrics, _ = cli.run_training(cfg)
    assert len(metrics) == cfg["epochs"]
    if cfg["method"] == "bake":
        train_cfg = cli.make_train_config(cfg)
        train_set, _ = cli.load_datasets(cfg)
        ids = epoch_batches(train_set.class_index, train_cfg.sampler, 0)[0]
        x, y = train_set.inputs[ids].astype(np.float64), train_set.labels[ids]
        passed, detail = checks.soft_targets(model, x, y, train_cfg.bake)
        assert passed, detail
