"""The sampler's output passes the benchmark's correctness checks.

``perfbench/checks.py`` runs outside the timed window of every benchmark
run, and a failed check there counts as a failed operation. This test runs
the same checks on ``epoch_batches`` output, so a change that breaks them
fails here instead of only in a benchmark run. It loads the checks module
by file path and changes nothing under ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bakekit import data as dt
from bakekit import models as md
from bakekit.bake import BakeConfig
from bakekit.sampling import SamplerConfig, epoch_batches

CHECKS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS_PATH)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


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
