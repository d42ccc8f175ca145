"""Microbenchmark of the companion sampler: one epoch of batches at 2k-60k examples.

Run from a checkout root with ``python3 -m pytest -q microbench --benchmark-only``
(needs ``pytest-benchmark``). It is not part of the test suite, whose
``testpaths`` is ``tests``.
"""

import numpy as np
import pytest

from bakekit.data import build_class_index
from bakekit.sampling import SamplerConfig, epoch_batches

CLASSES = 100  # the CIFAR-100 shape; class size grows with the example count


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("examples", [2_000, 20_000, 60_000])
def test_epoch_batches(benchmark, examples, m):
    index = build_class_index(np.repeat(np.arange(CLASSES), examples // CLASSES))
    cfg = SamplerConfig(n_hat=256, m=m, seed=0)
    batches = benchmark(epoch_batches, index, cfg, 0)
    assert len(batches) == examples // cfg.n_hat
    assert all(len(b) == cfg.batch_size for b in batches)
