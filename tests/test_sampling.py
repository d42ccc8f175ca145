import numpy as np
import pytest

from bakekit.data import build_class_index
from bakekit.errors import ConfigError
from bakekit.sampling import SamplerConfig, epoch_batches


def make_index(class_sizes):
    labels = np.repeat(np.arange(len(class_sizes)), class_sizes)
    return build_class_index(labels), labels


def _reference_epoch_batches(class_index, cfg, epoch):
    """The per-anchor loop of sampler version 1, kept as the m <= 1 reference."""
    rng = np.random.default_rng(np.uint64(cfg.seed) ^ np.uint64(epoch))
    id_to_class = {}
    for c, ids in class_index.items():
        for i in ids:
            id_to_class[i] = c
    anchors = np.array(sorted(id_to_class), dtype=np.int64)
    rng.shuffle(anchors)
    n_batches = len(anchors) // cfg.n_hat
    batches = []
    for b in range(n_batches):
        batch = []
        for anchor in anchors[b * cfg.n_hat : (b + 1) * cfg.n_hat]:
            batch.append(int(anchor))
            if cfg.m == 0:
                continue
            pool = [i for i in class_index[id_to_class[int(anchor)]] if i != anchor]
            if not pool:
                pool = [int(anchor)]
            replace = len(pool) < cfg.m
            batch.extend(int(i) for i in rng.choice(pool, size=cfg.m, replace=replace))
        batches.append(batch)
    return batches


class _CountingRng:
    """A Generator whose method calls are tallied by name."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls[name] = self._calls.get(name, 0) + 1
            return method(*args, **kwargs)

        return counted


class TestEpochBatches:
    def test_m0_is_a_plain_shuffle(self):
        index, _ = make_index([4, 4])
        batches = epoch_batches(index, SamplerConfig(n_hat=4, m=0, seed=1), epoch=0)
        assert len(batches) == 2
        assert all(len(b) == 4 for b in batches)
        assert sorted(i for b in batches for i in b) == list(range(8))

    def test_reference_batch_size_512(self):
        index, _ = make_index([64] * 16)  # 1024 examples, divisible by n_hat
        cfg = SamplerConfig(n_hat=256, m=1, seed=0)
        batches = epoch_batches(index, cfg, epoch=0)
        assert cfg.batch_size == 512
        assert all(len(b) == 512 for b in batches)

    def test_companions_share_anchor_class(self):
        index, labels = make_index([5, 5, 5, 5])
        cfg = SamplerConfig(n_hat=2, m=3, seed=2)
        for batch in epoch_batches(index, cfg, epoch=0):
            assert len(batch) == 8
            for a in range(0, 8, 4):
                anchor_class = labels[batch[a]]
                companions = batch[a + 1 : a + 4]
                assert all(labels[c] == anchor_class for c in companions)
                assert batch[a] not in companions

    def test_small_class_draws_with_replacement(self):
        index, labels = make_index([2, 2])  # only 1 possible companion each
        cfg = SamplerConfig(n_hat=2, m=3, seed=3)
        for batch in epoch_batches(index, cfg, epoch=0):
            for a in range(0, len(batch), 4):
                companions = batch[a + 1 : a + 4]
                assert all(labels[c] == labels[batch[a]] for c in companions)

    def test_singleton_class_repeats_anchor(self):
        index = {0: [0], 1: [1, 2]}
        cfg = SamplerConfig(n_hat=3, m=1, seed=4)
        (batch,) = epoch_batches(index, cfg, epoch=0)
        pos = batch.index(0)
        assert batch[pos + 1] == 0  # no other member of class 0 exists

    def test_anchor_coverage_once_per_epoch(self):
        index, _ = make_index([6, 6, 6])
        cfg = SamplerConfig(n_hat=6, m=1, seed=5)
        batches = epoch_batches(index, cfg, epoch=3)
        anchors = [b[i] for b in batches for i in range(0, len(b), 2)]
        assert sorted(anchors) == list(range(18))

    def test_trailing_partial_batch_dropped(self):
        index, _ = make_index([5, 5])
        batches = epoch_batches(index, SamplerConfig(n_hat=4, m=0, seed=6), epoch=0)
        assert len(batches) == 2  # 10 anchors -> 2 full batches of 4

    def test_determinism_and_epoch_variation(self):
        index, _ = make_index([8, 8])
        cfg = SamplerConfig(n_hat=4, m=1, seed=7)
        assert epoch_batches(index, cfg, 2) == epoch_batches(index, cfg, 2)
        assert epoch_batches(index, cfg, 2) != epoch_batches(index, cfg, 3)

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize(
        "index,n_hat",
        [
            (make_index([1, 2, 7])[0], 2),
            (make_index([1, 2, 7])[0], 10),
            ({0: [5, 3, 1], 1: [0, 2, 4, 6]}, 2),  # class lists not sorted by id
            (make_index([7, 1, 2, 7, 3])[0], 3),  # 20 examples: not a multiple of n_hat
        ],
    )
    def test_m_at_most_1_matches_reference(self, index, n_hat, m):
        for seed in range(10):
            cfg = SamplerConfig(n_hat=n_hat, m=m, seed=seed)
            for epoch in range(4):
                assert epoch_batches(index, cfg, epoch) == _reference_epoch_batches(index, cfg, epoch)

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("examples", [64, 6400])
    def test_draw_calls_do_not_grow_with_examples(self, monkeypatch, examples, m):
        calls = {}
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            "bakekit.sampling.np.random.default_rng", lambda seed: _CountingRng(default_rng(seed), calls)
        )
        index, _ = make_index([examples // 8] * 8)
        epoch_batches(index, SamplerConfig(n_hat=16, m=m, seed=0), epoch=0)
        assert calls == ({"shuffle": 1, "integers": m} if m else {"shuffle": 1})

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_companions_distinct_when_class_is_large_enough(self, m):
        index, labels = make_index([2, m + 1, m + 3, 9])  # the class of 2 draws with replacement
        group = m + 1
        for seed in range(5):
            for epoch in range(3):
                for batch in epoch_batches(index, SamplerConfig(n_hat=3, m=m, seed=seed), epoch):
                    for a in range(0, len(batch), group):
                        anchor, companions = batch[a], batch[a + 1 : a + group]
                        assert all(labels[c] == labels[anchor] for c in companions)
                        assert anchor not in companions
                        if len(index[labels[anchor]]) >= m + 1:
                            assert len(set(companions)) == m

    def test_distinct_companions_are_uniform(self):
        index = {0: list(range(7))}
        cfg = SamplerConfig(n_hat=7, m=3, seed=11)
        counts = np.zeros((7, 7), dtype=np.int64)  # [anchor, companion]
        for epoch in range(2000):
            (batch,) = epoch_batches(index, cfg, epoch)
            for a in range(0, 28, 4):
                counts[batch[a], batch[a + 1 : a + 4]] += 1
        per_member = counts.sum(axis=0)
        assert np.all(np.abs(per_member - per_member.mean()) <= 0.1 * per_member.mean())
        off_diagonal = counts[~np.eye(7, dtype=bool)]
        assert np.all(np.diag(counts) == 0)
        assert np.all(np.abs(off_diagonal - off_diagonal.mean()) <= 0.1 * off_diagonal.mean())

    def test_empty_index_rejected(self):
        with pytest.raises(ConfigError):
            epoch_batches({}, SamplerConfig(n_hat=2, m=0, seed=0), 0)
        with pytest.raises(ConfigError):
            epoch_batches({0: []}, SamplerConfig(n_hat=2, m=0, seed=0), 0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SamplerConfig(n_hat=0)
        with pytest.raises(ConfigError):
            SamplerConfig(m=-1)
