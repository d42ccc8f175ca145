"""Acceptance suite: one test per release criterion, each prints a PASS line."""

import json
import os

import numpy as np
import pytest

from bakekit import cli
from bakekit import data as dt
from bakekit import models as md
from bakekit import trainer as tr
from bakekit.bake import (
    BakeConfig,
    affinity_matrix,
    build_soft_targets,
    propagate_closed_form,
    propagate_iterative,
)
from bakekit.losses import bake_loss, cross_entropy, kl_distillation
from bakekit.numerics import Tensor
from bakekit.sampling import SamplerConfig, epoch_batches


def _random_prob_rows(rng, n, k):
    p = rng.random((n, k)) + 1e-3
    return p / p.sum(axis=1, keepdims=True)


def _fuzz_corpus(count=200, seed=2024):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 65))
        k = int(rng.integers(2, 21))
        omega = float(rng.uniform(0.1, 0.9))
        a = affinity_matrix(rng.normal(size=(n, int(rng.integers(2, 17)))))
        p = _random_prob_rows(rng, n, k)
        yield a, p, omega


def test_criterion_1_closed_form_iterative_equivalence():
    for a, p, omega in _fuzz_corpus():
        q_inf = propagate_closed_form(a, p, omega)
        assert np.abs(propagate_iterative(a, p, omega, 200) - q_inf).max() <= 1e-8
        for t in (1, 2, 5, 20):
            diff = np.abs(propagate_iterative(a, p, omega, t) - q_inf).max()
            assert diff <= omega**t + 1e-10
    print("PASS criterion 1: closed-form/iterative equivalence and geometric contraction")


def test_criterion_2_row_stochastic_without_renormalization():
    for a, p, omega in _fuzz_corpus():
        assert np.abs(a.sum(axis=1) - 1.0).max() <= 1e-8
        q = propagate_closed_form(a, p, omega)
        assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-8
    print("PASS criterion 2: affinity and target rows sum to 1 with no renormalization")


def test_criterion_3_omega_zero_degeneracy():
    rng = np.random.default_rng(7)
    for _ in range(10):
        descriptor = md.ModelDescriptor(6, 5, hidden=(12, 8))
        model = md.Model(descriptor, md.init(descriptor, seed=int(rng.integers(1e6))).flat, np.float64)
        x = rng.normal(size=(8, 6))
        y = rng.integers(0, 5, size=8)
        loss, _, _ = tr.batch_loss(model, x, y, tr.TrainConfig(bake=BakeConfig(omega=0.0)))
        loss.backward()
        g_bake = {k: p.grad.copy() for k, p in model.params.items()}
        features, logits = model.forward(Tensor(x))
        ce = cross_entropy(logits, y)
        ce.backward()
        assert abs(loss.item() - ce.item()) <= 1e-10
        for k, p in model.params.items():
            assert np.abs(g_bake[k] - p.grad).max() <= 1e-10
    print("PASS criterion 3: omega=0 equals cross-entropy in value and every gradient")


def test_criterion_4_gradient_correctness():
    h = 1e-5
    rng = np.random.default_rng(11)
    for case in range(20):
        descriptor = md.ModelDescriptor(5, 4, hidden=(10, 6))
        model = md.Model(descriptor, md.init(descriptor, seed=case).flat, np.float64)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 4, size=6)
        bake_cfg = BakeConfig(omega=0.5, tau=4.0)

        features, logits = model.forward(Tensor(x))
        targets = build_soft_targets(features, logits, labels=y, cfg=bake_cfg)
        loss, _, _ = bake_loss(logits, y, targets, bake_cfg.tau, bake_cfg.distill_weight)
        loss.backward()

        def objective():
            # the targets are detached: finite differences hold them fixed
            _, z = model.forward(Tensor(x))
            return bake_loss(z, y, targets, bake_cfg.tau, bake_cfg.distill_weight)[0].item()

        for name in ("dense0.w", "dense1.b", "head.w"):
            param = model.params[name]
            flat = param.data.reshape(-1)
            for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                up = objective()
                flat[idx] = orig - h
                down = objective()
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                autodiff = param.grad.reshape(-1)[idx]
                assert abs(autodiff - fd) / max(abs(fd), 1e-6) <= 1e-4
        # no gradient reaches the parameters through the targets: they are a
        # plain array, and the KL at q = p^tau vanishes to rounding error
        assert isinstance(targets, np.ndarray)
        features, logits = model.forward(Tensor(x))
        p_tau = build_soft_targets(features, logits, labels=y, cfg=BakeConfig(omega=0.0))
        kl_only = kl_distillation(logits, p_tau, bake_cfg.tau)
        kl_only.backward()
        for p in model.params.values():
            assert np.abs(p.grad).max() <= 1e-12
    print("PASS criterion 4: autodiff matches central differences; targets carry no gradient")


def test_criterion_5_affinity_properties():
    rng = np.random.default_rng(13)
    a2 = affinity_matrix(rng.normal(size=(2, 9)))
    assert np.array_equal(a2, [[0.0, 1.0], [1.0, 0.0]])
    f = rng.normal(size=(10, 6))
    scales = rng.uniform(0.05, 20.0, size=10)
    assert np.abs(affinity_matrix(f * scales[:, None]) - affinity_matrix(f)).max() <= 1e-10
    logits = rng.normal(size=(10, 7))
    cfg = BakeConfig(omega=0.5, tau=4.0)
    q = build_soft_targets(f, logits, cfg=cfg)
    perm = rng.permutation(10)
    q_perm = build_soft_targets(f[perm], logits[perm], cfg=cfg)
    assert np.abs(q_perm - q[perm]).max() <= 1e-10
    print("PASS criterion 5: exact N=2 affinity, rescaling invariance, permutation equivariance")


def test_criterion_6_sampler_contract():
    labels = np.repeat(np.arange(16), 64)  # 1024 examples, divisible by n_hat
    index = dt.build_class_index(labels)
    cfg = SamplerConfig(n_hat=256, m=1, seed=99)
    batches = epoch_batches(index, cfg, epoch=0)
    assert all(len(b) == 512 for b in batches)
    anchors = []
    for batch in batches:
        for pos in range(0, len(batch), 2):
            anchor, companion = batch[pos], batch[pos + 1]
            anchors.append(anchor)
            assert labels[companion] == labels[anchor]
            assert companion != anchor
    assert sorted(anchors) == list(range(1024))
    assert np.array_equal(epoch_batches(index, cfg, epoch=0), batches)
    print("PASS criterion 6: batch size 512, same-class companions, anchor coverage, determinism")


def _train_arm(method, m, seed, spread, lr, epochs=30):
    train_set, test_set = dt.synth_clusters(10, 200, 32, spread, seed=seed)
    model = md.init(md.ModelDescriptor(32, 10), seed=seed)
    cfg = tr.TrainConfig(
        epochs=epochs,
        base_lr=lr,
        method=method,
        bake=BakeConfig(omega=0.5, tau=4.0, distill_weight=1.0),
        sampler=SamplerConfig(n_hat=32, m=m, seed=seed),
    )
    _, metrics = tr.train(model, train_set, test_set, cfg)
    return metrics[-1].test_top1


def test_criterion_7_desk_scale_training_direction():
    spread, lr = 2.5, 0.07
    vanilla, bake_m1, bake_m0 = [], [], []
    for seed in range(5):
        vanilla.append(_train_arm("vanilla", 0, seed, spread, lr))
        bake_m1.append(_train_arm("bake", 1, seed, spread, lr))
        bake_m0.append(_train_arm("bake", 0, seed, spread, lr))
    med_v, med_m1, med_m0 = map(np.median, (vanilla, bake_m1, bake_m0))
    assert med_m1 >= med_v, f"bake(M=1) median {med_m1} < vanilla median {med_v}"
    assert med_m1 >= med_m0, f"bake(M=1) median {med_m1} < bake(M=0) median {med_m0}"
    print(
        f"PASS criterion 7: medians over 5 seeds — bake(M=1) {med_m1:.4f} >= "
        f"vanilla {med_v:.4f} and >= bake(M=0) {med_m0:.4f}"
    )


@pytest.mark.skipif(
    "BAKE_CIFAR_DIR" not in os.environ,
    reason="optional CIFAR-100 check; set BAKE_CIFAR_DIR to the binary files",
)
def test_criterion_8_optional_cifar():
    cifar = os.environ["BAKE_CIFAR_DIR"]
    train_path = os.path.join(cifar, "train.bin")
    test_path = os.path.join(cifar, "test.bin")
    train_set = dt.load_cifar_binary([train_path])  # normalised by the CIFAR-100 layout's statistics
    test_set = dt.load_cifar_binary([test_path])
    assert train_set.num_classes == test_set.num_classes == 100
    vanilla, bake = [], []
    for seed in range(3):
        for method, m, out in (("vanilla", 0, vanilla), ("bake", 1, bake)):
            model = md.init(
                md.ModelDescriptor(
                    3072, 100, hidden=(256, 128), conv_stem=md.ConvStem(3, 32, 32)
                ),
                seed=seed,
            )
            cfg = tr.TrainConfig(
                epochs=60,
                base_lr=0.05,
                weight_decay=5e-4,
                method=method,
                bake=BakeConfig(omega=0.5, tau=4.0),
                sampler=SamplerConfig(n_hat=64, m=m, seed=seed),
            )
            _, metrics = tr.train(model, train_set, test_set, cfg)
            out.append(1.0 - metrics[-1].test_top1)
    assert np.median(bake) < np.median(vanilla)
    print(f"PASS criterion 8: CIFAR top-1 error bake {np.median(bake):.4f} < vanilla {np.median(vanilla):.4f}")


def test_criterion_9_reproducibility(tmp_path):
    flags = [
        "train", "--synth-classes", "5", "--synth-per-class", "60",
        "--synth-dim", "16", "--epochs", "4", "--n-hat", "16", "--seed", "3",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main([*flags, "--out-dir", str(out_a)]) == 0
    # second invocation reproduces from the first run's manifest
    assert cli.main(
        ["train", "--config", str(out_a / "manifest.json"), "--out-dir", str(out_b)]
    ) == 0
    assert (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()
    manifest_a = json.loads((out_a / "manifest.json").read_text())
    manifest_b = json.loads((out_b / "manifest.json").read_text())
    assert manifest_a == manifest_b
    print("PASS criterion 9: identical manifests yield byte-identical metrics files")
