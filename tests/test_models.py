import gc
import json
import struct
import weakref

import numpy as np
import pytest

from bakekit import models as md
from bakekit.bake import BakeConfig, build_soft_targets
from bakekit.errors import ConfigError, DataFormatError, ShapeMismatchError
from bakekit.losses import bake_loss, cross_entropy, soft_cross_entropy
from bakekit.numerics import Tensor
from bakekit.trainer import sgd_step


def mlp(input_dim=6, k=4, hidden=(8, 5), seed=0):
    return md.init(md.ModelDescriptor(input_dim, k, hidden), seed)


class TestForward:
    def test_zero_head_gives_zero_logits(self):
        model = mlp()
        model.flat[-(5 * 4 + 4) :] = 0.0  # head.w and head.b, stored last
        _, logits = model.forward(np.random.default_rng(0).normal(size=(3, 6)))
        assert np.array_equal(logits.data, np.zeros((3, 4)))

    def test_layers_match_hand_matmul(self):
        descriptor = md.ModelDescriptor(3, 2, hidden=(4, 3))
        model = md.Model(descriptor, md.init(descriptor, seed=1).flat, np.float64)
        x = np.eye(3)
        features, logits = model.forward(x)
        p = {k: v.data for k, v in model.params.items()}
        hidden = np.maximum(x @ p["dense0.w"] + p["dense0.b"], 0.0)
        expected = hidden @ p["dense1.w"] + p["dense1.b"]  # feature layer is linear
        assert np.abs(features.data - expected).max() < 1e-12
        assert np.abs(logits.data - (expected @ p["head.w"] + p["head.b"])).max() < 1e-12

    def test_duplicated_rows_duplicate_outputs(self):
        model = mlp(seed=2)
        row = np.random.default_rng(3).normal(size=(1, 6))
        features, logits = model.forward(np.vstack([row, row]))
        assert np.array_equal(features.data[0], features.data[1])
        assert np.array_equal(logits.data[0], logits.data[1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_is_cast_to_model_dtype(self, dtype):
        descriptor = md.ModelDescriptor(6, 4, hidden=(8, 5))
        model = md.Model(descriptor, md.init(descriptor, seed=2).flat, dtype)
        x = np.random.default_rng(3).normal(size=(3, 6))
        for values in (x, x.astype(np.float32)):
            cast = model.forward(values.astype(dtype))[1].data
            for batch in (values, Tensor(values)):
                features, logits = model.forward(batch)
                assert features.data.dtype == logits.data.dtype == dtype
                assert np.array_equal(logits.data, cast)

    def test_input_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mlp().forward(np.zeros((2, 7)))

    def test_features_carry_gradient_targets_do_not(self):
        model = mlp(seed=4)
        features, logits = model.forward(np.random.default_rng(5).normal(size=(3, 6)))
        assert features.requires_grad and logits.requires_grad
        assert isinstance(build_soft_targets(features, logits), np.ndarray)


class TestInit:
    def test_same_seed_identical(self):
        a, b = mlp(seed=9), mlp(seed=9)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_float32_model_holds_and_computes_in_float32(self):
        model = mlp(seed=9)
        assert model.dtype == model.flat.dtype == model.grad.dtype == np.float32
        assert all(p.data.dtype == p.grad.dtype == np.float32 for p in model.params.values())
        x = np.random.default_rng(1).normal(size=(3, 6)).astype(np.float32)
        p = {k: v.data for k, v in model.params.items()}
        expected = np.maximum(x @ p["dense0.w"] + p["dense0.b"], 0.0) @ p["dense1.w"] + p["dense1.b"]
        features, logits = model.forward(x)
        assert expected.dtype == np.float32
        assert np.array_equal(features.data, expected)
        assert np.array_equal(logits.data, expected @ p["head.w"] + p["head.b"])

    def test_different_seeds_differ(self):
        a, b = mlp(seed=1), mlp(seed=2)
        assert not np.array_equal(a.params["dense0.w"].data, b.params["dense0.w"].data)

    def test_fan_in_scaled_uniform_std(self):
        model = md.init(md.ModelDescriptor(100, 3, hidden=(200,)), seed=0)
        w = model.params["dense0.w"].data
        theoretical = (1.0 / np.sqrt(100)) / np.sqrt(3.0)  # uniform(-a, a) std
        assert abs(w.std() - theoretical) / theoretical < 0.2

    def test_parameter_count_is_descriptor_function(self):
        model = mlp(input_dim=6, k=4, hidden=(8, 5))
        expected = 6 * 8 + 8 + 8 * 5 + 5 + 5 * 4 + 4
        assert model.flat.size == expected

    def test_invalid_descriptor(self):
        with pytest.raises(ConfigError):
            md.ModelDescriptor(0, 4)
        with pytest.raises(ConfigError):
            md.ModelDescriptor(10, 1)
        with pytest.raises(ConfigError, match="hidden widths"):
            md.ModelDescriptor(10, 4, hidden=(256, 0))


class TestFlatParameters:
    def test_wrong_length_rejected(self):
        descriptor = md.ModelDescriptor(6, 4, hidden=(8, 5))
        n = mlp().flat.size
        for length in (n - 1, n + 1):
            with pytest.raises(ShapeMismatchError, match=f"needs \\({n},\\)"):
                md.Model(descriptor, np.zeros(length))

    def test_backward_writes_into_model_grad(self):
        model = mlp(seed=5)
        _, logits = model.forward(np.random.default_rng(1).normal(size=(3, 6)))
        cross_entropy(logits, np.array([0, 1, 3])).backward()
        joined = np.concatenate([p.grad.ravel() for p in model.params.values()])
        assert np.abs(model.grad).sum() > 0
        assert np.array_equal(joined, model.grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_sees_in_place_changes_to_flat(self, dtype):
        descriptor = md.ModelDescriptor(6, 4, hidden=(8, 5))
        model = md.Model(descriptor, md.init(descriptor, seed=7).flat, dtype)
        x = np.random.default_rng(8).normal(size=(3, 6))
        model.forward(x)
        model.flat *= 1.5
        fresh = md.Model(descriptor, model.flat.copy(), dtype)
        assert np.array_equal(model.forward(x)[1].data, fresh.forward(x)[1].data)

    def test_float32_parameters_are_written_through_flat(self):
        model = mlp(seed=3)
        x = np.random.default_rng(4).normal(size=(3, 6))
        model.params["head.w"].data[:] = 0.0
        model.params["head.b"].data[:] = np.float32(0.25)
        assert not model.flat[-(5 * 4 + 4) : -4].any()  # head.w and head.b, stored last
        assert np.array_equal(model.flat[-4:], np.full(4, 0.25, np.float32))
        assert np.array_equal(model.forward(x)[1].data, np.full((3, 4), 0.25, np.float32))

    def test_second_backward_overwrites_not_accumulates(self):
        model = mlp(seed=6)
        _, logits = model.forward(np.random.default_rng(2).normal(size=(3, 6)))
        loss = cross_entropy(logits, np.array([2, 0, 1]))
        loss.backward()
        first = model.grad.copy()
        loss.backward()
        assert np.array_equal(model.grad, first)

    def test_freed_without_the_cycle_collector(self):
        # no reference cycle keeps a model, or the gradient buffer its parameters view, alive
        gc.disable()
        try:
            model = mlp(seed=4)
            features, logits = model.forward(np.random.default_rng(5).normal(size=(3, 6)))
            cross_entropy(logits, np.array([0, 1, 3])).backward()
            refs = [weakref.ref(model), weakref.ref(model.grad)]
            del model, features, logits
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_parameter_the_loss_skips_gets_zero_gradient(self):
        model = mlp(seed=9)
        x = np.random.default_rng(3).normal(size=(3, 6))
        _, logits = model.forward(x)
        cross_entropy(logits, np.array([0, 1, 3])).backward()
        assert np.abs(model.params["head.w"].grad).sum() > 0
        features, _ = model.forward(x)
        soft_cross_entropy(features, np.full((3, 5), 0.2)).backward()  # a graph without the head
        assert not model.params["head.w"].grad.any() and not model.params["head.b"].grad.any()
        assert np.abs(model.params["dense0.w"].grad).sum() > 0


class TestConvStem:
    def test_forward_shapes_and_grad(self):
        stem = md.ConvStem(1, 12, 12, channels=(4, 6))
        model = md.init(md.ModelDescriptor(144, 3, hidden=(10,), conv_stem=stem), seed=0)
        x = np.random.default_rng(6).normal(size=(2, 144))
        features, logits = model.forward(x)
        assert features.shape == (2, 10)
        assert logits.shape == (2, 3)
        cross_entropy(logits, np.array([0, 2])).backward()
        assert np.abs(model.params["conv0.w"].grad).sum() > 0

    def test_bake_loss_gradients_match_finite_differences(self):
        """Criterion 4's check through the stem: conv0's gradient crosses conv1's input scatter,
        ``avg_pool2d``, ``relu`` and ``reshape``."""
        h = 1e-5
        rng = np.random.default_rng(12)
        descriptor = md.ModelDescriptor(2 * 12 * 12, 4, hidden=(10,), conv_stem=md.ConvStem(2, 12, 12, channels=(4, 6)))
        model = md.Model(descriptor, md.init(descriptor, seed=5).flat, np.float64)
        x = rng.normal(size=(6, 2 * 12 * 12))
        y = rng.integers(0, 4, size=6)
        cfg = BakeConfig(omega=0.5, tau=4.0)
        features, logits = model.forward(x)
        targets = build_soft_targets(features, logits, labels=y, cfg=cfg)
        bake_loss(logits, y, targets, cfg.tau, cfg.distill_weight)[0].backward()

        def objective():  # the targets are detached: finite differences hold them fixed
            return bake_loss(model.forward(x)[1], y, targets, cfg.tau, cfg.distill_weight)[0].item()

        for name in ("conv0.w", "conv1.w", "conv1.b", "dense0.w"):
            param = model.params[name]
            flat = param.data.reshape(-1)
            for idx in rng.choice(flat.size, size=6, replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                up = objective()
                flat[idx] = orig - h
                down = objective()
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                assert abs(param.grad.reshape(-1)[idx] - fd) / max(abs(fd), 1e-6) <= 1e-4, (name, idx)

    def test_stem_below_one_pixel_rejected_when_built(self):
        with pytest.raises(ConfigError, match="below 1x1"):
            md.ModelDescriptor(9, 4, conv_stem=md.ConvStem(1, 3, 3))

    def test_stem_input_dim_must_match(self):
        with pytest.raises(ConfigError):
            md.ModelDescriptor(100, 3, conv_stem=md.ConvStem(1, 12, 12))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = mlp(seed=11)
        path = tmp_path / "m.ckpt"
        md.save_checkpoint(model, path)
        loaded = md.load_checkpoint(path)
        assert loaded.descriptor == model.descriptor
        # float32 storage holds exactly the parameters a float32 forward computes with
        assert np.array_equal(loaded.flat, model.flat.astype(np.float32))
        x = np.random.default_rng(0).normal(size=(3, 6))
        assert np.array_equal(loaded.forward(x)[1].data, model.forward(x)[1].data)

    def test_loaded_model_trains_and_round_trips_bit_for_bit(self, tmp_path):
        path = tmp_path / "m.ckpt"
        md.save_checkpoint(mlp(seed=11), path)
        loaded = md.load_checkpoint(path)
        assert loaded.flat.flags.writeable and loaded.flat.dtype == np.float32
        assert not np.shares_memory(loaded.flat, np.frombuffer(path.read_bytes(), np.uint8))
        _, logits = loaded.forward(np.random.default_rng(0).normal(size=(3, 6)))
        cross_entropy(logits, np.array([0, 1, 3])).backward()
        before = loaded.flat.copy()
        sgd_step(loaded.flat, loaded.grad, np.zeros_like(loaded.flat), 0.1, 0.9, 1e-4)
        assert not np.array_equal(loaded.flat, before)
        md.save_checkpoint(loaded, path)
        assert np.array_equal(md.load_checkpoint(path).flat, loaded.flat)  # float32 storage rounds nothing

    def test_conv_round_trip(self, tmp_path):
        stem = md.ConvStem(1, 10, 10)
        model = md.init(md.ModelDescriptor(100, 3, hidden=(6,), conv_stem=stem), seed=3)
        path = tmp_path / "conv.ckpt"
        md.save_checkpoint(model, path)
        assert md.load_checkpoint(path).descriptor == model.descriptor

    @pytest.mark.parametrize(
        "descriptor, fields",
        [
            (
                md.ModelDescriptor(6, 4, hidden=(8, 5)),
                {"input_dim": 6, "num_classes": 4, "hidden": [8, 5]},
            ),
            (
                md.ModelDescriptor(100, 3, hidden=(6,), conv_stem=md.ConvStem(1, 10, 10)),
                {
                    "input_dim": 100,
                    "num_classes": 3,
                    "hidden": [6],
                    "conv_stem": {"in_channels": 1, "height": 10, "width": 10, "channels": [8, 16]},
                },
            ),
        ],
    )
    def test_byte_layout(self, tmp_path, descriptor, fields):
        """Magic, descriptor length, JSON descriptor, float32 params in ``params`` order."""
        model = md.init(descriptor, seed=4)
        path = tmp_path / "m.ckpt"
        md.save_checkpoint(model, path)
        desc = json.dumps(fields).encode()
        weights = b"".join(p.data.astype("<f4").tobytes() for p in model.params.values())
        assert path.read_bytes() == b"BAKECKP1" + struct.pack("<I", len(desc)) + desc + weights

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.ckpt"
        md.save_checkpoint(mlp(seed=13), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(DataFormatError, match="padded"):
            md.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTRIGHT" + b"\x00" * 32)
        with pytest.raises(DataFormatError, match="magic"):
            md.load_checkpoint(path)

    def test_truncated(self, tmp_path):
        model = mlp(seed=12)
        path = tmp_path / "m.ckpt"
        md.save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(DataFormatError, match="truncated"):
            md.load_checkpoint(path)
