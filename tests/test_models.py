import numpy as np
import pytest

from bakekit import models as md
from bakekit.bake import build_soft_targets
from bakekit.errors import ConfigError, DataFormatError, ShapeMismatchError
from bakekit.losses import cross_entropy
from bakekit.numerics import Tensor


def mlp(input_dim=6, k=4, hidden=(8, 5), seed=0):
    return md.init(md.ModelDescriptor(input_dim, k, hidden), seed)


class TestForward:
    def test_zero_head_gives_zero_logits(self):
        model = mlp()
        model.params["head.w"].data[:] = 0.0
        model.params["head.b"].data[:] = 0.0
        _, logits = model.forward(np.random.default_rng(0).normal(size=(3, 6)))
        assert np.array_equal(logits.data, np.zeros((3, 4)))

    def test_layers_match_hand_matmul(self):
        model = md.init(md.ModelDescriptor(3, 2, hidden=(4, 3)), seed=1)
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
        assert model.parameter_count() == expected

    def test_invalid_descriptor(self):
        with pytest.raises(ConfigError):
            md.ModelDescriptor(0, 4)
        with pytest.raises(ConfigError):
            md.ModelDescriptor(10, 1)
        with pytest.raises(ConfigError, match="hidden widths"):
            md.ModelDescriptor(10, 4, hidden=(256, 0))


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
        for name in model.params:
            # float32 storage quantizes the float64 weights
            assert np.abs(loaded.params[name].data - model.params[name].data).max() < 1e-6

    def test_conv_round_trip(self, tmp_path):
        stem = md.ConvStem(1, 10, 10)
        model = md.init(md.ModelDescriptor(100, 3, hidden=(6,), conv_stem=stem), seed=3)
        path = tmp_path / "conv.ckpt"
        md.save_checkpoint(model, path)
        assert md.load_checkpoint(path).descriptor == model.descriptor

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
