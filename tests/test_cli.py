import json
import os
import struct

import numpy as np
import pytest

from bakekit import cli
from bakekit.data import CIFAR_CHANNEL_STATS
from bakekit.models import CHECKPOINT_MAGIC, ConvStem, ModelDescriptor, init, load_checkpoint, save_checkpoint
from bakekit.trainer import EpochMetrics, TrainConfig

SYNTH = [
    "--synth-classes", "4",
    "--synth-per-class", "40",
    "--synth-dim", "8",
]
SMALL = [*SYNTH, "--epochs", "2", "--n-hat", "8"]
BATCH = [*SYNTH, "--n-hat", "8"]  # SMALL without the settings that only training reads


# a 3x3 image that the first conv + pool block shrinks to 0x0
STEM_BELOW_1X1 = json.dumps({
    "input_dim": 9, "num_classes": 4, "hidden": [6],
    "conv_stem": {"in_channels": 1, "height": 3, "width": 3, "channels": [8, 16]},
}).encode()


# settings that a subcommand does not read: at most a config-file key there
DROPPED = [("targets", flag) for flag in (
    ["--method", "vanilla"], ["--lambda", "2"], ["--epsilon", "0.2"], ["--epochs", "3"], ["--lr", "5"],
    ["--momentum", "0.5"], ["--weight-decay", "0.1"], ["--warmup-epochs", "3"], ["--hidden", "3"], ["--conv"],
    ["--out-dir", "nowhere"],
)] + [("compare", ["--method", "vanilla"])]


def write_idx(tmp_path, name, images, labels):
    """uint8 images (N, rows, cols) and labels (N,) as an IDX file pair; returns their paths."""
    images, labels = np.asarray(images, dtype=np.uint8), np.asarray(labels, dtype=np.uint8)
    img, lbl = tmp_path / f"{name}-images.idx", tmp_path / f"{name}-labels.idx"
    img.write_bytes(struct.pack(">IIII", 0x00000803, *images.shape) + images.tobytes())
    lbl.write_bytes(struct.pack(">II", 0x00000801, labels.size) + labels.tobytes())
    return str(img), str(lbl)


def idx_flags(tmp_path, train, test):
    """The IDX flags of two (images, labels) splits, written as IDX file pairs."""
    train_img, train_lbl = write_idx(tmp_path, "train", *train)
    test_img, test_lbl = write_idx(tmp_path, "test", *test)
    return ["--idx-train-images", train_img, "--idx-train-labels", train_lbl,
            "--idx-test-images", test_img, "--idx-test-labels", test_lbl]


def write_cifar(path, classes, records=16):
    """``records`` random CIFAR binary records in the layout of ``classes`` (10 or 100); returns the path."""
    labels = np.arange(records) % 4  # 4 examples in each of 4 classes
    label_bytes = [labels] if classes == 10 else [labels // 2, labels * 7]  # CIFAR-100: coarse, then fine
    pixels = np.random.default_rng(classes).integers(0, 256, size=(records, 3072))
    path.write_bytes(np.column_stack([*label_bytes, pixels]).astype(np.uint8).tobytes())
    return str(path)


def run_train(tmp_path, name, extra=(), data=SYNTH):
    """``train`` on ``data``'s flags with SMALL's other settings, then ``extra``; returns the code and run dir."""
    out = tmp_path / name
    code = cli.main(["train", *data, *SMALL[len(SYNTH):], *extra, "--out-dir", str(out)])
    return code, out


# what a stubbed ``run_training`` reports for a compare cell: one epoch
ONE_EPOCH = [EpochMetrics(0, 1.0, 1.0, 0.0, 0.5, 1.0, 0.0)]


class TestTrainCommand:
    def test_writes_manifest_and_metrics(self, tmp_path, capsys):
        code, out = run_train(tmp_path, "run")
        assert code == 0
        assert capsys.readouterr().out.startswith("final test top-1 ")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert len(manifest["dataset_fingerprint"]) == 64
        # every default is explicit in the resolved config
        assert set(manifest["config"]) == set(cli.DEFAULTS)
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        keys = {"epoch", "train_loss", "train_ce", "train_kl", "test_top1", "test_top5", "nonfinite_steps"}
        assert keys == set(record)
        assert record["nonfinite_steps"] == 0
        assert (out / "model.ckpt").exists()
        assert (out / "timings.txt").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_epoch_writes_strict_json(self, tmp_path):
        def refuse(constant):
            raise ValueError(f"metrics.jsonl holds {constant}")

        code, out = run_train(tmp_path, "run", extra=["--lr", "1e30"])
        assert code == 0
        records = [json.loads(line, parse_constant=refuse) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert records and all(r["train_loss"] is None for r in records)  # a non-finite value is null
        assert all(r["test_top1"] is not None for r in records)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_prints_its_nonfinite_steps_instead_of_a_top1(self, tmp_path, capsys):
        # the default recipe's vanilla arm diverges by its fifth epoch
        out = tmp_path / "run"
        assert cli.main(["train", "--method", "vanilla", "--epochs", "6", "--out-dir", str(out)]) == 0
        records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        nonfinite = sum(r["nonfinite_steps"] for r in records)
        assert nonfinite > 0 and records[-1]["test_top1"] is not None
        printed = capsys.readouterr().out
        assert printed == f"diverged: {nonfinite} steps had a non-finite loss; no final top-1 is reported\n"

    def test_invalid_omega_exits_2(self, tmp_path, capsys):
        code = cli.main(["train", "--omega", "1.5", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "[0,1]" in capsys.readouterr().err

    @pytest.mark.parametrize("spread", ["nan", "inf"])
    def test_nonfinite_synth_spread_exits_2(self, tmp_path, capsys, spread):
        code, out = run_train(tmp_path, "x", extra=["--synth-spread", spread])
        assert code == 2
        assert f"spread={spread}" in capsys.readouterr().err
        assert not (out / "metrics.jsonl").exists()

    def test_synth_spread_beyond_float32_exits_2(self, tmp_path, capsys):
        code, out = run_train(tmp_path, "x", extra=["--synth-spread", "1e39"])
        assert code == 2
        assert capsys.readouterr().err == "config error: synth spread 1e+39 draws inputs beyond float32's range\n"
        assert not out.exists()

    def test_epoch_without_a_batch_exits_2(self, tmp_path, capsys):
        code, out = run_train(tmp_path, "x", extra=["--synth-per-class", "3", "--n-hat", "64"])
        assert code == 2
        assert "12 examples, fewer than n_hat=64" in capsys.readouterr().err
        assert not (out / "metrics.jsonl").exists()

    def test_missing_idx_files_exit_config_error(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "load_datasets", calls.append)
        out = tmp_path / "x"
        argv = ["train", "--idx-train-images", str(tmp_path / "none"), "--epochs", "1", "--out-dir", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: idx data requires --idx-train-images, --idx-train-labels, --idx-test-images "
            "and --idx-test-labels\n"
        )
        assert calls == []
        assert not out.exists()

    def test_empty_idx_split_exits_3_before_training(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.tr, "train", lambda *args: calls.append(args))
        flags = idx_flags(tmp_path, (np.zeros((8, 4, 4)), np.arange(8) % 4), (np.zeros((0, 4, 4)), []))
        code, out = run_train(tmp_path, "x", data=flags)
        assert code == 3
        test_images = flags[flags.index("--idx-test-images") + 1]
        assert capsys.readouterr().err == f"data error: {test_images}: holds no examples\n"
        assert calls == []
        assert not out.exists()

    def test_one_class_idx_labels_exit_3_before_training(self, tmp_path, capsys, monkeypatch):
        # no flag can give a model a second class, so the labels are a data error, not a config one
        calls = []
        monkeypatch.setattr(cli.tr, "train", lambda *args: calls.append(args))
        split = np.zeros((4, 4, 4)), np.zeros(4)
        flags = idx_flags(tmp_path, split, split)
        code, out = run_train(tmp_path, "x", data=flags)
        assert code == 3
        train_labels, test_labels = (flags[flags.index(f"--idx-{s}-labels") + 1] for s in ("train", "test"))
        assert capsys.readouterr().err == (
            f"data error: IDX labels {train_labels} and {test_labels} name one class; a classifier needs at least 2\n"
        )
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("conv", [[], ["--conv"]], ids=["mlp", "conv"])
    def test_zero_pixel_idx_images_exit_3_before_training(self, tmp_path, capsys, monkeypatch, conv):
        # the model would otherwise be built on 0 inputs and refused as a config error
        calls = []
        monkeypatch.setattr(cli.tr, "train", lambda *args: calls.append(args))
        split = np.zeros((8, 0, 5)), np.arange(8) % 4
        flags = idx_flags(tmp_path, split, split)
        code, out = run_train(tmp_path, "x", extra=conv, data=flags)
        assert code == 3
        train_images = flags[flags.index("--idx-train-images") + 1]
        assert capsys.readouterr().err == f"data error: {train_images}: its 0x5 images hold no pixels\n"
        assert calls == []
        assert not out.exists()

    def test_nonexistent_config_file_exits_3(self, tmp_path):
        code = cli.main(
            ["train", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path / "x")]
        )
        assert code == 3

    @pytest.mark.parametrize("flag", ["--config", "--checkpoint", "--idx-train-images"])
    def test_a_directory_for_an_input_file_exits_3(self, tmp_path, capsys, flag):
        # a directory where an input file belongs is a data error, as a missing file is
        split = (np.zeros((8, 2, 2)), np.arange(8) % 2)
        out = ["--out-dir", str(tmp_path / "x")]
        argv = {"--config": ["train", *SMALL, *out], "--checkpoint": ["targets", *BATCH],
                "--idx-train-images": ["train", *idx_flags(tmp_path, split, split), *SMALL[len(SYNTH):], *out]}[flag]
        assert cli.main([*argv, flag, str(tmp_path)]) == 3  # the last of a flag given twice is the one read
        assert capsys.readouterr().err == f"data error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert not (tmp_path / "x").exists()

    def test_an_out_dir_that_is_a_file_exits_1(self, tmp_path, capsys):
        (tmp_path / "x").write_text("")
        code, _ = run_train(tmp_path, "x")
        assert code == 1 and capsys.readouterr().err.startswith("runtime error: [Errno 17] File exists")

    @pytest.mark.parametrize("key,value", [("knowledge", "bogus"), ("epochs", "3")])
    def test_bad_config_file_value_exits_2(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        code = cli.main(  # no --epochs flag, so the file's epochs is the one in force
            ["train", *SYNTH, "--config", str(cfg_path), "--out-dir", str(tmp_path / "x")]
        )
        assert code == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,needle",
        [("{", "not valid JSON"), ("5", "expected a JSON object"), ("[]", "expected a JSON object"),
         ('"abc"', "expected a JSON object")],
    )
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, text, needle):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        code = cli.main(["train", *SMALL, "--config", str(cfg_path), "--out-dir", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(cfg_path) in err and needle in err

    @pytest.mark.parametrize(
        "extra,needle",
        [
            (["--mode", "iterate:x"], "--mode 'iterate:x'"),
            ({"warmup_epochs": "x"}, "config key 'warmup_epochs': expected int, got 'x'"),
            ({"warmup_epochs": 2.5}, "config key 'warmup_epochs': expected int, got 2.5"),
            (["--hidden", "256,x"], "--hidden '256,x'"),
            (["--hidden", ","], "--hidden ','"),
            ({"mode": "iterate:x"}, "--mode 'iterate:x'"),
            (["--hidden", "256,0"], "hidden widths must be"),
            (["--hidden=-3"], "hidden widths must be"),
            ({"cifar_mean": "0.507,0.487,0.441", "cifar_std": "0.267,0.256,0.276"},
             "unknown config keys: ['cifar_mean', 'cifar_std']"),
            (["--mode", "iterate:0"], "iterations must be >= 1, got 0"),
            (["--seed=-1"], "seed must be in [0, 2**64), got -1"),
            (["--seed", str(2**64)], "seed must be in [0, 2**64)"),
            (["--m=-1"], "m must be >= 0, got -1"),
            (["--epochs=-1"], "epochs must be >= 0, got -1"),
            (["--momentum=-1"], "momentum must be in [0, 1), got -1.0"),
            (["--momentum", "1"], "momentum must be in [0, 1), got 1.0"),
            (["--weight-decay=-1"], "weight_decay must be finite and >= 0, got -1.0"),
            # the schedule key of older runs is unknown, in a config file or a manifest
            pytest.param({"schedule": "cosine:5"}, "unknown config keys: ['schedule']", id="cosine-config-file"),
            (["--warmup-epochs", "-2"], "warmup_epochs must be >= 0, got -2"),
            ({"momentum": 1}, "momentum must be in [0, 1), got 1"),
            (["--weight-decay", "nan"], "weight_decay must be finite and >= 0, got nan"),
            (["--tau", "nan"], "tau must be finite and > 0, got nan"),
            (["--lambda", "nan"], "distill_weight must be finite and >= 0, got nan"),
            (["--lr", "nan"], "base_lr must be finite and > 0, got nan"),
            ({"lr": float("nan")}, "base_lr must be finite and > 0, got nan"),
            (["--omega", "1"], "closed-form propagation requires omega < 1"),
            pytest.param({"schedule": "step:1:0.1"}, "unknown config keys: ['schedule']", id="step-config-file"),
            (["--weight-decay", "inf"], "weight_decay must be finite and >= 0, got inf"),
            pytest.param(
                {"training_version": cli.TRAINING_VERSION, "config": dict(cli.DEFAULTS, schedule="step:1:0.1")},
                "unknown config keys: ['schedule']", id="step-manifest",
            ),
            (["--mode", "one-step"], "unrecognized --mode 'one-step'"),
            ({"mode": "one-step"}, "unrecognized --mode 'one-step'"),
            ({"bogus": 1}, "unknown config keys: ['bogus']"),
            ({"warmup_epochs": True}, "config key 'warmup_epochs': expected int, got True"),
            (["--n-hat", "1", "--m", "0"], "bake needs a batch of at least 2, got n_hat * (m + 1) = 1"),
            (["--tau", "1e-300"], "tau=1e-300 puts 1/tau or tau^2 outside the finite, nonzero float32 range"),
            (["--tau", "1e20"], "tau=1e+20 puts 1/tau or tau^2 outside the finite, nonzero float32 range"),
            (["--lambda", "1e39"], "distill_weight=1e+39 is outside the finite float32 range"),
            # the keys of manifests written while a setting named the dataset kind or the CIFAR layout
            pytest.param({"dataset": "bogus"}, "unknown config keys: ['dataset']", id="dataset-key"),
            pytest.param({"cifar_classes": 100}, "unknown config keys: ['cifar_classes']", id="cifar_classes-key"),
        ],
    )
    def test_malformed_value_exits_2_before_data_loads(
        self, tmp_path, capsys, monkeypatch, extra, needle
    ):
        def no_data(cfg):
            raise AssertionError("data loaded before the config was checked")

        monkeypatch.setattr(cli, "load_datasets", no_data)
        if isinstance(extra, dict):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(extra))
            extra = ["--config", str(cfg_path)]
        code, _ = run_train(tmp_path, "x", extra=extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and needle in err

    def test_idx_class_count_comes_from_labels(self, tmp_path):
        rng = np.random.default_rng(0)
        train = rng.integers(0, 256, size=(48, 4, 4)), np.repeat(np.arange(12), 4)
        test = rng.integers(0, 256, size=(12, 4, 4)), np.arange(12)
        code, out = run_train(tmp_path, "run", extra=["--epochs", "1"], data=idx_flags(tmp_path, train, test))
        assert code == 0
        assert load_checkpoint(out / "model.ckpt").descriptor.num_classes == 12

    @pytest.mark.parametrize("classes,conv", [(10, []), (100, ["--conv"])])
    def test_cifar_records_train(self, tmp_path, classes, conv):
        records = write_cifar(tmp_path / "records.bin", classes)
        code, out = run_train(
            tmp_path, "run",
            extra=["--n-hat", "4", "--hidden", "6", "--epochs", "1", *conv],
            data=["--cifar-train", records, "--cifar-test", records],
        )
        assert code == 0
        descriptor = load_checkpoint(out / "model.ckpt").descriptor
        assert descriptor.num_classes == classes
        assert descriptor.conv_stem == (ConvStem(3, 32, 32) if conv else None)

    @pytest.mark.parametrize("classes", sorted(CIFAR_CHANNEL_STATS))
    def test_cifar_normalisation_follows_the_layout(self, tmp_path, classes):
        records = write_cifar(tmp_path / "records.bin", classes)
        cfg = {**cli.DEFAULTS, "cifar_train": records, "cifar_test": records}
        pixels = np.fromfile(records, dtype=np.uint8).reshape(16, -1)[:, -3072:].reshape(16, 3, 1024)
        mean, std = (np.array(row)[:, None] for row in CIFAR_CHANNEL_STATS[classes])
        expected = ((pixels / 255 - mean) / std).reshape(16, 3072)
        for split in cli.load_datasets(cfg):
            np.testing.assert_allclose(split.inputs, expected, rtol=1e-6, atol=1e-6)
            assert split.image_shape == (3, 32, 32)

    @pytest.mark.parametrize("train_bytes,error", [
        (None, "CIFAR train files are CIFAR-10, test files CIFAR-100"),
        (3000, "{}: sizes [3000] fit neither of the CIFAR record sizes 3073 (CIFAR-10) and 3074 (CIFAR-100)"),
        (3073 * 3074, "{}: sizes [9446402] fit both of the CIFAR record sizes 3073 (CIFAR-10) and 3074 (CIFAR-100)"),
    ], ids=["10-100", "neither", "both"])
    def test_cifar_files_of_no_single_layout_exit_3_before_training(
        self, tmp_path, capsys, monkeypatch, train_bytes, error
    ):
        calls = []
        monkeypatch.setattr(cli.tr, "train", lambda *args: calls.append(args))
        train = write_cifar(tmp_path / "train.bin", 10)
        if train_bytes is not None:
            (tmp_path / "train.bin").write_bytes(bytes(train_bytes))
        test = write_cifar(tmp_path / "test.bin", 100)
        code, out = run_train(tmp_path, "run", data=["--cifar-train", train, "--cifar-test", test])
        assert code == 3
        assert capsys.readouterr().err == f"data error: {error.format(train)}\n"
        assert calls == []
        assert not out.exists()

    def test_cifar_without_its_files_exits_2(self, tmp_path, capsys):
        code, out = run_train(tmp_path, "run", data=["--cifar-train", "/nope"])
        assert code == 2
        assert capsys.readouterr().err == "config error: cifar data requires --cifar-train and --cifar-test\n"
        assert not out.exists()

    def test_idx_and_cifar_files_exit_2(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "load_datasets", calls.append)
        records = write_cifar(tmp_path / "records.bin", 10)
        images = np.zeros((16, 4, 4)), np.arange(16) % 4
        data = [*idx_flags(tmp_path, images, images), "--cifar-train", records, "--cifar-test", records]
        code, out = run_train(tmp_path, "run", data=data)
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config error: both idx and cifar files are given; a run reads one kind of data\n"
        assert calls == []
        assert not out.exists()

    def test_config_file_synth_keys_beside_idx_files_train(self, tmp_path):
        # a manifest holds every key, so the synth settings of a file are not refused on IDX data
        _, synth = run_train(tmp_path, "synth", extra=["--epochs", "1"])
        images = np.random.default_rng(0).integers(0, 256, size=(16, 4, 4)), np.arange(16) % 4
        config = ["--config", str(synth / "manifest.json")]
        code, out = run_train(tmp_path, "idx", extra=config, data=idx_flags(tmp_path, images, images))
        assert code == 0
        assert load_checkpoint(out / "model.ckpt").descriptor.input_dim == 16  # the 4x4 images, not synth's 8

    def test_manifest_of_another_method_configures_train(self, tmp_path):
        # one config file serves every method, so its bake settings are not refused under vanilla
        _, bake = run_train(tmp_path, "bake", extra=["--omega", "0.3", "--epochs", "1"])
        out = tmp_path / "vanilla"
        argv = ["train", "--method", "vanilla", "--config", str(bake / "manifest.json"), "--out-dir", str(out)]
        assert cli.main(argv) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["method"], config["omega"]) == ("vanilla", 0.3)

    def test_bake_adds_no_parameters(self, tmp_path):
        # PAPER.md: BAKE trains with zero additional parameters over vanilla
        runs = [run_train(tmp_path, method, extra=["--method", method, "--epochs", "1"]) for method in ("bake", "vanilla")]
        assert [code for code, _ in runs] == [0, 0]
        bake, vanilla = (out / "model.ckpt" for _, out in runs)
        assert bake.stat().st_size == vanilla.stat().st_size
        assert load_checkpoint(bake).flat.size == load_checkpoint(vanilla).flat.size

    def test_bake_without_distillation_or_companions_is_vanilla(self, tmp_path):
        # λ = 0 drops the KL term and M = 0 the companions, so bake trains vanilla's bits; ω = 0 does not,
        # since its KL gradient is zero only up to rounding. metrics.jsonl differs: bake still reports train_kl
        recipe = ["--synth-classes", "5", "--epochs", "3", "--hidden", "16", "--lr", "0.05"]
        runs = [
            run_train(tmp_path, name, extra=[*recipe, *extra])
            for name, extra in (("bake", ["--lambda", "0", "--m", "0"]), ("vanilla", ["--method", "vanilla"]))
        ]
        assert [code for code, _ in runs] == [0, 0]
        bake, vanilla = ((out / "model.ckpt").read_bytes() for _, out in runs)
        assert bake == vanilla

    @pytest.mark.parametrize("rows,cols", [(14, 14), (18, 24), (28, 20)])
    def test_conv_reads_the_idx_image_shape(self, tmp_path, rows, cols):
        # 18x24 has as many pixels as a 3x12x12 image, and 28x20 as no square image
        rng = np.random.default_rng(rows)
        train = rng.integers(0, 256, size=(16, rows, cols)), np.arange(16) % 4
        test = rng.integers(0, 256, size=(4, rows, cols)), np.arange(4)
        extra = ["--conv", "--hidden", "6", "--epochs", "1"]
        code, out = run_train(tmp_path, "run", extra=extra, data=idx_flags(tmp_path, train, test))
        assert code == 0
        assert load_checkpoint(out / "model.ckpt").descriptor.conv_stem == ConvStem(1, rows, cols)

    @pytest.mark.parametrize(
        "train_shape,test_shape,conv", [((16, 16), (8, 32), ["--conv"]), ((4, 4), (5, 5), [])], ids=["conv", "mlp"]
    )
    def test_idx_splits_of_two_image_shapes_exit_3_before_training(
        self, tmp_path, capsys, monkeypatch, train_shape, test_shape, conv
    ):
        # the conv stem would read 8x32 test images as 16x16 ones; an MLP would fail on the test inputs after epoch 0
        calls = []
        monkeypatch.setattr(cli.tr, "train", lambda *args: calls.append(args))
        train = np.zeros((16, *train_shape)), np.arange(16) % 4
        test = np.zeros((4, *test_shape)), np.arange(4)
        code, out = run_train(tmp_path, "run", extra=conv, data=idx_flags(tmp_path, train, test))
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: IDX train images are {(1, *train_shape)} but test images are {(1, *test_shape)}\n"
        )
        assert calls == []
        assert not out.exists()

    def test_conv_without_an_image_shape_exits_2(self, tmp_path, capsys, monkeypatch):
        # synth examples are vectors, even when their dimension is a square; the refusal comes before any data
        def no_work(*_):
            raise AssertionError("data built or workers started before --conv was refused")

        monkeypatch.setattr(cli.dt, "synth_clusters", no_work)
        monkeypatch.setattr(cli, "_map_pinned", no_work)
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        out = tmp_path / "run"
        train = ["train", *SMALL, "--synth-dim", "196", "--conv"]
        compare = ["compare", *SMALL, "--conv", "--methods", "vanilla,bake", "--seeds", "2"]
        for argv in (train, compare):
            assert cli.main([*argv, "--out-dir", str(out)]) == 2
            assert capsys.readouterr().err == (
                "config error: --conv needs image data (idx or cifar files); synth data has no image shape\n"
            )
            assert not out.exists()

    @pytest.mark.parametrize(
        "flags,error",
        [
            (["--synth-classes", "1"],
             "invalid model descriptor: ModelDescriptor(input_dim=8, num_classes=1, hidden=(256, 128), conv_stem=None)"),
            (["--synth-classes", "0"], "invalid synth parameters: k=0 per_class=40 dim=8 spread=3.0"),
            (["--synth-per-class", "0"], "invalid synth parameters: k=4 per_class=0 dim=8 spread=3.0"),
            (["--synth-dim", "0"], "invalid synth parameters: k=4 per_class=40 dim=0 spread=3.0"),
            (["--synth-spread", "0"], "invalid synth parameters: k=4 per_class=40 dim=8 spread=0.0"),
            (["--synth-spread", "-1"], "invalid synth parameters: k=4 per_class=40 dim=8 spread=-1.0"),
            (["--synth-spread", "nan"], "invalid synth parameters: k=4 per_class=40 dim=8 spread=nan"),
            (["--synth-spread", "inf"], "invalid synth parameters: k=4 per_class=40 dim=8 spread=inf"),
            (["--synth-per-class", "3", "--n-hat", "64"],
             "dataset too small for one batch: 12 examples, fewer than n_hat=64"),
        ],
        ids=[
            "classes-1", "classes-0", "per-class-0", "dim-0", "spread-0", "spread-negative", "spread-nan", "spread-inf",
            "no-full-batch",
        ],
    )
    def test_bad_synth_settings_are_refused_before_any_work(self, tmp_path, capsys, monkeypatch, flags, error):
        # the messages the data or the model would give, but before any data is drawn or any worker starts
        def no_work(*_):
            raise AssertionError("a run trained or workers started before the synth settings were refused")

        monkeypatch.setattr(cli, "run_training", no_work)
        monkeypatch.setattr(cli, "_map_pinned", no_work)
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        out = tmp_path / "run"
        for argv in (["train", *SMALL], ["compare", *SMALL, "--methods", "vanilla,bake", "--seeds", "2"]):
            assert cli.main([*argv, *flags, "--out-dir", str(out)]) == 2
            assert capsys.readouterr().err == f"config error: {error}\n"
            assert not out.exists()

    def test_default_recipe_is_library_default(self):
        assert cli.make_train_config(cli.DEFAULTS) == TrainConfig()
        assert cli._parse_hidden(cli.DEFAULTS["hidden"]) == ModelDescriptor.hidden

    def test_byte_identical_reruns(self, tmp_path):
        _, a = run_train(tmp_path, "a")
        _, b = run_train(tmp_path, "b")
        assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()

    def test_rerun_from_manifest_reproduces_metrics(self, tmp_path, capsys):
        _, a = run_train(tmp_path, "a")
        out_b = tmp_path / "b"
        capsys.readouterr()
        code = cli.main(
            ["train", "--config", str(a / "manifest.json"), "--out-dir", str(out_b)]
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        assert (a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()

    def test_fresh_manifest_records_training_version_and_round_trips(self, tmp_path):
        _, a = run_train(tmp_path, "a", extra=["--m", "3", "--epochs", "1"])
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["training_version"] == cli.TRAINING_VERSION
        assert not {"sampler_version", "dtype"} & set(manifest)
        out_b = tmp_path / "b"
        assert cli.main(["train", "--config", str(a / "manifest.json"), "--out-dir", str(out_b)]) == 0
        for name in ("metrics.jsonl", "model.ckpt"):
            assert (a / name).read_bytes() == (out_b / name).read_bytes()

    def test_flags_override_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "seed": 7}))
        code, out = run_train(tmp_path, "run", extra=["--config", str(cfg_path), "--epochs", "2"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2  # flag wins
        assert manifest["config"]["seed"] == 7  # file beats default

    def test_iterate_mode_parses(self, tmp_path):
        code, _ = run_train(tmp_path, "it", extra=["--mode", "iterate:5"])
        assert code == 0

    def test_help_documents_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "400")  # one line per option, however long its help grows
        with pytest.raises(SystemExit):
            cli.main(["train", "--help"])
        lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
        for flag, default in (("--omega", "0.5"), ("--tau", "4.0"), ("--lambda", "1.0"), ("--m", "1")):
            line = next(line for line in lines if line.startswith(flag + " "))
            assert line.endswith(f"(default {default})"), line


class TestSubcommandFlags:
    @staticmethod
    def flags(command):
        parser = cli.build_parser()._subparsers._group_actions[0].choices[command]
        return {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}

    def test_train_takes_every_setting(self):
        settings = {"--" + key.replace("_", "-") for key in cli.DEFAULTS}
        assert self.flags("train") == settings | {"--config", "--out-dir"}

    @pytest.mark.parametrize("command,count", [("train", 29), ("compare", 30), ("targets", 20)])
    def test_flag_count(self, command, count):
        assert len(self.flags(command)) == count

    @pytest.mark.parametrize("command,flag", DROPPED, ids=[f"{c}{f[0]}" for c, f in DROPPED])
    def test_flag_the_subcommand_does_not_read_exits_2(self, tmp_path, capsys, command, flag):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init(ModelDescriptor(8, 4, hidden=(6,)), seed=0), path)
        extra = {
            "targets": ["--checkpoint", str(path)],
            "compare": ["--epochs", "1", "--methods", "bake", "--seeds", "1", "--out-dir", str(tmp_path / "cmp")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *BATCH, *flag, *extra])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


class TestCompareCommand:
    def test_two_method_summary(self, tmp_path):
        out = tmp_path / "cmp"
        code = cli.main(
            ["compare", *SMALL, "--methods", "vanilla,bake", "--seeds", "2", "--out-dir", str(out)]
        )
        assert code == 0
        lines = (out / "summary.tsv").read_text().splitlines()
        assert lines[0] == "method\tmean_top1\tstd_top1\tseeds\tdiverged"
        assert len(lines) == 3
        assert lines[1].startswith("vanilla\t")
        assert lines[2].startswith("bake\t")

    def test_diverged_cells_are_counted_and_left_out_of_the_mean(self, tmp_path, capsys, monkeypatch):
        # vanilla's seed 1 has non-finite steps in its first epoch only; every bake cell diverges
        def run(cfg):
            nonfinite = cfg["method"] == "bake" or cfg["seed"] == 1
            top1 = {0: 0.5, 1: 0.1, 2: 0.7}[cfg["seed"]]
            return None, [EpochMetrics(0, 1.0, 1.0, 0.0, 0.4, 1.0, 0.0, 3 * nonfinite),
                          EpochMetrics(1, 1.0, 1.0, 0.0, top1, 1.0, 0.0)], None

        monkeypatch.setattr(cli, "_usable_cores", lambda: 1)  # the patch reaches no worker process
        monkeypatch.setattr(cli, "run_training", run)
        out = tmp_path / "x"
        assert cli.main(["compare", *SMALL, "--methods", "vanilla,bake", "--seeds", "3", "--out-dir", str(out)]) == 0
        table = (out / "summary.tsv").read_text()
        assert table.splitlines()[1:] == ["vanilla\t0.6000\t0.1000\t3\t1", "bake\tnan\tnan\t3\t3"]
        assert capsys.readouterr().out == table

    def test_omega_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep"
        methods = "bake:omega=0.0,bake:omega=0.5,bake:omega=0.9"
        code = cli.main(
            ["compare", *SMALL, "--epochs", "1", "--methods", methods, "--seeds", "1",
             "--out-dir", str(out)]
        )
        assert code == 0
        lines = (out / "summary.tsv").read_text().splitlines()
        assert len(lines) == 4

    def test_empty_methods_exits_2(self, tmp_path):
        assert cli.main(["compare", *SMALL, "--methods", "", "--out-dir", str(tmp_path)]) == 2

    def test_zero_seeds_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert cli.main(["compare", *SMALL, "--methods", "bake", "--seeds", "0", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "config error: --seeds must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_zero_epochs_exits_2(self, tmp_path, capsys, monkeypatch, source):
        calls = []
        monkeypatch.setattr(cli, "run_training", calls.append)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 0}))
        extra = ["--epochs", "0"] if source == "flag" else ["--config", str(cfg_path)]
        out = tmp_path / "x"
        argv = ["compare", *BATCH, *extra, "--methods", "vanilla", "--seeds", "1", "--out-dir", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "config error: compare needs epochs >= 1 to report a top-1, got 0\n"
        assert calls == []
        assert not out.exists()

    def test_unknown_method_exits_2(self, tmp_path):
        code = cli.main(
            ["compare", *SMALL, "--methods", "magic", "--out-dir", str(tmp_path / "x")]
        )
        assert code == 2

    def test_unsupported_token_override_exits_2(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_training", calls.append)
        out = tmp_path / "x"
        assert cli.main(["compare", *SMALL, "--methods", "bake:foo=1", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "config error: unsupported override 'foo' in method token 'bake:foo=1'\n"
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("token", ["bake:omega=abc", "bake:m=1.5", "bake:omega=0.1,omega=0.9"])
    def test_malformed_token_override_exits_2(self, tmp_path, capsys, token):
        code = cli.main(["compare", *SMALL, "--methods", token, "--out-dir", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"method token {token!r}" in err

    def test_bad_token_trains_no_cell(self, tmp_path, monkeypatch):
        calls = []

        def counting_run(cfg):
            calls.append(cfg)
            return None, [], None

        monkeypatch.setattr(cli, "run_training", counting_run)
        monkeypatch.setattr(cli, "_usable_cores", lambda: 1)  # the patch reaches no worker process
        for methods, extra in (
            ("vanilla,bake:mode=iterate:0", []), ("vanilla,bake:omega=1", []), ("vanilla,bake:m=0", ["--n-hat", "1"])
        ):
            out = tmp_path / "x"
            code = cli.main(
                ["compare", *SMALL, *extra, "--methods", methods, "--seeds", "3",
                 "--out-dir", str(out)]
            )
            assert code == 2, methods
            assert len(calls) == 0, methods
            assert not (out / "summary.tsv").exists(), methods

    def test_token_carries_several_overrides(self, tmp_path, monkeypatch):
        cells = []

        def recording_run(cfg):
            cells.append(cfg)
            return None, ONE_EPOCH, None

        monkeypatch.setattr(cli, "_usable_cores", lambda: 1)  # the patch reaches no worker process
        monkeypatch.setattr(cli, "run_training", recording_run)
        out = tmp_path / "x"
        code = cli.main(
            ["compare", *SMALL, "--methods", "bake:omega=0.9,mode=iterate:3,vanilla", "--seeds", "1",
             "--out-dir", str(out)]
        )
        assert code == 0
        lines = (out / "summary.tsv").read_text().splitlines()
        assert [line.split("\t")[0] for line in lines[1:]] == ["bake:omega=0.9,mode=iterate:3", "vanilla"]
        bake, vanilla = cells
        assert (bake["method"], bake["omega"], bake["mode"]) == ("bake", 0.9, "iterate:3")
        assert (vanilla["method"], vanilla["omega"], vanilla["mode"]) == ("vanilla", 0.5, "closed")

    def test_worker_pool_matches_sequential(self, tmp_path, monkeypatch):
        # the final top-1 of every cell, at full precision, in job order
        cells = {}
        run_cell, map_pinned = cli._compare_cell, cli._map_pinned

        def in_process(job):
            cells.setdefault("in-process", []).append(run_cell(job))
            return cells["in-process"][-1]

        def pooled(fn, jobs, workers):
            cells["pool"] = map_pinned(fn, jobs, workers)
            return cells["pool"]

        monkeypatch.setattr(cli, "_map_pinned", pooled)
        argv = ["compare", *SMALL, "--methods", "vanilla,bake", "--seeds", "2", "--out-dir", str(tmp_path)]
        with monkeypatch.context() as one_core:
            one_core.setattr(cli, "_usable_cores", lambda: 1)
            one_core.setattr(cli, "_compare_cell", in_process)
            assert cli.main(argv) == 0
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        assert cli.main(argv) == 0
        assert len(cells["in-process"]) == 4
        assert cells["pool"] == cells["in-process"]

    def test_single_cell_spawns_no_process(self, tmp_path, monkeypatch):
        def no_pool(*_):
            raise AssertionError("a single cell started worker processes")

        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        monkeypatch.setattr(cli, "_map_pinned", no_pool)
        argv = ["compare", *SMALL, "--methods", "bake", "--seeds", "1", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0

    def test_repeated_method_token_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert cli.main(["compare", *SMALL, "--methods", "bake,bake", "--seeds", "1", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "config error: method tokens 'bake' and 'bake' train the same config\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "first,second",
        [("bake", "bake:omega=0.5"), ("bake", "bake:tau=4"), ("bake:mode=iterate:1", "bake:mode=iterate:01")],
    )
    def test_two_spellings_of_one_config_exit_2(self, tmp_path, capsys, monkeypatch, first, second):
        calls = []
        monkeypatch.setattr(cli, "run_training", calls.append)
        out = tmp_path / "x"
        argv = ["compare", *SMALL, "--methods", f"{first},{second}", "--seeds", "2", "--out-dir", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"config error: method tokens {first!r} and {second!r} train the same config\n"
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("methods", ["bake,bake:omega=0.9"])
    def test_configs_that_differ_train_a_row_each(self, tmp_path, monkeypatch, methods):
        monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
        monkeypatch.setattr(cli, "run_training", lambda cfg: (None, ONE_EPOCH, None))
        out = tmp_path / "x"
        assert cli.main(["compare", *SMALL, "--methods", methods, "--seeds", "2", "--out-dir", str(out)]) == 0
        rows = (out / "summary.tsv").read_text().splitlines()[1:]
        assert [row.split("\t")[0] for row in rows] == methods.split(",")

    @pytest.mark.parametrize("key", [opt.key for opt in cli.OPTIONS if opt.token])
    def test_every_token_key_reaches_the_train_config(self, key):
        # so comparing train configs tells apart every pair of tokens that set a key differently; a token
        # sets only keys its method reads, and under any other method the key keeps its default
        other = {
            "omega": 0.25, "tau": 2.0, "lambda": 0.5, "epsilon": 0.2, "m": 3, "mode": "iterate:2", "knowledge": "onehot"
        }[key]
        assert other != cli.DEFAULTS[key]
        for method in cli.tr.METHODS:
            base = {**cli.DEFAULTS, "method": method}
            reads = method in cli.OPTION[key].token
            assert (cli.make_train_config({**base, key: other}) != cli.make_train_config(base)) is reads, method

    @pytest.mark.parametrize("file", [{"omega": 1}, {"n_hat": 1, "m": 0}], ids=["omega1", "batch1"])
    def test_vanilla_study_ignores_the_files_bake_settings(self, tmp_path, capsys, monkeypatch, file):
        # each cell is checked only against the settings its method reads
        monkeypatch.setattr(cli, "_usable_cores", lambda: 1)  # the patch reaches no worker process
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(file))
        argv = ["compare", *SYNTH, "--epochs", "1", "--lr", "0.01", "--seeds", "1", "--config", str(cfg_path)]
        assert cli.main([*argv, "--methods", "vanilla", "--out-dir", str(tmp_path / "vanilla")]) == 0
        assert (tmp_path / "vanilla" / "summary.tsv").read_text().splitlines()[1].startswith("vanilla\t")
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(cli, "run_training", calls.append)
        out = tmp_path / "both"
        assert cli.main([*argv, "--methods", "vanilla,bake", "--out-dir", str(out)]) == 2
        needle = "closed-form propagation requires omega < 1" if "omega" in file else "bake needs a batch of at least 2"
        assert capsys.readouterr().err.startswith(f"config error: {needle}")
        assert calls == [] and not out.exists()

    def test_every_cell_is_checked_before_the_first_trains(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
        monkeypatch.setattr(cli, "run_training", calls.append)
        # the first seed is the largest a seed can be; the second is out of range
        argv = ["compare", *SMALL, "--methods", "bake", "--seed", str(2**64 - 1), "--seeds", "2",
                "--out-dir", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        assert f"seed must be in [0, 2**64), got {2**64}" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("before", ["4", None])
    def test_workers_run_one_blas_thread(self, monkeypatch, before):
        if before is None:
            monkeypatch.delenv(cli.BLAS_THREADS_VAR, raising=False)
        else:
            monkeypatch.setenv(cli.BLAS_THREADS_VAR, before)
        assert cli._map_pinned(os.getenv, [cli.BLAS_THREADS_VAR] * 2, 2) == ["1", "1"]
        assert os.environ.get(cli.BLAS_THREADS_VAR) == before


class TestTargetsCommand:
    def test_prints_top3_rows(self, tmp_path, capsys):
        _, out = run_train(tmp_path, "run")
        capsys.readouterr()  # drop the train run's stdout
        code = cli.main(
            ["targets", *BATCH, "--checkpoint", str(out / "model.ckpt"), "--rows", "4"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            assert "gt=" in line and "top3:" in line
            probs = [float(cell.split(":")[1]) for cell in line.split("top3: ")[1].split()]
            assert sum(probs) <= 1.0 + 1e-9

    def test_knowledge_flag_reaches_targets(self, tmp_path, capsys):
        _, out = run_train(tmp_path, "run")
        capsys.readouterr()
        code = cli.main(
            ["targets", *BATCH, "--checkpoint", str(out / "model.ckpt"),
             "--knowledge", "onehot", "--omega", "0", "--rows", "8"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        for line in lines:
            gt = line.split("gt=")[1].split()[0]
            assert f"top3: {gt}:1.0000" in line

    def test_omega_zero_targets_equal_model_probs(self, tmp_path, capsys):
        _, out = run_train(tmp_path, "run")
        cli.main(
            ["targets", *BATCH, "--checkpoint", str(out / "model.ckpt"),
             "--omega", "0.0", "--tau", "1.0", "--rows", "2"]
        )
        printed = capsys.readouterr().out
        # recompute the same batch's probabilities directly
        import bakekit.data as dt
        import bakekit.models as md
        from bakekit.bake import _softmax_rows
        from bakekit.sampling import SamplerConfig, epoch_batches

        train_set, _ = dt.synth_clusters(4, 40, 8, 3.0, seed=0)
        model = md.load_checkpoint(out / "model.ckpt")
        batch = epoch_batches(train_set.class_index, SamplerConfig(8, 1, 0), 0)[0]
        x = train_set.inputs[np.asarray(batch)].astype(np.float64)
        _, logits = model.forward(x)
        probs = _softmax_rows(logits.astype(np.float64))
        top = np.argsort(-probs[0], kind="stable")[:3]
        for c in top:
            assert f"{c}:{probs[0, c]:.4f}" in printed

    def test_checkpoint_targets_are_the_trained_models(self, tmp_path, capsys, monkeypatch):
        import bakekit.data as dt
        import bakekit.models as md
        from bakekit.bake import BakeConfig, build_soft_targets
        from bakekit.sampling import SamplerConfig, epoch_batches

        trained = []
        real_run = cli.run_training

        def recording_run(cfg):
            trained.append(real_run(cfg))
            return trained[-1]

        monkeypatch.setattr(cli, "run_training", recording_run)
        _, out = run_train(tmp_path, "run")
        model = trained[0][0]
        assert np.array_equal(md.load_checkpoint(out / "model.ckpt").flat, model.flat.astype(np.float32))
        capsys.readouterr()
        assert cli.main(["targets", *BATCH, "--checkpoint", str(out / "model.ckpt"), "--rows", "8"]) == 0
        printed = capsys.readouterr().out.splitlines()
        train_set, _ = dt.synth_clusters(4, 40, 8, 3.0, seed=0)
        ids = epoch_batches(train_set.class_index, SamplerConfig(8, 1, 0), 0)[0]
        y = train_set.labels[ids]
        features, logits = model.forward(train_set.inputs[ids])
        q = build_soft_targets(features, logits, labels=y, cfg=BakeConfig())
        for row, line in enumerate(printed):
            top = np.argsort(-q[row], kind="stable")[:3]
            cells = " ".join(f"{int(c)}:{q[row, c]:.4f}" for c in top)
            assert line == f"row {row} gt={int(y[row])} top3: {cells}"
        assert len(printed) == 8

    def test_bake_settings_of_a_vanilla_config_configure_targets(self, tmp_path, capsys):
        _, out = run_train(tmp_path, "run")
        argv = ["targets", *BATCH, "--checkpoint", str(out / "model.ckpt"), "--rows", "8"]
        capsys.readouterr()
        assert cli.main([*argv, "--omega", "0", "--tau", "1"]) == 0
        by_flags = capsys.readouterr().out
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"method": "vanilla", "omega": 0, "tau": 1}))
        assert cli.main([*argv, "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out == by_flags
        cfg_path.write_text(json.dumps({"method": "vanilla", "omega": 1}))
        assert cli.main([*argv, "--config", str(cfg_path)]) == 2
        assert "closed-form propagation requires omega < 1" in capsys.readouterr().err

    def test_train_manifest_configures_targets(self, tmp_path, capsys):
        # the manifest's training-only keys are type-checked and ignored
        _, out = run_train(tmp_path, "run")
        argv = ["targets", "--checkpoint", str(out / "model.ckpt"), "--rows", "8"]
        capsys.readouterr()
        assert cli.main([*argv, *BATCH]) == 0
        by_flags = capsys.readouterr().out
        assert cli.main([*argv, "--config", str(out / "manifest.json")]) == 0
        assert capsys.readouterr().out == by_flags
        assert len(by_flags.splitlines()) == 8

    @pytest.mark.parametrize("rows", ["0", "-3"])
    def test_rows_below_one_exits_2_before_the_checkpoint_loads(self, tmp_path, capsys, rows):
        code = cli.main(["targets", *BATCH, "--checkpoint", str(tmp_path / "no.ckpt"), "--rows", rows])
        assert code == 2
        assert capsys.readouterr().err == "config error: --rows must be >= 1\n"

    def test_dataset_too_small_for_one_batch_exits_2(self, tmp_path, capsys):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init(ModelDescriptor(8, 4, hidden=(6,)), seed=0), path)
        assert cli.main(["targets", *BATCH, "--n-hat", "100000", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "too small for one batch: 160 examples" in err

    def test_too_small_synth_data_exits_2_before_the_checkpoint_flag_is_read(self, capsys):
        assert cli.main(["targets", *BATCH, "--n-hat", "100000"]) == 2
        assert capsys.readouterr().err == (
            "config error: dataset too small for one batch: 160 examples, fewer than n_hat=100000\n"
        )

    def test_no_checkpoint_flag_exits_3(self, capsys):
        assert cli.main(["targets", *BATCH]) == 3
        assert capsys.readouterr().err == "data error: targets requires --checkpoint\n"

    def test_missing_checkpoint_exits_3(self, tmp_path):
        code = cli.main(["targets", *BATCH, "--checkpoint", str(tmp_path / "no.ckpt")])
        assert code == 3

    @pytest.mark.parametrize(
        "body,needle",
        [
            (b"\x01\x00", "truncated in its header"),
            (struct.pack("<I", 5) + b"{nope", "bad checkpoint descriptor"),
            (struct.pack("<I", 33) + b'{"num_classes": 4, "hidden": [8]}', "'input_dim'"),
            (struct.pack("<I", len(STEM_BELOW_1X1)) + STEM_BELOW_1X1, "below 1x1"),
        ],
        ids=["short-header", "not-json", "missing-key", "stem-below-1x1"],
    )
    def test_corrupt_checkpoint_exits_3(self, tmp_path, capsys, body, needle):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + body)
        assert cli.main(["targets", *BATCH, "--checkpoint", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error") and needle in err

    @pytest.mark.parametrize(
        "descriptor,data,needle",
        [
            (ModelDescriptor(16, 4, hidden=(6,)), [], "input dim 16 and 4 classes; the dataset has 8 and 4"),
            (ModelDescriptor(8, 5, hidden=(6,)), [], "input dim 8 and 5 classes; the dataset has 8 and 4"),
            # as many pixels as the 28x28 IDX images, in another shape
            (ModelDescriptor(784, 4, hidden=(6,), conv_stem=ConvStem(1, 14, 56)), "idx",
             "conv stem for (1, 14, 56) images; the dataset's image shape is (1, 28, 28)"),
            # synth examples are vectors, even when their dimension is a square
            (ModelDescriptor(196, 4, hidden=(6,), conv_stem=ConvStem(1, 14, 14)), ["--synth-dim", "196"],
             "conv stem for (1, 14, 14) images; the dataset's image shape is None"),
        ],
        ids=["16-4", "8-5", "stem-for-other-images", "stem-on-synth"],
    )
    def test_checkpoint_for_other_data_exits_3(self, tmp_path, capsys, descriptor, data, needle):
        path = tmp_path / "other.ckpt"
        save_checkpoint(init(descriptor, seed=0), path)
        if data == "idx":
            images = np.zeros((16, 28, 28)), np.arange(16) % 4
            data = [*idx_flags(tmp_path, images, images), "--n-hat", "8"]
        else:
            data = [*BATCH, *data]
        assert cli.main(["targets", *data, "--checkpoint", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error")
        assert needle in err

    def test_duplicate_pair_mixes_mass(self, tmp_path, capsys):
        # two near-duplicate same-class inputs: each row's target mixes the other's class mass
        _, out = run_train(tmp_path, "run")
        import bakekit.models as md
        from bakekit.bake import BakeConfig, _softmax_rows, build_soft_targets

        model = md.load_checkpoint(out / "model.ckpt")
        rng = np.random.default_rng(0)
        base = rng.normal(size=8)
        x = np.stack([base, base + 1e-9 * rng.normal(size=8)])
        features, logits = model.forward(x)
        q = build_soft_targets(features, logits, cfg=BakeConfig(omega=0.5, tau=1.0))
        p = _softmax_rows(logits.astype(np.float64))
        other_top = int(np.argmax(p[1]))
        assert q[0, other_top] >= 0.45 * p[1, other_top]


@pytest.mark.parametrize(
    "argv",
    [["train", "--mode", "one-step"], ["targets", "--mode", "one-step"], ["compare", "--methods", "bake:mode=one-step"]],
    ids=["train", "targets", "compare"],
)
def test_one_step_is_not_a_mode(tmp_path, capsys, argv):
    # iterate:1 is the one spelling of a single round
    out = tmp_path / "run"
    extra = ["--checkpoint", str(tmp_path / "no.ckpt")] if argv[0] == "targets" else ["--out-dir", str(out)]
    assert cli.main([*argv, *BATCH, *extra]) == 2
    assert "unrecognized --mode 'one-step'" in capsys.readouterr().err
    assert not out.exists()


# the stamps of manifests this version does not reproduce: one with no stamp, one of another training version, and
# those written before the one stamp (sampler version 1 and float64 runs wrote no sampler_version or dtype)
STALE_STAMPS = {
    "training_version-None": {},
    "training_version-other": {"training_version": cli.TRAINING_VERSION - 1},
    "pre-change": {"sampler_version": 2, "dtype": "float32"},
    "sampler_version-None": {"dtype": "float32"},
    "sampler_version-1": {"sampler_version": 1, "dtype": "float32"},
    "dtype-None": {"sampler_version": 2},
    "dtype-float64": {"sampler_version": 2, "dtype": "float64"},
}


@pytest.mark.parametrize("command", ["train", "compare", "targets"])
@pytest.mark.parametrize("stamps", STALE_STAMPS.values(), ids=STALE_STAMPS)
def test_stale_manifest_is_refused(tmp_path, capsys, command, stamps):
    small = dict(synth_classes=4, synth_per_class=40, synth_dim=8, epochs=1, n_hat=8)
    config = dict(cli.DEFAULTS, **small)
    if stamps.keys() & {"sampler_version", "dtype"}:  # such manifests also hold the schedule key
        del config["warmup_epochs"]
        config["schedule"] = "cosine:5"
    manifest = {**stamps, "config": config}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "run"
    extra = {
        "train": ["--out-dir", str(out)],
        "compare": ["--methods", "bake", "--out-dir", str(out)],
        "targets": ["--checkpoint", str(tmp_path / "no.ckpt")],
    }[command]
    for flags in ([], ["--m", "3"]):  # a flag does not rescue a stale manifest
        assert cli.main([command, "--config", str(path), *flags, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: manifest {path}: training_version ")
        assert "pass the manifest's \"config\" object as a plain config file" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv,error",
    [
        (["compare", "--methods", "vanilla,vanilla:omega=0.9"],
         "method token 'vanilla:omega=0.9': setting 'omega' is read only by bake, not by vanilla"),
        (["compare", "--methods", "vanilla:m=3"],
         "method token 'vanilla:m=3': setting 'm' is read only by bake, not by vanilla"),
        (["compare", "--methods", "label_smoothing:tau=2"],
         "method token 'label_smoothing:tau=2': setting 'tau' is read only by bake, not by label_smoothing"),
        (["compare", "--methods", "bake:epsilon=0.2"],
         "method token 'bake:epsilon=0.2': setting 'epsilon' is read only by label_smoothing, not by bake"),
        (["train", "--method", "vanilla", "--omega", "0.3"], "setting 'omega' is read only by bake, not by vanilla"),
        (["train", "--method", "vanilla", "--m", "3"], "setting 'm' is read only by bake, not by vanilla"),
        (["train", "--method", "vanilla", "--knowledge", "onehot"],
         "setting 'knowledge' is read only by bake, not by vanilla"),
        (["train", "--epsilon", "0.3"], "setting 'epsilon' is read only by label_smoothing, not by bake"),
        (["compare", "--epsilon", "0.2", "--methods", "vanilla,bake"],
         "setting 'epsilon' is read only by label_smoothing, not by vanilla, bake"),
        # a data setting is read by the kind of data its prefix names, and the files name the run's kind
        (["train", "--idx-train-images", "x"], "setting 'synth_classes' is read only by synth data, not by idx data"),
        (["compare", "--methods", "bake", "--synth-classes", "5", "--idx-train-images", "a", "--idx-train-labels",
          "b", "--idx-test-images", "c", "--idx-test-labels", "d"],
         "setting 'synth_classes' is read only by synth data, not by idx data"),
    ],
    ids=[
        "compare-vanilla:omega", "compare-vanilla:m", "compare-label_smoothing:tau", "compare-bake:epsilon",
        "train-vanilla--omega", "train-vanilla--m", "train-vanilla--knowledge", "train-bake--epsilon",
        "compare--epsilon", "train-idx--synth", "compare-idx--synth",
    ],
)
def test_setting_no_method_reads_exits_2(tmp_path, capsys, monkeypatch, argv, error):
    # it would change nothing that trains, and two tokens that differ only there would train one config twice
    calls = []
    monkeypatch.setattr(cli, "load_datasets", calls.append)
    monkeypatch.setattr(cli, "run_training", calls.append)
    out = tmp_path / "run"
    extra = ["--epochs", "2", "--out-dir", str(out)] if argv[0] in cli.TRAINING else ["--checkpoint", str(tmp_path)]
    assert cli.main([argv[0], *BATCH, *argv[1:], *extra]) == 2  # the case's own flags come last, and win
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert calls == []
    assert not out.exists()


def test_a_runtime_failure_exits_1(tmp_path, capsys, monkeypatch):
    # any exception that is not a config or data error leaves through one funnel, with exit code 1
    def fail(cfg):
        raise RuntimeError("a failure inside training")

    monkeypatch.setattr(cli, "run_training", fail)
    out = tmp_path / "run"
    assert cli.main(["train", *SMALL, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "runtime error: a failure inside training\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,read",
    [
        (["compare", "--omega", "0.3", "--methods", "vanilla,bake", "--seeds", "1"], {"omega": [0.3, 0.3]}),
        (["compare", "--methods", "bake,bake:knowledge=onehot", "--seeds", "1"], {"knowledge": ["pred", "onehot"]}),
        (["train", "--method", "label_smoothing", "--epsilon", "0.2"], {"epsilon": [0.2]}),
    ],
    ids=["compare--omega", "compare-bake:knowledge", "train-label_smoothing--epsilon"],
)
def test_setting_a_method_reads_is_accepted(tmp_path, monkeypatch, argv, read):
    cells, run = [], cli.run_training
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)  # the patch reaches no worker process
    monkeypatch.setattr(cli, "run_training", lambda cfg: cells.append(cfg) or run(cfg))
    assert cli.main([*argv, *SMALL, "--epochs", "1", "--out-dir", str(tmp_path / "run")]) == 0
    assert {key: [cell[key] for cell in cells] for key in read} == read
