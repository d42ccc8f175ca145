import json
import os
import struct

import numpy as np
import pytest

from bakekit import cli
from bakekit.models import CHECKPOINT_MAGIC, ModelDescriptor, init, save_checkpoint
from bakekit.sampling import SAMPLER_VERSION
from bakekit.trainer import CosineSchedule, TrainConfig

SMALL = [
    "--dataset", "synth",
    "--synth-classes", "4",
    "--synth-per-class", "40",
    "--synth-dim", "8",
    "--epochs", "2",
    "--n-hat", "8",
]


def run_train(tmp_path, name, extra=()):
    out = tmp_path / name
    code = cli.main(["train", *SMALL, *extra, "--out-dir", str(out)])
    return code, out


class TestTrainCommand:
    def test_writes_manifest_and_metrics(self, tmp_path):
        code, out = run_train(tmp_path, "run")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert len(manifest["dataset_fingerprint"]) == 64
        # every default is explicit in the resolved config
        assert set(manifest["config"]) == set(cli.DEFAULTS)
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert {"epoch", "train_loss", "train_ce", "train_kl", "test_top1", "test_top5"} == set(record)
        assert (out / "model.ckpt").exists()
        assert (out / "timings.txt").exists()

    def test_invalid_omega_exits_2(self, tmp_path, capsys):
        code = cli.main(["train", "--omega", "1.5", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "[0,1]" in capsys.readouterr().err

    def test_missing_idx_files_exit_config_error(self, tmp_path):
        code = cli.main(["train", "--dataset", "idx", "--out-dir", str(tmp_path / "x")])
        assert code == 2

    def test_nonexistent_config_file_exits_3(self, tmp_path):
        code = cli.main(
            ["train", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path / "x")]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "key,value", [("knowledge", "bogus"), ("dataset", "bogus"), ("epochs", "3")]
    )
    def test_bad_config_file_value_exits_2(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        no_epochs_flag = SMALL[:8]  # so the file's epochs is the one in force
        code = cli.main(
            ["train", *no_epochs_flag, "--config", str(cfg_path), "--out-dir", str(tmp_path / "x")]
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
            (["--schedule", "cosine:x"], "--schedule 'cosine:x'"),
            (["--schedule", "step:a"], "--schedule 'step:a'"),
            (["--hidden", "256,x"], "--hidden '256,x'"),
            (["--hidden", ","], "--hidden ','"),
            ({"mode": "iterate:x"}, "--mode 'iterate:x'"),
            (["--hidden", "256,0"], "hidden widths must be"),
            (["--hidden=-3"], "hidden widths must be"),
            (["--dataset", "cifar", "--cifar-train", "a", "--cifar-test", "b", "--cifar-mean", "x"],
             "--cifar-mean 'x'"),
            (["--dataset", "cifar", "--cifar-train", "a", "--cifar-test", "b", "--cifar-mean", "0.5,0.5"],
             "--cifar-mean '0.5,0.5': expected 3"),
            (["--seed=-1"], "seed must be in [0, 2**64), got -1"),
            (["--seed", str(2**64)], "seed must be in [0, 2**64)"),
            (["--dataset", "cifar", "--cifar-train", "a", "--cifar-test", "b", "--cifar-std", "0,1,1"],
             "--cifar-std '0,1,1': every std must be > 0"),
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

    def test_default_recipe_is_library_default(self):
        assert cli.make_train_config(cli.DEFAULTS) == TrainConfig(
            schedule=CosineSchedule(TrainConfig.epochs)
        )
        assert cli._parse_hidden(cli.DEFAULTS["hidden"]) == ModelDescriptor.hidden

    def test_byte_identical_reruns(self, tmp_path):
        _, a = run_train(tmp_path, "a")
        _, b = run_train(tmp_path, "b")
        assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()

    def test_rerun_from_manifest_reproduces_metrics(self, tmp_path):
        _, a = run_train(tmp_path, "a")
        out_b = tmp_path / "b"
        code = cli.main(
            ["train", "--config", str(a / "manifest.json"), "--out-dir", str(out_b)]
        )
        assert code == 0
        assert (a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "manifest_m,flags,version,expected",
        [(3, [], None, 2), (3, [], 1, 2), (1, ["--m", "3"], None, 2), (1, [], None, 0), (0, [], 1, 0)],
    )
    def test_old_manifest_fails_loudly_where_batches_changed(
        self, tmp_path, capsys, manifest_m, flags, version, expected
    ):
        small = dict(synth_classes=4, synth_per_class=40, synth_dim=8, epochs=1, n_hat=8, m=manifest_m)
        manifest = {"tool_version": "0.1.0", "seed": 0, "dataset_fingerprint": "0" * 64,
                    "config": dict(cli.DEFAULTS, **small)}
        if version is not None:
            manifest["sampler_version"] = version
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        code = cli.main(["train", "--config", str(path), *flags, "--out-dir", str(tmp_path / "run")])
        assert code == expected
        if expected == 2:
            err = capsys.readouterr().err
            assert str(path) in err and "m >= 2" in err
            assert not (tmp_path / "run").exists()

    def test_fresh_manifest_records_sampler_version_and_round_trips(self, tmp_path):
        _, a = run_train(tmp_path, "a", extra=["--m", "3", "--epochs", "1"])
        assert json.loads((a / "manifest.json").read_text())["sampler_version"] == SAMPLER_VERSION
        out_b = tmp_path / "b"
        assert cli.main(["train", "--config", str(a / "manifest.json"), "--out-dir", str(out_b)]) == 0
        assert (a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()

    def test_flags_override_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "seed": 7}))
        code, out = run_train(tmp_path, "run", extra=["--config", str(cfg_path), "--epochs", "2"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2  # flag wins
        assert manifest["config"]["seed"] == 7  # file beats default

    def test_one_step_is_one_iteration(self):
        assert cli._parse_mode("one-step") == cli._parse_mode("iterate:1")

    def test_iterate_mode_parses(self, tmp_path):
        code, _ = run_train(tmp_path, "it", extra=["--mode", "iterate:5"])
        assert code == 0

    def test_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["train", "--help"])
        text = capsys.readouterr().out
        for needle in ("default 0.5", "default 4.0", "default 1.0", "default 1)"):
            assert needle in text


class TestCompareCommand:
    def test_two_method_summary(self, tmp_path):
        out = tmp_path / "cmp"
        code = cli.main(
            ["compare", *SMALL, "--methods", "vanilla,bake", "--seeds", "2", "--out-dir", str(out)]
        )
        assert code == 0
        lines = (out / "summary.tsv").read_text().splitlines()
        assert lines[0] == "method\tmean_top1\tstd_top1\tseeds"
        assert len(lines) == 3
        assert lines[1].startswith("vanilla\t")
        assert lines[2].startswith("bake\t")

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

    def test_unknown_method_exits_2(self, tmp_path):
        code = cli.main(
            ["compare", *SMALL, "--methods", "magic", "--out-dir", str(tmp_path / "x")]
        )
        assert code == 2

    @pytest.mark.parametrize("token", ["bake:omega=abc", "bake:m=1.5"])
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
        out = tmp_path / "x"
        code = cli.main(
            ["compare", *SMALL, "--methods", "vanilla,bake:mode=iterate:0", "--seeds", "3",
             "--out-dir", str(out)]
        )
        assert code == 2
        assert len(calls) == 0
        assert not (out / "summary.tsv").exists()

    def test_token_carries_several_overrides(self, tmp_path, monkeypatch):
        cells = []

        def recording_run(cfg):
            cells.append(cfg)
            return None, [], None

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

    def test_malformed_thread_count_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BAKE_KIT_THREADS", "x")
        code = cli.main(["compare", *SMALL, "--methods", "vanilla", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "BAKE_KIT_THREADS" in capsys.readouterr().err


class TestTargetsCommand:
    def test_prints_top3_rows(self, tmp_path, capsys):
        _, out = run_train(tmp_path, "run")
        capsys.readouterr()  # drop the train run's stdout
        code = cli.main(
            ["targets", *SMALL, "--checkpoint", str(out / "model.ckpt"), "--rows", "4"]
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
            ["targets", *SMALL, "--checkpoint", str(out / "model.ckpt"),
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
            ["targets", *SMALL, "--checkpoint", str(out / "model.ckpt"),
             "--omega", "0.0", "--tau", "1.0", "--rows", "2"]
        )
        printed = capsys.readouterr().out
        # recompute the same batch's probabilities directly
        import bakekit.data as dt
        import bakekit.models as md
        from bakekit.numerics import Tensor, softmax_data
        from bakekit.sampling import SamplerConfig, epoch_batches

        train_set, _ = dt.synth_clusters(4, 40, 8, 3.0, seed=0)
        model = md.load_checkpoint(out / "model.ckpt")
        batch = epoch_batches(train_set.class_index, SamplerConfig(8, 1, 0), 0)[0]
        x = train_set.inputs[np.asarray(batch)].astype(np.float64)
        _, logits = model.forward(Tensor(x))
        probs = softmax_data(logits.data)
        top = np.argsort(-probs[0], kind="stable")[:3]
        for c in top:
            assert f"{c}:{probs[0, c]:.4f}" in printed

    def test_missing_checkpoint_exits_3(self, tmp_path):
        code = cli.main(["targets", *SMALL, "--checkpoint", str(tmp_path / "no.ckpt")])
        assert code == 3

    @pytest.mark.parametrize(
        "body,needle",
        [
            (b"\x01\x00", "truncated in its header"),
            (struct.pack("<I", 5) + b"{nope", "bad checkpoint descriptor"),
            (struct.pack("<I", 33) + b'{"num_classes": 4, "hidden": [8]}', "'input_dim'"),
        ],
        ids=["short-header", "not-json", "missing-key"],
    )
    def test_corrupt_checkpoint_exits_3(self, tmp_path, capsys, body, needle):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + body)
        assert cli.main(["targets", *SMALL, "--checkpoint", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error") and needle in err

    @pytest.mark.parametrize("input_dim,classes", [(16, 4), (8, 5)])
    def test_checkpoint_for_other_data_exits_3(self, tmp_path, capsys, input_dim, classes):
        path = tmp_path / "other.ckpt"
        save_checkpoint(init(ModelDescriptor(input_dim, classes, hidden=(6,)), seed=0), path)
        assert cli.main(["targets", *SMALL, "--checkpoint", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error")
        assert f"input dim {input_dim} and {classes} classes; the dataset has 8 and 4" in err

    def test_duplicate_pair_mixes_mass(self, tmp_path, capsys):
        # two near-duplicate same-class inputs: each row's target mixes the other's class mass
        _, out = run_train(tmp_path, "run")
        import bakekit.models as md
        from bakekit.bake import BakeConfig, build_soft_targets
        from bakekit.numerics import Tensor, softmax_data

        model = md.load_checkpoint(out / "model.ckpt")
        rng = np.random.default_rng(0)
        base = rng.normal(size=8)
        x = np.stack([base, base + 1e-9 * rng.normal(size=8)])
        features, logits = model.forward(Tensor(x))
        q = build_soft_targets(features, logits, cfg=BakeConfig(omega=0.5, tau=1.0))
        p = softmax_data(logits.data)
        other_top = int(np.argmax(p[1]))
        assert q[0, other_top] >= 0.45 * p[1, other_top]
