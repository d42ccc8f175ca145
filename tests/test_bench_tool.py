"""``tools/bench.py`` aggregates benchmark result lines and micro timings; it times nothing here."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("tools_bench", BENCH_PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def stdout(env, examples_per_s, top1, failed):
    result = {
        "correct": True, "attempted": 124, "failed": failed,
        "metrics": {"examples_per_s": {"value": examples_per_s, "unit": "1/s"},
                    "final_top1": {"value": top1, "unit": "ratio"}},
    }
    return "\n".join(["env " + json.dumps(env), "check companions: pass (ok)", json.dumps(result)]) + "\n"


def test_two_result_lines_aggregate():
    env = {"blas_threads": 2, "numpy": "2.0.0", "cores": 2}
    runs = [bench.parse(stdout(env, 100.0, 0.5, 0)), bench.parse(stdout(env, 140.0, 0.5, 3))]
    summary = bench.aggregate((1, 2), runs)
    assert summary["seeds"] == [1, 2]
    assert summary["metrics"]["examples_per_s"] == {
        "unit": "1/s", "values": [100.0, 140.0], "median": 120.0, "iqr": pytest.approx(20.0)
    }
    assert summary["metrics"]["final_top1"]["iqr"] == 0.0
    assert summary["attempted"] == [124, 124] and summary["failed"] == [0, 3]
    assert summary["correct"] == [True, True]
    assert summary["env"] == [env, env]


def test_summary_and_overhead_share_on_made_up_timings():
    assert bench.summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {"values": [5.0, 1.0, 4.0, 2.0, 3.0], "median": 3.0, "iqr": 2.0}
    timed = {}
    for size, vanilla, share in (("desk", 1.0, 0.5), ("bake_wide", 4.0, 1.5), ("cifar_conv", 40.0, 0.025)):
        timed[f"step[{size}-vanilla-float32]"] = bench.summary([vanilla] * 5)
        timed[f"overhead[{size}-float32]"] = bench.summary([vanilla * share * f for f in (0.5, 1, 1, 1, 2)])
    assert bench.overhead_shares(timed) == {"desk-float32": 0.5, "bake_wide-float32": 1.5, "cifar_conv-float32": 0.025}


def test_every_shape_has_a_vanilla_step_and_an_overhead_case():
    names = [name for name, _, _ in bench.cases()]
    assert len(names) == len(set(names))
    for size in ("desk", "bake_wide", "cifar_conv"):
        assert f"step[{size}-vanilla-float32]" in names and f"overhead[{size}-float32]" in names


def cells(top1=(0.21, 0.21), faults=(240_000, 2_000)):
    return [{"wall_s": 3.0, "minor_faults": f, "system_s": 0.5, "top1": t} for t, f in zip(top1, faults)]


def fake_run(first_cells):
    """``subprocess.run`` for ``main``: a first-cell interpreter prints ``first_cells``, a workload run one result."""
    env = {"blas_threads": 2, "numpy": "2.0.0", "cores": 2}

    def run(argv, **kwargs):
        if argv[1:3] == ["-c", "import bench; bench.cell_costs()"]:
            return SimpleNamespace(stdout=json.dumps(first_cells) + "\n")
        return SimpleNamespace(stdout=stdout(env, 1.0, 0.5, 0))

    return run


def test_first_cell_summarises_fresh_interpreters(monkeypatch):
    argvs = []
    faults = iter([(240_000, 2_000), (250_000, 3_000), (230_000, 1_000), (245_000, 2_500), (235_000, 1_500)])

    def run(argv, **kwargs):
        argvs.append(argv)
        return SimpleNamespace(stdout="a line before\n" + json.dumps(cells(faults=next(faults))) + "\n")

    monkeypatch.setattr(bench.subprocess, "run", run)
    first = bench.first_cell()
    assert len(argvs) == bench.REPEATS and all(argv[0] == bench.sys.executable for argv in argvs)
    assert first["top1"] == [0.21] * 5
    assert first["cells"][0]["minor_faults"]["median"] == 240_000 and first["cells"][1]["minor_faults"]["iqr"] == 1_000
    assert first["cells"][1]["system_s"] == bench.summary([0.5] * 5)


@pytest.mark.parametrize("top1", [(0.21, 0.22), (float("nan"), float("nan"))], ids=["differ", "nan"])
def test_first_cell_mismatch_raises_and_writes_no_file(tmp_path, monkeypatch, top1):
    monkeypatch.setattr(bench.subprocess, "run", fake_run(cells(top1)))
    with pytest.raises(SystemExit, match="first-cell check failed"):
        bench.main(tmp_path / "BENCH.json")
    assert list(tmp_path.iterdir()) == []


def test_cell_costs_trains_two_cells_of_one_config(monkeypatch, capsys):
    import specs  # on the path bench.py sets up

    real = specs.config
    monkeypatch.setattr(specs, "config", lambda name, seed: real(name, seed, tiny=True))
    bench.cell_costs()
    first, second = json.loads(capsys.readouterr().out)
    assert set(first) == {"wall_s", "minor_faults", "system_s", "top1"}
    assert first["top1"] == second["top1"] and math.isfinite(first["top1"])
    assert first["minor_faults"] >= 0 and second["wall_s"] > 0


def test_failed_micro_check_raises_and_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(bench.subprocess, "run", fake_run(cells()))
    monkeypatch.setattr(bench, "cases", lambda: [("broken", lambda: float("nan"), math.isfinite)])
    with pytest.raises(SystemExit, match="micro check failed: broken"):
        bench.main(tmp_path / "BENCH.json")
    assert list(tmp_path.iterdir()) == []


def test_tiny_fingerprints_are_equal():
    done = subprocess.run([sys.executable, str(BENCH_PATH), "--fingerprint", "--tiny"],
                          stdout=subprocess.PIPE, text=True, check=True)
    printed = json.loads(done.stdout)
    assert printed == bench.fingerprint(True)
    assert printed["tiny"] is True and printed["seeds"] == [1, 2, 3]
    assert set(printed["runs"]) == {"bake_desk", "vanilla_desk", "bake_wide"}
    for runs in printed["runs"].values():
        assert list(runs) == ["1", "2", "3"]
        assert all(len(run["metrics"]) == len(run["model"]) == 64 for run in runs.values())


def test_another_lr_changes_the_fingerprint(monkeypatch, capsys):
    import specs  # on the path bench.py sets up

    bench.train_fingerprints(True)
    base = json.loads(capsys.readouterr().out)
    real = specs.config
    monkeypatch.setattr(specs, "config", lambda name, seed, tiny: {**real(name, seed, tiny), "lr": 0.05})
    bench.train_fingerprints(True)
    moved = json.loads(capsys.readouterr().out)
    assert base.keys() == moved.keys()
    for name, runs in base.items():
        for seed, run in runs.items():
            assert run["metrics"] != moved[name][seed]["metrics"] and run["model"] != moved[name][seed]["model"]
