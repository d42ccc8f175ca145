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


def test_micro_times_a_one_case_table(monkeypatch):
    # a clock that only the case moves: each call takes 1 ms, so the loops and the timings are known
    clock = SimpleNamespace(now=0.0)
    calls = []

    def case():
        calls.append(1)
        clock.now += 0.001
        return len(calls)

    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: clock.now))
    monkeypatch.setattr(bench, "LOOP_S", 0.004)
    timed = bench.micro([("one", case, lambda first: first == 1)])
    assert len(calls) == 2 + bench.REPEATS * 4  # the checked call, the sizing call, then 4 calls per repeat
    assert list(timed["cases"]) == ["one"] and timed["overhead_share"] == {}
    assert timed["cases"]["one"]["values"] == pytest.approx([0.001] * bench.REPEATS)
    assert timed["unit"] == "s/call" and set(timed["env"]) >= {"blas_threads", "numpy", "cores"}


def parent_tree(tmp_path):
    """A directory holding what ``--against`` looks for."""
    tree = tmp_path / "parent"
    (tree / "src" / "bakekit").mkdir(parents=True)
    (tree / "perfbench").mkdir()
    (tree / "BENCHMARK.json").write_text("{}")
    return tree


# made-up examples_per_s of seeds 1-5; the change's differences are 3, 0, -1, 4 and 3
PARENT_RATES, CHANGE_RATES = [100.0, 104.0, 98.0, 101.0, 99.0], [103.0, 104.0, 97.0, 105.0, 102.0]


def fake_pairs(parent, calls, parent_top1=0.5):
    """``subprocess.run`` for ``main_against``: a run in ``parent`` is the parent's, any other the change's."""
    env = {"blas_threads": 2, "numpy": "2.0.0", "cores": 2}

    def run(argv, cwd, **kwargs):
        side = "parent" if Path(cwd).is_relative_to(parent) else "change"
        if argv[1:3] == ["-c", "import bench; bench.train_fingerprints(False)"]:
            calls.append((side, "fingerprint"))
            return SimpleNamespace(stdout=json.dumps({"bake_desk": {"1": {"metrics": "m", "model": side}}}) + "\n")
        name, seed = argv[argv.index("--workload") + 1], int(argv[argv.index("--seed") + 1])
        calls.append((side, name, seed))
        rate = (PARENT_RATES if side == "parent" else CHANGE_RATES)[seed - 1]
        return SimpleNamespace(stdout=stdout(env, rate, parent_top1 if side == "parent" else 0.5, 0))

    return run


def test_pairs_alternate_and_match_a_hand_count(tmp_path, monkeypatch):
    parent, calls, out = parent_tree(tmp_path), [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_pairs(parent, calls))
    bench.main_against(out, parent, False)
    names = bench.workload_names()
    expected = [(side, name, seed) for seed, first in zip(bench.SEEDS, ["parent", "change"] * 3) for name in names
                for side in (first, "change" if first == "parent" else "parent")]
    assert calls == [*expected, ("parent", "fingerprint"), ("change", "fingerprint")]
    report = json.loads(out.read_text())
    assert report["first"] == ["parent", "change", "parent", "change", "parent"] and report["moves_bits"] is False
    assert report["fingerprint"]["equal"] is False  # the made-up model hashes name their side
    assert report["fingerprint"]["parent"]["runs"]["bake_desk"]["1"]["model"] == "parent"
    for name in names:
        workload = report["workloads"][name]
        assert workload["parent"]["metrics"]["examples_per_s"]["values"] == PARENT_RATES
        assert workload["change"]["metrics"]["examples_per_s"]["values"] == CHANGE_RATES
        # higher is better: wins at seeds 1, 4 and 5, a tie at 2; the median difference is 3;
        # the parent's quartiles are 99 and 101
        assert workload["pairs"]["examples_per_s"] == {"wins": 3, "n": 5, "median_diff": 3.0, "parent_iqr": 2.0}
        assert workload["pairs"]["final_top1"] == {"wins": 0, "n": 5, "median_diff": 0.0, "parent_iqr": 0.0}


def test_pair_wins_follow_the_metrics_direction():
    # lower is better: the change wins where it is below the parent; a tie counts for neither side
    assert bench.pair([42.8, 42.7, 42.9], [41.7, 42.7, 43.0], "lower") == {
        "wins": 1, "n": 3, "median_diff": pytest.approx(0.0), "parent_iqr": pytest.approx(0.1)
    }
    assert bench.pair([42.8, 42.7, 42.9], [41.7, 42.7, 43.0], "higher")["wins"] == 1


def test_top1_mismatch_exits_and_writes_no_file(tmp_path, monkeypatch):
    parent, calls, out = parent_tree(tmp_path), [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_pairs(parent, calls, parent_top1=0.49))
    with pytest.raises(SystemExit, match=r"seed 1: parent and change end at top-1 \[0.49, 0.5\]") as exc:
        bench.main_against(out, parent, False)
    assert exc.value.code != 0
    assert len(calls) == 2 and not out.exists()  # the first pair stops it
    bench.main_against(out, parent, True)  # declared bit-moving: every pair runs and the file is written
    assert json.loads(out.read_text())["moves_bits"] is True


@pytest.mark.parametrize("kind", ["missing", "empty", "no-sources"])
def test_against_a_missing_or_foreign_dir_exits_2(tmp_path, monkeypatch, kind):
    tree = tmp_path / "parent"
    if kind != "missing":
        tree.mkdir()
    if kind == "no-sources":
        (tree / "BENCHMARK.json").write_text("{}")
        (tree / "perfbench").mkdir()
    monkeypatch.setattr(bench.subprocess, "run", lambda *a, **k: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exc:
        bench.main_against(tmp_path / "BENCH.json", tree, False)
    assert exc.value.code == 2
    assert not (tmp_path / "BENCH.json").exists()


def test_against_from_the_command_line_exits_2_on_a_missing_dir(tmp_path):
    argv = [sys.executable, str(BENCH_PATH), str(tmp_path / "BENCH.json"), "--against", str(tmp_path / "nowhere")]
    done = subprocess.run(argv, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 2 and "is not a bakekit checkout" in done.stderr
    assert list(tmp_path.iterdir()) == []
