"""``tools/bench.py`` pairs benchmark result lines and micro timings of two trees; it times nothing here."""

import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("tools_bench", BENCH_PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def stdout(env, examples_per_s, top1, failed, **more):
    """What one benchmark run prints: ``more`` maps further metrics to their values."""
    metrics = {"examples_per_s": examples_per_s, "final_top1": top1, **more}
    result = {"correct": True, "attempted": 124, "failed": failed,
              "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()}}
    return "\n".join(["env " + json.dumps(env), "check companions: pass (ok)", json.dumps(result)]) + "\n"


def test_two_workload_runs_read_into_records_and_a_section(monkeypatch):
    env = {"blas_threads": 2, "numpy": "2.0.0", "cores": 2}
    printed = {1: stdout(env, 100.0, 0.5, 0), 2: stdout(env, 140.0, 0.5, 3)}
    argvs = []

    def run(argv, cwd, **kwargs):
        argvs.append(argv)
        return SimpleNamespace(returncode=0, stdout=printed[int(argv[argv.index("--seed") + 1])])

    monkeypatch.setattr(bench.subprocess, "run", run)
    spec = {"command": ["python3", "perfbench/workload.py"], "run_seconds": 24}
    records = [bench.workload_run(spec, "bake_desk", Path("tree"), i) for i in (0, 1)]
    assert argvs[1] == ["python3", "perfbench/workload.py", "--workload", "bake_desk", "--seed", "2",
                        "--seconds", "24", "--trace", "0"]
    assert records[1] == {"examples_per_s": 140.0, "final_top1": 0.5, "attempted": 124, "failed": 3}
    report = bench.section({"parent": records, "change": records[::-1]}, {"examples_per_s": "higher"})
    assert report["parent"]["examples_per_s"] == {"values": [100.0, 140.0], "median": 120.0,
                                                  "iqr": pytest.approx(20.0)}
    assert report["change"]["failed"] == {"values": [3, 0], "median": 1.5, "iqr": pytest.approx(1.5)}
    assert report["pairs"]["examples_per_s"] == {"wins": 1, "n": 2, "median_diff": 0.0, "parent_iqr": pytest.approx(20.0)}
    assert report["pairs"]["failed"]["wins"] == 1  # lower is better unless ``better`` says otherwise
    assert set(report["pairs"]) == {"examples_per_s", "final_top1", "attempted", "failed"}


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


ENV = {"blas_threads": 2, "numpy": "2.0.0", "cores": 2}


def cells(top1=(0.21, 0.21), faults=(240_000, 2_000)):
    return [{"wall_s": 3.0, "minor_faults": f, "system_s": 0.5, "top1": t} for t, f in zip(top1, faults)]


def micro_output(cases):
    """What one micro interpreter prints: ``cases`` maps each case's name to its median seconds per call."""
    timed = {name: bench.summary([seconds] * bench.REPEATS) for name, seconds in cases.items()}
    return {"unit": "s/call", "env": ENV, "cases": timed, "overhead_share": bench.overhead_shares(timed)}


def order(i):
    """The sides in their run order at index ``i``, as the pairs must alternate them."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


# what each harness run calls, by the name ``calls`` logs it under
HARNESS = {"bench.train_fingerprints(False)": "fingerprint", "environment()": "env", "bench.cell_costs()": "first cell",
           "bench.micro(bench.cases())": "micro"}

# made-up examples_per_s of seeds 1-5; the change's differences are 3, 0, -1, 4 and 3
PARENT_RATES, CHANGE_RATES = [100.0, 104.0, 98.0, 101.0, 99.0], [103.0, 104.0, 97.0, 105.0, 102.0]


def fake_run(parent, calls, parent_top1=0.5, parent_failed=0, first_cells=None, micro=None, fails=(),
             parent_metrics={}):
    """``subprocess.run`` for ``main``: a run in ``parent`` is the parent's, any other the change's. Each run is
    logged in ``calls``, a workload run as (side, name, seed) and a harness run as (side, what); a harness run
    prints ``first_cells(side, i)`` or ``micro(side, i)`` at its side's i-th repeat. A ``what`` in ``fails``
    exits 1 on the parent's side. A parent's workload run also prints ``parent_metrics``."""
    repeat = {}

    def run(argv, cwd, **kwargs):
        side = "parent" if Path(cwd).is_relative_to(parent) else "change"
        if argv[1] == "-c":
            assert argv[0] == sys.executable and Path(cwd).name == "tools"
            what = next(what for call, what in HARNESS.items() if call in argv[2])
            calls.append((side, what))
            if what in fails and side == "parent":
                return SimpleNamespace(returncode=1, stdout="")
            i = repeat[side, what] = repeat.get((side, what), -1) + 1
            if what == "fingerprint":
                printed = {"bake_desk": {"1": {"metrics": "m", "model": side}}}
            elif what == "env":
                printed = ENV
            elif what == "first cell":
                printed = (first_cells or (lambda side, i: cells()))(side, i)
            else:
                printed = micro_output((micro or (lambda side, i: {"one[1]": 1e-3}))(side, i))
            return SimpleNamespace(returncode=0, stdout="a line before\n" + json.dumps(printed) + "\n")
        name, seed = argv[argv.index("--workload") + 1], int(argv[argv.index("--seed") + 1])
        calls.append((side, name, seed))
        if side == "parent":
            return SimpleNamespace(returncode=0, stdout=stdout(ENV, PARENT_RATES[seed - 1], parent_top1, parent_failed,
                                                            **parent_metrics))
        return SimpleNamespace(returncode=0, stdout=stdout(ENV, CHANGE_RATES[seed - 1], 0.5, 0))

    return run


def parent_tree(tmp_path):
    """A directory holding what ``--against`` looks for."""
    tree = tmp_path / "parent"
    for name in ("src/bakekit", "perfbench", "tools"):
        (tree / name).mkdir(parents=True)
    (tree / "BENCHMARK.json").write_text("{}")
    (tree / "tools" / "bench.py").write_text("")
    return tree


def test_first_cell_summarises_fresh_interpreters(tmp_path, monkeypatch):
    # cell 0's minor faults per repeat: the change's differences are -40k, 10k, -40k, -35k and -30k
    faults = {"parent": [240_000, 250_000, 230_000, 245_000, 235_000],
              "change": [200_000, 260_000, 190_000, 210_000, 205_000]}
    second = [2_000, 3_000, 1_000, 2_500, 1_500]  # cell 1's, equal on both sides
    parent, calls, out = parent_tree(tmp_path), [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(
        parent, calls, first_cells=lambda side, i: cells(faults=(faults[side][i], second[i]))))
    bench.main(out, parent, False)
    first = json.loads(out.read_text())["first_cell"]
    assert first["config"] == ["bake_wide", 1]
    names = {f"cell{i}.{key}" for i in (0, 1) for key in ("wall_s", "minor_faults", "system_s", "top1")}
    assert set(first["parent"]) == set(first["change"]) == set(first["pairs"]) == names
    assert first["parent"]["cell0.top1"] == first["change"]["cell1.top1"] == bench.summary([0.21] * 5)
    assert first["parent"]["cell0.minor_faults"] == bench.summary(faults["parent"])
    assert first["change"]["cell1.minor_faults"]["median"] == 2_000
    assert first["change"]["cell1.system_s"] == bench.summary([0.5] * 5)
    # lower is better: the change wins at four repeats; the parent's quartiles are 235k and 245k
    assert first["pairs"]["cell0.minor_faults"] == {"wins": 4, "n": 5, "median_diff": -35_000, "parent_iqr": 10_000}
    assert first["pairs"]["cell1.minor_faults"] == {"wins": 0, "n": 5, "median_diff": 0, "parent_iqr": 1_000}


@pytest.mark.parametrize("side,top1", [("change", (0.21, 0.22)), ("parent", (float("nan"), float("nan")))],
                         ids=["differ", "nan"])
def test_first_cell_mismatch_raises_and_writes_no_file(tmp_path, monkeypatch, side, top1):
    # the two cells of one interpreter train one config: --moves-bits does not excuse them
    parent, calls, out = parent_tree(tmp_path), [], tmp_path / "BENCH.json"
    bad = side

    def first_cells(side, i):
        return cells(top1) if side == bad and i == 2 else cells()

    monkeypatch.setattr(bench.subprocess, "run", fake_run(parent, calls, first_cells=first_cells))
    tree = re.escape(str(parent if side == "parent" else bench.ROOT))
    with pytest.raises(SystemExit, match=f"first-cell check failed: the two cells in {tree} end at top-1") as exc:
        bench.main(out, parent, True)
    assert exc.value.code != 0 and not out.exists()
    assert calls[-1] == (side, "first cell") and ("parent", "micro") not in calls


def test_first_cell_top1_across_sides_needs_moves_bits(tmp_path, monkeypatch):
    parent, calls, out = parent_tree(tmp_path), [], tmp_path / "BENCH.json"
    first_cells = lambda side, i: cells((0.2, 0.2) if side == "parent" else (0.21, 0.21))  # noqa: E731
    monkeypatch.setattr(bench.subprocess, "run", fake_run(parent, calls, first_cells=first_cells))
    with pytest.raises(SystemExit, match=r"first cell 1: parent and change end at cell0.top1 \[0.2, 0.21\]") as exc:
        bench.main(out, parent, False)
    assert exc.value.code != 0 and not out.exists()
    assert calls[-2:] == [("parent", "first cell"), ("change", "first cell")]  # the first pair stops it
    bench.main(out, parent, True)
    first = json.loads(out.read_text())["first_cell"]
    assert first["parent"]["cell0.top1"]["values"] == [0.2] * 5 and first["change"]["cell1.top1"]["median"] == 0.21
    # higher is better for a top-1
    assert first["pairs"]["cell0.top1"] == {"wins": 5, "n": 5, "median_diff": pytest.approx(0.01), "parent_iqr": 0.0}


def test_names_pair_only_when_both_sides_hold_them(tmp_path, monkeypatch):
    # each section, a name only one side gives: a workload metric, a first-cell cost and a micro case
    overhead = {"parent": [0.5, 0.6, 0.4, 0.55, 0.45], "change": [0.4, 0.5, 0.3, 0.45, 0.35]}
    extra = {"parent": "gone[1]", "change": "new[1]"}

    def micro(side, i):
        return {"step[desk-vanilla-float32]": 1.0, "overhead[desk-float32]": overhead[side][i], extra[side]: 2.0}

    def first_cells(side, i):
        return [{**cell, **({"major_faults": 0} if side == "change" else {})} for cell in cells()]

    parent, calls, out = parent_tree(tmp_path), [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(parent, calls, first_cells=first_cells, micro=micro,
                                                          parent_metrics={"setup_s": 0.1}))
    bench.main(out, parent, False)
    report = json.loads(out.read_text())
    for workload in report["workloads"].values():
        assert "setup_s" in workload["parent"] and "setup_s" not in workload["change"]
        assert set(workload["pairs"]) == {"examples_per_s", "final_top1", "attempted", "failed"}
    first = report["first_cell"]
    assert first["change"]["cell1.major_faults"] and "cell1.major_faults" not in first["parent"]
    assert not any("major_faults" in name for name in first["pairs"])
    timed = report["micro"]
    assert timed["unit"] == "s/call"
    assert set(timed["pairs"]) == {"step[desk-vanilla-float32]", "overhead[desk-float32]"}
    assert timed["pairs"]["overhead[desk-float32]"] == {
        "wins": 5, "n": 5, "median_diff": pytest.approx(-0.1), "parent_iqr": pytest.approx(0.1)
    }
    for side in ("parent", "change"):
        assert timed[side]["overhead[desk-float32]"] == bench.summary(overhead[side])
        assert extra[side] in timed[side]
    assert timed["parent"]["overhead_share"] == {"desk-float32": 0.5}
    assert timed["change"]["overhead_share"] == {"desk-float32": pytest.approx(0.4)}


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
    with pytest.raises(SystemExit, match="micro check failed: broken"):
        bench.micro([("broken", lambda: float("nan"), math.isfinite)])
    # that exit, in a micro interpreter, stops the pairs there
    parent, calls, out = parent_tree(tmp_path), [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(parent, calls, fails={"micro"}))
    with pytest.raises(SystemExit, match="exited 1") as exc:
        bench.main(out, parent, False)
    assert exc.value.code != 0 and not out.exists()
    assert calls[-1] == ("parent", "micro") and calls.count(("change", "micro")) == 0


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


def test_pairs_alternate_and_match_a_hand_count(tmp_path, monkeypatch):
    parent, calls, out = parent_tree(tmp_path), [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(parent, calls))
    bench.main(out, parent, False)
    names = bench.workload_names()
    # every section, one loop: at index i the parent goes first when i is even; seed i + 1 for a workload
    workloads = [(side, name, i + 1) for name in names for i in range(5) for side in order(i)]
    repeats = [(side, what) for what in ("first cell", "micro") for i in range(5) for side in order(i)]
    assert calls == [("parent", "fingerprint"), ("change", "fingerprint"), ("parent", "env"), ("change", "env"),
                     *workloads, *repeats]
    report = json.loads(out.read_text())
    assert report["first"] == ["parent", "change", "parent", "change", "parent"] and report["moves_bits"] is False
    assert report["fingerprint"]["equal"] is False  # the made-up model hashes name their side
    assert report["fingerprint"]["parent"]["runs"]["bake_desk"]["1"]["model"] == "parent"
    assert report["env"] == {"parent": ENV, "change": ENV}
    for name in names:
        workload = report["workloads"][name]
        assert workload["parent"]["examples_per_s"]["values"] == PARENT_RATES
        assert workload["change"]["examples_per_s"]["values"] == CHANGE_RATES
        assert workload["change"]["attempted"] == bench.summary([124] * 5)
        # higher is better: wins at seeds 1, 4 and 5, a tie at 2; the median difference is 3;
        # the parent's quartiles are 99 and 101
        assert workload["pairs"]["examples_per_s"] == {"wins": 3, "n": 5, "median_diff": 3.0, "parent_iqr": 2.0}
        assert workload["pairs"]["final_top1"] == {"wins": 0, "n": 5, "median_diff": 0.0, "parent_iqr": 0.0}
    for section in ("first_cell", "micro"):
        assert set(report[section]) >= {"parent", "change", "pairs"} and report[section]["pairs"]
    assert report["micro"]["pairs"]["one[1]"] == {"wins": 0, "n": 5, "median_diff": 0.0, "parent_iqr": 0.0}
    assert report["micro"]["parent"]["overhead_share"] == {}


def test_pair_wins_follow_the_metrics_direction():
    # lower is better: the change wins where it is below the parent; a tie counts for neither side
    assert bench.pair([42.8, 42.7, 42.9], [41.7, 42.7, 43.0], "lower") == {
        "wins": 1, "n": 3, "median_diff": pytest.approx(0.0), "parent_iqr": pytest.approx(0.1)
    }
    assert bench.pair([42.8, 42.7, 42.9], [41.7, 42.7, 43.0], "higher")["wins"] == 1


def test_top1_mismatch_exits_and_writes_no_file(tmp_path, monkeypatch):
    parent, calls, out = parent_tree(tmp_path), [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(parent, calls, parent_top1=0.49))
    with pytest.raises(SystemExit, match=r"bake_desk seed 1: parent and change end at final_top1 \[0.49, 0.5\]") as exc:
        bench.main(out, parent, False)
    assert exc.value.code != 0
    assert len(calls) == 6 and not out.exists()  # fingerprints and environments, then the first pair stops it
    bench.main(out, parent, True)  # declared bit-moving: every pair runs and the file is written
    assert json.loads(out.read_text())["moves_bits"] is True


def test_failed_count_mismatch_exits_and_writes_no_file(tmp_path, monkeypatch):
    parent, calls, out = parent_tree(tmp_path), [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(parent, calls, parent_failed=2))
    with pytest.raises(SystemExit, match=r"bake_desk seed 1: parent and change end at failed \[2, 0\]") as exc:
        bench.main(out, parent, False)
    assert exc.value.code != 0 and not out.exists()
    assert calls[-2:] == [("parent", "bake_desk", 1), ("change", "bake_desk", 1)]


def test_a_parent_that_cannot_fingerprint_stops_before_any_workload(tmp_path, monkeypatch):
    parent, calls, out = parent_tree(tmp_path), [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(parent, calls, fails={"fingerprint"}))
    with pytest.raises(SystemExit, match="train_fingerprints.* exited 1") as exc:
        bench.main(out, parent, False)
    assert exc.value.code != 0 and not out.exists()
    assert calls == [("parent", "fingerprint")]


@pytest.mark.parametrize("kind", ["missing", "empty", "no-sources", "no-harness", "no-out-dir"])
def test_against_a_missing_or_foreign_dir_exits_2(tmp_path, monkeypatch, capsys, kind):
    tree, out = tmp_path / "parent", tmp_path / "BENCH.json"
    if kind != "missing":
        tree.mkdir()
    if kind in ("no-sources", "no-harness"):
        (tree / "BENCHMARK.json").write_text("{}")
        (tree / "perfbench").mkdir()
    if kind == "no-harness":  # a checkout from before tools/bench.py existed
        (tree / "src" / "bakekit").mkdir(parents=True)
    if kind == "no-out-dir":  # a full checkout, but the file's directory does not exist
        tree, out = parent_tree(tmp_path / "full"), tmp_path / "nowhere" / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", lambda *a, **k: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exc:
        bench.main(out, tree, False)
    assert exc.value.code == 2
    assert not out.exists()
    if kind == "no-out-dir":
        assert capsys.readouterr().err == f"bench: cannot write {out}: {out.parent} is not a directory\n"


def test_against_from_the_command_line_exits_2_on_a_missing_dir(tmp_path):
    argv = [sys.executable, str(BENCH_PATH), str(tmp_path / "BENCH.json"), "--against", str(tmp_path / "nowhere")]
    done = subprocess.run(argv, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 2 and "is not a bakekit checkout" in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_a_file_name_alone_prints_the_usage(tmp_path):
    done = subprocess.run([sys.executable, str(BENCH_PATH), str(tmp_path / "BENCH.json")],
                          stderr=subprocess.PIPE, text=True)
    assert done.returncode != 0 and "BENCH_<n>.json --against DIR [--moves-bits]" in done.stderr
    assert list(tmp_path.iterdir()) == []
