"""``tools/bench.py`` pairs benchmark result lines and micro timings of two trees; it times nothing here."""

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


ENV = {"blas_threads": 2, "numpy": "2.0.0", "cores": 2}


def cells(top1=(0.21, 0.21), faults=(240_000, 2_000)):
    return [{"wall_s": 3.0, "minor_faults": f, "system_s": 0.5, "top1": t} for t, f in zip(top1, faults)]


def micro_run(cases):
    """What one micro interpreter prints: ``cases`` maps each case's name to its median seconds per call."""
    timed = {name: bench.summary([seconds] * bench.REPEATS) for name, seconds in cases.items()}
    return {"unit": "s/call", "env": ENV, "cases": timed, "overhead_share": bench.overhead_shares(timed)}


def order(i):
    """The sides in their run order at index ``i``, as the pairs must alternate them."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


# what each harness run calls, by the name ``calls`` logs it under
HARNESS = {"bench.train_fingerprints(False)": "fingerprint", "bench.cell_costs()": "first cell",
           "bench.micro(bench.cases())": "micro"}


def fake_run(parent, calls, parent_top1=0.5, first_cells=None, micro=None, fails=()):
    """``subprocess.run`` for ``main``: a run in ``parent`` is the parent's, any other the change's. Each run is
    logged in ``calls``, a workload run as (side, name, seed) and a harness run as (side, what); a harness run
    prints ``first_cells(side, i)`` or ``micro(side, i)`` at its side's i-th repeat. A ``what`` in ``fails``
    exits 1 on the parent's side."""
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
            elif what == "first cell":
                printed = (first_cells or (lambda side, i: cells()))(side, i)
            else:
                printed = micro_run((micro or (lambda side, i: {"one[1]": 1e-3}))(side, i))
            return SimpleNamespace(returncode=0, stdout="a line before\n" + json.dumps(printed) + "\n")
        name, seed = argv[argv.index("--workload") + 1], int(argv[argv.index("--seed") + 1])
        calls.append((side, name, seed))
        rate = (PARENT_RATES if side == "parent" else CHANGE_RATES)[seed - 1]
        return SimpleNamespace(returncode=0, stdout=stdout(ENV, rate, parent_top1 if side == "parent" else 0.5, 0))

    return run


def parent_tree(tmp_path):
    """A directory holding what ``--against`` looks for."""
    tree = tmp_path / "parent"
    for name in ("src/bakekit", "perfbench", "tools"):
        (tree / name).mkdir(parents=True)
    (tree / "BENCHMARK.json").write_text("{}")
    (tree / "tools" / "bench.py").write_text("")
    return tree


# made-up examples_per_s of seeds 1-5; the change's differences are 3, 0, -1, 4 and 3
PARENT_RATES, CHANGE_RATES = [100.0, 104.0, 98.0, 101.0, 99.0], [103.0, 104.0, 97.0, 105.0, 102.0]


def test_first_cell_summarises_fresh_interpreters(tmp_path, monkeypatch):
    # cell 0's minor faults per repeat: the change's differences are -40k, 10k, -40k, -35k and -30k
    faults = {"parent": [240_000, 250_000, 230_000, 245_000, 235_000],
              "change": [200_000, 260_000, 190_000, 210_000, 205_000]}
    second = [2_000, 3_000, 1_000, 2_500, 1_500]  # cell 1's, equal on both sides
    parent, calls = parent_tree(tmp_path), []
    monkeypatch.setattr(bench.subprocess, "run", fake_run(
        parent, calls, first_cells=lambda side, i: cells(faults=(faults[side][i], second[i]))))
    first = bench.first_cell_pairs(parent, False)
    assert calls == [(side, "first cell") for i in range(bench.REPEATS) for side in order(i)]
    assert first["config"] == ["bake_wide", 1]
    assert first["parent"]["top1"] == first["change"]["top1"] == [0.21] * 5
    assert first["parent"]["cells"][0]["minor_faults"] == bench.summary(faults["parent"])
    assert first["change"]["cells"][1]["minor_faults"]["median"] == 2_000
    assert first["change"]["cells"][1]["system_s"] == bench.summary([0.5] * 5)
    # lower is better: the change wins at four repeats; the parent's quartiles are 235k and 245k
    assert first["pairs"][0]["minor_faults"] == {"wins": 4, "n": 5, "median_diff": -35_000, "parent_iqr": 10_000}
    assert first["pairs"][1]["minor_faults"] == {"wins": 0, "n": 5, "median_diff": 0, "parent_iqr": 1_000}
    assert set(first["pairs"][0]) == {"wall_s", "minor_faults", "system_s"}


@pytest.mark.parametrize("side,top1", [("change", (0.21, 0.22)), ("parent", (float("nan"), float("nan")))],
                         ids=["differ", "nan"])
def test_first_cell_mismatch_raises_and_writes_no_file(tmp_path, monkeypatch, side, top1):
    # the two cells of one interpreter train one config: --moves-bits does not excuse them
    parent, calls, out = parent_tree(tmp_path), [], tmp_path / "BENCH.json"
    bad = side

    def first_cells(side, i):
        return cells(top1) if side == bad and i == 2 else cells()

    monkeypatch.setattr(bench.subprocess, "run", fake_run(parent, calls, first_cells=first_cells))
    with pytest.raises(SystemExit, match=f"first-cell check failed: the {side}'s two cells end at top-1") as exc:
        bench.main(out, parent, True)
    assert exc.value.code != 0 and not out.exists()
    assert ("parent", "micro") not in calls


def test_first_cell_top1_across_sides_needs_moves_bits(tmp_path, monkeypatch):
    parent, calls, out = parent_tree(tmp_path), [], tmp_path / "BENCH.json"
    first_cells = lambda side, i: cells((0.2, 0.2) if side == "parent" else (0.21, 0.21))  # noqa: E731
    monkeypatch.setattr(bench.subprocess, "run", fake_run(parent, calls, first_cells=first_cells))
    with pytest.raises(SystemExit, match=r"first cell: parent and change end at top-1 \[0.2, 0.21\]") as exc:
        bench.main(out, parent, False)
    assert exc.value.code != 0 and not out.exists()
    bench.main(out, parent, True)
    first = json.loads(out.read_text())["first_cell"]
    assert first["parent"]["top1"] == [0.2] * 5 and first["change"]["top1"] == [0.21] * 5


def test_micro_pairs_alternate_and_match_by_case_name(tmp_path, monkeypatch):
    # the overhead case's medians per repeat: the change's are 0.1 ms lower at every repeat
    overhead = {"parent": [0.5, 0.6, 0.4, 0.55, 0.45], "change": [0.4, 0.5, 0.3, 0.45, 0.35]}
    extra = {"parent": "gone[1]", "change": "new[1]"}  # a case only one tree times

    def micro(side, i):
        return {"step[desk-vanilla-float32]": 1.0, "overhead[desk-float32]": overhead[side][i], extra[side]: 2.0}

    parent, calls = parent_tree(tmp_path), []
    monkeypatch.setattr(bench.subprocess, "run", fake_run(parent, calls, micro=micro))
    timed = bench.micro_pairs(parent)
    assert calls == [(side, "micro") for i in range(bench.REPEATS) for side in order(i)]
    assert timed["unit"] == "s/call"
    assert set(timed["pairs"]) == {"step[desk-vanilla-float32]", "overhead[desk-float32]"}
    assert timed["pairs"]["overhead[desk-float32]"] == {
        "wins": 5, "n": 5, "median_diff": pytest.approx(-0.1), "parent_iqr": pytest.approx(0.1)
    }
    for side in ("parent", "change"):
        assert timed[side]["cases"]["overhead[desk-float32]"] == bench.summary(overhead[side])
        assert extra[side] in timed[side]["cases"] and timed[side]["env"] == [ENV] * 5
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
    workloads = [(side, name, seed) for i, seed in enumerate(bench.SEEDS) for name in names for side in order(i)]
    repeats = [(side, what) for what in ("first cell", "micro") for i in range(bench.REPEATS) for side in order(i)]
    assert calls == [("parent", "fingerprint"), ("change", "fingerprint"), *workloads, *repeats]
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
    for section, paired in (("first_cell", "cells"), ("micro", "cases")):
        assert set(report[section]) >= {"parent", "change", "pairs"} and report[section]["parent"][paired]
    assert report["micro"]["pairs"]["one[1]"] == {"wins": 0, "n": 5, "median_diff": 0.0, "parent_iqr": 0.0}


def test_pair_wins_follow_the_metrics_direction():
    # lower is better: the change wins where it is below the parent; a tie counts for neither side
    assert bench.pair([42.8, 42.7, 42.9], [41.7, 42.7, 43.0], "lower") == {
        "wins": 1, "n": 3, "median_diff": pytest.approx(0.0), "parent_iqr": pytest.approx(0.1)
    }
    assert bench.pair([42.8, 42.7, 42.9], [41.7, 42.7, 43.0], "higher")["wins"] == 1


def test_top1_mismatch_exits_and_writes_no_file(tmp_path, monkeypatch):
    parent, calls, out = parent_tree(tmp_path), [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(parent, calls, parent_top1=0.49))
    with pytest.raises(SystemExit, match=r"seed 1: parent and change end at top-1 \[0.49, 0.5\]") as exc:
        bench.main(out, parent, False)
    assert exc.value.code != 0
    assert len(calls) == 4 and not out.exists()  # both fingerprints, then the first pair stops it
    bench.main(out, parent, True)  # declared bit-moving: every pair runs and the file is written
    assert json.loads(out.read_text())["moves_bits"] is True


def test_a_parent_that_cannot_fingerprint_stops_before_any_workload(tmp_path, monkeypatch):
    parent, calls, out = parent_tree(tmp_path), [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(parent, calls, fails={"fingerprint"}))
    with pytest.raises(SystemExit, match="train_fingerprints.* exited 1") as exc:
        bench.main(out, parent, False)
    assert exc.value.code != 0 and not out.exists()
    assert calls == [("parent", "fingerprint")]


@pytest.mark.parametrize("kind", ["missing", "empty", "no-sources", "no-harness"])
def test_against_a_missing_or_foreign_dir_exits_2(tmp_path, monkeypatch, kind):
    tree = tmp_path / "parent"
    if kind != "missing":
        tree.mkdir()
    if kind in ("no-sources", "no-harness"):
        (tree / "BENCHMARK.json").write_text("{}")
        (tree / "perfbench").mkdir()
    if kind == "no-harness":  # a checkout from before tools/bench.py existed
        (tree / "src" / "bakekit").mkdir(parents=True)
    monkeypatch.setattr(bench.subprocess, "run", lambda *a, **k: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exc:
        bench.main(tmp_path / "BENCH.json", tree, False)
    assert exc.value.code == 2
    assert not (tmp_path / "BENCH.json").exists()


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
