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
REAL_RUN = subprocess.run  # git and tar run for real where a test fakes every other run


@pytest.fixture(autouse=True)
def five_pairs(monkeypatch):
    """The made-up runs below are five pairs; a test of the verdict at REPEATS pairs sets its own count."""
    monkeypatch.setattr(bench, "REPEATS", 5)


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
    metrics = {"examples_per_s": {"name": "examples_per_s", "better": "higher", "bound": 0.25}}
    report = bench.section({"parent": records, "change": records[::-1]}, metrics)
    assert report["parent"]["examples_per_s"] == {"values": [100.0, 140.0], "median": 120.0,
                                                  "iqr": pytest.approx(20.0)}
    assert report["change"]["failed"] == {"values": [3, 0], "median": 1.5, "iqr": pytest.approx(1.5)}
    assert report["pairs"]["examples_per_s"] == {"wins": 1, "n": 2, "median_diff": 0.0,
                                                 "parent_iqr": pytest.approx(20.0), "verdict": "none"}
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


def micro_output(cases):
    """What one micro interpreter prints: ``cases`` maps each case's name to its median seconds per call."""
    return {name: bench.summary([seconds] * bench.MICRO_LOOPS) for name, seconds in cases.items()}


def order(i):
    """The sides in their run order at index ``i``, as the pairs must alternate them."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


# what each harness run calls, by the name ``calls`` logs it under
HARNESS = {"bench.train_fingerprints(False)": "fingerprint", "environment()": "env",
           "bench.micro(bench.cases())": "micro"}

# made-up examples_per_s of seeds 1-5; the change's differences are 3, 0, -1, 4 and 3
PARENT_RATES, CHANGE_RATES = [100.0, 104.0, 98.0, 101.0, 99.0], [103.0, 104.0, 97.0, 105.0, 102.0]


def git(repo, *argv):
    """``git *argv`` in ``repo`` under a throwaway identity, with empty input; its standard output, stripped."""
    config = ["-c", "user.name=bench", "-c", "user.email=bench@localhost", "-c", "commit.gpgsign=false"]
    done = REAL_RUN(["git", "-C", str(repo), *config, *argv], input="", stdout=subprocess.PIPE, text=True,
                    check=True)
    return done.stdout.strip()


def make_repo(repo, version):
    """A throwaway git repository in ``repo``. Tag ``full``, HEAD's parent, holds what an export needs; ``no-harness``
    lacks tools/bench.py, ``no-sources`` src/bakekit too, and ``empty`` everything. Each tree's
    ``src/bakekit/__init__.py`` names its side: HEAD's the change, the others the parent. With a ``version``, the
    src/bakekit/cli.py of ``full`` and HEAD says ``TRAINING_VERSION = version``, and tag ``restamped``, ``full``'s
    parent, holds ``full``'s files at another version; without one, no tree has a cli.py."""
    git(repo, "init", "-q")
    git(repo, "tag", "empty", git(repo, "commit-tree", git(repo, "mktree"), "-m", "empty"))
    benchmark = (BENCH_PATH.parents[1] / "BENCHMARK.json").read_text()
    cli = {} if version is None else {"src/bakekit/cli.py": f"x = 1\nTRAINING_VERSION = {version}\n"}
    restamped = [] if version is None else [
        ("restamped", {"tools/bench.py": "", "src/bakekit/cli.py": f"TRAINING_VERSION = {version + 1}\n"})]
    for tag, files in (("no-sources", {"BENCHMARK.json": benchmark, "perfbench/workload.py": ""}),
                       ("no-harness", {"src/bakekit/__init__.py": "# parent\n"}),
                       *restamped,
                       ("full", {"tools/bench.py": "", **cli}),
                       ("HEAD", {"src/bakekit/__init__.py": "# change\n"})):
        for name, text in files.items():
            (repo / name).parent.mkdir(parents=True, exist_ok=True)
            (repo / name).write_text(text)
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", tag)
        if tag != "HEAD":
            git(repo, "tag", tag)
    return repo


@pytest.fixture(scope="module")
def repo(tmp_path_factory):
    """``make_repo``'s repository at version 2."""
    return make_repo(tmp_path_factory.mktemp("repo"), 2)


@pytest.fixture(scope="module")
def unstamped(tmp_path_factory):
    """``make_repo``'s repository with no stamp in any tree."""
    return make_repo(tmp_path_factory.mktemp("unstamped"), None)


@pytest.fixture
def tmp_root(repo, tmp_path, monkeypatch):
    """The temporary directory ``main`` exports ``repo``'s trees under."""
    monkeypatch.setattr(bench, "ROOT", repo)
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(bench.tempfile, "tempdir", str(root))
    return root


def fake_run(tmp_root, calls, parent_top1=0.5, parent_failed=0, micro=None, fails=(), parent_metrics={},
             rates=(PARENT_RATES, CHANGE_RATES)):
    """``subprocess.run`` for ``main``: git and tar run for real, and every other run must lie in an export under
    ``tmp_root``, never in the repository, and is the side of the export it runs in. Each such run is logged in
    ``calls``, a workload run as (side, name, seed) and a harness run as (side, what); a micro run prints
    ``micro_output(micro(side, i))`` at its side's i-th repeat. A ``what`` in ``fails``
    exits 1 on the parent's side. A parent's workload run also prints ``parent_metrics``. A workload run at seed s
    prints ``rates[0][s - 1]`` (the parent's) or ``rates[1][s - 1]`` (the change's) as its examples_per_s."""
    repeat = {}

    def run(argv, cwd=None, **kwargs):
        if argv[0] in ("git", "tar"):
            return REAL_RUN(argv, cwd=cwd, **kwargs)
        cwd = Path(cwd)
        assert cwd.is_relative_to(tmp_root) and not cwd.is_relative_to(bench.ROOT)
        export, side = cwd.relative_to(tmp_root).parts[:2]
        # the parent's tree is the rev's export, the change's HEAD's
        assert (tmp_root / export / side / "src" / "bakekit" / "__init__.py").read_text() == f"# {side}\n"
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
            else:
                printed = micro_output((micro or (lambda side, i: {"one[1]": 1e-3}))(side, i))
            return SimpleNamespace(returncode=0, stdout="a line before\n" + json.dumps(printed) + "\n")
        name, seed = argv[argv.index("--workload") + 1], int(argv[argv.index("--seed") + 1])
        calls.append((side, name, seed))
        if side == "parent":
            return SimpleNamespace(returncode=0, stdout=stdout(ENV, rates[0][seed - 1], parent_top1, parent_failed,
                                                            **parent_metrics))
        return SimpleNamespace(returncode=0, stdout=stdout(ENV, rates[1][seed - 1], 0.5, 0))

    return run


def test_export_writes_both_trees_at_one_path_length(repo, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "ROOT", repo)
    trees = bench.export("full", tmp_path)
    assert trees == {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    assert len(str(trees["parent"])) == len(str(trees["change"]))
    for side, tree in trees.items():
        files = sorted(path.relative_to(tree).as_posix() for path in tree.rglob("*") if path.is_file())
        assert files == ["BENCHMARK.json", "perfbench/workload.py", "src/bakekit/__init__.py", "src/bakekit/cli.py",
                         "tools/bench.py"]
        assert (tree / "src" / "bakekit" / "__init__.py").read_text() == f"# {side}\n"


def test_names_pair_only_when_both_sides_hold_them(tmp_root, tmp_path, monkeypatch):
    # each section, a name only one side gives: a workload metric and a micro case
    overhead = {"parent": [0.5, 0.6, 0.4, 0.55, 0.45], "change": [0.4, 0.5, 0.3, 0.45, 0.35]}
    extra = {"parent": "gone[1]", "change": "new[1]"}

    def micro(side, i):
        return {"step[desk-vanilla-float32]": 1.0, "overhead[desk-float32]": overhead[side][i], extra[side]: 2.0}

    calls, out = [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(tmp_root, calls, micro=micro, parent_metrics={"setup_s": 0.1}))
    bench.main(out, "full")
    report = json.loads(out.read_text())
    for workload in report["workloads"].values():
        assert "setup_s" in workload["parent"] and "setup_s" not in workload["change"]
        assert set(workload["pairs"]) == {"examples_per_s", "final_top1", "attempted", "failed"}
    timed = report["micro"]
    assert timed["unit"] == "s/call"
    assert set(timed["pairs"]) == {"step[desk-vanilla-float32]", "overhead[desk-float32]"}
    assert timed["pairs"]["overhead[desk-float32]"] == {
        "wins": 5, "n": 5, "median_diff": pytest.approx(-0.1), "parent_iqr": pytest.approx(0.1), "verdict": "none"
    }
    for side in ("parent", "change"):
        assert timed[side]["overhead[desk-float32]"] == bench.summary(overhead[side])
        assert extra[side] in timed[side]
    assert timed["parent"]["overhead_share"] == {"desk-float32": 0.5}
    assert timed["change"]["overhead_share"] == {"desk-float32": pytest.approx(0.4)}


def test_failed_micro_check_raises_and_writes_no_file(tmp_root, tmp_path, monkeypatch):
    with pytest.raises(SystemExit, match="micro check failed: broken"):
        bench.micro([("broken", lambda: float("nan"), math.isfinite)])
    # that exit, in a micro interpreter, stops the pairs there
    calls, out = [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(tmp_root, calls, fails={"micro"}))
    with pytest.raises(SystemExit, match="exited 1") as exc:
        bench.main(out, "full")
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
    monkeypatch.setattr(bench, "REPEATS", 7)  # the pairs' count: the loops do not follow it
    timed = bench.micro([("one", case, lambda first: first == 1)])
    assert len(calls) == 2 + 5 * 4  # the checked call, the sizing call, then 4 calls in each of 5 loops
    assert list(timed) == ["one"] and timed["one"]["values"] == pytest.approx([0.001] * 5)


def test_pairs_alternate_and_match_a_hand_count(tmp_root, tmp_path, monkeypatch):
    calls, out = [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(tmp_root, calls))
    bench.main(out, "full")
    assert list(tmp_root.iterdir()) == []  # both exports are gone once the file is written
    names = bench.workload_names()
    # every section, one loop: at index i the parent goes first when i is even; seed i + 1 for a workload
    workloads = [(side, name, i + 1) for name in names for i in range(5) for side in order(i)]
    micro = [(side, "micro") for i in range(5) for side in order(i)]
    assert calls == [("parent", "fingerprint"), ("change", "fingerprint"), ("parent", "env"), ("change", "env"),
                     *workloads, *micro]
    report = json.loads(out.read_text())
    assert set(report) == {"training_version", "first", "fingerprint", "env", "command", "run_seconds", "trace",
                           "workloads", "micro"}
    assert report["first"] == ["parent", "change", "parent", "change", "parent"]
    assert report["training_version"] == {"parent": "2", "change": "2"}
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
        assert workload["pairs"]["examples_per_s"] == {"wins": 3, "n": 5, "median_diff": 3.0, "parent_iqr": 2.0,
                                                       "verdict": "none"}
        assert workload["pairs"]["final_top1"] == {"wins": 0, "n": 5, "median_diff": 0.0, "parent_iqr": 0.0,
                                                   "verdict": "none"}
    assert set(report["micro"]) == {"unit", "parent", "change", "pairs"}
    assert report["micro"]["pairs"]["one[1]"] == {"wins": 0, "n": 5, "median_diff": 0.0, "parent_iqr": 0.0,
                                                  "verdict": "none"}
    assert report["micro"]["parent"]["overhead_share"] == {}


def test_both_sides_of_a_pair_run_with_one_pad_and_other_pairs_with_others(tmp_root, tmp_path, monkeypatch):
    pads, run = [], fake_run(tmp_root, [])

    def padded(argv, cwd=None, **kwargs):
        env = kwargs.get("env")
        if argv[0] not in ("git", "tar") and not any(call in argv[-1] for call in ("fingerprints", "environment()")):
            assert {k: v for k, v in env.items() if k != "BENCH_PAD"} == dict(bench.os.environ)
            pads.append(len(env["BENCH_PAD"]))
        return run(argv, cwd=cwd, **kwargs)

    monkeypatch.setattr(bench.subprocess, "run", padded)
    bench.main(tmp_path / "BENCH.json", "full")
    sections = len(bench.workload_names()) + 1  # each workload, then the micro cases
    assert len(pads) == sections * 2 * bench.REPEATS
    for section in range(sections):
        pairs = [pads[2 * (section * bench.REPEATS + i) : 2 * (section * bench.REPEATS + i) + 2]
                 for i in range(bench.REPEATS)]
        assert all(parent == change for parent, change in pairs)  # one pad for both sides of pair i
        assert len({pad for pad, _ in pairs}) == bench.REPEATS  # another pad for each other pair
        assert [pad for pad, _ in pairs] == [bench.PADS[i] for i in range(bench.REPEATS)]
    assert len(set(bench.PADS)) == len(bench.PADS) and all(pad % 16 == 0 for pad in bench.PADS)


def test_pair_wins_follow_the_metrics_direction():
    # lower is better: the change wins where it is below the parent; a tie counts for neither side
    assert bench.pair([42.8, 42.7, 42.9], [41.7, 42.7, 43.0], "lower") == {
        "wins": 1, "n": 3, "median_diff": pytest.approx(-0.1), "parent_iqr": pytest.approx(0.1), "verdict": "none"
    }
    assert bench.pair([42.8, 42.7, 42.9], [41.7, 42.7, 43.0], "higher")["wins"] == 1


# ten made-up parent runs: their inclusive quartiles are 102.25 and 106.75, so the parent's IQR is 4.5
TEN = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


@pytest.mark.parametrize("shifts, better, bound, verdict", [
    ([10] * 9 + [-1], "higher", None, "better"),  # 9 of 10 wins, a difference of medians of 9
    ([10] * 8 + [-1] * 2, "higher", None, "none"),  # a larger difference of medians, but 8 of 10 wins
    ([3] * 10, "higher", None, "none"),  # 10 of 10 wins, but a difference inside the IQR
    ([4.5] * 10, "higher", None, "none"),  # a difference equal to the IQR is not beyond it
    ([10] * 9 + [-1], "lower", 0.05, "worse"),  # where lower is better: a median 8.6% worse, beyond a 5% bound
    ([-10] * 9 + [1], "lower", None, "better"),
], ids=["9-of-10", "8-of-10", "inside-iqr", "at-iqr", "worse", "lower-better"])
def test_verdict_needs_nine_of_ten_wins_beyond_the_parent_iqr(shifts, better, bound, verdict):
    result = bench.pair(TEN, [p + d for p, d in zip(TEN, shifts)], better, bound)
    assert result["n"] == 10 and result["parent_iqr"] == 4.5 and result["verdict"] == verdict


def committed_pairs():
    """(file, section, name, parent values, change values, pair record) of every pair that BENCH_40.json to
    BENCH_45.json hold, in the workload and micro sections."""
    for n in range(40, 46):
        report = json.loads((BENCH_PATH.parents[1] / f"BENCH_{n}.json").read_text())
        for what, section in [*report["workloads"].items(), ("micro", report["micro"])]:
            for name, record in section["pairs"].items():
                yield (n, what, name, section["parent"][name]["values"], section["change"][name]["values"], record)


def test_the_rule_replays_every_committed_pair():
    metrics = {m["name"]: m for m in json.loads((BENCH_PATH.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]}
    replayed = [(n, what, name, bench.pair(parent, change, metrics.get(name, {}).get("better", "lower"),
                                           metrics.get(name, {}).get("bound")), record)
                for n, what, name, parent, change, record in committed_pairs()]
    assert len(replayed) == 252
    assert [(n, what, name) for n, what, name, got, record in replayed if got != record] == []
    assert sum(record["verdict"] == "better" for *_, record in replayed) == 17


# a tight made-up parent: IQR 0.45 around a median of 100.45
TIGHT = [100.0 + 0.1 * i for i in range(10)]
# five made-up parent runs: their inclusive quartiles are 101 and 103, so the parent's IQR is 2
FIVE = [100.0, 101.0, 102.0, 103.0, 104.0]


@pytest.mark.parametrize("parent, change, better, bound, verdict", [
    # 10 of 10 losses 3% down, beyond the parent's IQR but inside examples_per_s's 25% bound
    (TIGHT, [0.97 * p for p in TIGHT], "higher", 0.25, "none"),
    # 8 of 10 losses, the median 30% down: beyond the bound, whatever the wins
    (TEN, [0.7 * p for p in TEN[:8]] + [1.01 * p for p in TEN[8:]], "higher", 0.25, "worse"),
    # one test example in 10,000 at every pair: the IQR of a deterministic metric is 0, but the bound holds
    ([0.4378] * 10, [0.4377] * 10, "higher", 0.15, "none"),
    # 9 of 10 wins, a median paired difference of 5 beyond the IQR of 4.5, but a difference of medians of 3.25
    (TEN, [105.0, 106.0, 107.0, 108.0, 109.0, 110.0, 106.5, 107.5, 108.5, 108.0], "higher", None, "none"),
    # five pairs, a parent IQR of 2: 5 of 5 wins and a difference of medians of 5 reads better; 4 of 5 wins, below
    # nine tenths of the pairs, does not, though the difference of medians is 4
    (FIVE, [p + 5 for p in FIVE], "higher", None, "better"),
    (FIVE, [p + 5 for p in FIVE[:4]] + [FIVE[4] - 1], "higher", None, "none"),
], ids=["ten-losses-inside-bound", "eight-losses-beyond-bound", "one-example-top1", "paired-median-only", "5-of-5",
        "4-of-5"])
def test_pair_judges_as_a_change_is_accepted(parent, change, better, bound, verdict):
    assert bench.pair(parent, change, better, bound)["verdict"] == verdict


def test_a_file_of_ten_pairs_holds_each_verdict(tmp_root, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "REPEATS", 10)
    change_rates = [rate + 10 for rate in TEN[:9]] + [TEN[9] - 1]  # 9 of 10 wins beyond the parent's IQR
    calls, out = [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(tmp_root, calls, rates=(TEN, change_rates)))
    bench.main(out, "full")
    report = json.loads(out.read_text())
    assert report["first"] == ["parent", "change"] * 5
    for workload in report["workloads"].values():
        assert workload["pairs"]["examples_per_s"] == {"wins": 9, "n": 10, "median_diff": 9.0, "parent_iqr": 4.5,
                                                       "verdict": "better"}
        assert {name: p["verdict"] for name, p in workload["pairs"].items() if name != "examples_per_s"} == {
            "final_top1": "none", "attempted": "none", "failed": "none"}
    assert all(p["verdict"] == "none" for p in report["micro"]["pairs"].values())


def test_top1_mismatch_exits_and_writes_no_file(tmp_root, tmp_path, monkeypatch):
    calls, out = [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(tmp_root, calls, parent_top1=0.49))
    with pytest.raises(SystemExit, match=r"bake_desk seed 1: parent and change end at final_top1 \[0.49, 0.5\]") as exc:
        bench.main(out, "full")
    assert exc.value.code != 0
    assert len(calls) == 6 and not out.exists()  # fingerprints and environments, then the first pair stops it
    assert list(tmp_root.iterdir()) == []  # a stopped run leaves no export behind


def test_failed_count_mismatch_exits_and_writes_no_file(tmp_root, tmp_path, monkeypatch):
    calls, out = [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(tmp_root, calls, parent_failed=2))
    with pytest.raises(SystemExit, match=r"bake_desk seed 1: parent and change end at failed \[2, 0\]") as exc:
        bench.main(out, "full")
    assert exc.value.code != 0 and not out.exists()
    assert calls[-2:] == [("parent", "bake_desk", 1), ("change", "bake_desk", 1)]


# the two tests above stop under one stamp, version 2 on both sides; these pair two trees without a stamp, and two
# trees of two stamps
@pytest.mark.parametrize("stamped, rev, stops", [(False, "full", True), (True, "restamped", False)],
                         ids=["no-stamp", "another-stamp"])
@pytest.mark.parametrize("mismatch", [{"parent_top1": 0.49}, {"parent_failed": 2}], ids=["final_top1", "failed"])
def test_a_mismatch_stops_exactly_when_the_stamps_are_equal(repo, unstamped, tmp_root, tmp_path, monkeypatch,
                                                            stamped, rev, stops, mismatch):
    monkeypatch.setattr(bench, "ROOT", repo if stamped else unstamped)
    calls, out = [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(tmp_root, calls, **mismatch))
    if stops:
        with pytest.raises(SystemExit, match="bump cli.TRAINING_VERSION if the change moves training bits"):
            bench.main(out, rev)
        assert not out.exists()
    else:  # bits may move with the stamp: every pair runs and the file records both stamps
        bench.main(out, rev)
        assert json.loads(out.read_text())["training_version"] == {"parent": "3", "change": "2"}
        assert len(calls) == 4 + 2 * 5 * (len(bench.workload_names()) + 1)


def test_stamp_reads_the_first_training_version_line(tmp_path):
    cli = tmp_path / "src" / "bakekit" / "cli.py"
    assert bench.stamp(tmp_path) is None  # no cli.py
    cli.parent.mkdir(parents=True)
    cli.write_text("    TRAINING_VERSION = 1\nVERSION = 2\n")
    assert bench.stamp(tmp_path) is None  # no line starts with the stamp
    cli.write_text("x = 1\nTRAINING_VERSION = 7  # bumped\nTRAINING_VERSION = 8\n")
    assert bench.stamp(tmp_path) == "7  # bumped"
    from bakekit.cli import TRAINING_VERSION

    assert bench.stamp(BENCH_PATH.parents[1]) == str(TRAINING_VERSION)


def test_a_parent_that_cannot_fingerprint_stops_before_any_workload(tmp_root, tmp_path, monkeypatch):
    calls, out = [], tmp_path / "BENCH.json"
    monkeypatch.setattr(bench.subprocess, "run", fake_run(tmp_root, calls, fails={"fingerprint"}))
    with pytest.raises(SystemExit, match="train_fingerprints.* exited 1") as exc:
        bench.main(out, "full")
    assert exc.value.code != 0 and not out.exists()
    assert calls == [("parent", "fingerprint")]


@pytest.mark.parametrize("kind", ["missing", "empty", "no-sources", "no-harness", "no-out-dir"])
def test_against_a_missing_or_foreign_dir_exits_2(tmp_root, tmp_path, monkeypatch, capsys, kind):
    # an unknown revision exports no tree; the repository's tags export trees without what a run needs
    rev = {"missing": "no-such-revision", "no-out-dir": "full"}.get(kind, kind)
    out = tmp_path / "nowhere" / "BENCH.json" if kind == "no-out-dir" else tmp_path / "BENCH.json"

    def run(argv, **kwargs):
        assert argv[0] in ("git", "tar"), "a run started"
        return REAL_RUN(argv, **kwargs)

    monkeypatch.setattr(bench.subprocess, "run", run)
    with pytest.raises(SystemExit) as exc:
        bench.main(out, rev)
    assert exc.value.code == 2
    assert not out.exists() and list(tmp_root.iterdir()) == []
    err = capsys.readouterr().err
    if kind == "no-out-dir":
        assert err == f"bench: cannot write {out}: {out.parent} is not a directory\n"
    elif kind == "missing":
        assert err.startswith("bench: git archive no-such-revision exited ")
    else:
        missing = {"empty": "BENCHMARK.json, perfbench, src/bakekit, tools/bench.py",
                   "no-sources": "src/bakekit, tools/bench.py", "no-harness": "tools/bench.py"}[kind]
        assert err == f"bench: {rev} is not a bakekit checkout: it has no {missing}\n"


def test_against_from_the_command_line_exits_2_on_an_unknown_rev(tmp_path):
    argv = [sys.executable, str(BENCH_PATH), str(tmp_path / "BENCH.json"), "--against", "no-such-revision"]
    done = subprocess.run(argv, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 2 and "bench: git archive no-such-revision exited" in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_a_file_name_alone_prints_the_usage(tmp_path):
    done = subprocess.run([sys.executable, str(BENCH_PATH), str(tmp_path / "BENCH.json")],
                          stderr=subprocess.PIPE, text=True)
    assert done.returncode != 0 and "BENCH_<n>.json --against REV\n" in done.stderr
    assert list(tmp_path.iterdir()) == []
