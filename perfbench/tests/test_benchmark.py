"""Smoke tests for the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import specs  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("bake_desk", "vanilla_desk", "bake_wide")


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/workload.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return result


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = result_of(run(workload, 0))
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload == "vanilla_desk":
        # At the seed the CLI default recipe diverges at epoch 4 without
        # bake; those epochs must show as failed operations.
        assert result["failed"] > 0
    else:
        assert result["failed"] == 0


def test_operations_depend_on_seed_and_seconds_alone():
    # A run trains a cell count fixed by --seconds, not by the host's speed,
    # so runs of one seed attempt, and fail, the same operations.
    first, second = (result_of(run("vanilla_desk", 0)) for _ in range(2))
    epochs = specs.cells("vanilla_desk", 1) * specs.TINY["vanilla_desk"]["epochs"]
    checks_run = 3  # companions, examples per epoch, finite top-1
    assert first["attempted"] == epochs + checks_run
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_traced_run_prints_every_per_layer_metric_and_the_overhead():
    proc = run("bake_desk", 1)
    result = result_of(proc)
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert result["metrics"]["numerics.linear_solve.calls"]["value"] > 0
    assert "tracing overhead:" in proc.stdout
    assert "absent at this commit" not in proc.stdout


def test_missing_hook_is_an_absent_layer():
    import bakekit.bake as bake

    original = bake.affinity_matrix
    hooks = tracer.HOOKS + (
        ("bakekit.bake", "linear_solve_removed", "numerics.gone"),
        ("bakekit.no_such_module", "f", "nowhere.f"),
    )
    t = tracer.Tracer(hooks=hooks).install()
    try:
        assert bake.affinity_matrix is not original
        bake.affinity_matrix(__import__("numpy").eye(3) + 1.0)
    finally:
        t.uninstall()
    assert bake.affinity_matrix is original
    assert t.absent == ["numerics.gone", "nowhere.f"]
    layers = tracer.layer_metrics(t.spans, epochs=1)
    assert layers["bake.affinity_matrix.share"][0] == 0.0  # no trainer.train span to share
    assert layers["bake.affinity_matrix.s"][0] > 0.0


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("bake_desk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
