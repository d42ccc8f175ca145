"""``tools/bench.py`` aggregates benchmark result lines and micro timings; it times nothing here."""

import importlib.util
import json
import math
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


def test_failed_micro_check_raises_and_writes_no_file(tmp_path, monkeypatch):
    env = {"blas_threads": 2, "numpy": "2.0.0", "cores": 2}
    monkeypatch.setattr(bench.subprocess, "run", lambda *a, **k: SimpleNamespace(stdout=stdout(env, 1.0, 0.5, 0)))
    monkeypatch.setattr(bench, "cases", lambda: [("broken", lambda: float("nan"), math.isfinite)])
    with pytest.raises(SystemExit, match="micro check failed: broken"):
        bench.main(tmp_path / "BENCH.json")
    assert list(tmp_path.iterdir()) == []
