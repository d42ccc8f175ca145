"""bakekit benchmark: one workload, one seed, tracing off or on.

    python3 perfbench/workload.py --workload bake_desk --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; bakekit is imported from its ``src/``, and
without it the command exits with code 2 and prints no result. The last line
of standard output is a JSON object with the metrics BENCHMARK.json lists:
the end-to-end ones with --trace 0, the per-layer ones with --trace 1. The
lines above it give the environment, each correctness check and, traced, the
full layer table and the tracing overhead. Every run is a fresh interpreter,
so peak memory covers one workload, and an untraced run never imports the
tracer. The reasoning behind workloads and metrics is in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROBES = 11  # set-up probes per run

if not (SRC / "bakekit" / "__init__.py").is_file():
    print(f"perfbench: no bakekit sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from bakekit import cli  # noqa: E402
from bakekit.sampling import epoch_batches  # noqa: E402

import checks  # noqa: E402
import specs  # noqa: E402


def blas_threads():
    """OpenBLAS's thread count as numpy's bundled library reports it, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    return {
        "blas_threads": blas_threads(),
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def train_cell(name, seed, tiny, index):
    """One cli.run_training call. An epoch fails when its train loss is not
    finite, and only finished epochs count towards throughput."""
    cfg = specs.config(name, seed, tiny, index)
    start = time.perf_counter()
    try:
        model, metrics, _ = cli.run_training(cfg)
    except Exception:  # noqa: BLE001 - a raising call is a failed operation, reported
        traceback.print_exc()
        return {"wall": time.perf_counter() - start, "rates": [], "attempted": cfg["epochs"],
                "failed": cfg["epochs"], "top1": math.nan}, (cfg, None)
    per_epoch = specs.examples_per_epoch(cfg)
    finite = [m for m in metrics if math.isfinite(m.train_loss)]
    return {
        "wall": time.perf_counter() - start,
        "rates": [per_epoch / m.wall_seconds for m in finite],  # train() times each epoch
        "attempted": len(metrics),
        "failed": len(metrics) - len(finite),
        "top1": metrics[-1].test_top1 if metrics else math.nan,
    }, (cfg, model)


class SetupProbes:
    """Times set-up (probe.py) in PROBES fresh interpreters, spread evenly
    over the gaps before, between and after a run's cells so that probes
    sample the run's moments instead of sharing one. Set-up is fixed work
    that the host's noise only ever slows, so the figure is the fastest
    probe."""

    def __init__(self, argv, cells):
        self.argv = argv
        self.gaps = cells + 1
        self.gap = 0
        self.times = []

    def run(self):
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), *self.argv],
                             capture_output=True, text=True, check=True, timeout=60)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        if not Path(probe["bakekit"]).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"probe imported bakekit from {probe['bakekit']}, not {SRC}")
        self.times.append(probe["setup_s"])

    def in_gap(self):
        """Run this gap's share of the probes; the last gap is ``finish``."""
        self.gap += 1
        while len(self.times) < PROBES * self.gap // self.gaps:
            self.run()

    def finish(self):
        while len(self.times) < PROBES:
            self.run()
        return min(self.times)


def measure(call, cells, first=0, probes=None):
    """Closed loop over cells first, first + 1, ...: ``cells`` of them, a
    count fixed before the run starts.

    Returns the cell records and the (config, model) of the last cell.
    """
    records = []
    for index in range(first, first + cells):
        if probes:
            probes.in_gap()
        cell, last = call(index)
        records.append(cell)
    return records, last


def examples_per_s(cells):
    """The fastest epoch's rate. Each epoch is the same work, and the host's
    slow spells only ever stretch epochs, by up to 2x, while a code change
    moves every epoch, the fastest included."""
    return max((r for c in cells for r in c["rates"]), default=0.0)


def run_checks(cfg, model):
    """Checks on the sampler's epoch-0 batches and, for bake, one batch's soft targets."""
    train_set, _ = cli.load_datasets(cfg)
    train_cfg = cli.make_train_config(cfg)
    sampler = train_cfg.sampler if cfg["method"] == "bake" else replace(train_cfg.sampler, m=0)
    batches = epoch_batches(train_set.class_index, sampler, 0)
    out = {"companions": checks.companion_contract(train_set.labels, batches, sampler.m)}
    emitted = sum(len(b) for b in batches)
    expected = specs.examples_per_epoch(cfg)
    out["examples_per_epoch"] = (emitted == expected, f"sampler emitted {emitted}, benchmark counts {expected}")
    if cfg["method"] == "bake":
        if model is None:  # the last cell raised: check an initialised model
            model = cli.make_model(cfg, train_set)
        ids = np.asarray(batches[0])
        x, y = train_set.inputs[ids].astype(np.float64), train_set.labels[ids]
        out["soft_targets"] = checks.soft_targets(model, x, y, train_cfg.bake)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(specs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)

    name = args.workload
    call = functools.partial(train_cell, name, args.seed, args.tiny)
    top1_cells = specs.CELL_SEEDS[name]
    n_cells = specs.cells(name, args.seconds)
    OUT.mkdir(exist_ok=True)
    run_name = f"{name}-seed{args.seed}-trace{args.trace}"
    report = {"workload": name, "seed": args.seed, "trace": args.trace, "env": environment(),
              "config": specs.config(name, args.seed, args.tiny)}
    print("env " + json.dumps(report["env"], sort_keys=True))
    if args.trace:
        # Same process, same loop: untraced first, then traced; the
        # difference in examples_per_s is the tracing overhead.
        half = max(1, n_cells // 2)
        reference, _ = measure(call, half)
        import tracer

        t = tracer.Tracer().install()
        traced, (last_cfg, model) = measure(call, max(1, n_cells - half), first=half)
        t.uninstall()
        t.write(OUT / f"{run_name}-spans.json")
        cells = reference + traced
        layers = tracer.layer_metrics(t.spans, sum(c["attempted"] for c in traced))
        untraced_eps, traced_eps = examples_per_s(reference), examples_per_s(traced)
        report["overhead"] = {
            "examples_per_s_untraced": untraced_eps,
            "examples_per_s_traced": traced_eps,
            "share": (untraced_eps - traced_eps) / untraced_eps if untraced_eps else 0.0,
        }
        report["layers"], report["absent"] = layers, t.absent
        measured = {k: value for k, (value, _) in layers.items()}
        for k, (value, unit) in layers.items():
            print(f"layer {k} = {value:.6g} {unit}")
        for k in t.absent:
            print(f"layer {k}: absent at this commit (hook target not found)")
        o = report["overhead"]
        print(f"tracing overhead: {100 * o['share']:+.2f}% of examples_per_s "
              f"({untraced_eps:.6g} untraced, {traced_eps:.6g} traced)")
    else:
        probe_argv = ["--workload", name, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
        probes = SetupProbes(probe_argv, n_cells)
        cells, (last_cfg, model) = measure(call, n_cells, probes=probes)
        if "tracer" in sys.modules:
            raise SystemExit("an untraced run imported the tracer")
        measured = {
            "examples_per_s": examples_per_s(cells),
            "final_top1": statistics.fmean(c["top1"] for c in cells[:top1_cells]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": probes.finish(),
        }
        report["setup_probes_s"] = probes.times
        for k, value in measured.items():
            print(f"metric {k} = {value:.6g}")

    found = run_checks(last_cfg, model)
    found["top1_finite"] = (all(math.isfinite(c["top1"]) for c in cells), "final top-1 of every call")
    for k, (ok, detail) in found.items():
        print(f"check {k}: {'pass' if ok else 'FAIL'} ({detail})")
    bad_checks = sum(not ok for ok, _ in found.values())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if not math.isfinite(measured.get(m["name"], math.nan))]
    if missing:
        print(f"perfbench: no finite value for {missing}")
    result = {
        "correct": bad_checks == 0 and not missing,
        "attempted": sum(c["attempted"] for c in cells) + len(found),
        "failed": sum(c["failed"] for c in cells) + bad_checks,
        "metrics": {
            m["name"]: {"value": measured[m["name"]] if m["name"] not in missing else 0.0, "unit": m["unit"]}
            for m in wanted
        },
    }
    report["checks"] = {k: {"passed": bool(ok), "detail": detail} for k, (ok, detail) in found.items()}
    report["cells"] = cells
    with open(OUT / f"{run_name}.json", "w") as f:
        json.dump({**result, "report": report}, f, indent=1)
    print(json.dumps(result, allow_nan=False))


if __name__ == "__main__":
    main()
