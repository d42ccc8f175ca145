"""The benchmark tracer's hook targets still exist in bakekit.

``perfbench/tracer.py`` wraps bakekit functions by name from outside the
package and reports a missing target as an absent layer, which zeroes that
layer's metrics without failing the run. This test makes a rename fail here
instead. It only reads the tracer's hook table; it installs no hook.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize(
    "module_name, path", [hook[:2] for hook in tracer.HOOKS], ids=lambda v: v
)
def test_hook_target_resolves(module_name, path):
    assert tracer._resolve(module_name, path) is not None, f"{module_name}.{path} is gone"
