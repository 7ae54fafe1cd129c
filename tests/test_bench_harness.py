"""The benchmark harness still runs on the package and passes its gate.

perfbench/run.py calls `verify.run_all` and `report.build_report`, expects
the 69 check names in their order, and compares catalog reports with the
golden files.  One tiny pass per workload, gated the way the benchmark
gates it, catches a package change that breaks any of that.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
# run.py imports these siblings by their bare names; tests/ has its own
# `instances` module, so they are swapped out while run.py loads.
SIBLINGS = ("calibrate", "instances", "spans")


def _load_run():
    saved_path = list(sys.path)
    saved = {name: sys.modules.pop(name) for name in SIBLINGS
             if name in sys.modules}
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", BENCH_DIR / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        for name in SIBLINGS:
            sys.modules.pop(name, None)
        sys.modules.update(saved)
    return module


run = _load_run()


@pytest.mark.parametrize("workload", run.instances.WORKLOADS)
def test_tiny_pass_passes_the_gate(workload):
    kind = run.instances.KIND[workload]
    items = run.instances.workload_items(workload, 3, tiny=True)
    done = run.Pass(kind, items, 3)
    assert run.gate_passes(kind, items, [done], done) == []
