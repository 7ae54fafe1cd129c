"""Every function the benchmark's span recorder traces must still exist,
and the per-instance derived data is computed once.

perfbench/spans.py wraps package functions by module and attribute name, so
a rename in the package would otherwise only surface in a traced benchmark
run.  The recorder is loaded by path, installed and uninstalled here.
"""

import importlib.util
from pathlib import Path

import pytest

from wittartin import catalog, instancefile, report, tube, verify  # noqa: F401

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_wraps_and_restores_every_traced_name():
    spans = _load_spans()
    targets = {**spans.TRACED, **spans.COUNTED}
    originals = {key: spans._resolve(*key) for key in targets}
    recorder = spans.Recorder()
    try:
        recorder.install()
        wrapped = [name for key, name in targets.items()
                   if spans._resolve(*key) is not originals[key]]
    finally:
        recorder.uninstall()
    assert sorted(wrapped) == sorted(targets.values())
    for key, original in originals.items():
        assert spans._resolve(*key) is original, key
    for name in ("tube.omega_tube", "liecore.killing_form",
                 "verify.tube_checks", "pointmodel.build_model"):
        assert name in targets.values()


@pytest.mark.parametrize("run", [verify.run_all, report.build_report],
                         ids=["run_all", "build_report"])
def test_mu_data_is_derived_once_per_instance(run):
    """One pass over so3xso3-diagonal validates the instance and computes
    its Chu form and g_mu exactly once, counted the way the benchmark's
    calls_per_instance metrics count them."""
    spans = _load_spans()
    inst = instancefile.from_dict(catalog.build_example("so3xso3-diagonal"))
    with spans.Recorder() as recorder:
        run(inst)
    totals = recorder.totals()
    for name in ("liecore.stabilizer_of_momentum", "liecore.chu_form",
                 "splitting.validate"):
        assert totals.get(name, {"calls": 0})["calls"] == 1, name
