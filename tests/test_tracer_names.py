"""Every function the benchmark's span recorder traces must still exist,
and the per-instance and per-model derived data is computed once.

perfbench/spans.py wraps package functions by module and attribute name, so
a rename in the package would otherwise only surface in a traced benchmark
run.  The recorder is loaded by path, installed and uninstalled here.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from instances import standard_slice, vec

from wittartin import (  # noqa: F401
    catalog,
    decomposition,
    instancefile,
    liecore,
    pointmodel,
    report,
    tube,
    verify,
)
from wittartin.exactlin import InnerProduct, Matrix, Subspace
from wittartin.splitting import ProblemInstance

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


def _count_calls(monkeypatch, module, name) -> list:
    """Replace module.name, in every wittartin module that holds it, by a
    wrapper that records one entry per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if ((mod_name == "wittartin" or mod_name.startswith("wittartin."))
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("run", [verify.run_all, report.build_report],
                         ids=["run_all", "build_report"])
def test_mu_data_is_derived_once_per_instance(monkeypatch, run):
    """One pass over so3xso3-diagonal validates the instance and computes
    its Chu form, g_mu, h_perp_mu, slice form, h_m-action on NH1 (h_m has
    dimension 1) and momentum differential dphi_G exactly once, counted the
    way the benchmark's calls_per_instance metrics count them."""
    spans = _load_spans()
    inst = instancefile.from_dict(catalog.build_example("so3xso3-diagonal"))
    dphi_G = _count_calls(monkeypatch, pointmodel, "dphi_G")
    eta_actions = _count_calls(monkeypatch, decomposition, "_eta_action_on_nh1")
    h_perp_mu = _count_calls(monkeypatch, liecore, "h_perp_mu")
    with spans.Recorder() as recorder:
        run(inst)
    totals = recorder.totals()
    for name in ("liecore.stabilizer_of_momentum", "liecore.chu_form",
                 "splitting.validate", "decomposition.slice_form"):
        assert totals.get(name, {"calls": 0})["calls"] == 1, name
    assert len(eta_actions) == 1
    assert len(dphi_G) == 1
    assert len(h_perp_mu) == 1


def _so3_cubed():
    """so(3)^3, h the diagonal so(3), g_m = 0 and a Cartan momentum with
    unequal parts, as in the benchmark's so3^3."""
    L = liecore.direct_sum(liecore.direct_sum(liecore.so3(), liecore.so3()),
                           liecore.so3())
    diag = [tuple(Fraction(int(j % 3 == i)) for j in range(9))
            for i in range(3)]
    mu = vec(0, 0, 1, 0, 0, 2, 0, 0, 3)
    return ProblemInstance(L, Subspace.span(9, diag), Subspace.zero(9), mu,
                           InnerProduct(Matrix.identity(9)), standard_slice(0))


@pytest.mark.parametrize("samples, expected", [(10, 10), (3, 3)])
def test_exponentials_per_run_all_are_pinned(monkeypatch, samples, expected):
    """so(3)^3 with g_m = 0: run_all takes one exponential per equivariance
    sample, the ODE's complex step; the momentum map equation is exact and
    takes none: samples."""
    inst = _so3_cubed()
    calls = _count_calls(monkeypatch, tube, "expm")
    checks = verify.run_all(inst, samples=samples)
    assert all(c.passed for c in checks)
    assert len(calls) == expected == samples


@pytest.mark.parametrize("samples, expected", [(10, 30), (3, 9)])
def test_exponentials_per_run_all_with_gm_are_pinned(monkeypatch, samples,
                                                     expected):
    """so3xso3-diagonal, g_m of dimension 1: three exponentials per
    equivariance sample, the ODE's complex step, k^-1 on m* x N1 and
    ad(-zeta) on g: 3 * samples."""
    inst = instancefile.from_dict(catalog.build_example("so3xso3-diagonal"))
    calls = _count_calls(monkeypatch, tube, "expm")
    checks = verify.run_all(inst, samples=samples)
    assert all(c.passed for c in checks)
    assert len(calls) == expected == 3 * samples
