"""Report assembly and the version-controlled golden reports.

The golden files pin the exact bytes of `decompose --format json` for every
catalog instance; any change to canonical bases, block ordering or
serialization shows up as a diff here.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest
from instances import zero_slice_block
from output_digest import _workload_items

from wittartin import decomposition as dec
from wittartin import pointmodel as pm
from wittartin import report, splitting, tube, verify
from wittartin.catalog import all_examples, build_example
from wittartin.exactlin import Subspace, sum_spaces
from wittartin.instancefile import from_dict
from wittartin.report import build_report, render_text, report_to_dict
from wittartin.splitting import CheckFailed, build_chain

GOLDEN_DIR = Path(__file__).parent / "golden"


def render_json(name, doc) -> str:
    inst = from_dict(doc)
    rep = build_report(inst, instance_doc=doc)
    return json.dumps(report_to_dict(rep), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name,doc", all_examples())
def test_reports_match_golden_files(name, doc):
    expected = (GOLDEN_DIR / f"{name}.report.json").read_text()
    assert render_json(name, doc) == expected


@pytest.mark.parametrize("name,doc", all_examples())
def test_report_serialization_round_trips(name, doc):
    text = render_json(name, doc)
    payload = json.loads(text)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
    assert payload["format"] == "wittartin-report/1"
    assert payload["instance"] == doc


def test_text_rendering_is_deterministic():
    name, doc = all_examples()[0]
    inst = from_dict(doc)
    a = render_text(build_report(inst, instance_doc=doc))
    b = render_text(build_report(inst, instance_doc=doc))
    assert a == b


def test_reports_never_reach_the_tube(monkeypatch):
    # decompose builds no tube form and takes no exponential, so a change to
    # the tube cannot move the decompose-mixed benchmark workload.
    def unreachable(*args, **kwargs):
        raise AssertionError("build_report reached the tube")

    monkeypatch.setattr(tube, "expm", unreachable)
    monkeypatch.setattr(tube, "omega_tube_gram", unreachable)
    docs = [doc for label, doc in _workload_items(1)
            if label.startswith("decompose-mixed@")]
    assert len(docs) == len(all_examples()) + 2
    for doc in docs:
        report_to_dict(build_report(from_dict(doc), instance_doc=doc))


def test_wrong_slice_dim_prediction_fails_the_report_check(monkeypatch):
    exact = report.dim_formulas
    monkeypatch.setattr(report, "dim_formulas", lambda chain: replace(
        exact(chain), slice_dim_H=exact(chain).slice_dim_H + 1))
    rep = build_report(from_dict(build_example("so3-generic")))
    assert [(c.name, c.detail) for c in rep.checks if not c.passed] == [
        ("report.slice_dim_matches_formula",
         "dim NH1 is 4, dim N1 + 2 dim b + dim s is 5")]


def test_golden_dims_match_worked_cases():
    generic = json.loads((GOLDEN_DIR / "so3-generic.report.json").read_text())
    assert generic["dims"]["s"] == 0 and generic["dims"]["b"] == 1
    collinear = json.loads(
        (GOLDEN_DIR / "so3-collinear.report.json").read_text())
    assert collinear["dims"]["s"] == 2 and collinear["dims"]["b"] == 0
    zero = json.loads((GOLDEN_DIR / "so3-zero.report.json").read_text())
    assert zero["dims"]["s"] == 0 and zero["dims"]["b"] == 2
    assert zero["witt_H"]["dim_X_m"] == 4


def _grown_h_alpha(monkeypatch):
    # so3-collinear with its cached h_alpha grown by the chain's s.
    inst = from_dict(build_example("so3-collinear"))
    grown = replace(inst)
    grown.__dict__["h_alpha"] = sum_spaces(inst.h_alpha, build_chain(inst).s)
    return grown


def _zero_perp(monkeypatch):
    monkeypatch.setattr(splitting, "perp_under_form",
                        lambda form, U: Subspace.zero(U.ambient_dim))
    return from_dict(build_example("so3-generic"))


def _zero_shear(monkeypatch):
    monkeypatch.setattr(splitting, "_lagrangian_shear",
                        lambda chu, a, C: Subspace.zero(a.ambient_dim))
    return from_dict(build_example("so3-generic"))


def _degenerate_model(monkeypatch):
    def degenerate(chain):
        raise pm.DegenerateModel("gm + m + n do not form a basis of g")

    monkeypatch.setattr(pm, "build_model", degenerate)
    return from_dict(build_example("so3-generic"))


def _gm_off_the_stabilizer(monkeypatch):
    doc = build_example("so3-generic")
    doc["gm_basis"] = [["0", "1", "0"]]  # does not stabilize mu = e3*
    doc["slice"]["action"] = [[["0", "0"], ["0", "0"]]]
    return from_dict(doc)


def _point_form_radical(monkeypatch):
    monkeypatch.setattr(pm, "build_model", zero_slice_block(pm.build_model))
    return from_dict(build_example("so3-generic"))


def _scaled_slice_form(monkeypatch):
    exact = dec.slice_form
    monkeypatch.setattr(dec, "slice_form",
                        lambda model: exact(model).scale(2))
    return from_dict(build_example("so3-generic"))


@pytest.mark.parametrize("broken,first", [
    (_gm_off_the_stabilizer, "validate.gm_in_g_mu"),
    (_grown_h_alpha, "liecore.h_alpha_two_descriptions"),
    (_zero_perp, "chain.builds"),
    (_zero_shear, "chain.g_decomposition_hperp"),
    (_degenerate_model, "model.builds"),
    (_point_form_radical, "model.omega_nondegenerate"),
    (_scaled_slice_form, "sliceform.block_diagonal"),
], ids=["validate", "liecore", "chain-builds", "chain-check", "model-builds",
        "point-form", "slice-form"])
def test_decompose_names_the_first_failure_of_verify(monkeypatch, broken,
                                                     first):
    inst = broken(monkeypatch)
    failed = [c for c in verify.run_all(inst, samples=3) if not c.passed]
    assert failed[0].name == first
    with pytest.raises(CheckFailed) as e:
        build_report(inst)
    assert (e.value.name, e.value.detail) == (failed[0].name, failed[0].detail)
