"""Non-vacuity of the checks in run_all.

Each test breaks one computation on purpose and requires run_all to finish,
with the same check names as an unbroken run, and to report the check that
guards the computation as a named FAIL.
"""

from dataclasses import replace

import pytest

from wittartin import decomposition as dec
from wittartin import pointmodel as pm
from wittartin import splitting, tube, verify
from wittartin.catalog import build_example
from wittartin.exactlin import BilinearForm, Matrix, Subspace
from wittartin.instancefile import from_dict


def _run(example="so3-generic"):
    return verify.run_all(from_dict(build_example(example)), samples=3)


def _failed(checks):
    return [c.name for c in checks if not c.passed]


def _check(checks, name):
    return next(c for c in checks if c.name == name)


def test_unbroken_so3_instance_passes_every_check():
    assert _failed(_run()) == []


def test_flipped_tube_gram_entry_fails_base_point_check(monkeypatch):
    expected_names = [c.name for c in _run()]
    exact = tube.omega_tube_gram

    def flipped(model, p):
        G = exact(model, p)
        rows = [list(row) for row in G.entries]
        i, j = next((i, j) for i, row in enumerate(rows)
                    for j, x in enumerate(row) if x != 0)
        rows[i][j] = -rows[i][j]
        return Matrix.from_rows(rows, cols=G.cols)

    monkeypatch.setattr(tube, "omega_tube_gram", flipped)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert "tube.base_point_matches_model" in _failed(checks)


def test_non_invariant_killing_form_fails_invariance_check(monkeypatch):
    expected_names = [c.name for c in _run()]
    diag = Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    monkeypatch.setattr(verify, "killing_form", lambda L: BilinearForm(diag))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["liecore.killing_ad_invariant"]


def test_wrong_T1_gram_fails_witt_g_check_and_names_the_identity(monkeypatch):
    expected_names = [c.name for c in _run()]
    exact = dec._chu_on_n
    monkeypatch.setattr(dec, "_chu_on_n", lambda model: exact(model).scale(2))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["wittG.all_assertions"]
    assert "Chu pairing" in _check(checks, "wittG.all_assertions").detail


def test_swapped_T0_T1_indices_fail_witt_g_check_and_name_the_block(
        monkeypatch):
    expected_names = [c.name for c in _run()]
    exact = dec.decompose_G

    def swapped(model):
        d = exact(model)
        return replace(d, T0=d.T1, T1=d.T0)

    monkeypatch.setattr(dec, "decompose_G", swapped)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["wittG.all_assertions"]
    assert _check(checks, "wittG.all_assertions").detail \
        == "fails: T0 is its definition"


def test_TH1_indices_as_TH0_fail_witt_h_direct_sum_and_name_the_block(
        monkeypatch):
    expected_names = [c.name for c in _run("so3-collinear")]
    exact = dec.decompose_H

    def moved(model):
        d = exact(model)
        return replace(d, TH0=d.TH1)

    monkeypatch.setattr(dec, "decompose_H", moved)
    checks = _run("so3-collinear")
    assert [c.name for c in checks] == expected_names
    assert "wittH.1_direct_sum" in _failed(checks)
    assert "TH0" in _check(checks, "wittH.1_direct_sum").detail


def test_run_all_rejects_zero_samples():
    inst = from_dict(build_example("so3-generic"))
    with pytest.raises(ValueError, match="samples"):
        verify.run_all(inst, samples=0)


def test_scaled_slice_form_fails_block_diagonal_check(monkeypatch):
    expected_names = [c.name for c in _run()]
    exact = dec.slice_form
    monkeypatch.setattr(
        dec, "slice_form",
        lambda model: BilinearForm(exact(model).gram.scale(2)))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert "sliceform.block_diagonal" in _failed(checks)


def test_wrong_pairing_block_fails_f_contract(monkeypatch):
    expected_names = [c.name for c in _run()]
    exact = pm.build_model

    def doubled_pairing(chain, inst):
        model = exact(chain, inst)
        un = model.dim_m + model.dim_n
        rows = [list(row) for row in model.omega.gram.entries]
        rows[0][un] *= 2
        rows[un][0] *= 2
        gram = Matrix.from_rows(rows, cols=model.total_dim)
        return replace(model, omega=BilinearForm(gram))

    monkeypatch.setattr(pm, "build_model", doubled_pairing)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert "model.f_contract" in _failed(checks)


def test_doubled_momentum_formula_fails_formula_check(monkeypatch):
    expected_names = [c.name for c in _run("so3xso3-diagonal")]
    exact = dec.slice_momentum
    monkeypatch.setattr(
        dec, "slice_momentum",
        lambda model, v: tuple(2 * x for x in exact(model, v)))
    checks = _run("so3xso3-diagonal")
    assert [c.name for c in checks] == expected_names
    assert "momentum.formula_equals_direct" in _failed(checks)


def test_chain_that_cannot_be_built_is_a_named_fail(monkeypatch):
    # g_mu + a is then outside the Chu-orthogonal of ntilde + s.
    monkeypatch.setattr(splitting, "perp_under_form",
                        lambda form, U: Subspace.zero(U.ambient_dim))
    checks = _run()
    assert checks[-1].name == "chain.builds"
    assert _failed(checks) == ["chain.builds"]


def test_failed_chain_check_ends_the_run_with_a_named_fail(monkeypatch):
    monkeypatch.setattr(splitting, "_lagrangian_shear",
                        lambda chu, a, C: Subspace.zero(a.ambient_dim))
    checks = _run()
    names = [c.name for c in checks]
    assert "chain.r_dim_matches_a" in _failed(checks)
    assert names[-1] == "chain.ad_gm_invariance"
    assert "model.builds" not in names
