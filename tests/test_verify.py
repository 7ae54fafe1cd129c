"""Non-vacuity of the checks in run_all.

Each test breaks one computation on purpose and requires run_all to finish,
with the same check names as an unbroken run, and to report the check that
guards the computation as a named FAIL.
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from instances import diagonal_quaternion_instance, zero_slice_block

from wittartin import decomposition as dec
from wittartin import pointmodel as pm
from wittartin import splitting, tube, verify
from wittartin.catalog import all_examples, build_example
from wittartin.exactlin import (
    InnerProduct,
    Matrix,
    Subspace,
    add_vec,
    dot,
    is_zero_vec,
    kernel,
    sum_spaces,
)
from wittartin.instancefile import from_dict, to_dict
from wittartin.report import build_report

ROOT = Path(__file__).resolve().parent.parent


def _run(example="so3-generic"):
    return verify.run_all(from_dict(build_example(example)), samples=3)


def _failed(checks):
    return [c.name for c in checks if not c.passed]


def _check(checks, name):
    return next(c for c in checks if c.name == name)


def test_unbroken_so3_instance_passes_every_check():
    checks = _run()
    assert len(checks) == 69
    assert _failed(checks) == []


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


def test_doubled_tube_gram_fails_base_point_check_and_names_the_entry(
        monkeypatch):
    # Twice the tube form is still antisymmetric and nondegenerate at every
    # point; the comparison with the model's form at the base sees it, and
    # so does the momentum map equation dJ = X^T G there.
    expected_names = [c.name for c in _run()]
    exact = tube.omega_tube_gram
    monkeypatch.setattr(tube, "omega_tube_gram",
                        lambda model, p: exact(model, p).scale(2))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["tube.base_point_matches_model",
                               "tube.dphi_fd_consistency"]
    assert _check(checks, "tube.base_point_matches_model").detail == \
        "entry (0, 3) of the tube form at the base point is 2, expected 1"
    assert _check(checks, "tube.dphi_fd_consistency").detail \
        == "base point: entry (0, 2) of X^T G is 2, expected 1"


def test_non_invariant_killing_form_fails_invariance_check(monkeypatch):
    expected_names = [c.name for c in _run()]
    diag = Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    monkeypatch.setattr(verify, "killing_form", lambda L: diag)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["liecore.killing_ad_invariant"]
    # [e0, e1] = e2 and [e0, e2] = -e1: 3 - 2 at the smallest key (0, 1, 2).
    assert _check(checks, "liecore.killing_ad_invariant").detail == \
        "B([e_0, e_1], e_2) + B(e_1, [e_0, e_2]) is 1, not 0"


def _liecore_failures(inst):
    return [(c.name, c.detail) for c in verify.liecore_checks(inst)
            if not c.passed]


def test_non_antisymmetric_chu_form_names_the_entry_pair():
    inst = from_dict(build_example("so3-generic"))
    rows = [list(row) for row in inst.chu.entries]
    rows[0][2] += 1
    broken = replace(inst)
    broken.__dict__["chu"] = Matrix.from_rows(rows)
    assert _liecore_failures(broken) == [(
        "liecore.chu_radical_is_g_mu",
        "entry (0, 2) of the Chu form is not minus entry (2, 0)")]


def test_symmetric_slice_omega_names_the_entry_pair():
    doc = build_example("so3-generic")
    doc["slice"]["omega"] = [["0", "1"], ["1", "0"]]
    checks = verify.run_all(from_dict(doc), samples=3)
    assert _failed(checks) == ["validate.slice_omega_antisymmetric"]
    assert _check(checks, "validate.slice_omega_antisymmetric").detail == \
        "entry (0, 1) of the slice omega is not minus entry (1, 0)"


def test_non_antisymmetric_point_form_names_the_entry_pair():
    _, model = verify.checked_model(from_dict(build_example("so3-generic")))
    rows = [list(row) for row in model.omega.entries]
    rows[0][1] += 1
    broken = replace(model, omega=Matrix.from_rows(rows))
    check = _check(verify.point_form_checks(broken),
                   "model.omega_antisymmetric")
    assert (check.passed, check.detail) == (
        False, "entry (0, 1) of the point form is not minus entry (1, 0)")


def test_point_form_with_a_radical_ends_the_run_and_names_its_dimension(
        monkeypatch):
    expected_names = [c.name for c in _run()]
    monkeypatch.setattr(pm, "build_model", zero_slice_block(pm.build_model))
    checks = _run()
    assert [c.name for c in checks] == expected_names[:len(checks)]
    assert checks[-1].name == "model.omega_nondegenerate"
    assert _failed(checks) == ["model.omega_nondegenerate"]
    assert checks[-1].detail == "the point form has a 2-dimensional radical"
    assert verify.checked_model(from_dict(build_example("so3-generic")))[1] \
        is None


@pytest.mark.parametrize("run", [verify.run_all, build_report],
                         ids=["run_all", "build_report"])
def test_point_form_is_eliminated_once_per_run(monkeypatch, run):
    # rref (under rank, kernel and inverse) and det are the eliminations.
    eliminated, models = [], []
    for name in ("rref", "det"):
        def counted(self, exact=getattr(Matrix, name)):
            eliminated.append(self)
            return exact(self)

        monkeypatch.setattr(Matrix, name, counted)
    build = pm.build_model
    monkeypatch.setattr(pm, "build_model",
                        lambda chain: models.append(build(chain)) or models[-1])
    run(from_dict(build_example("so3xso3-diagonal")))
    (model,) = models
    assert sum(M is model.omega for M in eliminated) == 1


@pytest.mark.parametrize("run", [verify.run_all, build_report],
                         ids=["run_all", "build_report"])
def test_momentum_formula_is_built_once_per_run(monkeypatch, run):
    inst = from_dict(build_example("so3xso3-diagonal"))
    calls = []
    exact = dec.momentum_formula_forms

    def counted(model):
        calls.append(model)
        return exact(model)

    monkeypatch.setattr(dec, "momentum_formula_forms", counted)
    run(inst)
    assert len(calls) == 1


def test_stabilizer_moving_mu_names_the_basis_vector():
    # so3-generic (mu = e_2*) with its cached g_mu grown to all of g:
    # ad*_{e_0} mu is not 0.
    inst = from_dict(build_example("so3-generic"))
    broken = replace(inst)
    broken.__dict__["g_mu"] = Subspace.full(inst.dim)
    check = _check(verify.liecore_checks(broken),
                   "liecore.stabilizer_annihilates_mu")
    assert (check.passed, check.detail) == (
        False, "ad* of g_mu basis vector 0 moves mu")


def test_chu_radical_other_than_g_mu_names_the_basis_vector():
    inst = from_dict(build_example("so3-generic"))
    broken = replace(inst)
    broken.__dict__["g_mu"] = Subspace.zero(inst.dim)
    assert _liecore_failures(broken) == [(
        "liecore.chu_radical_is_g_mu",
        "basis vector 0 of the Chu radical is not in g_mu")]


def test_h_alpha_off_the_pairing_kernel_names_the_basis_vector():
    # so3-collinear with its cached h_alpha grown to all of g: e_0 pairs
    # nontrivially with h.
    inst = from_dict(build_example("so3-collinear"))
    broken = replace(inst)
    broken.__dict__["h_alpha"] = Subspace.full(inst.dim)
    assert _liecore_failures(broken) == [(
        "liecore.h_alpha_two_descriptions",
        "basis vector 0 of h_alpha is not in the kernel of the pairing on h")]


def test_h_alpha_not_a_subalgebra_names_the_basis_pair(monkeypatch):
    # h_alpha stays the pairing kernel; only the subalgebra test is broken.
    inst = from_dict(build_example("so3-collinear"))
    monkeypatch.setattr(verify, "subalgebra_witness", lambda L, S: (0, 1))
    assert _liecore_failures(inst) == [(
        "liecore.h_alpha_two_descriptions",
        "bracket of h_alpha basis pair (0, 1) leaves h_alpha")]


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
    monkeypatch.setattr(dec, "slice_form", lambda model: exact(model).scale(2))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert "sliceform.block_diagonal" in _failed(checks)


def test_cross_term_in_slice_form_fails_block_diagonal_with_its_entry(
        monkeypatch):
    # On the torus the block basis is (b, Y_m, N1) with dim b = 2 and h_m = 0,
    # so an antisymmetric b-N1 cross term changes only the slice form.
    expected_names = [c.name for c in _run("torus")]
    exact = dec.slice_form

    def cross_term(model):
        rows = [list(r) for r in exact(model).entries]
        rows[0][4], rows[4][0] = Fraction(3), Fraction(-3)
        return Matrix.from_rows(rows)

    monkeypatch.setattr(dec, "slice_form", cross_term)
    checks = _run("torus")
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["sliceform.block_diagonal"]
    assert _check(checks, "sliceform.block_diagonal").detail \
        == "entry (0, 4) of the slice form is 3, expected 0"


def test_slice_form_of_the_wrong_size_is_named():
    inst = from_dict(build_example("torus"))
    model = pm.build_model(splitting.build_chain(inst))
    decomp = replace(dec.decompose_H(model),
                     nh1=splitting.SliceRep.trivial())
    check = dec.slice_form_check(decomp, model)
    assert (check.passed, check.detail) == (
        False, "the slice form is 0x0, expected 6x6")


def test_wrong_pairing_block_fails_f_contract(monkeypatch):
    expected_names = [c.name for c in _run()]
    exact = pm.build_model

    def doubled_pairing(chain):
        model = exact(chain)
        un = model.dim_m + model.dim_n
        rows = [list(row) for row in model.omega.entries]
        rows[0][un] *= 2
        rows[un][0] *= 2
        gram = Matrix.from_rows(rows, cols=model.total_dim)
        return replace(model, omega=gram)

    monkeypatch.setattr(pm, "build_model", doubled_pairing)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert "model.f_contract" in _failed(checks)
    assert _check(checks, "model.f_contract").detail == \
        "entry (0, 0) of the m x m* block of the point form is 2, expected 1"


def test_lost_dual_column_fails_t0_plus_n1_check_and_names_a_vector(
        monkeypatch):
    # Without its m-dual column, dphi_G also kills the first R direction.
    expected_names = [c.name for c in _run()]
    exact = pm.dphi_G

    def without_first_dual(model):
        D, un = exact(model), model.dim_m + model.dim_n
        cols = D.columns()
        cols[un] = (Fraction(0),) * D.rows
        return Matrix.from_cols(cols, rows=D.rows)

    monkeypatch.setattr(pm, "dphi_G", without_first_dual)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert "model.ker_dphiG_is_T0_plus_N1" in _failed(checks)
    assert _check(checks, "model.ker_dphiG_is_T0_plus_N1").detail \
        == "basis vector 1 of ker dphi_G is not in T0 + N1"


def test_doubled_momentum_formula_fails_formula_check(monkeypatch):
    expected_names = [c.name for c in _run("so3xso3-diagonal")]
    exact = dec.momentum_formula_forms
    monkeypatch.setattr(dec, "momentum_formula_forms",
                        lambda model: tuple(Q.scale(2) for Q in exact(model)))
    checks = _run("so3xso3-diagonal")
    assert [c.name for c in checks] == expected_names
    assert "momentum.formula_equals_direct" in _failed(checks)


def test_unconstrained_h_momentum_fails_oracle_and_names_the_vector(
        monkeypatch):
    # With no rows, dphi_H kills every model direction.
    expected_names = [c.name for c in _run()]
    monkeypatch.setattr(pm, "dphi_H",
                        lambda model: Matrix.zeros(0, model.total_dim))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _check(checks, "wittH.oracle_kernel_equality").detail == \
        "basis vector 2 of ker dphi_H is not in TH0 + NH1"


def _seeded_draws() -> list[tuple]:
    """The 13 vectors on which the momentum formula used to be compared
    with its definition (so3xso3-diagonal, dim NH1 = 6): seed 0, ten with
    entries p/q for |p| <= 6 and 1 <= q <= 4, then three with |p| <= 4 and
    1 <= q <= 3."""
    rng = random.Random(0)

    def draw(count, top, den):
        return [tuple(Fraction(rng.randint(-top, top), rng.randint(1, den))
                      for _ in range(6)) for _ in range(count)]

    return draw(10, 6, 4) + draw(3, 4, 3)


def test_form_that_vanishes_on_seeded_draws_fails_formula_check(monkeypatch):
    # A symmetric 6x6 F has 21 unknowns and v^T F v = 0 on 13 vectors is 13
    # linear equations, so a nonzero F vanishes on every draw.  Added to the
    # formula it escapes any sampled comparison; the Gram comparison names
    # its first entry.
    draws = _seeded_draws()
    pairs = [(i, j) for i in range(6) for j in range(i, 6)]
    equations = Matrix.from_rows([[v[i] * v[j] * (1 if i == j else 2)
                                   for i, j in pairs] for v in draws])
    f = dict(zip(pairs, kernel(equations).basis_vectors()[0]))
    F = Matrix.from_rows([[f[min(i, j), max(i, j)] for j in range(6)]
                          for i in range(6)])
    assert not F.is_zero()
    assert all(dot(v, F.apply(v)) == 0 for v in draws)

    expected_names = [c.name for c in _run("so3xso3-diagonal")]
    exact = dec.momentum_formula_forms
    monkeypatch.setattr(dec, "momentum_formula_forms",
                        lambda model: tuple(Q + F for Q in exact(model)))
    checks = _run("so3xso3-diagonal")
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["momentum.formula_equals_direct",
                               "momentum.quadratic_forms_symmetric"]
    # F's (0, 0) entry is 1, and the formula's is -1.
    assert _check(checks, "momentum.formula_equals_direct").detail \
        == "entry (0, 0) of formula form 0 is 0, expected -1"


def test_samples_drive_only_the_tube_checks():
    for _, doc in all_examples():
        inst = from_dict(doc)
        one, ten = ([c for c in verify.run_all(inst, samples=samples)
                     if not c.name.startswith("tube.")] for samples in (1, 10))
        assert one == ten


def test_momentum_form_off_the_action_fails_phi_n1_equivariance():
    # diag(1, 0) added to S_0, the cached momentum form of the first g_m
    # basis vector, is not preserved by the slice action.  The slice
    # momentum reads the same cached forms, so it may fail too.  The tube's
    # G_m identity evaluates Phi_N1 at nu and at k^-1 nu, which the rotation
    # k moves, so it fails as well, and so does the momentum map equation:
    # Phi_N1 is no momentum map for the slice action now.
    expected_names = [c.name for c in _run("so3xso3-diagonal")]
    inst = from_dict(build_example("so3xso3-diagonal"))
    S = inst.slice_rep.momentum_forms
    inst.slice_rep.__dict__["momentum_forms"] = (
        S[0] + Matrix.from_rows([[1, 0], [0, 0]]),) + S[1:]
    checks = verify.run_all(inst, samples=3)
    assert [c.name for c in checks] == expected_names
    assert "momentum.phiN1_equivariance" in _failed(checks)
    assert "tube.equivariance" in _failed(checks)
    assert "; sample 0: J([g k, k^-1 (rho, nu)]) misses J([g, rho, nu]) by " \
        in _check(checks, "tube.equivariance").detail
    assert "tube.dphi_fd_consistency" in _failed(checks)
    assert _check(checks, "tube.dphi_fd_consistency").detail \
        == "sample 1: entry (2, 6) of X^T G is -1/20, expected 1/20"


def test_momentum_form_off_the_action_names_the_phi_n1_pair():
    # torus(4, 1) with g_m = span(e2, e3) acting by 0 and by a rotation:
    # h_m = 0, so no formula form reads the slice momentum forms.  diag(1,
    # 0) added to S_0 breaks pair (1, 0) of the phi_N1 equivariance; the
    # tube's G_m identity, which compares Phi_N1 at nu and at k^-1 nu, with
    # k rotating the slice; and the momentum map equation at the first
    # sample with nu != 0.  Pair (0, 0) holds, as A_0 = 0.
    doc = build_example("torus", 4, 1)
    doc = dict(doc, gm_basis=[["0", "0", "1", "0"], ["0", "0", "0", "1"]],
               slice=dict(doc["slice"], action=[
                   [["0", "0"], ["0", "0"]], [["0", "-1"], ["1", "0"]]]))
    expected_names = [c.name for c in verify.run_all(from_dict(doc),
                                                     samples=3)]
    inst = from_dict(doc)
    S = inst.slice_rep.momentum_forms
    inst.slice_rep.__dict__["momentum_forms"] = (
        S[0] + Matrix.from_rows([[1, 0], [0, 0]]),) + S[1:]
    checks = verify.run_all(inst, samples=3)
    assert [c.name for c in checks] == expected_names
    assert [(c.name, c.detail) for c in checks if not c.passed] == [
        ("momentum.phiN1_equivariance", "equivariance fails on gm pair (1, 0)"),
        ("tube.dphi_fd_consistency",
         "sample 0: entry (2, 4) of X^T G is 0, expected -1/5"),
        ("tube.equivariance", "max relative deviation 2.238e-01 over 3 "
         "samples; sample 0: J([g k, k^-1 (rho, nu)]) misses J([g, rho, nu]) "
         "by 2.238e-01")]


def test_chain_that_cannot_be_built_is_a_named_fail(monkeypatch):
    # g_mu + a is then outside the Chu-orthogonal of ntilde + s.
    monkeypatch.setattr(splitting, "perp_under_form",
                        lambda form, U: Subspace.zero(U.ambient_dim))
    checks = _run()
    assert checks[-1].name == "chain.builds"
    assert _failed(checks) == ["chain.builds"]


def test_model_that_cannot_be_built_is_a_named_fail(monkeypatch):
    def degenerate(chain):
        raise pm.DegenerateModel("gm + m + n do not form a basis of g")

    monkeypatch.setattr(pm, "build_model", degenerate)
    checks = _run()
    assert checks[-1].name == "model.builds"
    assert _failed(checks) == ["model.builds"]
    assert checks[-1].detail == "gm + m + n do not form a basis of g"


def test_failed_chain_check_ends_the_run_with_a_named_fail(monkeypatch):
    monkeypatch.setattr(splitting, "_lagrangian_shear",
                        lambda chu, a, C: Subspace.zero(a.ambient_dim))
    checks = _run()
    names = [c.name for c in checks]
    assert "chain.r_dim_matches_a" in _failed(checks)
    assert _check(checks, "chain.r_dim_matches_a").detail \
        == "dim r is 0, dim a is 1"
    assert names[-1] == "chain.ad_gm_invariance"
    assert "model.builds" not in names


def test_ntilde_meeting_hperpmu_fails_ntilde_avoids_hperpmu(monkeypatch):
    # h_alpha lies in h_perp_mu, so ntilde = h meets it.
    exact = verify.build_chain
    monkeypatch.setattr(verify, "build_chain",
                        lambda inst: replace(exact(inst), ntilde=inst.h))
    checks = _run()
    assert "chain.ntilde_avoids_hperpmu" in _failed(checks)
    assert _check(checks, "chain.ntilde_avoids_hperpmu").detail \
        == "ntilde & h_perp_mu is 1-dimensional"


def test_empty_s_fails_s_dim_formula(monkeypatch):
    exact = verify.build_chain
    monkeypatch.setattr(verify, "build_chain", lambda inst: replace(
        exact(inst), s=Subspace.zero(inst.dim)))
    checks = _run("so3-collinear")
    assert "chain.s_dim_formula" in _failed(checks)
    assert _check(checks, "chain.s_dim_formula").detail == (
        "dim s is 0, dim h_perp_mu - dim g_mu - dim h_alpha + dim h_mu is 2")


def test_short_nh1_fails_slice_dim_formulas(monkeypatch):
    exact = dec.decompose_H
    monkeypatch.setattr(dec, "decompose_H", lambda model: replace(
        exact(model), NH1=exact(model).NH1[:-1]))
    checks = _run()
    assert _check(checks, "sliceform.dim_formula").detail \
        == "dim NH1 is 3, dim s + 2 dim b + dim N1 is 4"
    assert _check(checks, "dims.slice_dim_formula").detail \
        == "dim NH1 is 3, dim N1 + 2 dim b + dim s is 4"


def test_wrong_slice_dim_prediction_fails_slice_dim_formula(monkeypatch):
    exact = verify.dim_formulas
    monkeypatch.setattr(verify, "dim_formulas", lambda chain: replace(
        exact(chain), slice_dim_H=exact(chain).slice_dim_H + 1))
    checks = _run()
    # Both formula checks read the one prediction.
    assert _failed(checks) == ["sliceform.dim_formula",
                               "dims.slice_dim_formula"]
    assert _check(checks, "sliceform.dim_formula").detail \
        == "dim of the slice form is 4, dim s + 2 dim b + dim N1 is 5"
    assert _check(checks, "dims.slice_dim_formula").detail \
        == "dim NH1 is 4, dim N1 + 2 dim b + dim s is 5"


def _assert_chain_fail(checks, name):
    """Exactly the named chain check fails, and the run ends after the
    chain checks."""
    names = [c.name for c in checks]
    assert _failed(checks) == [name]
    assert names[-1] == "chain.ad_gm_invariance"
    assert "model.builds" not in names


def test_q_outside_a_plus_s_fails_q_decomposition(monkeypatch):
    # n = q + ntilde + r still holds with q = n, but a + s is smaller.
    exact = verify.build_chain
    monkeypatch.setattr(verify, "build_chain",
                        lambda inst: replace(exact(inst), q=exact(inst).n_space))
    _assert_chain_fail(_run(), "chain.q_decomposition")


def test_unsheared_r_fails_r_chu_orthogonality(monkeypatch):
    # On this instance the plain complement is not Chu-isotropic.
    from corpus import _sheared_r_instance
    monkeypatch.setattr(splitting, "_lagrangian_shear", lambda chu, a, C: C)
    checks = verify.run_all(_sheared_r_instance(), samples=3)
    _assert_chain_fail(checks, "chain.r_chu_orthogonality")
    assert _check(checks, "chain.r_chu_orthogonality").detail \
        == "r basis vector 0 pairs with r basis vector 1 under the Chu form"


def test_s_tilted_into_b_fails_ad_gm_invariance_and_names_it(monkeypatch):
    # s + b is unchanged, so every decomposition still holds, but the
    # rotation by the diagonal e3 moves the tilted vector out of s.
    exact = verify.build_chain

    def tilted(inst):
        chain = exact(inst)
        cols = chain.s.basis_vectors()
        cols[0] = add_vec(cols[0], chain.b.basis_vectors()[0])
        s = Subspace.span(inst.dim, cols)
        q = sum_spaces(chain.a, s)
        return replace(chain, s=s, q=q,
                       n_space=sum_spaces(q, chain.ntilde, chain.r))

    monkeypatch.setattr(verify, "build_chain", tilted)
    checks = _run("so3xso3-diagonal")
    _assert_chain_fail(checks, "chain.ad_gm_invariance")
    assert "'s'" in _check(checks, "chain.ad_gm_invariance").detail


def _diagonal_with(**changes):
    return replace(from_dict(build_example("so3xso3-diagonal")), **changes)


@pytest.mark.parametrize("field", ["h", "gm"])
def test_subspace_in_the_wrong_ambient_dimension_names_both_dimensions(
        field):
    # The file format rejects such a basis; an instance built in Python
    # reaches validate with it, which stops after its first three checks.
    space = getattr(_diagonal_with(), field)
    wide = Subspace.span(7, [v + (0,) for v in space.basis_vectors()])
    checks = verify.run_all(_diagonal_with(**{field: wide}), samples=3)
    assert [c.name for c in checks] == [
        "validate.mu_length", "validate.h_ambient", "validate.gm_ambient"]
    assert [(c.name, c.detail) for c in checks if not c.passed] == [
        (f"validate.{field}_ambient",
         f"the ambient dimension of {field} is 7, dim g is 6")]


def test_inner_product_of_the_wrong_size_names_both_dimensions():
    inst = _diagonal_with(ip=InnerProduct(Matrix.identity(5)))
    checks = verify.run_all(inst, samples=3)
    assert _check(checks, "validate.ip_dimension").detail == \
        "the dimension of the inner product is 5, dim g is 6"
    # A form on another space is no positive-definite form on g.
    assert _check(checks, "validate.ip_positive_definite").detail == \
        "the dimension of the inner product is 5, dim g is 6"
    assert _check(checks, "validate.ip_symmetric").passed


def test_h_not_normalized_by_gm_fails_and_names_the_pair():
    # h = span(e3, e1') is abelian; the diagonal e3 fixes e3 and moves e1'.
    inst = _diagonal_with(h=Subspace.span(6, [(0, 0, 1, 0, 0, 0),
                                              (0, 0, 0, 1, 0, 0)]))
    checks = verify.run_all(inst, samples=3)
    assert _failed(checks) == ["validate.gm_normalizes_h"]
    assert _check(checks, "validate.gm_normalizes_h").detail \
        == "[gm_0, h_1] leaves h"


def test_non_symplectic_slice_action_fails_and_names_the_matrix():
    sl = from_dict(build_example("so3xso3-diagonal")).slice_rep
    inst = _diagonal_with(slice_rep=replace(sl, action=(Matrix.identity(2),)))
    checks = verify.run_all(inst, samples=3)
    assert _failed(checks) == ["validate.slice_action_symplectic"]
    assert _check(checks, "validate.slice_action_symplectic").detail \
        == "action matrix 0 is not in sp(omega)"


def _M_grown_by_ker_dphi_G(M, model):
    return sum_spaces(M, model.ker_dphi_G)


def _M_moved_along_ker_dphi_G(M, model):
    # Each basis vector plus one of ker dphi_G: ker dphi_G + M is unchanged
    # and still direct, but M leaves a + s + Y_m.
    k = model.ker_dphi_G.basis_vectors()[0]
    return Subspace.span(model.total_dim,
                         [add_vec(m, k) for m in M.basis_vectors()])


def _fails_only_ker_split_with_M(monkeypatch, change):
    """run_all with eq_M_subspace's M replaced by change(M, model) gives
    exactly the wittH.3 FAIL; returns its detail."""
    expected_names = [c.name for c in _run()]
    exact = dec.eq_M_subspace
    monkeypatch.setattr(dec, "eq_M_subspace",
                        lambda model: change(exact(model), model))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["wittH.3_ker_split_with_M"]
    return _check(checks, "wittH.3_ker_split_with_M").detail


def test_zero_M_fails_ker_split_with_M(monkeypatch):
    detail = _fails_only_ker_split_with_M(
        monkeypatch, lambda M, model: Subspace.zero(model.total_dim))
    assert detail == "basis vector 1 of ker dphi_H is not in ker dphi_G + M"


@pytest.mark.parametrize("change, detail", [
    (_M_grown_by_ker_dphi_G, "ker dphi_G + M is not direct"),
    (_M_moved_along_ker_dphi_G, "basis vector 0 of M is not in a + s + Y_m"),
], ids=["grown_by_ker_dphi_G", "moved_along_ker_dphi_G"])
def test_wrong_M_fails_ker_split_with_M_and_names_the_part(
        monkeypatch, change, detail):
    assert _fails_only_ker_split_with_M(monkeypatch, change) == detail


def test_zero_a_r_chu_pairing_fails_pairing_check(monkeypatch):
    inst = from_dict(build_example("so3-generic"))
    expected_names = [c.name for c in verify.run_all(inst, samples=3)]
    exact = dec.perp_under_form

    def perp_under_zero_chu(form, U):
        # Everything is perpendicular to U once the Chu form is zero.
        if form is inst.chu:
            form = Matrix.zeros(form.rows, form.rows)
        return exact(form, U)

    monkeypatch.setattr(dec, "perp_under_form", perp_under_zero_chu)
    checks = verify.run_all(inst, samples=3)
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["wittH.6_a_r_pairing_nondegenerate"]
    assert _check(checks, "wittH.6_a_r_pairing_nondegenerate").detail \
        == "the Chu pairing of a with r is degenerate"


def test_r_grown_by_g_m_fails_pairing_check_and_names_the_dimensions(
        monkeypatch):
    # g_m acts trivially on the model, so r + g_m has the orbit of r (zero
    # here) and every H-side block keeps its definition; only the dimension
    # count of wittH.6 reads r itself.
    expected_names = [c.name for c in _run("so3xso3-diagonal")]
    exact = dec.h_decomposition_checks

    def grown_r(decomp, model):
        r = sum_spaces(model.chain.r, model.inst.gm)
        return exact(decomp, replace(model, chain=replace(model.chain, r=r)))

    monkeypatch.setattr(dec, "h_decomposition_checks", grown_r)
    checks = _run("so3xso3-diagonal")
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["wittH.6_a_r_pairing_nondegenerate"]
    assert _check(checks, "wittH.6_a_r_pairing_nondegenerate").detail \
        == "dim a != dim r"


def test_nonzero_chu_form_on_a_fails_lagrangian_check(monkeypatch):
    # The decomposition checks read the Chu form through pairing_witness for
    # a with a only; the bump A A^T on a's coordinates makes a_0 pair with
    # itself.
    inst = from_dict(build_example("so3-generic"))
    expected_names = [c.name for c in verify.run_all(inst, samples=3)]
    exact = dec.pairing_witness

    def bumped(form, U, V):
        if form is inst.chu:
            form = form + U.basis @ U.basis.transpose()
        return exact(form, U, V)

    monkeypatch.setattr(dec, "pairing_witness", bumped)
    checks = verify.run_all(inst, samples=3)
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["wittH.7_a_orbit_lagrangian_in_Zm"]
    assert _check(checks, "wittH.7_a_orbit_lagrangian_in_Zm").detail \
        == "a basis vector 0 pairs with a basis vector 0 under the Chu form"


def _with_cached(inst, **values):
    """A copy of inst whose derived data (the cached properties) holds
    values in place of what it would compute."""
    broken = replace(inst)
    broken.__dict__.update(values)
    return broken


def _model_with_cached(model, **values):
    """The model on a chain whose instance is _with_cached(model.inst,
    **values)."""
    return replace(model, chain=replace(
        model.chain, inst=_with_cached(model.inst, **values)))


def test_lost_h_alpha_orbit_fails_s_complement_check(monkeypatch):
    # h_alpha = a here, so without its orbit only s is left of the kernel.
    expected_names = [c.name for c in _run()]
    exact = dec.coadjoint_slice_check
    monkeypatch.setattr(
        dec, "coadjoint_slice_check",
        lambda model: exact(_model_with_cached(
            model, h_alpha=Subspace.zero(model.inst.dim))))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["coadjoint.s_complements_halpha_orbit"]
    assert _check(checks, "coadjoint.s_complements_halpha_orbit").detail \
        == "basis vector 0 of the kernel is not in h_alpha orbit + s orbit"


def test_h_alpha_grown_by_s_fails_s_complement_check_as_not_direct(
        monkeypatch):
    # The h_alpha orbit then holds the s orbit, so their sum is not direct.
    expected_names = [c.name for c in _run("so3-collinear")]
    exact = dec.coadjoint_slice_check
    monkeypatch.setattr(
        dec, "coadjoint_slice_check",
        lambda model: exact(_model_with_cached(
            model, h_alpha=sum_spaces(model.inst.h_alpha, model.chain.s))))
    checks = _run("so3-collinear")
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["coadjoint.s_complements_halpha_orbit"]
    assert _check(checks, "coadjoint.s_complements_halpha_orbit").detail \
        == "the h_alpha orbit and the s orbit do not sum directly"


def test_lost_a_fails_coadjoint_kernel_check_and_names_a_vector(monkeypatch):
    # a is a line and s = 0 here, so the a + s orbit becomes 0 while the
    # kernel keeps its first n coordinate.
    expected_names = [c.name for c in _run()]
    exact = dec.coadjoint_slice_check
    monkeypatch.setattr(
        dec, "coadjoint_slice_check",
        lambda model: exact(replace(model, chain=replace(
            model.chain, a=Subspace.zero(model.inst.dim)))))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["coadjoint.kernel_is_a_plus_s_orbit"]
    assert _check(checks, "coadjoint.kernel_is_a_plus_s_orbit").detail \
        == "basis vector 0 of the kernel is not in the a + s orbit"


def test_full_center_fails_center_check(monkeypatch):
    expected_names = [c.name for c in _run()]
    monkeypatch.setattr(verify, "center", lambda L: Subspace.full(L.dim))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["liecore.center_in_stabilizer"]
    # g_mu is the line through e3 here, so e1 is the first to leave it.
    assert _check(checks, "liecore.center_in_stabilizer").detail \
        == "basis vector 0 of the center is not in g_mu"


def _without_last_vector(S):
    return Subspace.span(S.ambient_dim, S.basis_vectors()[:-1])


def _containment_in_smaller_space(monkeypatch, a_name, first_only=False):
    """splitting.outside_detail, which the containment checks call, tests
    the space named a_name against the other space without its last basis
    vector: on every such call, or with first_only on the first alone.  It
    is replaced in every wittartin module that holds it.  Returns the
    (A, B) pairs it was called with, unchanged."""
    exact = splitting.outside_detail
    seen = []

    def broken(A, name, B, b_name):
        if name == a_name:
            seen.append((A, B))
            if not first_only or len(seen) == 1:
                B = _without_last_vector(B)
        return exact(A, name, B, b_name)

    for mod_name, mod in list(sys.modules.items()):
        if ((mod_name == "wittartin" or mod_name.startswith("wittartin."))
                and getattr(mod, "outside_detail", None) is exact):
            monkeypatch.setattr(mod, "outside_detail", broken)
    return seen


def test_g_mu_outside_smaller_h_perp_mu_fails_and_names_a_vector(
        monkeypatch):
    # g_mu = h_perp_mu = Q^3 here, so only e3 is left out.  The liecore
    # checks run before the chain, so the first g_mu containment is theirs.
    expected_names = [c.name for c in _run("so3-zero")]
    seen = _containment_in_smaller_space(monkeypatch, "g_mu", first_only=True)
    checks = _run("so3-zero")
    inst = from_dict(build_example("so3-zero"))
    assert seen[0] == (inst.g_mu, inst.h_perp_mu)
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["liecore.g_mu_in_h_perp_mu"]
    assert _check(checks, "liecore.g_mu_in_h_perp_mu").detail \
        == "basis vector 2 of g_mu is not in h_perp_mu"


def test_h_alpha_outside_smaller_h_perp_mu_fails_chain_check_and_names_it(
        monkeypatch):
    # Only the h_alpha statement sees the smaller space, and h_alpha is the
    # line through e3 here, which that space leaves out.
    seen = _containment_in_smaller_space(monkeypatch, "h_alpha")
    checks = _run("so3-zero")
    inst = from_dict(build_example("so3-zero"))
    assert seen == [(inst.h_alpha, inst.h_perp_mu)]
    _assert_chain_fail(checks, "chain.gmu_halpha_in_hperpmu")
    assert _check(checks, "chain.gmu_halpha_in_hperpmu").detail \
        == "basis vector 0 of h_alpha is not in h_perp_mu"


def test_ker_dphiG_outside_smaller_ker_dphiH_fails_and_names_a_vector(
        monkeypatch):
    expected_names = [c.name for c in _run()]
    seen = _containment_in_smaller_space(monkeypatch, "ker dphi_G")
    checks = _run()
    inst = from_dict(build_example("so3-generic"))
    model = pm.build_model(splitting.build_chain(inst))
    assert seen == [(model.ker_dphi_G, model.ker_dphi_H)]
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["model.ker_dphiG_inside_ker_dphiH"]
    assert _check(checks, "model.ker_dphiG_inside_ker_dphiH").detail \
        == "basis vector 2 of ker dphi_G is not in ker dphi_H"


def _off_origin(change):
    """omega_tube_gram with change(model, G) in place of G at every point
    but the origin, so the base-point check still passes."""
    exact = tube.omega_tube_gram

    def broken(model, p):
        G = exact(model, p)
        return G if is_zero_vec(p.rho + p.nu) else change(model, G)
    return broken


def test_symmetric_part_off_origin_fails_antisymmetry_check(monkeypatch):
    expected_names = [c.name for c in _run()]

    def bumped(model, G):
        rows = [list(row) for row in G.entries]
        rows[0][0] += 1
        return Matrix.from_rows(rows, cols=G.cols)

    monkeypatch.setattr(tube, "omega_tube_gram", _off_origin(bumped))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["tube.antisymmetric_at_slice_points",
                               "tube.dphi_fd_consistency"]
    assert _check(checks, "tube.dphi_fd_consistency").detail \
        == "sample 0: entry (2, 0) of X^T G is 1, expected 0"


def test_zero_form_off_origin_fails_nondegeneracy_check(monkeypatch):
    expected_names = [c.name for c in _run()]
    monkeypatch.setattr(tube, "omega_tube_gram", _off_origin(
        lambda model, G: Matrix.zeros(G.rows, G.cols)))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["tube.nondegenerate_near_origin",
                               "tube.dphi_fd_consistency"]
    assert _check(checks, "tube.dphi_fd_consistency").detail \
        == "sample 0: entry (0, 2) of X^T G is 0, expected 1"


def test_form_pairing_with_mu_alone_fails_the_momentum_map_equation(
        monkeypatch):
    # The tube form with its brackets paired with mu, not with mu + rho +
    # Phi_N1(nu), is the point form model.omega: antisymmetric and
    # nondegenerate everywhere, and right at the base point.  J is no
    # momentum map for it once rho != 0.  At 3 samples of seed 0 every
    # drawn rho is 0 on so3-generic, where g_m = 0 and the form is then
    # unchanged, so the default 10 samples (5 slice points) are drawn.
    inst = from_dict(build_example("so3-generic"))
    expected_names = [c.name for c in verify.run_all(inst)]
    monkeypatch.setattr(tube, "omega_tube_gram",
                        _off_origin(lambda model, G: model.omega))
    checks = verify.run_all(inst)
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["tube.dphi_fd_consistency"]
    assert _check(checks, "tube.dphi_fd_consistency").detail \
        == "sample 4: entry (0, 2) of X^T G is 1, expected 11/10"


def _at_sample(t, change):
    """omega_tube_gram with `change` applied at the t-th sampled slice point
    of tube_checks only; its first call is the base point."""
    exact = tube.omega_tube_gram
    calls = []

    def broken(model, p):
        calls.append(p)
        G = exact(model, p)
        return change(G) if len(calls) == t + 2 else G
    return broken


def test_asymmetric_entry_at_one_sample_is_named_by_the_antisymmetry_check(
        monkeypatch):
    expected_names = [c.name for c in _run()]

    def bumped(G):
        rows = [list(row) for row in G.entries]
        rows[0][1] += 1
        return Matrix.from_rows(rows, cols=G.cols)

    monkeypatch.setattr(tube, "omega_tube_gram", _at_sample(2, bumped))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["tube.antisymmetric_at_slice_points",
                               "tube.dphi_fd_consistency"]
    assert _check(checks, "tube.antisymmetric_at_slice_points").detail == (
        "entry (0, 1) of the tube form at sample 2 is not minus entry (1, 0)")
    assert _check(checks, "tube.dphi_fd_consistency").detail \
        == "sample 2: entry (2, 1) of X^T G is 1, expected 0"


def test_degenerate_form_at_one_sample_is_named_by_the_nondegeneracy_check(
        monkeypatch):
    expected_names = [c.name for c in _run()]

    def first_unit_in_radical(G):
        rows = [[0 if 0 in (i, j) else x for j, x in enumerate(row)]
                for i, row in enumerate(G.entries)]
        return Matrix.from_rows(rows, cols=G.cols)

    monkeypatch.setattr(tube, "omega_tube_gram",
                        _at_sample(1, first_unit_in_radical))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["tube.nondegenerate_near_origin",
                               "tube.dphi_fd_consistency"]
    assert _check(checks, "tube.nondegenerate_near_origin").detail \
        == "sample 1: the form is degenerate"
    assert _check(checks, "tube.dphi_fd_consistency").detail \
        == "sample 1: entry (2, 3) of X^T G is 0, expected 1"


def _orbit_without_first_generator(monkeypatch, call):
    """verify.perp_under_form drops the first basis vector of the orbit on
    its call-th call: 0 is the g-orbit, 1 the h-orbit."""
    exact = verify.perp_under_form
    calls = []

    def broken(form, U):
        calls.append(U)
        if len(calls) == call + 1:
            U = Subspace.span(U.ambient_dim, U.basis_vectors()[1:])
        return exact(form, U)

    monkeypatch.setattr(verify, "perp_under_form", broken)


def test_smaller_g_orbit_fails_orbit_perp_check_and_names_a_vector(
        monkeypatch):
    expected_names = [c.name for c in _run()]
    _orbit_without_first_generator(monkeypatch, 0)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["model.ker_dphiG_is_orbit_perp"]
    detail = _check(checks, "model.ker_dphiG_is_orbit_perp").detail
    assert detail.startswith("basis vector ")
    assert detail.endswith(" of the omega-perp of the g-orbit is not in "
                           "ker dphi_G")


def test_smaller_h_orbit_fails_h_orbit_perp_check_and_names_a_vector(
        monkeypatch):
    expected_names = [c.name for c in _run()]
    _orbit_without_first_generator(monkeypatch, 1)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["model.ker_dphiH_is_h_orbit_perp"]
    detail = _check(checks, "model.ker_dphiH_is_h_orbit_perp").detail
    assert detail.startswith("basis vector ")
    assert detail.endswith(" of the omega-perp of the h-orbit is not in "
                           "ker dphi_H")


def test_float_overflow_in_the_exponential_fails_equivariance():
    # so(3) with brackets 10**160 times the usual ones is a valid instance
    # whose exact data all fit in a float.  The exponential at an
    # equivariance sample overflows: its ODE residual is nan.  g_m = 0, so
    # the deviation is exactly 0.
    doc = build_example("so3-generic")
    big = "1" + "0" * 160
    doc["structure_constants"] = [
        [[{"1": big, "-1": "-" + big}.get(x, x) for x in row]
         for row in plane] for plane in doc["structure_constants"]]
    inst = from_dict(doc)
    checks = verify.run_all(inst, samples=2)
    assert _failed(checks) == ["tube.equivariance"]
    assert _check(checks, "tube.equivariance").detail == (
        "max relative deviation 0.000e+00 over 2 samples; sample 0: "
        "d/dt expm(tA) at t = 1 misses A expm(A) by nan")


def _is_ode_exponent(A):
    """Whether tube.expm is given (1 + ih) A, the ODE's exponent: the only
    one with complex entries."""
    return any(isinstance(x, complex) for row in A for x in row)


def test_nan_in_the_ode_derivative_fails_equivariance(monkeypatch):
    # A nan at entry (1, 1) of the ODE's complex-step exponential: a plain
    # max over the residual's entries keeps the finite value it holds from
    # entry (0, 0) when it meets the nan, so only a nan-aware one sees it.
    expected_names = [c.name for c in _run()]
    exact = tube.expm

    def nan_imaginary(A, *args):
        E = exact(A, *args)
        if _is_ode_exponent(A):
            E[1][1] = complex(E[1][1].real, float("nan"))
        return E

    monkeypatch.setattr(tube, "expm", nan_imaginary)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["tube.equivariance"]
    assert _check(checks, "tube.equivariance").detail == (
        "max relative deviation 0.000e+00 over 3 samples; sample 0: "
        "d/dt expm(tA) at t = 1 misses A expm(A) by nan")


def _scaled_brackets(doc, c):
    """The instance with every structure constant, and every slice action
    so that it stays a representation, multiplied by c: the algebra is
    isomorphic to the original one."""
    def scaled(rows):
        return [[str(Fraction(x) * c) for x in row] for row in rows]
    doc = dict(doc, structure_constants=[
        scaled(plane) for plane in doc["structure_constants"]])
    if doc["slice"]:
        doc["slice"] = dict(doc["slice"], action=[
            scaled(A) for A in doc["slice"]["action"]])
    return doc


@pytest.mark.parametrize("c", [Fraction(1, 1000), Fraction(1, 10), 10, 100,
                               1000, 10**4])
@pytest.mark.parametrize("example", ["so3-generic", "so3-collinear",
                                     "so3xso3-diagonal"])
def test_scaled_brackets_pass_every_check(example, c):
    # At c = 10^4 the ODE residual of expm is 2.4e-10 at sample 0 on
    # so3-generic, within FD_TOL, which bounds it at every norm.
    checks = verify.run_all(from_dict(
        _scaled_brackets(build_example(example), c)))
    assert len(checks) == 69
    assert _failed(checks) == []


def _scaled_corpus_instances():
    """One corpus instance for each (dim g, dim g_m, dim N1) among the
    non-abelian algebras: the first one the corpus holds."""
    from corpus import build_corpus
    by_shape = {}
    for inst in build_corpus():
        if inst.algebra.nonzero:
            by_shape.setdefault(
                (inst.dim, inst.gm.dim, inst.slice_rep.dim), inst)
    return by_shape


@pytest.mark.parametrize("c", [Fraction(1, 1000), Fraction(1, 10), 10, 100,
                               1000, 10**4])
def test_scaled_corpus_instances_pass_every_check(c):
    instances = _scaled_corpus_instances()
    assert len(instances) == 12
    for shape, inst in instances.items():
        checks = verify.run_all(from_dict(_scaled_brackets(to_dict(inst), c)))
        assert len(checks) == 69, shape
        assert _failed(checks) == [], shape


def test_norm_beyond_float_range_is_a_named_tube_fail(tmp_path):
    # At 10^308 the structure constants still fit a float, but a row sum of
    # ad(xi) at an equivariance sample does not: halving an infinite norm
    # never ended.  A subprocess with a timeout turns a hang into a failure.
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(
        _scaled_brackets(build_example("so3-generic"), 10**308)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "wittartin", "verify", str(path),
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1, done.stderr
    checks = json.loads(done.stdout)["checks"]
    assert len(checks) == 69
    failed = [c for c in checks if not c["passed"]]
    assert failed
    for c in failed:
        assert c["name"].startswith(f"{path}:tube."), c["name"]
        assert c["detail"], c["name"]
    assert any("out of float range" in c["detail"] for c in failed)


def test_unconverged_exponential_series_is_a_named_fail(monkeypatch):
    expected_names = [c.name for c in _run()]

    def unconverged(A, rel_tol=tube.REL_TOL):
        raise tube.SeriesNotConverged("exponential series tail bound not met")

    monkeypatch.setattr(tube, "expm", unconverged)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["tube.equivariance"]
    assert _check(checks, "tube.equivariance").detail == \
        "exponential series tail bound not met"


def test_doubled_momentum_differential_fails_fd_check(monkeypatch):
    expected_names = [c.name for c in _run()]
    # Doubling keeps both kernels, so only the momentum map equation at
    # the base point, which reads model.dphi_G, sees it.
    exact = pm.dphi_G
    monkeypatch.setattr(pm, "dphi_G", lambda model: exact(model).scale(2))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["tube.dphi_fd_consistency"]
    assert _check(checks, "tube.dphi_fd_consistency").detail \
        == "base point: entry (0, 2) of X^T G is 1, expected 2"


def test_shifted_momentum_off_identity_fails_equivariance(monkeypatch):
    # The coadjoint exponential is what phi_tilde applies off the identity,
    # and what moves the momentum by Ad*_{k^-1} on the k side of the G_m
    # identity.  The momentum map equation is exact and takes no
    # exponential, so only the G_m identity sees it, on an instance with
    # g_m != 0.
    expected_names = [c.name for c in _run("so3xso3-diagonal")]
    exact = tube._coadjoint_exp

    def shifted(ad, lam):
        out = exact(ad, lam)
        return (out[0] + 1e-3,) + out[1:]

    monkeypatch.setattr(tube, "_coadjoint_exp", shifted)
    checks = _run("so3xso3-diagonal")
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["tube.equivariance"]
    detail = _check(checks, "tube.equivariance").detail
    assert detail.startswith("max relative deviation ")
    assert " over 3 samples; sample 0: J([g k, k^-1 (rho, nu)]) misses " \
        "J([g, rho, nu]) by " in detail


def test_action_killing_a_non_unit_vector_fails_kernel_check(monkeypatch):
    # The wrapped action kills e0 + e1 (and no unit vector): x is moved to
    # x - x_0 (e0 + e1) first.  g_m = 0 on this instance.  The orbits of
    # the h-orbit check and of the Witt-Artin definitions are read through
    # decomposition's binding of the action, so both are wrapped.
    expected_names = [c.name for c in _run()]
    exact = pm.inf_action

    def killing_e0_plus_e1(model, x):
        return exact(model, (0 * x[0], x[1] - x[0]) + tuple(x[2:]))

    monkeypatch.setattr(pm, "inf_action", killing_e0_plus_e1)
    monkeypatch.setattr(dec, "inf_action", killing_e0_plus_e1)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["model.ker_dphiG_is_orbit_perp",
                               "model.ker_dphiH_is_h_orbit_perp",
                               "model.inf_action_kernel_is_gm",
                               "wittG.all_assertions",
                               "wittH.1_direct_sum",
                               "wittH.2_TH0_NH1_is_ker_dphiH",
                               "wittH.3_ker_split_with_M",
                               "wittH.4_orthogonality_and_lagrangian"]
    assert _check(checks, "model.inf_action_kernel_is_gm").detail == \
        "basis vector 0 of the action's kernel is not in g_m"


def test_doubled_quaternion_action_fails_homomorphism_and_names_the_pair():
    # g_m = so(3) acts on the quaternions; 2 * action[0] is still in
    # sp(omega), but [gm_0, gm_1] = gm_2 now acts by half the commutator.
    from corpus import QUAT_ACTIONS, build_corpus
    inst = next(inst for inst in build_corpus()
                if inst.slice_rep.action == QUAT_ACTIONS)
    assert verify.run_all(inst, samples=3)[-1].passed
    doubled = (QUAT_ACTIONS[0].scale(2),) + QUAT_ACTIONS[1:]
    broken = replace(inst, slice_rep=replace(inst.slice_rep, action=doubled))
    checks = verify.run_all(broken, samples=3)
    assert _failed(checks) == ["validate.slice_action_homomorphism"]
    assert _check(checks, "validate.slice_action_homomorphism").detail \
        == "homomorphism fails on gm pair (0, 1)"


def test_slice_action_of_the_wrong_shape_is_a_named_fail():
    # The file format rejects such a matrix; a ProblemInstance built in
    # Python reaches validate with it.
    sl = from_dict(build_example("so3xso3-diagonal")).slice_rep
    wide = Matrix.from_rows([[0, 1, 0], [1, 0, 0]])
    inst = _diagonal_with(slice_rep=replace(sl, action=(wide,)))
    checks = verify.run_all(inst, samples=3)
    assert _failed(checks) == ["validate.slice_action_symplectic"]


def test_kernel_other_than_TH0_plus_NH1_fails_witt_h_kernel_check(
        monkeypatch):
    # The H-side checks see ker dphi_G = 0 and ker dphi_H = M, so
    # wittH.3 still holds (0 + M is M) while TH0 + NH1 is larger than M.
    expected_names = [c.name for c in _run()]
    exact = dec.h_decomposition_checks

    def wrong_kernels(decomp, model):
        broken = replace(model)
        broken.__dict__["ker_dphi_G"] = Subspace.zero(model.total_dim)
        broken.__dict__["ker_dphi_H"] = dec.eq_M_subspace(model)
        return exact(decomp, broken)

    monkeypatch.setattr(dec, "h_decomposition_checks", wrong_kernels)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["wittH.2_TH0_NH1_is_ker_dphiH"]
    assert _check(checks, "wittH.2_TH0_NH1_is_ker_dphiH").detail \
        == ("fails: TH0 + NH1 is ker dphi_H (basis vector 0 of TH0 + NH1 is "
            "not in ker dphi_H)")


def _with_omega_coupled(monkeypatch, check, pick):
    """dec.<check> sees omega with entry (i, j) raised by 1 and entry (j, i)
    lowered by 1, for the model coordinates (i, j) = pick(decomp)."""
    exact = getattr(dec, check)

    def coupled(decomp, model):
        i, j = pick(decomp)
        rows = [list(row) for row in model.omega.entries]
        rows[i][j] += 1
        rows[j][i] -= 1
        omega = Matrix.from_rows(rows, cols=model.total_dim)
        return exact(decomp, replace(model, omega=omega))

    monkeypatch.setattr(dec, check, coupled)


def test_omega_pairing_TH1_with_NH1_fails_witt_h_orthogonality(monkeypatch):
    # Only the H-side checks see the changed form, and no Gram of s, X_m,
    # NH1 or Z_m involves the U_ntilde coordinate it changes.
    expected_names = [c.name for c in _run("so3xso3-diagonal")]
    _with_omega_coupled(monkeypatch, "h_decomposition_checks",
                        lambda d: (d.TH1[0], d.NH1[0]))
    checks = _run("so3xso3-diagonal")
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["wittH.4_orthogonality_and_lagrangian"]
    assert _check(checks, "wittH.4_orthogonality_and_lagrangian").detail \
        == ("fails: TH1 is omega-orthogonal to NH1 (TH1 basis vector 0 pairs "
            "with NH1 basis vector 1)")


def test_omega_pairing_T1_with_N1_fails_witt_g_orthogonality(monkeypatch):
    # Only the G-side check sees the changed form; the forms on T1 and on
    # N1 alone are unchanged.
    expected_names = [c.name for c in _run("so3xso3-diagonal")]
    _with_omega_coupled(monkeypatch, "g_decomposition_check",
                        lambda d: (d.T1[0], d.N1[0]))
    checks = _run("so3xso3-diagonal")
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["wittG.all_assertions"]
    assert _check(checks, "wittG.all_assertions").detail \
        == ("fails: T1 is omega-orthogonal to N1 (T1 basis vector 0 pairs "
            "with N1 basis vector 0)")


def test_omega_pairing_two_T0_coordinates_fails_witt_g_isotropy(monkeypatch):
    # T0 = U_p + U_b is three-dimensional here (T1 = 0), and no
    # orthogonality statement reads a T0 x T0 entry.
    expected_names = [c.name for c in _run("so3-zero")]
    _with_omega_coupled(monkeypatch, "g_decomposition_check",
                        lambda d: (d.T0[0], d.T0[1]))
    checks = _run("so3-zero")
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["wittG.all_assertions"]
    assert _check(checks, "wittG.all_assertions").detail \
        == ("fails: T0 is isotropic (T0 basis vector 0 pairs with T0 basis "
            "vector 1)")


@pytest.mark.parametrize("example, pick, space", [
    # omega on U_s is [[0, 1], [-1, 0]] here.
    ("so3-collinear", lambda d: (d.s_block[1], d.s_block[0]), "s_block"),
    # omega pairs U_b with R_b* by 1; the coupling cancels it.
    ("so3-generic", lambda d: (d.Ym[0], d.Xm_block[0]), "Xm"),
    # omega on V is omega_N1 = [[0, 1], [-1, 0]]; s and X_m keep theirs.
    ("so3-generic", lambda d: (d.N1_block[1], d.N1_block[0]), "NH1"),
], ids=["s_block", "Xm", "NH1"])
def test_degenerate_nh1_part_fails_witt_h5_and_names_the_space(
        monkeypatch, example, pick, space):
    # No Witt-Artin axiom reads an entry of NH1 x NH1.
    expected_names = [c.name for c in _run(example)]
    assert len(expected_names) == 69
    _with_omega_coupled(monkeypatch, "h_decomposition_checks", pick)
    checks = _run(example)
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["wittH.5_symplectic_blocks"]
    assert _check(checks, "wittH.5_symplectic_blocks").detail \
        == f"{space} is degenerate under omega"


def test_zero_Zm_gram_fails_witt_h5_and_names_Zm(monkeypatch):
    # Inside h_decomposition_checks wittH.5 reads the Gram on Z_m as the
    # omega submatrix on its indices; a zero submatrix there leaves every
    # other statement true.
    expected_names = [c.name for c in _run()]
    exact_checks, exact_omega_on = (dec.h_decomposition_checks,
                                    pm.TangentModel.omega_on)

    def checks_with_zero_zm_gram(decomp, model):
        def omega_on(self, indices):
            if tuple(indices) == decomp.Zm:
                return Matrix.zeros(len(indices), len(indices))
            return exact_omega_on(self, indices)

        with monkeypatch.context() as m:
            m.setattr(pm.TangentModel, "omega_on", omega_on)
            return exact_checks(decomp, model)

    monkeypatch.setattr(dec, "h_decomposition_checks",
                        checks_with_zero_zm_gram)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["wittH.5_symplectic_blocks"]
    assert _check(checks, "wittH.5_symplectic_blocks").detail \
        == "Zm is degenerate under omega"


def _skip_last_squaring(monkeypatch):
    """tube.expm without its last squaring: exp(A/2) once ||A|| > 1/2."""
    exact = tube.expm

    def one_squaring_short(A, rel_tol=tube.REL_TOL):
        if tube._mat_norm(A) > 0.5:
            A = tube._mat_scale(0.5, A)
        return exact(A, rel_tol)

    monkeypatch.setattr(tube, "expm", one_squaring_short)


def test_expm_one_squaring_short_fails_equivariance_and_names_a_sample(
        monkeypatch):
    # g_m = 0, so the G_m identity draws no k and its deviation is 0, and
    # the momentum map equation is exact, so only the ODE condition of the
    # complex step sees it.
    expected_names = [c.name for c in _run()]
    _skip_last_squaring(monkeypatch)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["tube.equivariance"]
    detail = _check(checks, "tube.equivariance").detail
    assert detail.startswith("max relative deviation 0.000e+00 over 3 "
                             "samples; sample 0: d/dt expm(tA) at t = 1 "
                             "misses A expm(A) by ")


def test_expm_one_squaring_short_fails_equivariance_at_scale_10_4(
        monkeypatch):
    # The ODE bound grows with ||A|| beyond 10^3, but a halved exponent
    # still misses it by far.
    inst = from_dict(_scaled_brackets(build_example("so3-generic"), 10**4))
    expected_names = [c.name for c in verify.run_all(inst, samples=3)]
    _skip_last_squaring(monkeypatch)
    checks = verify.run_all(inst, samples=3)
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["tube.equivariance"]
    assert _check(checks, "tube.equivariance").detail.startswith(
        "max relative deviation 0.000e+00 over 3 samples; sample 0: "
        "d/dt expm(tA) at t = 1 misses A expm(A) by ")


def test_expm_dropping_imaginary_parts_fails_equivariance_by_its_ode(
        monkeypatch):
    # The complex step reads the imaginary part of one exponential: without
    # it the derivative is 0, a miss of all of A expm(A).  g_m = 0, so no
    # other exponential is taken at an equivariance sample.
    expected_names = [c.name for c in _run()]
    exact = tube.expm

    def real_only(A, rel_tol=tube.REL_TOL):
        E = exact(A, rel_tol)
        return [[x.real for x in row] for row in E] \
            if _is_ode_exponent(A) else E

    monkeypatch.setattr(tube, "expm", real_only)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["tube.equivariance"]
    assert _check(checks, "tube.equivariance").detail == (
        "max relative deviation 0.000e+00 over 3 samples; sample 0: "
        "d/dt expm(tA) at t = 1 misses A expm(A) by 1.000e+00")


def test_transposed_expm_fails_equivariance_and_names_a_sample(monkeypatch):
    expected_names = [c.name for c in _run()]
    exact = tube.expm

    def transposed(A, rel_tol=tube.REL_TOL):
        return [list(col) for col in zip(*exact(A, rel_tol))]

    monkeypatch.setattr(tube, "expm", transposed)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert "tube.equivariance" in _failed(checks)
    assert _check(checks, "tube.equivariance").detail.startswith(
        "max relative deviation 0.000e+00 over 3 samples; sample 0: "
        "d/dt expm(tA) at t = 1 misses A expm(A) by ")


def _break_gm_action(monkeypatch, blocks, broken):
    """pointmodel's isotropy_action with the square block at the named
    model blocks, B, replaced by broken(model, eta, B).  Only the tube
    checks read it there, through model.slice_isotropy: the k^-1 action of
    the G_m identity and the generators X(p) of the momentum map
    equation."""
    exact = pm.isotropy_action

    def faulty(model, eta):
        X = exact(model, eta)
        idx = model.indices(*blocks)
        B = broken(model, eta, X.submatrix(idx, idx))
        rows = [list(row) for row in X.entries]
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                rows[i][j] = B.entries[a][b]
        return Matrix.from_rows(rows, cols=X.cols)

    monkeypatch.setattr(pm, "isotropy_action", faulty)


def test_sign_flipped_gm_action_on_rho_nu_fails_the_momentum_map_equation(
        monkeypatch):
    # zeta acts on (rho, nu) by minus its action: the generator of zeta at
    # a slice point with (rho, nu) != 0 is wrong.  The G_m identity reads
    # the same blocks and may fail too.
    expected_names = [c.name for c in _run("so3xso3-diagonal")]
    _break_gm_action(monkeypatch, ("pstar", "bstar", "N1"),
                     lambda model, eta, B: B.scale(-1))
    checks = _run("so3xso3-diagonal")
    assert [c.name for c in checks] == expected_names
    assert "tube.dphi_fd_consistency" in _failed(checks)
    assert _check(checks, "tube.dphi_fd_consistency").detail \
        == "sample 0: entry (2, 7) of X^T G is -1/20, expected 1/20"


# On so3xso3-diagonal g_m is abelian and acts trivially on m* = b*, and the
# momentum of every (rho, nu) lies where k acts trivially; Phi_N1 is then
# invariant under G_m, so Phi_N1(k nu) = Phi_N1(k^-1 nu), and these three
# faults keep the G_m identity.  On a g_m that is so(3) and rotates m
# they break it.
@pytest.mark.parametrize("blocks, broken, witness", [
    # k^-1 acts on N1 by exp(+A(zeta)), as k does.
    (("N1",), lambda model, eta, V: V.scale(-1),
     "entry (0, 7) of X^T G is 1/40, expected -1/40"),
    # -(ad(eta) on m) in place of the coadjoint -(ad(eta) on m)^T.
    (("pstar", "bstar"), lambda model, eta, R: R.transpose(),
     "entry (0, 1) of X^T G is 1/20, expected -1/20"),
    # The g_m rows of ad(eta) on m in the (g_m, m, n) basis, in place of
    # its m rows.
    (("pstar", "bstar"), lambda model, eta, R: -(
        model.g_basis_inv.submatrix(range(model.dim_m), range(model.inst.dim))
        @ model.inst.algebra.ad_matrix(eta)
        @ model.mn_basis.submatrix(range(model.inst.dim), range(model.dim_m))
    ).transpose(), "entry (0, 1) of X^T G is 0, expected -1/20"),
], ids=["slice_action_sign", "m_star_transpose", "m_star_block"])
def test_wrong_k_inverse_action_fails_equivariance_and_names_a_sample(
        monkeypatch, blocks, broken, witness):
    # The generators X(p) of the momentum map equation read the same
    # action, so the equation fails at the same sample.
    inst = diagonal_quaternion_instance()
    checks = verify.run_all(inst, samples=3)
    assert _failed(checks) == []
    _break_gm_action(monkeypatch, blocks, broken)
    broken_checks = verify.run_all(inst, samples=3)
    assert [c.name for c in broken_checks] == [c.name for c in checks]
    assert _failed(broken_checks) == ["tube.dphi_fd_consistency",
                                      "tube.equivariance"]
    assert _check(broken_checks, "tube.dphi_fd_consistency").detail \
        == f"sample 0: {witness}"
    assert "; sample 0: J([g k, k^-1 (rho, nu)]) misses J([g, rho, nu]) by " \
        in _check(broken_checks, "tube.equivariance").detail
