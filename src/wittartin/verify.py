"""The full named-check suite.

run_all executes every invariant the package claims, on one instance, and
returns a flat list of named checks.  All core checks are exact and draw
no samples: the slice momentum's identities compare quadratic forms entry
by entry.  Only the tube.* checks draw sample points (samples and seed),
and only tube.equivariance carries floating-point tolerances.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import decomposition as dec
from . import pointmodel as pm
from . import tube
from .exactlin import (
    Matrix,
    Subspace,
    gram_on,
    image,
    is_zero_vec,
    kernel,
    perp_under_form,
    unit_vec,
    zero_vec,
)
from .liecore import (
    LieAlgebra,
    ad_invariance_defect,
    center,
    killing_form,
    subalgebra_witness,
)
from .splitting import (
    Check,
    ProblemInstance,
    antisymmetry_detail,
    build_chain,
    chain_checks,
    dim_detail,
    dim_formulas,
    entry_detail,
    equality_detail,
    outside_detail,
)


def liecore_checks(inst: ProblemInstance) -> list[Check]:
    L, g_mu = inst.algebra, inst.g_mu
    moving = next((i for i, v in enumerate(g_mu.basis_vectors())
                   if not is_zero_vec(L.coad_apply(v, inst.mu))), None)
    return [
        Check.of("liecore.stabilizer_annihilates_mu", "" if moving is None
                 else f"ad* of g_mu basis vector {moving} moves mu"),
        Check.of("liecore.chu_radical_is_g_mu", _chu_radical_detail(inst)),
        Check.of("liecore.center_in_stabilizer", outside_detail(
            center(L), "the center", g_mu, "g_mu")),
        Check.of("liecore.h_alpha_two_descriptions", _h_alpha_detail(inst)),
        Check.of("liecore.killing_ad_invariant", _killing_detail(L)),
        Check.of("liecore.g_mu_in_h_perp_mu", outside_detail(
            g_mu, "g_mu", inst.h_perp_mu, "h_perp_mu")),
    ]


def _chu_radical_detail(inst: ProblemInstance) -> str:
    """"" when the Chu form is antisymmetric with radical g_mu; otherwise
    the first entry pair that breaks antisymmetry, or the first basis
    vector of one space that is not in the other."""
    return (antisymmetry_detail(inst.chu, "the Chu form")
            or equality_detail(kernel(inst.chu), "the Chu radical",
                               inst.g_mu, "g_mu"))


def _h_alpha_detail(inst: ProblemInstance) -> str:
    """"" when h_alpha is the kernel of the pairing restricted to h (row t
    is x -> <mu, [x, eta_t]> on h coordinates) and a subalgebra; otherwise
    the first basis vector of one side outside the other, or the first
    basis pair whose bracket leaves h_alpha."""
    on_h = image(inst.h.basis, kernel(gram_on(inst.chu, inst.h).transpose()))
    detail = equality_detail(on_h, "the kernel of the pairing on h",
                             inst.h_alpha, "h_alpha")
    if detail:
        return detail
    pair = subalgebra_witness(inst.algebra, inst.h_alpha)
    return "" if pair is None else \
        f"bracket of h_alpha basis pair {pair} leaves h_alpha"


def _killing_detail(L: LieAlgebra) -> str:
    """"" when B(ad_z x, y) + B(x, ad_z y) = 0 for all x, y, that is
    ad_z^T B + B ad_z = 0, for the Killing form B; otherwise the entry of
    smallest key (i, a, b) of the defect."""
    defect = ad_invariance_defect(L, killing_form(L))
    if not defect:
        return ""
    i, a, b = key = min(defect)
    return (f"B([e_{i}, e_{a}], e_{b}) + B(e_{a}, [e_{i}, e_{b}]) is "
            f"{defect[key]}, not 0")


def point_form_checks(model: pm.TangentModel) -> list[Check]:
    """The point form is antisymmetric and nondegenerate; a failure names
    the first bad entry pair, or the dimension of the radical."""
    radical = model.total_dim - model.omega.rank()
    return [Check.of("model.omega_antisymmetric",
                     antisymmetry_detail(model.omega, "the point form")),
            Check.of("model.omega_nondegenerate", "" if not radical else
                     f"the point form has a {radical}-dimensional radical")]


def model_checks(model: pm.TangentModel) -> list[Check]:
    inst = model.inst
    out = []
    kerG, kerH = model.ker_dphi_G, model.ker_dphi_H
    expected = model.unit_span(model.indices("p", "b", "N1"))
    out.append(Check.of("model.ker_dphiG_is_T0_plus_N1", equality_detail(
        kerG, "ker dphi_G", expected, "T0 + N1")))
    out.append(Check.of("model.ker_dphiG_inside_ker_dphiH", outside_detail(
        kerG, "ker dphi_G", kerH, "ker dphi_H")))

    # Momentum property at the linear level: the kernels are the symplectic
    # orthogonals of the orbit directions.
    action = Matrix.from_cols(
        [pm.inf_action(model, unit_vec(inst.dim, i)) for i in range(inst.dim)],
        rows=model.total_dim)
    g_orbit = Subspace.span(model.total_dim, action.columns())
    h_orbit = dec._image_under_action(model, inst.h)
    out.append(Check.of("model.ker_dphiG_is_orbit_perp", equality_detail(
        kerG, "ker dphi_G",
        perp_under_form(model.omega, g_orbit), "the omega-perp of the g-orbit")))
    out.append(Check.of("model.ker_dphiH_is_h_orbit_perp", equality_detail(
        kerH, "ker dphi_H",
        perp_under_form(model.omega, h_orbit), "the omega-perp of the h-orbit")))

    d = dim_formulas(model.chain)
    out.append(Check.of("dims.kernel_gap_formula", dim_detail(
        "dim ker dphi_H - dim ker dphi_G", kerH.dim - kerG.dim,
        "the predicted gap", d.kernel_gap)))

    out.append(pm.f_contract_check(model))

    out.append(Check.of("model.inf_action_kernel_is_gm", equality_detail(
        kernel(action), "the action's kernel", inst.gm, "g_m")))
    return out


def decomposition_checks(model: pm.TangentModel) -> list[Check]:
    inst, chain = model.inst, model.chain
    out = [dec.g_decomposition_check(dec.decompose_G(model), model)]

    decomp = dec.decompose_H(model)
    out.extend(dec.h_decomposition_checks(decomp, model))

    # Oracle route: generic rank reduction of the momentum differential
    # against the constructed TH0 + NH1.
    out.append(Check.of("wittH.oracle_kernel_equality", equality_detail(
        model.ker_dphi_H, "ker dphi_H",
        model.unit_span(decomp.TH0 + decomp.NH1), "TH0 + NH1")))

    formula = "dim s + 2 dim b + dim N1"
    nh1_dim = dim_formulas(chain).slice_dim_H
    out.append(dec.slice_form_check(decomp, model))
    out.append(Check.of("sliceform.dim_formula", dim_detail(
        "dim of the slice form", decomp.nh1.dim, formula, nh1_dim)
        or dim_detail("dim NH1", len(decomp.NH1), formula, nh1_dim)))
    out.append(Check.of("dims.slice_dim_formula", dim_detail(
        "dim NH1", len(decomp.NH1), "dim N1 + 2 dim b + dim s", nh1_dim)))

    closed = dec.momentum_formula_forms(model)
    out.append(dec.momentum_formula_check(decomp, closed))
    out.append(dec.momentum_forms_check(closed,
                                        dec.slice_momentum_forms(decomp)))

    out.append(Check.of("momentum.phiN1_equivariance",
                        _phi_n1_equivariance_detail(inst)))

    out.extend(dec.coadjoint_slice_check(model))
    return out


def _phi_n1_equivariance_detail(inst: ProblemInstance) -> str:
    """"" when DPhi_N1(nu)(eta_t.nu) = -ad*_{eta_t}|_{g_m*} Phi_N1(nu) for
    all nu; otherwise names the first g_m basis pair (t, s) where it fails.

    Component s of each side is a quadratic form in nu, with Gram
    A_t^T S_s + S_s A_t on the left and -momentum_form(combine(c)) on the
    right, c the g_m coordinates of [eta_t, eta_s]: the sum of the two
    Grams must be antisymmetric."""
    sl, gv = inst.slice_rep, inst.gm.basis_vectors()
    for t, (A, eta) in enumerate(zip(sl.action, gv)):
        for s, (S, gs) in enumerate(zip(sl.momentum_forms, gv)):
            coords = inst.gm.coords_of(inst.algebra.bracket(eta, gs))
            if coords is None or not (
                    A.transpose() @ S + S @ A
                    + sl.momentum_form(sl.combine(coords))).is_antisymmetric():
                return f"equivariance fails on gm pair ({t}, {s})"
    return ""


def tube_checks(model: pm.TangentModel, samples: int,
                seed: int) -> list[Check]:
    """The tube checks at the base point and at min(samples, 5) slice
    points drawn from seed, with one omega_tube_gram per point for all the
    checks there; each detail names the first point that fails."""
    n = model.inst.dim
    origin = tube.TubePoint(zero_vec(n), zero_vec(model.dim_m),
                            zero_vec(model.slice_dim))
    G = tube.omega_tube_gram(model, origin)
    out = [Check.of("tube.base_point_matches_model", entry_detail(
        G, model.omega, "the tube form at the base point"))]
    miss = tube.check_dphi_consistency(model, origin, G)
    dphi = miss and f"base point: {miss}"

    rng = random.Random(seed)

    def rand_small() -> Fraction:
        return Fraction(rng.randint(-1, 1), 10)

    anti = nondeg = ""
    for t in range(min(samples, 5)):
        p = tube.TubePoint(
            zero_vec(n),
            tuple(rand_small() for _ in range(model.dim_m)),
            tuple(rand_small() for _ in range(model.slice_dim)))
        G = tube.omega_tube_gram(model, p)
        anti = anti or antisymmetry_detail(G, f"the tube form at sample {t}")
        if not nondeg and model.total_dim and G.det() == 0:
            nondeg = f"sample {t}: the form is degenerate"
        if not dphi:
            miss = tube.check_dphi_consistency(model, p, G)
            dphi = miss and f"sample {t}: {miss}"
    out.append(Check.of("tube.antisymmetric_at_slice_points", anti))
    out.append(Check.of("tube.nondegenerate_near_origin", nondeg))
    out.append(Check.of("tube.dphi_fd_consistency", dphi))
    out.extend(tube.phi_equivariance_check(model, samples, seed=seed))
    return out


def checked_model(inst: ProblemInstance
                  ) -> tuple[list[Check], pm.TangentModel | None]:
    """The checks up to the tangent model, and the model.

    This is the one gate between an instance and its model, for verify and
    decompose alike.  The list holds the validate.* records, the liecore
    checks, the chain checks, model.builds and the point form checks.  It
    ends early, with the failures named, when validation fails, when the
    chain cannot be built (chain.builds) or fails a chain check, when the
    model cannot be built (model.builds), or when its point form is not
    symplectic; the model is None then.
    """
    report = inst.validation
    checks = [Check(f"validate.{c.name}", c.passed, c.detail)
              for c in report.checks]
    if not report.passed:
        return checks, None

    checks.extend(liecore_checks(inst))
    try:
        chain = build_chain(inst)
    except ValueError as e:
        checks.append(Check("chain.builds", False, str(e)))
        return checks, None
    chain_results = chain_checks(chain)
    checks.extend(chain_results)
    if not all(c.passed for c in chain_results):
        return checks, None

    try:
        model = pm.build_model(chain)
    except pm.DegenerateModel as e:
        checks.append(Check("model.builds", False, str(e)))
        return checks, None
    checks.append(Check("model.builds", True))
    form = point_form_checks(model)
    checks.extend(form)
    return checks, (model if all(c.passed for c in form) else None)


def run_all(inst: ProblemInstance, samples: int = 10,
            seed: int = 0) -> list[Check]:
    """Every named check for one instance, in a stable order.

    The list ends early where checked_model's does.  samples and seed
    drive only the tube.* checks, which need at least one sample, so
    samples < 1 raises ValueError.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    checks, model = checked_model(inst)
    if model is not None:
        checks.extend(model_checks(model))
        checks.extend(decomposition_checks(model))
        checks.extend(tube_checks(model, samples, seed))
    return checks
