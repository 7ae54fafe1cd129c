"""The full named-check suite.

run_all executes every invariant the package claims, on one instance, and
returns a flat list of named checks.  All core checks are exact; only the
tube consistency checks carry floating-point tolerances.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import decomposition as dec
from . import pointmodel as pm
from . import tube
from .exactlin import (
    BilinearForm,
    Matrix,
    Subspace,
    Vec,
    dot,
    gram_on,
    is_zero_vec,
    kernel,
    perp_under_form,
    unit_vec,
    zero_vec,
)
from .liecore import is_subalgebra, killing_form
from .splitting import (
    Check,
    ProblemInstance,
    build_chain,
    chain_checks,
    dim_formulas,
)


def chu_radical_check(chu: BilinearForm, g_mu: Subspace) -> Check:
    """liecore.chu_radical_is_g_mu: the Chu form is antisymmetric and its
    radical is the stabilizer g_mu."""
    return Check("liecore.chu_radical_is_g_mu",
                 chu.is_antisymmetric() and chu.radical() == g_mu)


def h_alpha_check(inst: ProblemInstance, halpha: Subspace) -> Check:
    """liecore.h_alpha_two_descriptions: h_alpha is also the kernel of the
    pairing restricted to h, and it is a subalgebra."""
    # Row t is x -> <mu, [x, eta_t]> on h coordinates.
    inside = kernel(gram_on(inst.chu, inst.h).transpose())
    lifted = Subspace.span(
        inst.dim, [inst.h.basis.apply(c) for c in inside.basis_vectors()])
    return Check("liecore.h_alpha_two_descriptions",
                 lifted == halpha and is_subalgebra(inst.algebra, halpha))


def h_perp_mu_check(g_mu: Subspace, hperp: Subspace) -> Check:
    """liecore.g_mu_in_h_perp_mu."""
    return Check("liecore.g_mu_in_h_perp_mu", g_mu.leq(hperp))


def liecore_checks(inst: ProblemInstance) -> list[Check]:
    L = inst.algebra
    out = []

    g_mu = inst.g_mu
    ok = all(
        all(x == 0 for x in L.coad_apply(v, inst.mu))
        for v in g_mu.basis_vectors()
    )
    out.append(Check("liecore.stabilizer_annihilates_mu", ok))
    out.append(chu_radical_check(inst.chu, g_mu))

    # The center (common kernel of all ad matrices) stabilizes any momentum.
    ads = [L.ad_matrix(unit_vec(L.dim, i)) for i in range(L.dim)]
    stacked = [row for A in ads for row in A.entries]
    center = kernel(Matrix.from_rows(stacked, cols=L.dim))
    out.append(Check("liecore.center_in_stabilizer", center.leq(g_mu)))

    out.append(h_alpha_check(inst, inst.h_alpha))

    # B(ad_z x, y) + B(x, ad_z y) = 0 for all x, y is ad_z^T B + B ad_z = 0.
    B = killing_form(L).gram
    ok = all((A.transpose() @ B + B @ A).is_zero() for A in ads)
    out.append(Check("liecore.killing_ad_invariant", ok))

    out.append(h_perp_mu_check(g_mu, inst.h_perp_mu))
    return out


def model_checks(model: pm.TangentModel) -> list[Check]:
    inst = model.inst
    out = []
    out.append(Check("model.omega_antisymmetric",
                     model.omega.is_antisymmetric()))
    out.append(Check("model.omega_nondegenerate",
                     model.omega.gram.rank() == model.total_dim))

    kerG, kerH = model.ker_dphi_G, model.ker_dphi_H
    expected = model.unit_span(model.indices("p", "b", "N1"))
    out.append(Check("model.ker_dphiG_is_T0_plus_N1", kerG == expected))
    out.append(Check("model.ker_dphiG_inside_ker_dphiH", kerG.leq(kerH)))

    # Momentum property at the linear level: the kernels are the symplectic
    # orthogonals of the orbit directions.
    g_orbit = Subspace.span(
        model.total_dim,
        [pm.inf_action(model, unit_vec(inst.dim, i)) for i in range(inst.dim)],
    )
    h_orbit = Subspace.span(
        model.total_dim,
        [pm.inf_action(model, v) for v in inst.h.basis_vectors()],
    )
    out.append(Check("model.ker_dphiG_is_orbit_perp",
                     kerG == perp_under_form(model.omega, g_orbit)))
    out.append(Check("model.ker_dphiH_is_h_orbit_perp",
                     kerH == perp_under_form(model.omega, h_orbit)))

    d = dim_formulas(model.chain)
    out.append(Check("dims.kernel_gap_formula",
                     kerH.dim - kerG.dim == d.kernel_gap,
                     f"actual gap {kerH.dim - kerG.dim}, predicted {d.kernel_gap}"))

    out.append(pm.f_contract_check(model))

    ok = True
    for x in (unit_vec(inst.dim, i) for i in range(inst.dim)):
        if not inst.gm.contains(x) and is_zero_vec(pm.inf_action(model, x)):
            ok = False
    for v in inst.gm.basis_vectors():
        if not is_zero_vec(pm.inf_action(model, v)):
            ok = False
    out.append(Check("model.inf_action_kernel_is_gm", ok))
    return out


def decomposition_checks(model: pm.TangentModel,
                         samples: int, seed: int) -> list[Check]:
    inst, chain = model.inst, model.chain
    out = [dec.g_decomposition_check(dec.decompose_G(model), model)]

    decomp = dec.decompose_H(model)
    out.extend(dec.h_decomposition_checks(decomp, model))

    # Oracle route: generic rank reduction of the momentum differential
    # against the constructed TH0 + NH1.
    out.append(Check(
        "wittH.oracle_kernel_equality",
        model.ker_dphi_H == model.unit_span(decomp.TH0 + decomp.NH1),
    ))

    nh1_dim = chain.s.dim + 2 * chain.b.dim + model.slice_dim
    out.append(dec.slice_form_check(decomp, model))
    out.append(Check("sliceform.dim_formula",
                     decomp.form.ambient_dim == nh1_dim
                     and len(decomp.NH1) == nh1_dim))
    out.append(Check("dims.slice_dim_formula",
                     len(decomp.NH1) == dim_formulas(chain).slice_dim_H))

    rng = random.Random(seed)

    def draw(count: int, top: int, den: int) -> list[Vec]:
        return [tuple(Fraction(rng.randint(-top, top), rng.randint(1, den))
                      for _ in range(nh1_dim))
                for _ in range(count)]

    out.append(dec.momentum_formula_check(decomp, model, draw(samples, 6, 4)))
    out.append(dec.momentum_forms_check(
        model, dec.slice_momentum_forms(decomp), draw(min(samples, 3), 4, 3)))

    out.append(Check("momentum.phiN1_equivariance",
                     _phi_n1_equivariance(inst, rng, samples)))

    out.extend(dec.coadjoint_slice_check(chain, inst))
    return out


def _phi_n1_equivariance(inst: ProblemInstance, rng: random.Random,
                         samples: int) -> bool:
    """DPhi_N1(nu)(eta.nu) = -ad*_eta|_{g_m*} Phi_N1(nu), exactly, sampled."""
    L = inst.algebra
    gm_vectors = inst.gm.basis_vectors()
    if not gm_vectors or inst.slice_rep.dim == 0:
        return True
    for _ in range(samples):
        nu = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                   for _ in range(inst.slice_rep.dim))
        phi = tube.phi_n1(inst, nu)
        for t, eta in enumerate(gm_vectors):
            moved = inst.slice_rep.action[t].apply(nu)
            lhs = tube.dphi_n1(inst, nu, moved)
            # -(ad*_eta lam) restricted to g_m*: entries -<lam, [eta, gm_s]>.
            rhs = []
            for s, gs in enumerate(gm_vectors):
                br = L.bracket(eta, gs)
                coords = inst.gm.coords_of(br)
                if coords is None:
                    return False
                rhs.append(-dot(phi, coords))
            if tuple(lhs) != tuple(rhs):
                return False
    return True


def tube_checks(model: pm.TangentModel, samples: int,
                seed: int) -> list[Check]:
    n = model.inst.dim
    out = []
    origin = tube.TubePoint(zero_vec(n), zero_vec(model.dim_m),
                            zero_vec(model.slice_dim))

    out.append(Check("tube.base_point_matches_model",
                     tube.omega_tube_gram(model, origin) == model.omega.gram))

    rng = random.Random(seed)

    def rand_small() -> Fraction:
        return Fraction(rng.randint(-1, 1), 10)

    ok_anti = True
    ok_nondeg = True
    for _ in range(min(samples, 5)):
        p = tube.TubePoint(
            zero_vec(n),
            tuple(rand_small() for _ in range(model.dim_m)),
            tuple(rand_small() for _ in range(model.slice_dim)))
        G = tube.omega_tube_gram(model, p)
        if not G.is_antisymmetric():
            ok_anti = False
        if model.total_dim and G.det() == 0:
            ok_nondeg = False
    out.append(Check("tube.antisymmetric_at_slice_points", ok_anti))
    out.append(Check("tube.nondegenerate_near_origin", ok_nondeg))

    out.extend(tube.check_dphi_consistency(model))
    out.extend(tube.phi_equivariance_check(model, samples, seed=seed))
    return out


def run_all(inst: ProblemInstance, samples: int = 10,
            seed: int = 0, include_tube: bool = True) -> list[Check]:
    """Every named check for one instance, in a stable order.

    The list ends early, with the failures named, when validation fails,
    when the chain cannot be built (chain.builds) or fails a chain check,
    or when the model cannot be built (model.builds).  The sampled checks
    need at least one sample, so samples < 1 raises ValueError.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    checks: list[Check] = []
    report = inst.validation
    checks.extend(Check(f"validate.{c.name}", c.passed, c.detail)
                  for c in report.checks)
    if not report.passed:
        return checks

    checks.extend(liecore_checks(inst))
    try:
        chain = build_chain(inst)
    except ValueError as e:
        checks.append(Check("chain.builds", False, str(e)))
        return checks
    chain_results = chain_checks(inst, chain)
    checks.extend(chain_results)
    if not all(c.passed for c in chain_results):
        return checks

    try:
        model = pm.build_model(chain, inst)
    except pm.DegenerateModel as e:
        checks.append(Check("model.builds", False, str(e)))
        return checks
    checks.append(Check("model.builds", True))

    checks.extend(model_checks(model))
    checks.extend(decomposition_checks(model, samples, seed))
    if include_tube:
        checks.extend(tube_checks(model, samples, seed))
    return checks
