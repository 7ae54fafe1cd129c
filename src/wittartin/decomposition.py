"""Both tangent-space decompositions and the compatible slice.

decompose_G splits the model into T0, T1, N0, N1 for the full algebra;
decompose_H produces the subalgebra counterpart whose slice block is

    NH1 = s*m  +  (b*m + Y_m)  +  N1,

together with the block form on it, the action of h_m on it, and the
quadratic momentum map of that action.  The constructors only compute;
every identity they rely on is a named check defined here
(g_decomposition_check, h_decomposition_checks, slice_form_check,
momentum_formula_check, momentum_forms_check), which verify reports and
report.build_report requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlin import (
    BilinearForm,
    Matrix,
    NotContained,
    ONE,
    Subspace,
    Vec,
    ZERO,
    dot,
    gram_on,
    is_direct_sum,
    kernel,
    sum_spaces,
    unit_vec,
)
from .pointmodel import TangentModel, inf_action
from .splitting import Check


@dataclass(frozen=True)
class WittDecompositionG:
    T0: Subspace
    T1: Subspace
    N0: Subspace
    N1: Subspace


@dataclass(frozen=True)
class WittDecompositionH:
    TH0: Subspace
    TH1: Subspace
    NH0: Subspace
    NH1: Subspace
    s_block: Subspace
    Xm_block: Subspace
    N1_block: Subspace
    Ym: Subspace
    Zm: Subspace
    # The form on NH1 and the action of each h_m basis vector on NH1, both
    # in the block coordinates (s, b, Y_m, N1).
    form: BilinearForm
    eta_actions: tuple[Matrix, ...]


def _image_under_action(model: TangentModel, space: Subspace) -> Subspace:
    vectors = [inf_action(model, v).coords() for v in space.basis_vectors()]
    return Subspace.span(model.total_dim, vectors)


def _unit_span(model: TangentModel, indices) -> Subspace:
    return Subspace.span(
        model.total_dim, [unit_vec(model.total_dim, i) for i in indices])


def _cross_gram(model: TangentModel, U: Subspace, V: Subspace) -> Matrix:
    return U.basis.transpose() @ model.omega.gram @ V.basis


def decompose_G(model: TangentModel) -> WittDecompositionG:
    chain = model.chain
    T0 = _image_under_action(model, chain.m_space)
    T1 = _image_under_action(model, chain.n_space)
    N0 = _unit_span(model, list(model.blocks["pstar"]) + list(model.blocks["bstar"]))
    N1 = _unit_span(model, model.blocks["N1"])
    return WittDecompositionG(T0=T0, T1=T1, N0=N0, N1=N1)


def g_decomposition_check(decomp: WittDecompositionG,
                          model: TangentModel) -> Check:
    """wittG.all_assertions: the twelve identities of the G-side split.

    The detail names the first identity that fails.
    """
    d, omega = decomp, model.omega
    T0N0 = sum_spaces(d.T0, d.N0)
    identities = (
        ("T0 + T1 + N0 + N1 is direct",
         lambda: is_direct_sum([d.T0, d.T1, d.N0, d.N1])),
        ("T0 + T1 + N0 + N1 is the whole model",
         lambda: sum_spaces(d.T0, d.T1, d.N0, d.N1)
         == Subspace.full(model.total_dim)),
        ("T0 + N1 is ker dphi_G",
         lambda: sum_spaces(d.T0, d.N1) == model.ker_dphi_G),
        ("T1 is omega-orthogonal to N1",
         lambda: _cross_gram(model, d.T1, d.N1).is_zero()),
        ("T1 is omega-orthogonal to T0 + N0",
         lambda: _cross_gram(model, d.T1, T0N0).is_zero()),
        ("N1 is omega-orthogonal to T0 + N0",
         lambda: _cross_gram(model, d.N1, T0N0).is_zero()),
        ("T0 is isotropic", lambda: gram_on(omega, d.T0).is_zero()),
        ("N0 is isotropic", lambda: gram_on(omega, d.N0).is_zero()),
        ("dim T0 equals dim N0", lambda: d.T0.dim == d.N0.dim),
        ("T0 + N0 is symplectic",
         lambda: gram_on(omega, T0N0).rank() == T0N0.dim),
        ("the form on T1 is the Chu pairing of the n basis",
         lambda: gram_on(omega, d.T1) == _chu_on_n(model)),
        ("the form on N1 is omega_N1",
         lambda: gram_on(omega, d.N1) == model.inst.slice_rep.omega.gram),
    )
    broken = next((name for name, holds in identities if not holds()), None)
    return Check("wittG.all_assertions", broken is None,
                 "" if broken is None else f"fails: {broken}")


def _chu_on_n(model: TangentModel) -> Matrix:
    # T1's canonical basis vectors are the model units at the n positions,
    # which correspond to the concatenated (a, s, ntilde, r) columns.
    N = Matrix.from_cols(
        [model.mn_basis.col(i) for name in ("a", "s", "ntilde", "r")
         for i in model.blocks[name]], rows=model.inst.dim)
    return N.transpose() @ model.inst.chu.gram @ N


def eq_M_subspace(model: TangentModel) -> Subspace:
    """The subspace M of T1 + N0, computed directly from its definition:

        M = { z_M(m) + w : -ad*_z mu + f(w) annihilates h }.

    This is the independent route against which the constructive identity
    ker dphi_H = ker dphi_G + M is checked.
    """
    n_indices = [i for name in ("a", "s", "ntilde", "r")
                 for i in model.blocks[name]]
    r_indices = list(model.blocks["pstar"]) + list(model.blocks["bstar"])
    local = n_indices + r_indices

    n_cols = [model.mn_basis.col(i) for i in n_indices]  # U index == mn column
    rows = []
    for eta in model.inst.h.basis_vectors():
        # -<mu, [z, eta]> = -z . K eta with K the Chu Gram matrix.
        k_eta = model.inst.chu.gram.apply(eta)
        rows.append(tuple(
            [-dot(z, k_eta) for z in n_cols]
            + [dot(model.dual_row(model.gm_dim + j), eta)
               for j in range(model.dim_m)]))
    constraint = Matrix.from_rows(rows, cols=len(local))
    ker = kernel(constraint)
    vectors = []
    for c in ker.basis_vectors():
        v = [ZERO] * model.total_dim
        for pos, idx in enumerate(local):
            v[idx] = c[pos]
        vectors.append(tuple(v))
    return Subspace.span(model.total_dim, vectors)


def decompose_H(model: TangentModel) -> WittDecompositionH:
    chain = model.chain
    TH0 = _image_under_action(model, chain.h_alpha)
    TH1 = _image_under_action(model, chain.ntilde)
    s_block = _image_under_action(model, chain.s)
    b_block = _image_under_action(model, chain.b)
    Ym = _unit_span(model, model.blocks["bstar"])
    Xm = sum_spaces(b_block, Ym)
    N1_block = _unit_span(model, model.blocks["N1"])
    NH1 = sum_spaces(s_block, Xm, N1_block)
    r_block = _image_under_action(model, chain.r)
    NH0 = sum_spaces(_unit_span(model, model.blocks["pstar"]), r_block)
    Zm = sum_spaces(_image_under_action(model, chain.a), r_block)
    return WittDecompositionH(
        TH0=TH0, TH1=TH1, NH0=NH0, NH1=NH1,
        s_block=s_block, Xm_block=Xm, N1_block=N1_block,
        Ym=Ym, Zm=Zm, form=slice_form(model),
        eta_actions=tuple(_eta_action_on_nh1(model, eta)
                          for eta in chain.h_m.basis_vectors()),
    )


def h_decomposition_checks(decomp: WittDecompositionH,
                           model: TangentModel) -> list[Check]:
    """The seven identity groups wittH.1-7 of the H-side decomposition."""
    chain = model.chain
    chu = model.inst.chu
    full = Subspace.full(model.total_dim)
    out: list[Check] = []

    def record(name, passed, detail=""):
        out.append(Check(name, passed, detail))

    record("wittH.1_direct_sum",
           is_direct_sum([decomp.TH0, decomp.TH1, decomp.NH0, decomp.NH1])
           and sum_spaces(decomp.TH0, decomp.TH1, decomp.NH0, decomp.NH1)
           == full)
    record("wittH.2_TH0_NH1_is_ker_dphiH",
           sum_spaces(decomp.TH0, decomp.NH1) == model.ker_dphi_H)

    M = eq_M_subspace(model)
    kerG = model.ker_dphi_G
    qm = sum_spaces(_image_under_action(model, chain.a),
                    _image_under_action(model, chain.s))
    record("wittH.3_ker_split_with_M",
           is_direct_sum([kerG, M])
           and sum_spaces(kerG, M) == model.ker_dphi_H
           and M == sum_spaces(qm, decomp.Ym))

    TH0NH0 = sum_spaces(decomp.TH0, decomp.NH0)
    ortho = (
        _cross_gram(model, decomp.TH1, decomp.NH1).is_zero()
        and _cross_gram(model, decomp.TH1, TH0NH0).is_zero()
        and _cross_gram(model, decomp.NH1, TH0NH0).is_zero()
    )
    lagrangian = (
        gram_on(model.omega, decomp.TH0).is_zero()
        and gram_on(model.omega, decomp.NH0).is_zero()
        and decomp.TH0.dim == decomp.NH0.dim
        and gram_on(model.omega, TH0NH0).rank() == TH0NH0.dim
    )
    record("wittH.4_orthogonality_and_lagrangian", ortho and lagrangian)

    nondeg = all(
        gram_on(model.omega, space).rank() == space.dim
        for space in (decomp.s_block, decomp.Xm_block, decomp.NH1, decomp.Zm)
    )
    record("wittH.5_symplectic_blocks", nondeg)

    avs = chain.a.basis_vectors()
    rvs = chain.r.basis_vectors()
    pairing_ok = len(avs) == len(rvs)
    if pairing_ok and avs:
        P = Matrix.from_rows([[chu(x, y) for y in rvs] for x in avs],
                             cols=len(rvs))
        pairing_ok = P.rank() == len(avs)
    record("wittH.6_a_r_pairing_nondegenerate", pairing_ok)

    record("wittH.7_a_orbit_lagrangian_in_Zm",
           all(chu(x, y) == 0 for x in avs for y in avs))
    return out


def slice_form(model: TangentModel) -> BilinearForm:
    """Form on NH1 in the block basis (s, b, Y_m, N1): the point form on the
    model coordinates of those blocks.

    slice_form_check proves it block diagonal with the expected blocks.
    """
    idx = [i for name in ("s", "b", "bstar", "N1") for i in model.blocks[name]]
    g = model.omega.gram
    return BilinearForm(Matrix.from_rows(
        [[g.entries[i][j] for j in idx] for i in idx], cols=len(idx)))


def slice_form_check(decomp: WittDecompositionH, model: TangentModel) -> Check:
    """sliceform.block_diagonal: the form on NH1 is the Chu form on s, the
    canonical pairing on b + Y_m and omega_N1 on N1, with no cross terms."""
    chain = model.chain
    ds, db, dn1 = chain.s.dim, chain.b.dim, model.slice_dim
    size = ds + 2 * db + dn1
    expected = [[ZERO] * size for _ in range(size)]
    chu_s = gram_on(model.inst.chu, chain.s)
    for i in range(ds):
        expected[i][:ds] = chu_s.entries[i]
    for i in range(db):
        expected[ds + i][ds + db + i] = ONE
        expected[ds + db + i][ds + i] = -ONE
    base = ds + 2 * db
    for i, row in enumerate(model.inst.slice_rep.omega.gram.entries):
        expected[base + i][base:] = row
    return Check("sliceform.block_diagonal",
                 decomp.form.gram == Matrix.from_rows(expected, cols=size))


def _eta_action_on_nh1(model: TangentModel, eta: Vec) -> Matrix:
    """Matrix of the h_m-action on NH1 in the block coordinates.

    eta acts by the bracket on the s and b blocks (both are ad(g_m)-stable),
    by the negative coadjoint action on Y_m inside m*, and by the slice
    representation on N1.  Raises NotContained when a block is not stable,
    which the chain check chain.ad_gm_invariance rules out.
    """
    L = model.inst.algebra
    chain = model.chain
    ds, db, dn1 = chain.s.dim, chain.b.dim, model.slice_dim
    size = ds + 2 * db + dn1
    cols: list[list[Fraction]] = []

    def bracket_block(space: Subspace, offset: int):
        for v in space.basis_vectors():
            w = L.bracket(eta, v)
            coords = space.coords_of(w)
            if coords is None:
                raise NotContained("block is not ad(gm)-stable")
            col = [ZERO] * size
            for t, c in enumerate(coords):
                col[offset + t] = c
            cols.append(col)

    bracket_block(chain.s, 0)
    bracket_block(chain.b, ds)

    # -ad*_eta on m*, restricted to the b* coordinates.
    m_cols = [model.mn_basis.col(j) for j in range(model.dim_m)]
    ad_on_m = []
    for y in m_cols:
        w = L.bracket(eta, y)
        coords = _coords_in_columns(m_cols, w, model)
        ad_on_m.append(coords)
    for j in range(chain.p.dim, model.dim_m):
        # (eta . rho_j)_k = -<rho_j, [eta, m_k]> for the dual basis rho_j.
        new = [-ad_on_m[k][j] for k in range(model.dim_m)]
        if any(new[t] != 0 for t in range(chain.p.dim)):
            raise NotContained("coadjoint action leaves the b* block")
        cols.append([ZERO] * (ds + db) + new[chain.p.dim:] + [ZERO] * dn1)

    A_eta = _combine_slice_action(model, eta)
    cols.extend([ZERO] * (ds + 2 * db) + list(col) for col in A_eta.columns())

    return Matrix.from_cols(cols, rows=size)


def _coords_in_columns(cols: list[Vec], v: Vec, model: TangentModel) -> Vec:
    B = Matrix.from_cols(cols, rows=model.inst.dim)
    sol = B.solve(v)
    if sol is None:
        raise NotContained("vector is outside the m block")
    return sol


def _combine_slice_action(model: TangentModel, eta: Vec) -> Matrix:
    coords = model.inst.gm.coords_of(eta)
    if coords is None:
        raise NotContained("eta must lie in g_m")
    return model.inst.slice_rep.combine(coords)


def slice_momentum(model: TangentModel, nu_tilde: Vec) -> Vec:
    """Momentum of the h_m-action on NH1 at nu_tilde, in h_m* coordinates.

    Evaluates the three-term closed formula

        1/2 <(ad*_x)^2 mu, eta> + <-ad*_b f(w), eta>
            + 1/2 omega_N1(eta.nu, nu)

    for every h_m basis vector; momentum_formula_check compares it with the
    direct definition.  With h_m = 0 the result is the zero covector in a
    zero-dimensional dual.
    """
    chain = model.chain
    L = model.inst.algebra
    ds, db, dn1 = chain.s.dim, chain.b.dim, model.slice_dim
    if len(nu_tilde) != ds + 2 * db + dn1:
        raise ValueError("nu_tilde must be given in NH1 block coordinates")
    hm_vectors = chain.h_m.basis_vectors()
    if not hm_vectors:
        return ()

    x_s = nu_tilde[:ds]
    c_b = nu_tilde[ds:ds + db]
    w = nu_tilde[ds + db:ds + 2 * db]
    nu = nu_tilde[ds + 2 * db:]

    x = chain.s.basis.apply(x_s)
    bvec = chain.b.basis.apply(c_b)
    fw = tuple([ZERO] * chain.p.dim) + tuple(w)  # f(w) in m* coordinates
    quad = L.coad_apply(x, L.coad_apply(x, model.inst.mu))
    m_cols = [model.mn_basis.col(j) for j in range(model.dim_m)]

    values = []
    for eta in hm_vectors:
        term1 = Fraction(1, 2) * dot(quad, eta)

        br = L.bracket(bvec, eta)
        br_m = _coords_in_columns(m_cols, br, model) if model.dim_m else ()
        term2 = -dot(fw, br_m) if model.dim_m else ZERO

        A_eta = _combine_slice_action(model, eta)
        # omega(Av, v) with our Gram convention is (Av)^T G v.
        term3 = Fraction(1, 2) * dot(A_eta.apply(nu),
                                     model.inst.slice_rep.omega.gram.apply(nu))
        values.append(term1 + term2 + term3)
    return tuple(values)


def momentum_formula_check(decomp: WittDecompositionH, model: TangentModel,
                           samples: Sequence[Vec]) -> Check:
    """momentum.formula_equals_direct: on every sample nu_tilde, the closed
    formula of slice_momentum equals the definition
    1/2 omega_NH1(eta . nu_tilde, nu_tilde) for each h_m basis vector eta."""
    gram = decomp.form.gram
    ok = all(slice_momentum(model, v)
             == tuple(Fraction(1, 2) * dot(A.apply(v), gram.apply(v))
                      for A in decomp.eta_actions)
             for v in samples)
    return Check("momentum.formula_equals_direct", ok,
                 f"{len(samples)} samples")


def slice_momentum_forms(decomp: WittDecompositionH) -> tuple[Matrix, ...]:
    """The momentum as quadratic forms: one Gram matrix per h_m basis vector.

    Each matrix S satisfies <momentum(v), eta> = v^T S v and is symmetric
    outright, because the block action is infinitesimally symplectic for
    the form on NH1 (momentum_forms_check).
    """
    gram = decomp.form.gram
    return tuple((A.transpose() @ gram).scale(Fraction(1, 2))
                 for A in decomp.eta_actions)


def momentum_forms_check(model: TangentModel, forms: tuple[Matrix, ...],
                         samples: Sequence[Vec]) -> Check:
    """momentum.quadratic_forms_symmetric: every form is symmetric and, on
    each sample vector v, v^T S v equals slice_momentum(v)."""
    ok = all(S.is_symmetric() for S in forms) and all(
        slice_momentum(model, v)
        == tuple(dot(v, S.apply(v)) for S in forms)
        for v in samples)
    return Check("momentum.quadratic_forms_symmetric", ok)


def coadjoint_slice_check(chain, inst) -> list[Check]:
    """Checks on the orbit tangent model g/g_mu (coordinates on n).

    The kernel of x -> -(ad*_x mu)|_h on the quotient must be the image of
    a + s, and the image of s must complement the h_alpha orbit inside it.
    """
    n_vectors = (chain.a.basis_vectors() + chain.s.basis_vectors()
                 + chain.ntilde.basis_vectors() + chain.r.basis_vectors())
    dim_n = len(n_vectors)
    rows = []
    for eta in inst.h.basis_vectors():
        k_eta = inst.chu.gram.apply(eta)
        rows.append(tuple(-dot(v, k_eta) for v in n_vectors))
    constraint = Matrix.from_rows(rows, cols=dim_n)
    ker = kernel(constraint)

    da, dssz = chain.a.dim, chain.s.dim
    a_image = Subspace.span(dim_n, [unit_vec(dim_n, i) for i in range(da)])
    s_image = Subspace.span(dim_n, [unit_vec(dim_n, da + i) for i in range(dssz)])
    expected = sum_spaces(a_image, s_image) if da + dssz else Subspace.zero(dim_n)

    out = [Check("coadjoint.kernel_is_a_plus_s_orbit", ker == expected)]

    # h_alpha orbit in the quotient: n-components of the h_alpha basis.
    B2 = chain.g_mu.basis.hstack(Matrix.from_cols(n_vectors, rows=inst.dim)) \
        if dim_n else chain.g_mu.basis
    images = []
    for v in chain.h_alpha.basis_vectors():
        coords = B2.solve(v)
        if coords is None:
            raise NotContained("h_alpha vector is outside g_mu + n")
        images.append(tuple(coords[chain.g_mu.dim:]))
    halpha_orbit = Subspace.span(dim_n, images)
    out.append(Check(
        "coadjoint.s_complements_halpha_orbit",
        is_direct_sum([halpha_orbit, s_image])
        and sum_spaces(halpha_orbit, s_image) == ker,
    ))
    return out
