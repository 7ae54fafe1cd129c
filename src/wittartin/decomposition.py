"""Both tangent-space decompositions and the compatible slice.

decompose_G splits the model into T0, T1, N0, N1 for the full algebra;
decompose_H produces the subalgebra counterpart whose slice block is

    NH1 = s*m  +  (b*m + Y_m)  +  N1,

together with the block form on it, the action of h_m on it, and the
quadratic momentum map of that action.  Every block is a span of model
unit vectors, so the constructors return it as a tuple of model coordinate
indices and read its form off the omega submatrix.  They only compute;
every identity they rely on is a named check defined here
(g_decomposition_check, h_decomposition_checks, slice_form_check,
momentum_formula_check, momentum_forms_check), which verify reports and
report.build_report requires.  The decomposition checks build each block
again from its definition (images under the action, coordinate blocks of
m* and N1) and prove the index tuples equal to it.
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
    is_zero_vec,
    kernel,
    sum_spaces,
    unit_vec,
)
from .pointmodel import TangentModel, inf_action
from .splitting import Check


# A Witt block is the span of the model unit vectors at these indices.
Indices = tuple[int, ...]
# The model blocks of NH1, in the order of its form and h_m-action.
NH1_ORDER = ("s", "b", "bstar", "N1")


@dataclass(frozen=True)
class WittDecompositionG:
    T0: Indices
    T1: Indices
    N0: Indices
    N1: Indices


@dataclass(frozen=True)
class WittDecompositionH:
    TH0: Indices
    TH1: Indices
    NH0: Indices
    NH1: Indices  # in NH1_ORDER, not ascending
    s_block: Indices
    Xm_block: Indices
    N1_block: Indices
    Ym: Indices
    Zm: Indices
    # The form on NH1 and the action of each h_m basis vector on NH1, both
    # in the block coordinates (s, b, Y_m, N1).
    form: BilinearForm
    eta_actions: tuple[Matrix, ...]


def decompose_G(model: TangentModel) -> WittDecompositionG:
    """T0 = U_p + U_b, T1 = U_a + U_s + U_ntilde + U_r, N0 = R and N1 = V.

    g_decomposition_check proves each block equal to its definition.
    """
    ix = model.indices
    return WittDecompositionG(T0=ix("p", "b"), T1=ix("a", "s", "ntilde", "r"),
                              N0=ix("pstar", "bstar"), N1=ix("N1"))


def decompose_H(model: TangentModel) -> WittDecompositionH:
    """TH0 = U_p + U_a, TH1 = U_ntilde, NH0 = U_r + R_p*,
    NH1 = U_s + U_b + R_b* + V, X_m = U_b + R_b*, Y_m = R_b* and
    Z_m = U_a + U_r, with the form and the h_m-action on NH1.

    h_decomposition_checks proves each block equal to its definition.
    """
    ix = model.indices
    return WittDecompositionH(
        TH0=ix("p", "a"), TH1=ix("ntilde"), NH0=ix("r", "pstar"),
        NH1=ix(*NH1_ORDER), s_block=ix("s"), Xm_block=ix("b", "bstar"),
        N1_block=ix("N1"), Ym=ix("bstar"), Zm=ix("a", "r"),
        form=slice_form(model),
        eta_actions=tuple(_eta_action_on_nh1(model, eta)
                          for eta in model.chain.h_m.basis_vectors()),
    )


def _image_under_action(model: TangentModel, space: Subspace) -> Subspace:
    return Subspace.span(model.total_dim,
                         [inf_action(model, v) for v in space.basis_vectors()])


def _cross_gram(model: TangentModel, U: Subspace, V: Subspace) -> Matrix:
    return U.basis.transpose() @ model.omega.gram @ V.basis


def _unlike_definition(decomp, definitions: dict[str, Subspace],
                       model: TangentModel) -> str | None:
    """The first block whose coordinate span is not its definition."""
    return next((name for name, space in definitions.items()
                 if model.unit_span(getattr(decomp, name)) != space), None)


def g_decomposition_check(decomp: WittDecompositionG,
                          model: TangentModel) -> Check:
    """wittG.all_assertions: each block is its definition, and the twelve
    identities of the G-side split hold for the defined blocks.

    T0 and T1 are defined as the images of m and n under the action, N0 and
    N1 as the R and V coordinate blocks.  The detail names the first
    identity that fails.
    """
    chain = model.chain
    d = {"T0": _image_under_action(model, chain.m_space),
         "T1": _image_under_action(model, chain.n_space),
         "N0": model.unit_span(model.indices("pstar", "bstar")),
         "N1": model.unit_span(model.indices("N1"))}
    unlike = _unlike_definition(decomp, d, model)
    T0, T1, N0, N1 = d.values()
    omega = model.omega
    T0N0 = sum_spaces(T0, N0)
    identities = (
        (f"{unlike or 'each block'} is its definition",
         lambda: unlike is None),
        ("T0 + T1 + N0 + N1 is direct",
         lambda: is_direct_sum([T0, T1, N0, N1])),
        ("T0 + T1 + N0 + N1 is the whole model",
         lambda: sum_spaces(T0, T1, N0, N1)
         == Subspace.full(model.total_dim)),
        ("T0 + N1 is ker dphi_G",
         lambda: sum_spaces(T0, N1) == model.ker_dphi_G),
        ("T1 is omega-orthogonal to N1",
         lambda: _cross_gram(model, T1, N1).is_zero()),
        ("T1 is omega-orthogonal to T0 + N0",
         lambda: _cross_gram(model, T1, T0N0).is_zero()),
        ("N1 is omega-orthogonal to T0 + N0",
         lambda: _cross_gram(model, N1, T0N0).is_zero()),
        ("T0 is isotropic", lambda: gram_on(omega, T0).is_zero()),
        ("N0 is isotropic", lambda: gram_on(omega, N0).is_zero()),
        ("dim T0 equals dim N0", lambda: T0.dim == N0.dim),
        ("T0 + N0 is symplectic",
         lambda: gram_on(omega, T0N0).rank() == T0N0.dim),
        ("the form on T1 is the Chu pairing of the n basis",
         lambda: gram_on(omega, T1) == _chu_on_n(model)),
        ("the form on N1 is omega_N1",
         lambda: gram_on(omega, N1) == model.inst.slice_rep.omega.gram),
    )
    broken = next((name for name, holds in identities if not holds()), None)
    return Check("wittG.all_assertions", broken is None,
                 "" if broken is None else f"fails: {broken}")


def _chu_on_n(model: TangentModel) -> Matrix:
    # T1's canonical basis vectors are the model units at the n positions,
    # which correspond to the concatenated (a, s, ntilde, r) columns.
    N = Matrix.from_cols(
        [model.mn_basis.col(i) for i in model.indices("a", "s", "ntilde", "r")],
        rows=model.inst.dim)
    return N.transpose() @ model.inst.chu.gram @ N


def _h_constraint_rows(inst, n_vectors: Sequence[Vec]) -> list[Vec]:
    """One row per h basis vector eta: z -> -<mu, [z, eta]> = -z . K eta over
    the n vectors, with K the Chu Gram matrix."""
    rows = []
    for eta in inst.h.basis_vectors():
        k_eta = inst.chu.gram.apply(eta)
        rows.append(tuple(-dot(z, k_eta) for z in n_vectors))
    return rows


def eq_M_subspace(model: TangentModel) -> Subspace:
    """The subspace M of T1 + N0, computed directly from its definition:

        M = { z_M(m) + w : -ad*_z mu + f(w) annihilates h }.

    This is the independent route against which the constructive identity
    ker dphi_H = ker dphi_G + M is checked.
    """
    n_indices = model.indices("a", "s", "ntilde", "r")
    local = n_indices + model.indices("pstar", "bstar")

    n_cols = [model.mn_basis.col(i) for i in n_indices]  # U index == mn column
    rows = [
        n_row + tuple(dot(model.dual_row(model.gm_dim + j), eta)
                      for j in range(model.dim_m))
        for n_row, eta in zip(_h_constraint_rows(model.inst, n_cols),
                              model.inst.h.basis_vectors())]
    constraint = Matrix.from_rows(rows, cols=len(local))
    ker = kernel(constraint)
    vectors = [tuple(dict(zip(local, c)).get(i, ZERO)
                     for i in range(model.total_dim))
               for c in ker.basis_vectors()]
    return Subspace.span(model.total_dim, vectors)


def h_decomposition_checks(decomp: WittDecompositionH,
                           model: TangentModel) -> list[Check]:
    """The seven identity groups wittH.1-7 of the H-side decomposition.

    wittH.1 also proves each block equal to its definition: images of
    h_alpha, ntilde, s, b, a and r under the action, and the R_p*, R_b* and
    V coordinate blocks.  wittH.2-7 run on the defined blocks.
    """
    chain = model.chain
    chu = model.inst.chu
    full = Subspace.full(model.total_dim)
    out: list[Check] = []

    def record(name, passed, detail=""):
        out.append(Check(name, passed, detail))

    def image(space):
        return _image_under_action(model, space)

    s_block, a_block, r_block = image(chain.s), image(chain.a), image(chain.r)
    Ym = model.unit_span(model.indices("bstar"))
    Xm = sum_spaces(image(chain.b), Ym)
    N1_block = model.unit_span(model.indices("N1"))
    d = {"TH0": image(chain.h_alpha), "TH1": image(chain.ntilde),
         "NH0": sum_spaces(model.unit_span(model.indices("pstar")), r_block),
         "NH1": sum_spaces(s_block, Xm, N1_block),
         "s_block": s_block, "Xm_block": Xm, "N1_block": N1_block,
         "Ym": Ym, "Zm": sum_spaces(a_block, r_block)}
    TH0, TH1, NH0, NH1 = d["TH0"], d["TH1"], d["NH0"], d["NH1"]

    unlike = _unlike_definition(decomp, d, model)
    record("wittH.1_direct_sum",
           unlike is None
           and is_direct_sum([TH0, TH1, NH0, NH1])
           and sum_spaces(TH0, TH1, NH0, NH1) == full,
           "" if unlike is None else f"{unlike} is not its definition")
    record("wittH.2_TH0_NH1_is_ker_dphiH",
           sum_spaces(TH0, NH1) == model.ker_dphi_H)

    M = eq_M_subspace(model)
    kerG = model.ker_dphi_G
    qm = sum_spaces(a_block, s_block)
    record("wittH.3_ker_split_with_M",
           is_direct_sum([kerG, M])
           and sum_spaces(kerG, M) == model.ker_dphi_H
           and M == sum_spaces(qm, Ym))

    TH0NH0 = sum_spaces(TH0, NH0)
    ortho = (
        _cross_gram(model, TH1, NH1).is_zero()
        and _cross_gram(model, TH1, TH0NH0).is_zero()
        and _cross_gram(model, NH1, TH0NH0).is_zero()
    )
    lagrangian = (
        gram_on(model.omega, TH0).is_zero()
        and gram_on(model.omega, NH0).is_zero()
        and TH0.dim == NH0.dim
        and gram_on(model.omega, TH0NH0).rank() == TH0NH0.dim
    )
    record("wittH.4_orthogonality_and_lagrangian", ortho and lagrangian)

    nondeg = all(
        gram_on(model.omega, space).rank() == space.dim
        for space in (s_block, Xm, NH1, d["Zm"])
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
    """Form on NH1 in the block basis (s, b, Y_m, N1): the omega submatrix on
    the NH1 indices, in that order.

    slice_form_check proves it block diagonal with the expected blocks.
    """
    return BilinearForm(model.omega_on(model.indices(*NH1_ORDER)))


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

    for name, offset in (("s", 0), ("b", ds)):
        block = model.blocks[name]
        for i in block:
            coords = _basis_coords(
                model, L.bracket(eta, model.mn_basis.col(i)),
                range(model.gm_dim + block.start, model.gm_dim + block.stop),
                "block is not ad(gm)-stable")
            cols.append([ZERO] * offset + list(coords)
                        + [ZERO] * (size - offset - len(coords)))

    # -ad*_eta on m*, restricted to the b* coordinates.
    ad_on_m = [_m_coords(model, L.bracket(eta, model.mn_basis.col(j)))
               for j in range(model.dim_m)]
    for j in range(chain.p.dim, model.dim_m):
        # (eta . rho_j)_k = -<rho_j, [eta, m_k]> for the dual basis rho_j.
        new = [-ad_on_m[k][j] for k in range(model.dim_m)]
        if any(new[t] != 0 for t in range(chain.p.dim)):
            raise NotContained("coadjoint action leaves the b* block")
        cols.append([ZERO] * (ds + db) + new[chain.p.dim:] + [ZERO] * dn1)

    A_eta = _combine_slice_action(model, eta)
    cols.extend([ZERO] * (ds + 2 * db) + list(col) for col in A_eta.columns())

    return Matrix.from_cols(cols, rows=size)


def _basis_coords(model: TangentModel, x: Vec, cols: range,
                  outside: str) -> Vec:
    """Coordinates of x on the columns cols of the (g_m, m, n) basis of g;
    raises NotContained(outside) when x has a component on another column."""
    coords = model.g_coords(x)
    if not (is_zero_vec(coords[:cols.start])
            and is_zero_vec(coords[cols.stop:])):
        raise NotContained(outside)
    return coords[cols.start:cols.stop]


def _m_coords(model: TangentModel, x: Vec) -> Vec:
    """Coordinates of x in the (p, b) basis of m."""
    return _basis_coords(model, x, range(model.gm_dim,
                                         model.gm_dim + model.dim_m),
                         "vector is outside the m block")


def _combine_slice_action(model: TangentModel, eta: Vec) -> Matrix:
    coords = _basis_coords(model, eta, range(model.gm_dim),
                           "eta must lie in g_m")
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

    values = []
    for eta in hm_vectors:
        term1 = Fraction(1, 2) * dot(quad, eta)

        term2 = -dot(fw, _m_coords(model, L.bracket(bvec, eta)))

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
    constraint = Matrix.from_rows(_h_constraint_rows(inst, n_vectors),
                                  cols=dim_n)
    ker = kernel(constraint)

    da, ds = chain.a.dim, chain.s.dim
    expected = Subspace.span(dim_n, [unit_vec(dim_n, i) for i in range(da + ds)])
    s_image = Subspace.span(dim_n, [unit_vec(dim_n, i)
                                    for i in range(da, da + ds)])

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
