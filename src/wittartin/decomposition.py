"""Both tangent-space decompositions and the compatible slice.

decompose_G splits the model into T0, T1, N0, N1 for the full algebra;
decompose_H produces the subalgebra counterpart whose slice block is

    NH1 = s*m  +  (b*m + Y_m)  +  N1,

together with NH1 as a symplectic representation of h_m, a SliceRep like
N1.  The quadratic momentum of either slice is SliceRep.momentum, defined
once; the paper's closed formula for NH1's is momentum_formula_forms, one
Gram per h_m basis vector, and both momentum checks compare Grams entry by
entry.  Every block is a span of model unit vectors, held as a tuple of
model coordinate indices.  The constructors only compute; every identity
they rely on is a named check defined here, which verify reports and
report.build_report requires.  The decomposition checks build each block
again from its definition (images under the action, coordinate blocks of
m* and N1), prove the index tuples equal to it, and hold both sides'
definitions to one set of Witt-Artin axioms (_witt_artin_axioms).  A block
proven equal to its definition has its unit vectors as canonical basis, so
the statements about the form on a block (wittH.5 and the wittG forms on
T1 and N1) read the omega submatrix on its indices instead of a Gram, and
"X0 + Y0 is symplectic" and wittH.6 test W & W^perp = 0 without one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlin import (
    Matrix,
    Subspace,
    Vec,
    ZERO,
    direct_sum,
    dot,
    gram_on,
    kernel,
    pairing_witness,
    perp_under_form,
    sum_spaces,
)
from .pointmodel import TangentModel, inf_action, isotropy_action
from .splitting import (Check, SliceRep, dim_detail, direct_sum_detail,
                        entry_detail, equality_detail)


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
    # NH1 as a symplectic representation of h_m: the form on NH1 and the
    # action of each h_m basis vector, in the block coordinates (s, b, Y_m,
    # N1); its momentum is the slice momentum (nh1.momentum_forms).
    nh1: SliceRep


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
    Z_m = U_a + U_r, with NH1 as a symplectic representation of h_m.

    h_decomposition_checks proves each block equal to its definition.
    """
    ix = model.indices
    return WittDecompositionH(
        TH0=ix("p", "a"), TH1=ix("ntilde"), NH0=ix("r", "pstar"),
        NH1=ix(*NH1_ORDER), s_block=ix("s"), Xm_block=ix("b", "bstar"),
        N1_block=ix("N1"), Ym=ix("bstar"), Zm=ix("a", "r"),
        nh1=SliceRep(slice_form(model), tuple(
            _eta_action_on_nh1(model, eta)
            for eta in model.chain.h_m.basis_vectors())),
    )


def _image_under_action(model: TangentModel, space: Subspace) -> Subspace:
    return Subspace.span(model.total_dim,
                         [inf_action(model, v) for v in space.basis_vectors()])


def _unlike_definition(decomp, definitions: dict[str, Subspace],
                       model: TangentModel) -> str | None:
    """The first block whose coordinate span is not its definition."""
    return next((name for name, space in definitions.items()
                 if model.unit_span(getattr(decomp, name)) != space), None)


def _witt_artin_axioms(model: TangentModel, ker: Subspace, ker_name: str,
                       blocks: dict[str, Subspace]) -> dict[str, str | None]:
    """The Witt-Artin axioms of a split X0 + X1 + Y0 + Y1 of the model.

    blocks maps the four names to their definition subspaces, in that
    order: the isotropic and symplectic parts of the orbit directions, the
    Lagrangian complement of X0 and the symplectic slice.  For each group
    ("sum", "kernel", "orthogonality", "lagrangian") the result holds the
    first statement that fails, with its witness in parentheses (the basis
    vector, the pair of basis vectors that omega does not pair to zero, or
    the dimensions that disagree), or None.

    The radical of the form on W = X0 + Y0 is W & W^omega, of dimension
    dim W + dim W^omega - dim(W + W^omega); "X0 + Y0 is symplectic" holds
    when it is 0.  The perp's rows are G^T w products over the nonzero
    entries, so no Gram is formed.
    """
    (x0, X0), (x1, X1), (y0, Y0), (y1, Y1) = blocks.items()
    omega, n = model.omega, model.total_dim
    total = sum_spaces(X0, X1, Y0, Y1)
    added = X0.dim + X1.dim + Y0.dim + Y1.dim
    X0Y0 = sum_spaces(X0, Y0)
    split = " + ".join(blocks)

    def witnessed(text: str, witness: str) -> str:
        return witness and f"{text} ({witness})"

    def orthogonal(a: str, A: Subspace, b: str, B: Subspace) -> str:
        w = pairing_witness(omega, A, B)
        return "" if w is None else witnessed(
            f"{a} is isotropic" if a == b else f"{a} is omega-orthogonal to {b}",
            f"{a} basis vector {w[0]} pairs with {b} basis vector {w[1]}")

    def radical(W: Subspace) -> str:
        perp = perp_under_form(omega, W)
        r = W.dim + perp.dim - sum_spaces(W, perp).dim
        return "" if not r else f"the form on it has a {r}-dimensional radical"

    x0y0, x0y1 = f"{x0} + {y0}", f"{x0} + {y1}"
    groups = {
        "sum": (
            lambda: witnessed(f"{split} is direct", "" if total.dim == added
                              else f"the dimensions add to {added}, the sum "
                              f"has dimension {total.dim}"),
            lambda: witnessed(f"{split} is the whole model", "" if total.dim == n
                              else f"the sum has dimension {total.dim}, the "
                              f"model {n}")),
        "kernel": (
            lambda: witnessed(f"{x0y1} is {ker_name}", equality_detail(
                ker, ker_name, sum_spaces(X0, Y1), x0y1)),),
        "orthogonality": (
            lambda: orthogonal(x1, X1, y1, Y1),
            lambda: orthogonal(x1, X1, x0y0, X0Y0),
            lambda: orthogonal(y1, Y1, x0y0, X0Y0)),
        "lagrangian": (
            lambda: orthogonal(x0, X0, x0, X0),
            lambda: orthogonal(y0, Y0, y0, Y0),
            lambda: witnessed(f"dim {x0} equals dim {y0}", dim_detail(
                f"dim {x0}", X0.dim, f"dim {y0}", Y0.dim)),
            lambda: witnessed(f"{x0y0} is symplectic", radical(X0Y0))),
    }
    return {group: next(filter(None, (failure() for failure in statements)),
                        None)
            for group, statements in groups.items()}


def _check(name: str, failure: str | None) -> Check:
    return Check.of(name, "" if failure is None else f"fails: {failure}")


def g_decomposition_check(decomp: WittDecompositionG,
                          model: TangentModel) -> Check:
    """wittG.all_assertions: each block is its definition, the Witt-Artin
    axioms hold for the defined blocks, and T1 and N1 carry the Chu form
    and omega_N1.

    T0 and T1 are defined as the images of m and n under the action, N0 and
    N1 as the R and V coordinate blocks.  The two forms are only reached
    once every block is its definition, so they are the omega submatrices
    on the T1 and N1 indices (both ascending).  The detail names the first
    statement that fails.
    """
    chain = model.chain
    d = {"T0": _image_under_action(model, chain.m_space),
         "T1": _image_under_action(model, chain.n_space),
         "N0": model.unit_span(model.indices("pstar", "bstar")),
         "N1": model.unit_span(model.indices("N1"))}
    unlike = _unlike_definition(decomp, d, model)
    axioms = _witt_artin_axioms(model, model.ker_dphi_G, "ker dphi_G", d)
    forms = (
        ("the form on T1 is the Chu pairing of the n basis",
         lambda: model.omega_on(decomp.T1) == _chu_on_n(model)),
        ("the form on N1 is omega_N1",
         lambda: model.omega_on(decomp.N1) == model.inst.slice_rep.omega),
    )
    failure = (None if unlike is None else f"{unlike} is its definition") \
        or next(filter(None, axioms.values()), None) \
        or next((text for text, holds in forms if not holds()), None)
    return _check("wittG.all_assertions", failure)


def _chu_on_n(model: TangentModel) -> Matrix:
    # T1's canonical basis vectors are the model units at the n positions,
    # which correspond to the concatenated (a, s, ntilde, r) columns.  The
    # product with the Chu Gram is dense on purpose: build_model sums this
    # block sparsely (LieAlgebra.bracket_gram), and this is the second route.
    N = Matrix.from_cols(
        [model.mn_basis.col(i) for i in model.indices("a", "s", "ntilde", "r")],
        rows=model.inst.dim)
    return N.transpose() @ model.inst.chu @ N


def _h_constraint_rows(inst, n_vectors: Sequence[Vec]) -> list[Vec]:
    """One row per h basis vector eta: z -> -<mu, [z, eta]> = -z . K eta over
    the n vectors, with K the Chu Gram matrix."""
    rows = []
    for eta in inst.h.basis_vectors():
        k_eta = inst.chu.apply(eta)
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
    gm = model.gm_dim
    rows = [
        n_row + model.g_coords(eta)[gm:gm + model.dim_m]
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
    V coordinate blocks.  wittH.1, 2 and 4 are the Witt-Artin axioms of the
    defined TH0 + TH1 + NH0 + NH1, and their details name the first
    statement that fails.  wittH.3 splits ker dphi_H with M, built from its
    definition, and names the failing part.  wittH.5 reads the form on the
    s, X_m, NH1 and Z_m index tuples off omega, which needs no Gram once
    wittH.1 has proven them equal to their definitions, and names the first
    degenerate space.  wittH.6 and 7 pair the chain's a and r under the Chu
    form; wittH.6 tests r & a^perp = 0, the square pairing's right kernel,
    and says whether the dimensions or the pairing are at fault.
    """
    chain = model.chain
    chu = model.inst.chu
    out: list[Check] = []

    def record(name, failure):
        out.append(Check.of(name, failure))

    def image(space):
        return _image_under_action(model, space)

    s_block, a_block, r_block = image(chain.s), image(chain.a), image(chain.r)
    Ym = model.unit_span(model.indices("bstar"))
    Xm = sum_spaces(image(chain.b), Ym)
    N1_block = model.unit_span(model.indices("N1"))
    d = {"TH0": image(model.inst.h_alpha), "TH1": image(chain.ntilde),
         "NH0": sum_spaces(model.unit_span(model.indices("pstar")), r_block),
         "NH1": sum_spaces(s_block, Xm, N1_block),
         "s_block": s_block, "Xm_block": Xm, "N1_block": N1_block,
         "Ym": Ym, "Zm": sum_spaces(a_block, r_block)}

    unlike = _unlike_definition(decomp, d, model)
    axioms = _witt_artin_axioms(
        model, model.ker_dphi_H, "ker dphi_H",
        {name: d[name] for name in ("TH0", "TH1", "NH0", "NH1")})
    if unlike is None:
        out.append(_check("wittH.1_direct_sum", axioms["sum"]))
    else:
        record("wittH.1_direct_sum", f"{unlike} is not its definition")
    out.append(_check("wittH.2_TH0_NH1_is_ker_dphiH", axioms["kernel"]))

    M = eq_M_subspace(model)
    record("wittH.3_ker_split_with_M",
           direct_sum_detail(model.ker_dphi_H, "ker dphi_H",
                             {"ker dphi_G": model.ker_dphi_G, "M": M})
           or equality_detail(M, "M", sum_spaces(a_block, s_block, Ym),
                              "a + s + Y_m"))

    out.append(_check("wittH.4_orthogonality_and_lagrangian",
                      axioms["orthogonality"] or axioms["lagrangian"]))

    # The omega submatrix on the s, X_m and N1 indices: its leading
    # diagonal blocks are the forms on s and X_m, and the whole is the form
    # on NH1.
    nh1 = model.omega_on(decomp.s_block + decomp.Xm_block + decomp.N1_block)
    ds, dx = len(decomp.s_block), len(decomp.Xm_block)
    spaces = (
        ("s_block", nh1.submatrix(range(ds), range(ds)), ds),
        ("Xm", nh1.submatrix(range(ds, ds + dx), range(ds, ds + dx)), dx),
        ("NH1", nh1, nh1.rows),
        ("Zm", model.omega_on(decomp.Zm), len(decomp.Zm)))
    record("wittH.5_symplectic_blocks",
           next((f"{name} is degenerate under omega"
                 for name, gram, dim in spaces if gram.rank() != dim), ""))

    if chain.a.dim != chain.r.dim:
        pairing = "dim a != dim r"
    elif direct_sum(chain.r, perp_under_form(chu, chain.a)) is None:
        pairing = "the Chu pairing of a with r is degenerate"
    else:
        pairing = ""
    record("wittH.6_a_r_pairing_nondegenerate", pairing)
    w = pairing_witness(chu, chain.a, chain.a)
    record("wittH.7_a_orbit_lagrangian_in_Zm",
           "" if w is None else f"a basis vector {w[0]} pairs with a basis "
           f"vector {w[1]} under the Chu form")
    return out


def slice_form(model: TangentModel) -> Matrix:
    """Gram matrix of the form on NH1 in the block basis (s, b, Y_m, N1):
    the omega submatrix on the NH1 indices, in that order.

    slice_form_check proves it block diagonal with the expected blocks.
    """
    return model.omega_on(model.indices(*NH1_ORDER))


def _on_nh1(s: Matrix, by: Matrix, n1: Matrix, yb: Matrix) -> Matrix:
    """The matrix on NH1 in the block coordinates (s, b, Y_m, N1) with the
    diagonal blocks s and n1, by in the b x Y_m and yb in the Y_m x b
    block, and zeros elsewhere."""
    Z, ds, db, dn = Matrix.zeros, s.rows, by.rows, n1.rows
    return Matrix.from_blocks(((s, Z(ds, 2 * db + dn)),
                               (Z(db, ds + db), by, Z(db, dn)),
                               (Z(db, ds), yb, Z(db, db + dn)),
                               (Z(dn, ds + 2 * db), n1)))


def slice_form_check(decomp: WittDecompositionH, model: TangentModel) -> Check:
    """sliceform.block_diagonal: the form on NH1 is the Chu form on s, the
    canonical pairing on b + Y_m and omega_N1 on N1, with no cross terms.
    A failure names the first entry that differs from that block form."""
    I = Matrix.identity(model.chain.b.dim)
    expected = _on_nh1(gram_on(model.inst.chu, model.chain.s), I,
                       model.inst.slice_rep.omega, -I)
    return Check.of("sliceform.block_diagonal",
                    entry_detail(decomp.nh1.omega, expected, "the slice form"))


def _eta_action_on_nh1(model: TangentModel, eta: Vec) -> Matrix:
    """Matrix of the h_m-action on NH1 in the block coordinates (s, b, Y_m,
    N1): the isotropy action's submatrix on the NH1 indices, the way
    slice_form is omega's.  NH1 is stable under the action because s, b and
    m are ad(g_m)-stable (chain.ad_gm_invariance)."""
    nh1 = model.indices(*NH1_ORDER)
    return isotropy_action(model, eta).submatrix(nh1, nh1)


def _symmetric_part(S: Matrix) -> Matrix:
    return (S + S.transpose()).scale(Fraction(1, 2))


def momentum_formula_forms(model: TangentModel) -> tuple[Matrix, ...]:
    """The paper's closed formula for the momentum of the h_m-action on NH1,

        1/2 <(ad*_x)^2 mu, eta> + <-ad*_b f(w), eta> + <Phi_N1(nu), eta>

    at nu_tilde = (x, b, w, nu), as one symmetric Gram Q per h_m basis
    vector eta in the block coordinates (s, b, Y_m, N1): the formula is
    nu_tilde^T Q nu_tilde.  The s block polarises the first term,
    1/4 (<ad*_{s_i} ad*_{s_j} mu, eta> + (i <-> j)).  [b_i, eta] lies in m
    (chain.ad_gm_invariance), so the second term pairs w with its
    m*-coordinates: the b x Y_m block and its transpose are -1/2 of them.
    The N1 block is the momentum form of the slice action combined from c,
    the g_m coordinates of eta: sum_t c_t S_t over the instance's forms.
    """
    chain, inst = model.chain, model.inst
    L, n1 = inst.algebra, inst.slice_rep
    s_vecs = chain.s.basis_vectors()
    twice = [[L.coad_apply(x, L.coad_apply(y, inst.mu)) for y in s_vecs]
             for x in s_vecs]
    y_coords = slice(model.gm_dim + chain.p.dim, model.gm_dim + model.dim_m)
    forms = []
    for eta in chain.h_m.basis_vectors():
        quad = Matrix.from_rows([[dot(q, eta) for q in row] for row in twice],
                                cols=len(s_vecs))
        pair = Matrix.from_rows(
            [model.g_coords(L.bracket(b, eta))[y_coords]
             for b in chain.b.basis_vectors()],
            cols=chain.b.dim).scale(Fraction(-1, 2))
        c = model.g_coords(eta)[:model.gm_dim]
        forms.append(_on_nh1(_symmetric_part(quad).scale(Fraction(1, 2)),
                             pair, n1.momentum_form(n1.combine(c)),
                             pair.transpose()))
    return tuple(forms)


def slice_momentum(model: TangentModel, nu_tilde: Vec) -> Vec:
    """Momentum of the h_m-action on NH1 at nu_tilde, in h_m* coordinates:
    nu_tilde^T Q nu_tilde on the forms of momentum_formula_forms.  With
    h_m = 0 it is the zero covector in a zero-dimensional dual."""
    chain = model.chain
    if len(nu_tilde) != chain.s.dim + 2 * chain.b.dim + model.slice_dim:
        raise ValueError("nu_tilde must be given in NH1 block coordinates")
    return tuple(dot(nu_tilde, Q.apply(nu_tilde))
                 for Q in momentum_formula_forms(model))


def _forms_check(name: str, got: Sequence[Matrix],
                 expected: Sequence[Matrix], what: str) -> Check:
    """got equals expected form by form, entry by entry; a failure names
    the counts, or the first differing entry (i, j) of the first differing
    form t."""
    if len(got) != len(expected):
        return Check.of(name, f"{len(got)} {what}s, expected {len(expected)}")
    return Check.of(name, next(filter(None, (
        entry_detail(G, E, f"{what} {t}")
        for t, (G, E) in enumerate(zip(got, expected)))), ""))


def momentum_formula_check(decomp: WittDecompositionH,
                           closed: Sequence[Matrix]) -> Check:
    """momentum.formula_equals_direct: the closed formula equals the
    definition 1/2 omega_NH1(eta . nu_tilde, nu_tilde) as a quadratic form,
    that is, each form of closed (momentum_formula_forms) is the symmetric
    part of decomp.nh1's momentum form for the same eta."""
    return _forms_check(
        "momentum.formula_equals_direct", closed,
        tuple(map(_symmetric_part, decomp.nh1.momentum_forms)), "formula form")


def slice_momentum_forms(decomp: WittDecompositionH) -> tuple[Matrix, ...]:
    """decomp.nh1's forms S, one per eta: <momentum(v), eta> = v^T S v."""
    return decomp.nh1.momentum_forms


def momentum_forms_check(closed: Sequence[Matrix],
                         forms: tuple[Matrix, ...]) -> Check:
    """momentum.quadratic_forms_symmetric: every form is the symmetric Gram
    of the closed formula (closed, from momentum_formula_forms), entry by
    entry.  It holds because the block action is infinitesimally
    symplectic for the form on NH1."""
    return _forms_check("momentum.quadratic_forms_symmetric", forms,
                        closed, "slice momentum form")


def coadjoint_slice_check(model: TangentModel) -> list[Check]:
    """Checks on the orbit tangent model g/g_mu (coordinates on n).

    The kernel of x -> -(ad*_x mu)|_h on the quotient must be the image of
    a + s, and the image of s must complement the h_alpha orbit inside it.
    Because g = g_mu + n, the quotient coordinates of a vector are its n
    coordinates in the (g_m, m, n) basis.
    """
    chain = model.chain
    n_first = model.gm_dim + model.dim_m
    n_vectors = model.mn_basis.columns()[model.dim_m:]
    dim_n = model.dim_n
    constraint = Matrix.from_rows(_h_constraint_rows(model.inst, n_vectors),
                                  cols=dim_n)
    ker = kernel(constraint)

    da, ds = chain.a.dim, chain.s.dim
    expected = Subspace.coordinate(dim_n, range(da + ds))
    s_image = Subspace.coordinate(dim_n, range(da, da + ds))
    halpha_orbit = Subspace.span(
        dim_n, [model.g_coords(v)[n_first:]
                for v in model.inst.h_alpha.basis_vectors()])
    total = direct_sum(halpha_orbit, s_image)
    detail = ("the h_alpha orbit and the s orbit do not sum directly"
              if total is None else equality_detail(
                  total, "h_alpha orbit + s orbit", ker, "the kernel"))
    return [
        Check.of("coadjoint.kernel_is_a_plus_s_orbit", equality_detail(
            ker, "the kernel", expected, "the a + s orbit")),
        Check("coadjoint.s_complements_halpha_orbit", not detail, detail),
    ]
