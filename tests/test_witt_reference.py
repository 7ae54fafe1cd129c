"""The Witt-Artin axioms and the h_m-action on NH1 against the formulations
they replaced.

decomposition._witt_artin_axioms states the axioms of both decompositions
once; the reference below is the per-statement identity list that
wittG.all_assertions held, written with plain Gram entries and stacked
ranks, and it is compared, each failing statement with its witness, on
Hypothesis-drawn block subspaces of the catalog models.  The axioms decide
"X0 + Y0 is symplectic" as W & W^omega = 0 for W = X0 + Y0, which is
compared with the full Gram of W on the catalog models and the corpus
models with nonzero a and r.  wittH.6
decides the a x r Chu pairing as r & a^perp = 0, which is compared with the
rank of the pairing matrix on drawn subspaces of the corpus algebras.  wittH.5
and the wittG forms on T1 and N1 read omega submatrices on the blocks'
index tuples; their verdicts and details are compared on the corpus with
the Grams of the definition bases that they replaced.
decomposition._eta_action_on_nh1 reads the h_m-action off
the model's isotropy action; the reference builds it block by block from
brackets, as the package used to, and the two are compared on every corpus
instance with h_m != 0.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from corpus import build_corpus
from wittartin.catalog import build_example
from wittartin.decomposition import (
    NH1_ORDER,
    _chu_on_n,
    _eta_action_on_nh1,
    _image_under_action,
    _witt_artin_axioms,
    decompose_G,
    decompose_H,
    g_decomposition_check,
    h_decomposition_checks,
)
from wittartin.exactlin import (
    Matrix,
    Subspace,
    ZERO,
    dot,
    gram_on,
    intersect,
    is_zero_vec,
    sum_spaces,
    unit_vec,
)
from wittartin.instancefile import from_dict
from wittartin.pointmodel import build_model
from wittartin.splitting import build_chain

F = Fraction


def _model(inst):
    return build_model(build_chain(inst))


# ---------------------------------------------------------------------------
# The h_m-action on NH1, block by block.

def _basis_coords(model, x, cols):
    coords = model.g_coords(x)
    assert is_zero_vec(coords[:cols.start]) and is_zero_vec(coords[cols.stop:])
    return coords[cols.start:cols.stop]


def ref_eta_action_on_nh1(model, eta):
    """eta acts by the bracket on the s and b blocks, by the negative
    coadjoint action on Y_m inside m*, and by the slice representation on
    N1."""
    L = model.inst.algebra
    chain = model.chain
    ds, db, dn1 = chain.s.dim, chain.b.dim, model.slice_dim
    size = ds + 2 * db + dn1
    gm, dim_m = model.gm_dim, model.dim_m
    cols = []
    for name, offset in (("s", 0), ("b", ds)):
        block = model.blocks[name]
        for i in block:
            coords = _basis_coords(
                model, L.bracket(eta, model.mn_basis.col(i)),
                range(gm + block.start, gm + block.stop))
            cols.append([ZERO] * offset + list(coords)
                        + [ZERO] * (size - offset - len(coords)))
    ad_on_m = [_basis_coords(model, L.bracket(eta, model.mn_basis.col(j)),
                             range(gm, gm + dim_m))
               for j in range(dim_m)]
    for j in range(chain.p.dim, dim_m):
        # (eta . rho_j)_k = -<rho_j, [eta, m_k]> for the dual basis rho_j.
        new = [-ad_on_m[k][j] for k in range(dim_m)]
        assert not any(new[:chain.p.dim])
        cols.append([ZERO] * (ds + db) + new[chain.p.dim:] + [ZERO] * dn1)
    A = model.inst.slice_rep.combine(_basis_coords(model, eta, range(gm)))
    cols.extend([ZERO] * (ds + 2 * db) + list(col) for col in A.columns())
    return Matrix.from_cols(cols, rows=size)


def test_eta_action_is_the_block_by_block_action():
    insts = [inst for inst in build_corpus()
             if intersect(inst.h, inst.gm).dim > 0]
    insts.append(from_dict(build_example("so3xso3-diagonal")))
    assert len(insts) > 20
    for inst in insts:
        model = _model(inst)
        etas = model.chain.h_m.basis_vectors()
        assert etas
        for eta in etas:
            assert _eta_action_on_nh1(model, eta) \
                == ref_eta_action_on_nh1(model, eta)


# ---------------------------------------------------------------------------
# The Witt-Artin axioms, one statement at a time.

GROUPS = ("sum", "kernel", "orthogonality", "lagrangian")


def radical_dim(G, U):
    """The dimension of the radical of the form with Gram matrix G on the
    span of the independent vectors U: their number less the rank of their
    plain Gram."""
    gram = [[dot(u, G.apply(v)) for v in U] for u in U]
    return len(U) - Matrix.from_rows(gram, cols=len(U)).rank()


def nondegenerate(G, U):
    """The form with Gram matrix G is nondegenerate on the span of the
    independent vectors U: their plain Gram has full rank."""
    return radical_dim(G, U) == 0


def ref_axioms(model, ker, ker_name, names, spaces):
    """The first failing statement of each group, from the identity list
    of wittG.all_assertions with T0, T1, N0, N1 renamed, and its witness
    where it has one: the first pair of canonical basis vectors with a
    nonzero omega entry, the first basis vector of one side of the kernel
    statement that the other side does not contain, or the dimensions, from
    ranks, that disagree."""
    t0, t1, n0, n1 = names
    T0, T1, N0, N1 = (s.basis_vectors() for s in spaces)
    G, n = model.omega, model.total_dim

    def pairing(a, U, b, V):
        U, V = (Subspace.span(n, W).basis_vectors() for W in (U, V))
        return next((f"{a} basis vector {i} pairs with {b} basis vector {j}"
                     for i, u in enumerate(U) for j, v in enumerate(V)
                     if dot(u, G.apply(v)) != 0), None)

    def outside(a, A, b, B):
        return next((f"basis vector {i} of {a} is not in {b}"
                     for i, v in enumerate(A.basis_vectors())
                     if not B.contains(v)), None)

    def unless(holds, witness):
        return None if holds else witness

    def symplectic(U):
        r = radical_dim(G, U)
        return unless(r == 0, f"the form on it has a {r}-dimensional radical")

    rank_all = Matrix.from_cols(T0 + T1 + N0 + N1, rows=n).rank()
    added = len(T0 + T1 + N0 + N1)
    split = f"{t0} + {t1} + {n0} + {n1}"
    t0n0, t0n1 = f"{t0} + {n0}", f"{t0} + {n1}"
    X = Subspace.span(n, T0 + N1)
    # Each identity gives None when it holds, else its witness ("" for
    # none).
    identities = (
        ("sum", f"{split} is direct",
         lambda: unless(rank_all == added, f"the dimensions add to {added}, "
                        f"the sum has dimension {rank_all}")),
        ("sum", f"{split} is the whole model",
         lambda: unless(rank_all == added == n, f"the sum has dimension "
                        f"{rank_all}, the model {n}")),
        ("kernel", f"{t0n1} is {ker_name}",
         lambda: outside(ker_name, ker, t0n1, X)
         or outside(t0n1, X, ker_name, ker)),
        ("orthogonality", f"{t1} is omega-orthogonal to {n1}",
         lambda: pairing(t1, T1, n1, N1)),
        ("orthogonality", f"{t1} is omega-orthogonal to {t0n0}",
         lambda: pairing(t1, T1, t0n0, T0 + N0)),
        ("orthogonality", f"{n1} is omega-orthogonal to {t0n0}",
         lambda: pairing(n1, N1, t0n0, T0 + N0)),
        ("lagrangian", f"{t0} is isotropic", lambda: pairing(t0, T0, t0, T0)),
        ("lagrangian", f"{n0} is isotropic", lambda: pairing(n0, N0, n0, N0)),
        ("lagrangian", f"dim {t0} equals dim {n0}",
         lambda: unless(len(T0) == len(N0),
                        f"dim {t0} is {len(T0)}, dim {n0} is {len(N0)}")),
        ("lagrangian", f"{t0n0} is symplectic",
         lambda: symplectic(Subspace.span(n, T0 + N0).basis_vectors())),
    )
    first = dict.fromkeys(GROUPS)
    for group, text, witness in identities:
        if first[group] is None and (w := witness()) is not None:
            first[group] = f"{text} ({w})" if w else text
    return first


CATALOG = ("so3-zero", "so3-generic", "so3-collinear", "so3xso3-diagonal",
           "torus")
MODELS = {name: _model(from_dict(build_example(name))) for name in CATALOG}
CORPUS_MODELS = [_model(inst) for inst in build_corpus()]
# The corpus models whose TH0 and NH0 carry nonzero a and r blocks.
AR_MODELS = [m for m in CORPUS_MODELS if m.chain.a.dim and m.chain.r.dim]
MODEL_BLOCKS = ("p", "b", "a", "s", "ntilde", "r", "pstar", "bstar", "N1")
SPLITS = {
    "G": (("T0", "T1", "N0", "N1"),
          (("p", "b"), ("a", "s", "ntilde", "r"), ("pstar", "bstar"),
           ("N1",))),
    "H": (("TH0", "TH1", "NH0", "NH1"),
          (("p", "a"), ("ntilde",), ("r", "pstar"), NH1_ORDER)),
}


@st.composite
def drawn_split(draw):
    """A catalog model, a side, and four block subspaces: each the span of
    some of the model's coordinate blocks (the side's true split with
    probability about one half) plus up to one drawn vector."""
    model = MODELS[draw(st.sampled_from(CATALOG))]
    side = draw(st.sampled_from(sorted(SPLITS)))
    names, true_blocks = SPLITS[side]
    n = model.total_dim
    spaces = []
    for k in range(4):
        if draw(st.booleans()):
            blocks = true_blocks[k]
        else:
            blocks = draw(st.lists(st.sampled_from(MODEL_BLOCKS),
                                   max_size=3, unique=True))
        vectors = [unit_vec(n, i) for i in model.indices(*blocks)]
        vectors += draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n)
            .map(lambda v: tuple(map(F, v))), max_size=1))
        spaces.append(Subspace.span(n, vectors))
    ker = model.ker_dphi_G if side == "G" else model.ker_dphi_H
    return model, ker, f"ker dphi_{side}", names, spaces


@settings(max_examples=150, deadline=None)
@given(drawn_split())
def test_axioms_name_the_first_failing_statement_of_each_group(case):
    model, ker, ker_name, names, spaces = case
    got = _witt_artin_axioms(model, ker, ker_name, dict(zip(names, spaces)))
    assert got == ref_axioms(model, ker, ker_name, names, spaces)


def test_true_splits_satisfy_every_axiom():
    for model in MODELS.values():
        for side, (names, blocks) in SPLITS.items():
            spaces = [model.unit_span(model.indices(*b)) for b in blocks]
            ker = model.ker_dphi_G if side == "G" else model.ker_dphi_H
            got = _witt_artin_axioms(model, ker, f"ker dphi_{side}",
                                     dict(zip(names, spaces)))
            assert got == dict.fromkeys(GROUPS)


# ---------------------------------------------------------------------------
# "X0 + Y0 is symplectic" as W & W^omega = 0.

# Isotropic blocks of every catalog model: T0, N0, TH0 and NH0.
ISOTROPIC = (("p", "b"), ("pstar", "bstar"), ("p", "a"), ("r", "pstar"))
LAGRANGIAN_NAMES = ("X0", "X1", "Y0", "Y1")


def _lagrangian_group(model, X0, Y0):
    zero = Subspace.zero(model.total_dim)
    blocks = dict(zip(LAGRANGIAN_NAMES, (X0, zero, Y0, zero)))
    return _witt_artin_axioms(model, model.ker_dphi_G, "ker dphi_G",
                              blocks)["lagrangian"]


@st.composite
def isotropic_pair(draw):
    """A catalog model or a corpus model with nonzero a and r, and two
    isotropic subspaces, each spanned by k drawn combinations (coefficients
    -1, 0, 1) of the unit vectors of one isotropic block.  Both may come
    from the same block, so X0 & Y0 can be nonzero, and the small
    coefficients often make the pairing degenerate."""
    models = [*MODELS.values(), *AR_MODELS]
    model = models[draw(st.integers(0, len(models) - 1))]
    n = model.total_dim
    k = draw(st.integers(0, 3))

    def drawn_space():
        units = [unit_vec(n, i)
                 for i in model.indices(*draw(st.sampled_from(ISOTROPIC)))]
        row = st.lists(st.integers(-1, 1), min_size=len(units),
                       max_size=len(units))
        coeffs = draw(st.lists(row, min_size=k, max_size=k))
        return Subspace.span(n, [
            tuple(sum((F(c) * u[i] for c, u in zip(row, units)), F(0))
                  for i in range(n))
            for row in coeffs])

    return model, drawn_space(), drawn_space()


@settings(max_examples=200, deadline=None)
@given(isotropic_pair())
def test_pairing_criterion_agrees_with_the_gram_of_the_sum(case):
    model, X0, Y0 = case
    S = sum_spaces(X0, Y0)
    radical = radical_dim(model.omega, S.basis_vectors())
    if X0.dim != Y0.dim:
        expected = (f"dim X0 equals dim Y0 (dim X0 is {X0.dim}, "
                    f"dim Y0 is {Y0.dim})")
    elif not radical:
        expected = None
    else:
        expected = ("X0 + Y0 is symplectic (the form on it has a "
                    f"{radical}-dimensional radical)")
    event(f"{expected}, X0 & Y0 {'= 0' if S.dim == 2 * X0.dim else '!= 0'}")
    assert _lagrangian_group(model, X0, Y0) == expected


def test_corpus_models_with_nonzero_a_and_r_are_drawn():
    assert len(AR_MODELS) > 20
    assert {m.chain.a.dim for m in AR_MODELS} >= {1, 2}


@pytest.mark.parametrize("y0_block, radical", [("bstar", 2), ("p", 1)],
                         ids=["degenerate_pairing", "X0_is_Y0"])
def test_isotropic_equal_dimension_pair_that_is_not_symplectic(y0_block,
                                                                radical):
    # On the catalog torus omega pairs U_p only with R_p*; Y0 is the first
    # coordinate of R_b*, or U_p itself.  The radical is X0 + Y0.
    model = MODELS["torus"]
    X0 = model.unit_span(model.indices("p"))
    Y0 = model.unit_span(model.indices(y0_block)[:1])
    zero = Subspace.zero(model.total_dim)
    spaces = (X0, zero, Y0, zero)
    first = ref_axioms(model, model.ker_dphi_G, "ker dphi_G",
                       LAGRANGIAN_NAMES, spaces)["lagrangian"]
    assert first == ("X0 + Y0 is symplectic (the form on it has a "
                     f"{radical}-dimensional radical)")
    assert _lagrangian_group(model, X0, Y0) == first


# ---------------------------------------------------------------------------
# wittH.6 as r & a^perp = 0 against the rank of the a x r Chu pairing.

def _rref_subspace(draw, n, k):
    """A k-dimensional subspace of Q^n by its reduced basis: k drawn pivot
    columns, a 1 at each vector's pivot, zeros at the other pivots and
    before it, and coefficients -1, 0, 1 after it.  Every k-dimensional
    subspace whose reduced basis has entries -1, 0 and 1 can be drawn."""
    pivots = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k,
                                  max_size=k, unique=True)))
    return Subspace.span(n, [
        tuple(F(1) if j == p else
              F(draw(st.integers(-1, 1))) if j > p and j not in pivots
              else F(0) for j in range(n))
        for p in pivots])


@st.composite
def chu_pair(draw):
    """A corpus model and subspaces a and r of its algebra of one drawn
    dimension.  The Chu form vanishes on g_mu, so degenerate pairings are
    frequent, and on the abelian instances it is zero."""
    model = CORPUS_MODELS[draw(st.integers(0, len(CORPUS_MODELS) - 1))]
    n = model.inst.dim
    k = draw(st.integers(0, min(3, n)))
    return model, _rref_subspace(draw, n, k), _rref_subspace(draw, n, k)


@settings(max_examples=150, deadline=None)
@given(chu_pair())
def test_witt_h6_criterion_agrees_with_the_rank_of_the_chu_pairing(case):
    model, a, r = case
    assert a.dim == r.dim
    chain = replace(model.chain, a=a, r=r)
    got = next(c for c in h_decomposition_checks(decompose_H(model),
                                                 replace(model, chain=chain))
               if c.name == "wittH.6_a_r_pairing_nondegenerate")
    # The a x r block of the Chu Gram on [a | r], entry by entry.
    chu, G = model.inst.chu, gram_on(model.inst.chu, a, r)
    pairing = G.submatrix(range(a.dim), range(a.dim, G.cols))
    assert pairing.entries == tuple(
        tuple(dot(u, chu.apply(v)) for v in r.basis_vectors())
        for u in a.basis_vectors())
    nondegenerate = pairing.rank() == a.dim
    event(f"nondegenerate {nondegenerate}, dim {a.dim}")
    assert got.passed == nondegenerate
    assert got.detail == ("" if nondegenerate
                          else "the Chu pairing of a with r is degenerate")


# ---------------------------------------------------------------------------
# wittH.5 and the wittG forms against Grams of the definition bases.

def ref_witt_h5(model):
    """s, X_m, NH1 and Z_m, built from their definitions, are each
    nondegenerate under omega, by one plain Gram each."""
    chain = model.chain

    def image(space):
        return _image_under_action(model, space)

    s_block = image(chain.s)
    Xm = sum_spaces(image(chain.b), model.unit_span(model.indices("bstar")))
    NH1 = sum_spaces(s_block, Xm, model.unit_span(model.indices("N1")))
    Zm = sum_spaces(image(chain.a), image(chain.r))
    return all(nondegenerate(model.omega, S.basis_vectors())
               for S in (s_block, Xm, NH1, Zm))


def gram_witt_h5_detail(model):
    """wittH.5's detail by the Gram route it took before it read omega
    submatrices: one Gram of the s, X_m and N1 definition bases side by
    side, whose diagonal blocks are the Grams on s and X_m, and one of
    Z_m."""
    chain = model.chain

    def image(space):
        return _image_under_action(model, space)

    s_block = image(chain.s)
    Xm = sum_spaces(image(chain.b), model.unit_span(model.indices("bstar")))
    N1 = model.unit_span(model.indices("N1"))
    Zm = sum_spaces(image(chain.a), image(chain.r))
    nh1 = gram_on(model.omega, s_block, Xm, N1)
    ds, dx = s_block.dim, Xm.dim
    spaces = (
        ("s_block", nh1.submatrix(range(ds), range(ds)), ds),
        ("Xm", nh1.submatrix(range(ds, ds + dx), range(ds, ds + dx)), dx),
        ("NH1", nh1, sum_spaces(s_block, Xm, N1).dim),
        ("Zm", gram_on(model.omega, Zm), Zm.dim))
    return next((f"{name} is degenerate under omega"
                 for name, gram, dim in spaces if gram.rank() != dim), "")


def gram_witt_g_forms(model):
    """The first wittG form statement that fails on the Grams of the T1
    and N1 definition bases, or None."""
    T1 = _image_under_action(model, model.chain.n_space)
    N1 = model.unit_span(model.indices("N1"))
    if gram_on(model.omega, T1) != _chu_on_n(model):
        return "the form on T1 is the Chu pairing of the n basis"
    if gram_on(model.omega, N1) != model.inst.slice_rep.omega:
        return "the form on N1 is omega_N1"
    return None


def _coupled(model, i, j):
    """The model with omega's entry (i, j) raised by 1 and (j, i) lowered
    by 1."""
    rows = [list(row) for row in model.omega.entries]
    rows[i][j] += 1
    rows[j][i] -= 1
    return replace(model, omega=Matrix.from_rows(rows, cols=model.total_dim))


@pytest.fixture(scope="module")
def corpus_models():
    return CORPUS_MODELS


def _variants(model, blocks):
    """The model, and the model with omega coupled between the first and
    the last index of each block of more than one index."""
    return [model] + [_coupled(model, block[0], block[-1])
                      for block in blocks if len(block) > 1]


def test_witt_h5_verdict_is_the_four_gram_verdict_on_the_corpus(
        corpus_models):
    """On every corpus model, and on each with omega coupled inside NH1 or
    inside Z_m, so that both verdicts occur.  The detail is the one the
    Gram of the s, X_m and N1 bases and the Gram of Z_m give."""
    verdicts = set()
    for model in corpus_models:
        decomp = decompose_H(model)
        for variant in _variants(model, (decomp.NH1, decomp.Zm)):
            got = next(c for c in h_decomposition_checks(decomp, variant)
                       if c.name == "wittH.5_symplectic_blocks")
            assert got.passed == ref_witt_h5(variant)
            assert got.detail == gram_witt_h5_detail(variant)
            verdicts.add(got.passed)
    assert verdicts == {True, False}


def test_witt_g_forms_are_the_gram_verdicts_on_the_corpus(corpus_models):
    """On every corpus model, and on each with omega coupled inside T1 or
    inside N1, so that each form statement fails somewhere."""
    details = set()
    for model in corpus_models:
        decomp = decompose_G(model)
        for variant in _variants(model, (decomp.T1, decomp.N1)):
            expected = gram_witt_g_forms(variant)
            got = g_decomposition_check(decomp, variant)
            assert got.detail == ("" if expected is None
                                  else f"fails: {expected}")
            details.add(got.detail)
    assert details == {"", "fails: the form on T1 is the Chu pairing of the "
                       "n basis", "fails: the form on N1 is omega_N1"}
