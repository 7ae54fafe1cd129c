"""Exact linear algebra: frozen examples, algebraic laws, and the subspace
predicates against their entry-by-entry and vector-by-vector definitions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wittartin.exactlin import (
    AmbientMismatch,
    Matrix,
    NotContained,
    NotPositiveDefinite,
    InnerProduct,
    Subspace,
    add_vec,
    direct_sum,
    dot,
    first_escape,
    first_outside,
    gram_on,
    image,
    intersect,
    kernel,
    orth_complement,
    pairing_witness,
    perp_under_form,
    preserves,
    scale_vec,
    sub_vec,
    sum_spaces,
    unit_vec,
    vec,
)
from wittartin.instancefile import from_dict
from wittartin.splitting import SliceRep

F = Fraction


def span(n, *vectors):
    return Subspace.span(n, vectors)


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel(Matrix.identity(3)).dim == 0

    def test_zero_map_has_full_kernel(self):
        assert kernel(Matrix.zeros(2, 3)) == Subspace.full(3)

    def test_projection_kernel_is_e3(self):
        # Hand row-reduction: x1 = x2 = 0, x3 free.
        A = Matrix.from_rows([[1, 0, 0], [0, 1, 0]])
        assert kernel(A) == span(3, (0, 0, 1))

    def test_rank_nullity_concrete(self):
        A = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert kernel(A).dim + A.rank() == 3


class TestOrthComplement:
    def test_standard_orthogonality(self):
        U = span(2, (1, 0))
        W = Subspace.full(2)
        ip = InnerProduct(Matrix.identity(2))
        assert orth_complement(U, W, ip) == span(2, (0, 1))

    def test_u_equals_w(self):
        U = span(2, (1, 1))
        assert orth_complement(U, U, InnerProduct(Matrix.identity(2))).dim == 0

    def test_weighted_complement(self):
        # <u, v>_ip = 0 with ip = diag(1,2): v1 + 2 v2 = 0, so v = (2, -1).
        U = span(2, (1, 1))
        ip = InnerProduct(Matrix.from_rows([[1, 0], [0, 2]]))
        result = orth_complement(U, Subspace.full(2), ip)
        assert result == span(2, (2, -1))

    def test_not_contained(self):
        with pytest.raises(NotContained):
            orth_complement(span(2, (1, 0)), span(2, (0, 1)),
                            InnerProduct(Matrix.identity(2)))

    def test_not_positive_definite(self):
        bad = Matrix.from_rows([[1, 0], [0, -1]])
        with pytest.raises(NotPositiveDefinite):
            orth_complement(span(2, (1, 0)), Subspace.full(2),
                            InnerProduct(bad))


class TestSumIntersect:
    def test_axes_direct_sum(self):
        U, V = span(3, (1, 0, 0)), span(3, (0, 1, 0))
        assert direct_sum(U, V) == span(3, (1, 0, 0), (0, 1, 0))
        assert sum_spaces(U, V) == span(3, (1, 0, 0), (0, 1, 0))

    def test_skew_lines_trivial_intersection(self):
        U, V = span(2, (1, 0)), span(2, (1, 1))
        assert intersect(U, V).dim == 0
        assert direct_sum(U, V) == Subspace.full(2)

    def test_overlapping_planes(self):
        U = span(3, (1, 0, 0), (0, 1, 0))
        V = span(3, (0, 1, 0), (0, 0, 1))
        assert intersect(U, V) == span(3, (0, 1, 0))
        assert direct_sum(U, V) is None

    def test_zero_parts_are_direct(self):
        U = span(3, (1, 2, 0))
        assert direct_sum(U, Subspace.zero(3), Subspace.zero(3)) == U
        assert direct_sum(Subspace.zero(3)) == Subspace.zero(3)


class TestPredicates:
    def test_leq(self):
        line, plane = span(3, (1, 1, 0)), span(3, (1, 0, 0), (0, 1, 0))
        assert line.leq(plane) and not plane.leq(line)
        assert Subspace.zero(3).leq(line) and not line.leq(Subspace.zero(3))

    def test_gram_on_cross_block_is_rectangular(self):
        J = Matrix.from_rows([[0, 1], [-1, 0]])
        g = cross_block(J, span(2, (1, 0)), Subspace.full(2))
        assert g == Matrix.from_rows([[0, 1]])
        assert cross_block(J, Subspace.zero(2), Subspace.full(2)).rows == 0

    def test_image_of_a_plane_under_a_projection(self):
        P = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
        assert image(P, span(3, (1, 1, 0), (0, 1, 1))) == \
            span(3, (1, 0, 0), (0, 0, 1))
        assert image(P, Subspace.zero(3)) == Subspace.zero(3)

    def test_first_escape_names_the_first_basis_vector_that_leaves(self):
        # diag(1, 2, 3) fixes (1, 0, 0) and moves (0, 1, 1) to (0, 2, 3).
        A = Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        assert first_escape(span(3, (1, 0, 0), (0, 1, 1)), A) == 1
        assert first_escape(span(3, (0, 1, 0), (0, 0, 1)), A) is None
        assert first_escape(Subspace.zero(3), A) is None

    def test_preserves_on_sp2(self):
        J = Matrix.from_rows([[0, 1], [-1, 0]])
        assert preserves(Matrix.from_rows([[1, 0], [0, -1]]), J)
        assert not preserves(Matrix.identity(2), J)


class TestSubmatrix:
    def test_rows_and_columns_in_the_given_order(self):
        A = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert A.submatrix((1, 0), (2, 0)) == Matrix.from_rows([[6, 4], [3, 1]])
        assert A.submatrix(range(2), range(3)) == A

    def test_empty_selection(self):
        A = Matrix.identity(3)
        assert A.submatrix((), (0, 1)) == Matrix.zeros(0, 2)
        assert A.submatrix((0, 2), ()) == Matrix.zeros(2, 0)


class TestFromBlocks:
    def test_bands_side_by_side_and_stacked(self):
        A = Matrix.from_rows([[1, 2], [3, 4]])
        B = Matrix.from_rows([[5], [6]])
        C = Matrix.from_rows([[7, 8, 9]])
        assert Matrix.from_blocks(((A, B), (C,))) == Matrix.from_rows(
            [[1, 2, 5], [3, 4, 6], [7, 8, 9]])

    def test_empty_blocks_leave_no_rows_or_columns(self):
        A = Matrix.from_rows([[1, 2]])
        Z = Matrix.zeros
        assert Matrix.from_blocks(((Z(0, 1), Z(0, 2)), (Z(1, 1), A))) \
            == Matrix.from_rows([[0, 1, 2]])
        assert Matrix.from_blocks(((A, Z(1, 0)),)) == A

    def test_unequal_row_counts_in_a_band_raise(self):
        with pytest.raises(AmbientMismatch):
            Matrix.from_blocks(((Matrix.identity(2), Matrix.identity(1)),))


class TestGramOn:
    def test_zero_dim_gives_empty(self):
        g = gram_on(Matrix.identity(3), Subspace.zero(3))
        assert g.rows == 0 and g.cols == 0

    def test_symplectic_restriction(self):
        # "Standard" form pairing q_i with p_i in (q1, q2, p1, p2) order.
        J = Matrix.from_rows([
            [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
        g = gram_on(J, span(4, (1, 0, 0, 0), (0, 0, 1, 0)))
        assert g == Matrix.from_rows([[0, 1], [-1, 0]])

    def test_identity_on_unit_vectors(self):
        g = gram_on(Matrix.identity(3), Subspace.full(3))
        assert g == Matrix.identity(3)


class TestCanonicalForm:
    def test_equality_independent_of_spanning_set(self):
        a = span(3, (1, 2, 3), (0, 1, 1))
        b = span(3, (1, 3, 4), (2, 5, 7), (1, 2, 3))
        assert a == b

    def test_determinism(self):
        vs = [(F(1, 2), F(2), F(-1)), (F(3), F(0), F(1, 3))]
        assert Subspace.span(3, vs) == Subspace.span(3, vs)

    def test_pivot_normalization(self):
        s = span(2, (2, -1))
        assert s.basis.col(0) == (F(1), F(-1, 2))


class TestConstructors:
    def test_an_explicit_count_must_match_the_data(self):
        A = Matrix.from_rows([[1, 2]])
        assert Matrix.from_rows([[1, 2]], cols=2) == A
        assert Matrix.from_cols([[1], ["2"]], rows=1) == A
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2]], cols=3)
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2], [3, 4]], cols=1)
        with pytest.raises(ValueError):
            Matrix.from_cols([[1], [2]], rows=2)
        with pytest.raises(ValueError):
            Matrix.from_cols([[1, 2], [3, 4]], rows=0)

    def test_no_data_needs_an_explicit_count(self):
        assert Matrix.from_rows([], cols=2) == Matrix.zeros(0, 2)
        assert Matrix.from_cols([], rows=2) == Matrix.zeros(2, 0)
        with pytest.raises(ValueError):
            Matrix.from_rows([])
        with pytest.raises(ValueError):
            Matrix.from_cols([])

    def test_ragged_data_raises(self):
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            Matrix.from_cols([[1, 2], [3]])


small_fracs = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


def matrices(rows, cols):
    return st.lists(
        st.lists(small_fracs, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(Matrix.from_rows)


@settings(max_examples=60, deadline=None)
@given(matrices(3, 4))
def test_rank_nullity(A):
    assert kernel(A).dim + A.rank() == A.cols


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_fracs, min_size=3, max_size=3),
                min_size=1, max_size=4),
       st.lists(st.lists(small_fracs, min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_sum_intersect_laws(us, vs):
    U = Subspace.span(3, us)
    V = Subspace.span(3, vs)
    assert sum_spaces(U, V) == sum_spaces(V, U)
    assert intersect(U, V) == intersect(V, U)
    assert intersect(U, sum_spaces(U, V)) == U
    assert sum_spaces(U, intersect(U, V)) == U


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_fracs, min_size=4, max_size=4),
                min_size=1, max_size=3),
       st.lists(st.lists(small_fracs, min_size=4, max_size=4),
                min_size=1, max_size=3),
       st.lists(st.lists(small_fracs, min_size=4, max_size=4),
                min_size=1, max_size=3))
def test_modular_law(us, vs, extra):
    # U <= W by construction: W is spanned by U's vectors plus extra ones.
    U = Subspace.span(4, us)
    V = Subspace.span(4, vs)
    W = Subspace.span(4, us + extra)
    assert intersect(sum_spaces(U, V), W) == sum_spaces(U, intersect(V, W))


# orth_complement, W & U^perp, against the route it replaced: the kernel
# of the U x W Gram, in W coordinates, mapped back by W's basis.

def old_orth_complement(U, W, ip):
    pairing = Matrix.from_rows(old_cross_gram(ip, U, W), cols=W.dim)
    return image(W.basis, kernel(pairing))


@st.composite
def spd_forms(draw):
    """A^T A + D on Q^4 for a drawn A and a positive diagonal D; the
    identity when A = 0 and D = I."""
    A = draw(square_matrices())
    d = draw(st.lists(st.sampled_from([F(1), F(1), F(2), F(1, 3)]),
                      min_size=N, max_size=N))
    D = Matrix.from_rows([[d[i] if i == j else 0 for j in range(N)]
                          for i in range(N)])
    return InnerProduct(A.transpose() @ A + D)


@st.composite
def complement_cases(draw):
    """U <= W in Q^4, with U = 0, W = 0 and U = W drawn on purpose."""
    kind = draw(st.sampled_from(["U < W", "U = 0", "W = 0", "U = W"]))
    U = Subspace.zero(N) if kind in ("U = 0", "W = 0") else draw(subspaces())
    if kind == "W = 0":
        return U, Subspace.zero(N)
    return U, U if kind == "U = W" else sum_spaces(U, draw(subspaces()))


@settings(max_examples=120, deadline=None)
@given(spd_forms(), complement_cases())
def test_orth_complement_splits(ip, case):
    U, W = case
    C = orth_complement(U, W, ip)
    assert C == old_orth_complement(U, W, ip.gram)
    assert direct_sum(U, C) == W
    assert pairing_witness(ip.gram, U, C) is None


# The predicates against the formulations they replace, on drawn subspaces
# of Q^4.  Entries come from {-1, 0, 1} so that dependent spanning sets,
# zero-dimensional spaces and invariant subspaces are common.

N = 4
sparse_fracs = st.sampled_from([F(-1), F(0), F(0), F(1), F(1, 2)])


def subspaces(max_vectors=3):
    return st.lists(st.lists(sparse_fracs, min_size=N, max_size=N),
                    min_size=0, max_size=max_vectors).map(
        lambda vs: Subspace.span(N, vs))


def square_matrices():
    diagonal = st.lists(st.sampled_from([F(0), F(1), F(2)]),
                        min_size=N, max_size=N).map(
        lambda d: Matrix.from_rows([[d[i] if i == j else 0 for j in range(N)]
                                    for i in range(N)]))
    dense = st.lists(st.lists(sparse_fracs, min_size=N, max_size=N),
                     min_size=N, max_size=N).map(Matrix.from_rows)
    return st.one_of(diagonal, dense)


def old_is_direct_sum(parts):
    if not parts:
        return True
    total = sum_spaces(*parts)
    return sum(p.dim for p in parts) == total.dim


def old_solve(A, b):
    """One solution of Ax = b by eliminating [A | b], or None."""
    red, pivots = A.hstack(Matrix.from_cols([b], rows=A.rows)).rref()
    if A.cols in pivots:
        return None
    x = [F(0)] * A.cols
    for r, c in enumerate(pivots):
        x[c] = red.entries[r][A.cols]
    return tuple(x)


def old_coords_of(S, v):
    if S.dim == 0:
        return () if all(x == 0 for x in v) else None
    return old_solve(S.basis, v)


def old_contains(S, v):
    return old_coords_of(S, v) is not None


def old_leq(U, W):
    return all(old_contains(W, v) for v in U.basis_vectors())


def rank_leq(U, W):
    return W.basis.hstack(U.basis).rank() == W.dim


def old_first_outside(U, W):
    return next((i for i, v in enumerate(U.basis_vectors())
                 if not old_contains(W, v)), None)


def old_cross_gram(form, U, V):
    return [[dot(u, form.apply(v)) for v in V.basis_vectors()]
            for u in U.basis_vectors()]


def cross_block(form, U, V):
    """The U x V block of the Gram of form on U and V side by side."""
    G = gram_on(form, U, V)
    return G.submatrix(range(U.dim), range(U.dim, G.cols))


def old_first_escape(S, A):
    return next((i for i, v in enumerate(S.basis_vectors())
                 if not old_contains(S, A.apply(v))), None)


def pivot_first_escape(S, A):
    """The first pivot of [S | A S] past the columns of S."""
    pivots = S.basis.hstack(A @ S.basis).rref()[1]
    return next((p - S.dim for p in pivots if p >= S.dim), None)


def old_image(A, U):
    return Subspace.span(A.rows, [A.apply(v) for v in U.basis_vectors()])


def product_image(A, U):
    return Subspace.span(A.rows, (A @ U.basis).columns())


@settings(max_examples=80, deadline=None)
@given(st.lists(subspaces(), min_size=1, max_size=3), subspaces(4),
       st.booleans())
def test_direct_sum_matches_is_direct_sum_and_sum(parts, other, use_sum):
    W = sum_spaces(*parts) if use_sum else other
    assert (direct_sum(*parts) == W) == (
        old_is_direct_sum(parts) and sum_spaces(*parts) == W)
    assert (direct_sum(*parts) is None) == (not old_is_direct_sum(parts))


@settings(max_examples=80, deadline=None)
@given(subspaces(), subspaces(), st.booleans())
def test_leq_matches_per_vector_containment(U, X, contain):
    W = sum_spaces(U, X) if contain else X
    assert U.leq(W) == old_leq(U, W) == rank_leq(U, W)
    assert W.leq(U) == old_leq(W, U) == rank_leq(W, U)
    assert first_outside(U, W) == old_first_outside(U, W)
    assert first_outside(W, U) == old_first_outside(W, U)


@settings(max_examples=60, deadline=None)
@given(square_matrices(), subspaces(), subspaces())
def test_gram_on_cross_block_matches_entry_by_entry_pairing(G, U, V):
    g = cross_block(G, U, V)
    assert (g.rows, g.cols) == (U.dim, V.dim)
    assert [list(row) for row in g.entries] == old_cross_gram(G, U, V)
    assert gram_on(G, U) == cross_block(G, U, U)
    both = gram_on(G, U, V)
    assert both.submatrix(range(U.dim), range(U.dim)) == gram_on(G, U)
    assert both.submatrix(range(U.dim, both.rows),
                          range(U.dim, both.cols)) == gram_on(G, V)


@settings(max_examples=80, deadline=None)
@given(subspaces(), square_matrices())
def test_first_escape_matches_per_vector_containment(S, A):
    assert first_escape(S, A) == old_first_escape(S, A) \
        == pivot_first_escape(S, A)


@st.composite
def subspace_and_vector(draw):
    """A subspace of Q^n, n = 0..5 (the zero space, the whole space or a
    drawn span), and a vector that is a drawn combination of its basis,
    moved off it by a drawn vector half of the time."""
    n = draw(st.integers(0, 5))
    row = st.lists(sparse_fracs, min_size=n, max_size=n)
    S = draw(st.one_of(
        st.just(Subspace.zero(n)), st.just(Subspace.full(n)),
        st.lists(row, max_size=n + 1).map(lambda vs: Subspace.span(n, vs))))
    coeffs = draw(st.lists(small_fracs, min_size=S.dim, max_size=S.dim))
    v = S.basis.apply(tuple(coeffs))
    if draw(st.booleans()):
        v = tuple(a + b for a, b in zip(v, draw(row)))
    return S, v


@settings(max_examples=150, deadline=None)
@given(subspace_and_vector())
def test_membership_matches_elimination(case):
    S, v = case
    coords = S.coords_of(v)
    assert coords == old_coords_of(S, v)
    assert S.contains(v) == old_contains(S, v)
    if coords is not None:
        assert S.basis.apply(coords) == v


def test_membership_queries_do_not_eliminate(monkeypatch):
    plane, line = span(3, (1, 0, 2), (0, 1, -1)), span(3, (1, 1, 1))
    full, zero, empty = Subspace.full(3), Subspace.zero(3), Subspace.zero(0)
    half_in = span(3, (1, 0, 2), (0, 1, 0))
    A = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 2]])

    def no_rref(self):
        raise AssertionError("a membership query eliminated")

    monkeypatch.setattr(Matrix, "rref", no_rref)
    assert plane.coords_of((2, 3, 1)) == (2, 3)
    assert plane.coords_of((0, 0, 1)) is None
    assert empty.coords_of(()) == () and zero.coords_of((0, 0, 0)) == ()
    assert plane.contains((1, 1, 1)) and not line.contains((1, 0, 0))
    assert line.leq(plane) and not plane.leq(line) and plane.leq(full)
    assert first_outside(full, plane) == 0
    assert first_outside(half_in, plane) == 1
    assert first_outside(zero, line) is None
    assert first_escape(plane, A) == 0
    assert first_escape(line, Matrix.identity(3)) is None


def test_slice_actions_are_rebased_like_the_eliminating_solve():
    # g_m of dimension 3 inside the abelian Q^4, given by sums and
    # differences of its canonical basis vectors c0, c1, c2.
    c0, c1, c2 = (1, 0, 2, 0), (0, 1, -1, 0), (0, 0, 0, 1)
    given = [tuple(a + b for a, b in zip(c0, c1)),
             tuple(a - b for a, b in zip(c0, c1)),
             tuple(a + b for a, b in zip(c1, c2))]
    actions = [[["1", "2"], ["3", "5"]], [["7", "0"], ["-1", "1/2"]],
               [["0", "3"], ["2", "-4"]]]
    doc = {
        "format": "wittartin-instance/1", "dim": 4,
        "structure_constants": [[["0"] * 4] * 4] * 4,
        "h_basis": [], "gm_basis": [[str(x) for x in g] for g in given],
        "mu": ["0"] * 4,
        "slice": {"dim": 2, "omega": [["0", "1"], ["-1", "0"]],
                  "action": actions},
    }
    inst = from_dict(doc)
    assert inst.gm.basis_vectors() == [vec(c) for c in (c0, c1, c2)]
    given_rep = SliceRep(inst.slice_rep.omega, tuple(
        Matrix.from_rows(a) for a in actions))
    given_basis = Matrix.from_cols([vec(g) for g in given])
    expected = tuple(given_rep.combine(old_solve(given_basis, w))
                     for w in inst.gm.basis_vectors())
    assert inst.slice_rep.action == expected
    # c0 = (g0 + g1) / 2.
    assert inst.slice_rep.action[0] == Matrix.from_rows(
        [[4, 1], [1, F(11, 4)]])


def wide_matrices():
    """Matrices from Q^N to Q^r, r = 0..5: square ones, and drawn sparse
    ones with zero rows and columns."""
    return st.one_of(square_matrices(), st.integers(0, 5).flatmap(
        lambda r: sparse_matrices(r, N)))


@settings(max_examples=60, deadline=None)
@given(wide_matrices(), subspaces())
def test_image_matches_apply_then_span(A, U):
    assert image(A, U) == old_image(A, U) == product_image(A, U)


@settings(max_examples=60, deadline=None)
@given(square_matrices(), square_matrices())
def test_preserves_matches_pairing_definition(A, G):
    units = Subspace.full(N).basis_vectors()
    pair = [[dot(A.apply(u), G.apply(v)) + dot(u, G.apply(A.apply(v)))
             for v in units] for u in units]
    assert preserves(A, G) == all(x == 0 for row in pair for x in row)


# The zero-skipping kernels against the dense code they replaced, on
# Fraction matrices of drawn sparsity: empty shapes, all-zero rows and
# columns, and repeated rows are all drawn.

def dense_apply(A, v):
    return tuple(dot(row, v) for row in A.entries)


def dense_rref(A):
    m = [list(row) for row in A.entries]
    pivots = []
    r = 0
    for c in range(A.cols):
        if r == A.rows:
            break
        pivot_row = next((i for i in range(r, A.rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(A.rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return Matrix(A.rows, A.cols, tuple(tuple(row) for row in m)), tuple(pivots)


def dense_det(A):
    n = A.rows
    m = [list(row) for row in A.entries]
    det = F(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return F(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def dense_perp_under_form(form, U):
    return kernel(U.basis.transpose() @ form)


def dense_is_symmetric(A):
    return A.rows == A.cols and A == A.transpose()


def dense_is_antisymmetric(A):
    return A.rows == A.cols and A == -A.transpose()


def dense_antisymmetry_witness(A):
    e = A.entries
    return next(((i, j) for i in range(A.rows) for j in range(i, A.rows)
                 if e[i][j] != -e[j][i]), None)


@st.composite
def sparse_matrices(draw, rows=None, cols=None):
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = draw(st.integers(0, 5)) if cols is None else cols
    zeros = draw(st.integers(0, 4))
    entry = st.one_of(*[st.just(F(0))] * zeros, small_fracs)
    m = [[draw(entry) for _ in range(c)] for _ in range(r)]
    if r:
        for i in draw(st.lists(st.integers(0, r - 1), max_size=2)):
            m[i] = [F(0)] * c
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        if draw(st.booleans()):
            m[j] = list(m[i])
    if c:
        for j in draw(st.lists(st.integers(0, c - 1), max_size=2)):
            for row in m:
                row[j] = F(0)
    return Matrix(r, c, tuple(map(tuple, m)))


def square_sparse_matrices():
    return st.integers(0, 5).flatmap(lambda n: sparse_matrices(n, n))


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda d: st.tuples(sparse_matrices(*d), sparse_matrices(1, d[1]))))
def test_apply_matches_dense_apply(Av):
    A, v = Av
    assert A.apply(v.row(0)) == dense_apply(A, v.row(0))


def per_col_columns(A):
    return [A.col(j) for j in range(A.cols)]


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
@example(Matrix.zeros(0, 3))
@example(Matrix.zeros(3, 0))
@example(Matrix.zeros(0, 0))
def test_columns_and_transpose_match_per_col_reference(A):
    assert A.columns() == per_col_columns(A)
    T = A.transpose()
    assert (T.rows, T.cols, T.entries) == (
        A.cols, A.rows, tuple(per_col_columns(A)))
    assert T.transpose() == A
    assert Matrix.from_cols(A.columns(), rows=A.rows) == A


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, max(n - 1, 0)),
                         max_size=8 if n else 0))))
@example((4, []))
@example((0, []))
@example((5, [3, 1, 3, 0, 1]))
def test_coordinate_span_matches_span_of_unit_vectors(case):
    n, indices = case
    S = Subspace.coordinate(n, indices)
    assert S == Subspace.span(n, [unit_vec(n, i) for i in indices])
    assert S.pivots == tuple(sorted(set(indices)))


def test_coordinate_span_does_not_eliminate(monkeypatch):
    def no_rref(self):
        raise AssertionError("a coordinate span eliminated")

    monkeypatch.setattr(Matrix, "rref", no_rref)
    assert Subspace.coordinate(3, (2, 0, 2)).basis == Matrix.from_rows(
        [[1, 0], [0, 0], [0, 1]])
    assert Subspace.coordinate(3, ()) == Subspace.zero(3)


@st.composite
def masked_apply_cases(draw):
    """A matrix and a vector with drawn zero patterns: each entry is a
    nonzero rational where its drawn mask is set and 0 elsewhere, so rows,
    columns and coordinates that are zero and products whose matrix entry
    or coordinate (or both) is zero all occur."""
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    nonzero = small_fracs.filter(bool)

    def masked(n):
        return tuple(draw(nonzero) if keep else F(0)
                     for keep in draw(st.lists(st.booleans(), min_size=n,
                                               max_size=n)))

    return Matrix(r, c, tuple(masked(c) for _ in range(r))), masked(c)


@settings(max_examples=200, deadline=None)
@given(masked_apply_cases())
@example((Matrix.zeros(0, 3), (F(1), F(0), F(-2))))
@example((Matrix.zeros(3, 0), ()))
@example((Matrix.zeros(0, 0), ()))
def test_apply_over_nonzero_products_matches_dense_apply(case):
    A, v = case
    got = A.apply(v)
    assert got == dense_apply(A, v)
    assert len(got) == A.rows and all(type(x) is F for x in got)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_rref_matches_dense_elimination(A):
    assert A.rref() == dense_rref(A)


@settings(max_examples=150, deadline=None)
@given(square_sparse_matrices())
def test_det_matches_dense_elimination(A):
    assert A.det() == dense_det(A)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    sparse_matrices(n, n), sparse_matrices(cols=n))))
def test_perp_under_form_matches_dense_product(GV):
    G, V = GV
    U = Subspace.span(G.rows, V.entries)
    assert perp_under_form(G, U) == dense_perp_under_form(G, U)


@settings(max_examples=200, deadline=None)
@given(st.one_of(square_sparse_matrices(), sparse_matrices()),
       st.sampled_from(["as drawn", "symmetric part", "antisymmetric part"]),
       st.none() | st.tuples(st.integers(0, 4), st.integers(0, 4)))
def test_symmetry_predicates_match_dense_comparison(A, part, bump):
    if A.rows == A.cols and part != "as drawn":
        A = A + A.transpose() if part == "symmetric part" else A - A.transpose()
    if bump and A.rows and A.cols:
        rows = [list(row) for row in A.entries]
        rows[bump[0] % A.rows][bump[1] % A.cols] += 1
        A = Matrix(A.rows, A.cols, tuple(map(tuple, rows)))
    assert A.is_symmetric() == dense_is_symmetric(A)
    assert A.is_antisymmetric() == dense_is_antisymmetric(A)
    if A.rows == A.cols:
        w = A.antisymmetry_witness()
        assert (w is None) == dense_is_antisymmetric(A)
        assert w == dense_antisymmetry_witness(A)


# pairing_witness against the dense cross Gram it replaced in the checks:
# the witness is the first nonzero entry of the U x V block of
# gram_on(form, U, V), in row-major order, and there is none exactly when
# that block is zero.

def dense_pairing_witness(form, U, V):
    g = cross_block(form, U, V)
    assert [list(row) for row in g.entries] == old_cross_gram(form, U, V)
    return next(((i, j) for i, row in enumerate(g.entries)
                 for j, x in enumerate(row) if x != 0), None)


@st.composite
def pairing_cases(draw):
    n = draw(st.integers(0, 5))
    if n and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        x = draw(small_fracs.filter(bool))
        G = Matrix(n, n, tuple(tuple(x if (r, c) == (i, j) else F(0)
                                     for c in range(n)) for r in range(n)))
    else:
        G = draw(sparse_matrices(n, n))

    def space():
        kind = draw(st.sampled_from(["zero", "coordinate", "spanned"]))
        if kind == "zero":
            return Subspace.zero(n)
        if kind == "coordinate":
            picked = draw(st.sets(st.sampled_from(range(n)))) if n else ()
            return Subspace.span(n, [unit_vec(n, k) for k in sorted(picked)])
        return Subspace.span(n, draw(sparse_matrices(cols=n)).entries)

    U = space()
    V = U if draw(st.booleans()) else space()
    return G, U, V


@settings(max_examples=300, deadline=None)
@given(pairing_cases())
def test_pairing_witness_is_first_nonzero_entry_of_dense_cross_gram(case):
    form, U, V = case
    w = pairing_witness(form, U, V)
    assert w == dense_pairing_witness(form, U, V)
    assert (w is None) == cross_block(form, U, V).is_zero()


def test_pairing_witness_rejects_a_form_of_another_dimension():
    with pytest.raises(AmbientMismatch):
        pairing_witness(Matrix.identity(2), Subspace.full(3), Subspace.full(3))
    with pytest.raises(AmbientMismatch):
        pairing_witness(Matrix.identity(3), Subspace.full(3), Subspace.zero(2))


def test_pairing_witness_names_the_pair():
    # e0 spans the radical, and e1 pairs only with e2.
    J = Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    assert pairing_witness(J, span(3, (0, 1, 0)), span(3, (0, 1, 0))) is None
    assert pairing_witness(J, Subspace.full(3), Subspace.full(3)) == (1, 2)
    assert pairing_witness(J, Subspace.full(3), span(3, (0, 1, 0))) == (2, 0)


# Sylvester's criterion from one elimination against the k determinants
# it replaced.

def leading_principal_minors(A):
    return [A.submatrix(range(k), range(k)).det()
            for k in range(1, A.rows + 1)]


@settings(max_examples=200, deadline=None)
@given(square_sparse_matrices(),
       st.sampled_from(["as drawn", "A^T A", "A^T A + I", "A + A^T"]))
def test_leading_minors_positive_matches_k_determinants(A, variant):
    if variant == "A^T A":
        A = A.transpose() @ A
    elif variant == "A^T A + I":
        A = A.transpose() @ A + Matrix.identity(A.rows)
    elif variant == "A + A^T":
        A = A + A.transpose()
    assert A.leading_minors_positive() == all(
        m > 0 for m in leading_principal_minors(A))


def test_leading_minors_of_a_non_square_matrix_raise():
    with pytest.raises(ValueError, match="non-square"):
        Matrix.zeros(2, 3).leading_minors_positive()


def test_empty_gram_is_an_inner_product():
    assert Matrix.zeros(0, 0).leading_minors_positive()
    InnerProduct(Matrix.zeros(0, 0))
    with pytest.raises(NotPositiveDefinite):
        InnerProduct(Matrix.from_rows([[1, 2], [2, 1]]))


# The vector kernels against the dense loops they replaced: where one
# operand is zero they return the other one, with no arithmetic, and every
# entry stays a Fraction.

@st.composite
def sparse_vector_pairs(draw):
    n = draw(st.integers(0, 6))
    u, v = draw(sparse_matrices(2, n)).entries if n else ((), ())
    return u, v


@settings(max_examples=200, deadline=None)
@given(sparse_vector_pairs(), st.one_of(st.just(F(0)), small_fracs))
@example(((F(0), F(2), F(-1), F(0)), (F(0), F(-2), F(0), F(3))), F(0))
def test_vector_kernels_match_dense_loops(uv, c):
    u, v = uv
    for got, dense in ((add_vec(u, v), tuple(a + b for a, b in zip(u, v))),
                       (sub_vec(u, v), tuple(a - b for a, b in zip(u, v))),
                       (scale_vec(c, v), tuple(c * a for a in v))):
        assert got == dense
        assert all(type(x) is F for x in got)


def test_vector_kernels_reject_lengths_that_differ():
    with pytest.raises(ValueError):
        add_vec((F(1),), (F(1), F(0)))
    with pytest.raises(ValueError):
        sub_vec((F(0), F(0)), (F(1),))


# Operation counts: outside dot and Matrix.__matmul__, no Fraction
# arithmetic takes a zero operand.

COUNTED_OPS = tuple(name for op in ("add", "sub", "mul", "truediv")
                    for name in (f"__{op}__", f"__r{op}__")) + ("__neg__",)


@pytest.fixture
def fraction_ops(monkeypatch):
    """Records (operation, whether an operand was zero) for every Fraction
    + - * / (the reflected forms and negation too) while the test runs."""
    log = []
    for name in COUNTED_OPS:
        original = getattr(F, name)

        def counted(*operands, _name=name, _original=original):
            log.append((_name, not all(operands)))
            return _original(*operands)

        monkeypatch.setattr(F, name, counted)
    return log


def test_fraction_ops_fixture_counts_and_sees_zeros(fraction_ops):
    x = F(1, 2)
    x + F(0), 1 - x, x * x, 2 / x, -x
    assert fraction_ops == [("__add__", True), ("__rsub__", False),
                            ("__mul__", False), ("__rtruediv__", False),
                            ("__neg__", False)]


@pytest.mark.parametrize("n", [0, 1, 3, 4])
def test_rref_of_a_permutation_matrix_does_no_arithmetic(fraction_ops, n):
    for perm in itertools.permutations(range(n)):
        P = Matrix(n, n, tuple(unit_vec(n, p) for p in perm))
        del fraction_ops[:]
        red, pivots = P.rref()
        assert fraction_ops == []
        assert red == Matrix.identity(n) and pivots == tuple(range(n))


def test_rref_of_a_scaled_permutation_divides_only_its_pivots(fraction_ops):
    for perm in itertools.permutations(range(4)):
        P = Matrix(4, 4, tuple(scale_vec(F(2 * p + 3, 2), unit_vec(4, p))
                               for p in perm))
        del fraction_ops[:]
        assert P.rref()[0] == Matrix.identity(4)
        assert fraction_ops == [("__truediv__", False)] * 4


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sparse_vector_pairs(), st.one_of(st.just(F(0)), small_fracs))
def test_vector_kernels_operate_only_on_nonzero_positions(fraction_ops, uv, c):
    u, v = uv
    del fraction_ops[:]
    add_vec(u, v)
    assert fraction_ops == [("__add__", False)] * sum(
        1 for a, b in zip(u, v) if a and b)
    del fraction_ops[:]
    sub_vec(u, v)
    assert not any(zero for _, zero in fraction_ops)
    assert len(fraction_ops) == sum(1 for b in v if b)
    del fraction_ops[:]
    scale_vec(c, v)
    assert fraction_ops == [("__mul__", False)] * (
        sum(1 for b in v if b) if c else 0)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(square_sparse_matrices(),
                 square_sparse_matrices().map(lambda A: A - A.transpose())))
def test_antisymmetry_witness_negates_only_nonzero_pairs(fraction_ops, A):
    del fraction_ops[:]
    w = A.antisymmetry_witness()
    e = A.entries
    pairs = [(i, j) for i in range(A.rows) for j in range(i, A.rows)]
    checked = pairs[:pairs.index(w) + 1] if w else pairs
    assert fraction_ops == [("__neg__", False)] * sum(
        1 for i, j in checked if e[i][j] and e[j][i])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(wide_matrices(), subspaces())
# Row 3 of A.apply((1, 1, 1, 1)) sums -1 + 1 - 1 - 1: the partial sum
# cancels to zero after two terms.
@example(Matrix.from_rows([[-1] * 4] * 3 + [[-1, 1, -1, -1]]),
         span(4, (1, 1, 1, 1)))
def test_image_takes_no_zero_operand(fraction_ops, A, U):
    del fraction_ops[:]
    image(A, U)
    assert not any(zero for _, zero in fraction_ops)
