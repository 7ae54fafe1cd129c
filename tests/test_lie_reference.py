"""The Lie layer against the unit-vector formulas it replaced.

liecore reads the nonzero structure constants once; the references below
bracket unit vectors through the full n x n x n table instead, as the
package used to.  Every algebra of the test corpus, plus the non-unimodular
aff(1), so(3) + aff(1) and the Heisenberg algebra, is compared on
Hypothesis-drawn vectors.  The constructor's antisymmetry and Jacobi checks
are compared with the triple-by-triple reference on drawn tables.  The
verify-only Lie checks (center, Killing invariance) are compared with the
dense ad-matrix formulas they replaced, and bracket_gram with the dense
congruence X^T K Y of the contraction K it never builds.
"""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corpus import build_corpus
from test_exactlin import fraction_ops  # noqa: F401  (a fixture)
from wittartin.exactlin import Matrix, Subspace, dot, kernel, unit_vec
from wittartin.liecore import (
    LieAlgebra,
    StructureConstantError,
    abelian,
    ad_invariance_defect,
    center,
    chu_form,
    direct_sum,
    h_perp_mu,
    killing_form,
    so3,
    stabilizer_of_momentum,
)

F = Fraction
ZERO = F(0)


def ref_bracket(c, x, y):
    n = len(c)
    return tuple(sum((x[i] * y[j] * c[i][j][k]
                      for i in range(n) for j in range(n)), ZERO)
                 for k in range(n))


def ref_ad_matrix(L, x):
    n = L.dim
    return Matrix.from_cols(
        [ref_bracket(L.c, x, unit_vec(n, j)) for j in range(n)], rows=n)


def ref_coad_apply(L, x, lam):
    return ref_ad_matrix(L, x).transpose().apply(lam)


def ref_mu_pairing(L, mu, x, y):
    return dot(mu, ref_bracket(L.c, x, y))


def ref_chu_gram(L, mu):
    e = [unit_vec(L.dim, i) for i in range(L.dim)]
    return Matrix.from_rows(
        [[ref_mu_pairing(L, mu, ei, ej) for ej in e] for ei in e], cols=L.dim)


def ref_stabilizer(L, mu):
    e = [unit_vec(L.dim, i) for i in range(L.dim)]
    return kernel(Matrix.from_rows(
        [[ref_mu_pairing(L, mu, ei, ej) for ei in e] for ej in e], cols=L.dim))


def ref_h_perp_mu(L, h, mu):
    e = [unit_vec(L.dim, i) for i in range(L.dim)]
    return kernel(Matrix.from_rows(
        [[ref_mu_pairing(L, mu, ei, eta) for ei in e]
         for eta in h.basis_vectors()], cols=L.dim))


def ref_tube_K(L, lam):
    n = L.dim
    return Matrix(n, n, tuple(tuple(dot(lam, L.c[a][b]) for b in range(n))
                              for a in range(n)))


def ref_center(L):
    """The common kernel of the stacked ad matrices of the basis."""
    ads = [L.ad_matrix(unit_vec(L.dim, i)) for i in range(L.dim)]
    return kernel(Matrix.from_rows([row for A in ads for row in A.entries],
                                   cols=L.dim))


def ref_ad_invariance_defect(L, B):
    """Nonzero entries of the dense ad_i^T B + B ad_i, one i at a time."""
    out = {}
    for i in range(L.dim):
        A = L.ad_matrix(unit_vec(L.dim, i))
        D = A.transpose() @ B + B @ A
        out.update(((i, a, b), x) for a, row in enumerate(D.entries)
                   for b, x in enumerate(row) if x)
    return out


def ref_first_failure(c):
    """The constructor's error message, found one index triple at a time."""
    n = len(c)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    return f"antisymmetry fails at (i,j,k)=({i},{j},{k})"
    e = [unit_vec(n, t) for t in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = (ref_bracket(c, e[i], ref_bracket(c, e[j], e[k])),
                         ref_bracket(c, e[j], ref_bracket(c, e[k], e[i])),
                         ref_bracket(c, e[k], ref_bracket(c, e[i], e[j])))
                if any(sum(t) != 0 for t in zip(*terms)):
                    return f"Jacobi identity fails on basis triple ({i},{j},{k})"
    return None


AFF1 = LieAlgebra.from_constants([[[0, 0], [0, 1]], [[0, -1], [0, 0]]])
HEIS = LieAlgebra.from_constants(
    [[[0, 0, 0], [0, 0, 1], [0, 0, 0]],
     [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
     [[0, 0, 0], [0, 0, 0], [0, 0, 0]]])
CORPUS = build_corpus()
ALGEBRAS = sorted({inst.algebra for inst in CORPUS}
                  | {AFF1, HEIS, direct_sum(so3(), AFF1)},
                  key=lambda L: (L.dim, str(L.c)))
SUBALGEBRAS = sorted({(inst.algebra, inst.h) for inst in CORPUS}
                     | {(AFF1, Subspace.span(2, [(0, 1)])),
                        (HEIS, Subspace.span(3, [(1, 0, 0), (0, 0, 1)]))},
                     key=lambda p: (p[0].dim, str(p[0].c), str(p[1].basis)))

small = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


def vectors(n):
    return st.lists(small, min_size=n, max_size=n).map(tuple)


def _ids(items):
    return [f"dim{L.dim}-{t}" for t, L in enumerate(items)]


@pytest.mark.parametrize("L", ALGEBRAS, ids=_ids(ALGEBRAS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_bracket_ad_and_coad_match_unit_vector_formulas(L, data):
    x, y, lam = (data.draw(vectors(L.dim)) for _ in range(3))
    assert L.bracket(x, y) == ref_bracket(L.c, x, y)
    assert L.ad_matrix(x) == ref_ad_matrix(L, x)
    assert L.coad_apply(x, lam) == ref_coad_apply(L, x, lam)


@pytest.mark.parametrize("L", ALGEBRAS, ids=_ids(ALGEBRAS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_mu_data_matches_unit_vector_formulas(L, data):
    mu = data.draw(vectors(L.dim))
    assert chu_form(L, mu) == ref_chu_gram(L, mu)
    assert stabilizer_of_momentum(L, mu) == ref_stabilizer(L, mu)
    assert L.bracket_pairing(mu) == ref_tube_K(L, mu)


def matrices(rows, cols):
    """Drawn matrices with about half their entries zero."""
    entry = st.one_of(st.just(ZERO), small)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda r: Matrix.from_rows(r, cols=cols))


@pytest.mark.parametrize("L", ALGEBRAS, ids=_ids(ALGEBRAS))
def test_center_matches_stacked_ad_kernel(L):
    assert center(L) == ref_center(L)


@pytest.mark.parametrize("L", ALGEBRAS, ids=_ids(ALGEBRAS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_ad_invariance_defect_matches_dense_products(L, data):
    B = killing_form(L)
    assert ad_invariance_defect(L, B) == ref_ad_invariance_defect(L, B) == {}
    # A drawn, generally non-symmetric, form is not invariant: both terms
    # must be read with their own index order.
    B = data.draw(matrices(L.dim, L.dim))
    assert ad_invariance_defect(L, B) == ref_ad_invariance_defect(L, B)


@pytest.mark.parametrize("L, h", SUBALGEBRAS,
                         ids=_ids([L for L, _ in SUBALGEBRAS]))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_h_perp_mu_matches_unit_vector_formula(L, h, data):
    mu = data.draw(vectors(L.dim))
    assert h_perp_mu(L, h, mu) == ref_h_perp_mu(L, h, mu)


def sums_of_so3_and_abelian():
    """Direct sums of one to three so(3) and abelian summands, in any order."""
    summand = st.one_of(st.just(so3()), st.integers(1, 2).map(abelian))
    return st.lists(summand, min_size=1, max_size=3).map(
        lambda parts: reduce(direct_sum, parts))


def covectors(n):
    """lam = 0, integer lam and fractional lam."""
    ints = st.integers(-3, 3).map(F)
    return st.one_of(st.just((ZERO,) * n),
                     st.lists(ints, min_size=n, max_size=n).map(tuple),
                     vectors(n))


@st.composite
def gram_data(draw):
    """An algebra, a covector and two bases of 0 to 4 columns each."""
    L = draw(sums_of_so3_and_abelian())
    lam = draw(covectors(L.dim))
    X, Y = (draw(st.integers(0, 4).flatmap(lambda k: matrices(L.dim, k)))
            for _ in range(2))
    return L, lam, X, Y


@settings(max_examples=80, deadline=None)
@given(gram_data())
def test_bracket_gram_matches_the_dense_congruence(data):
    L, lam, X, Y = data
    expected = X.transpose() @ L.bracket_pairing(lam) @ Y
    assert L.bracket_gram(lam, X, Y) == expected
    assert L.bracket_gram(lam, Y, X) == -expected.transpose()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gram_data())
def test_bracket_gram_takes_no_zero_operand(fraction_ops, data):
    L, lam, X, Y = data
    del fraction_ops[:]
    L.bracket_gram(lam, X, Y)
    assert not any(zero for _, zero in fraction_ops)


def test_corpus_instances_hold_the_reference_mu_data():
    first = {}
    for inst in CORPUS:
        first.setdefault((inst.algebra, inst.h, inst.mu), inst)
    checked = set()
    for (L, h, mu), inst in first.items():
        if (L, mu) not in checked:
            checked.add((L, mu))
            assert inst.chu == ref_chu_gram(L, mu)
            assert inst.g_mu == ref_stabilizer(L, mu)
        assert inst.h_perp_mu == ref_h_perp_mu(L, h, mu)


def tables(n, antisymmetric):
    """Sparse n x n x n tables; antisymmetric ones fill i < j and mirror."""
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2])
    flat = st.lists(entry, min_size=n ** 3, max_size=n ** 3)

    def build(values):
        c = [[[F(values[(i * n + j) * n + k]) for k in range(n)]
              for j in range(n)] for i in range(n)]
        if antisymmetric:
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if i >= j:
                            c[i][j][k] = -c[j][i][k] if i > j else ZERO
        return c
    return flat.map(build)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 4).flatmap(
    lambda n: st.one_of(tables(n, True), tables(n, False))))
def test_constructor_reports_the_reference_first_failure(c):
    expected = ref_first_failure(c)
    if expected is None:
        LieAlgebra.from_constants(c)
    else:
        with pytest.raises(StructureConstantError) as err:
            LieAlgebra.from_constants(c)
        assert str(err.value) == expected
