"""Lie-algebra operations against hand-derived known values."""

from fractions import Fraction

import pytest
from instances import ref_h_perp_mu

from wittartin.exactlin import (
    AmbientMismatch,
    InnerProduct,
    Matrix,
    Subspace,
    dot,
    intersect,
    kernel,
    unit_vec,
)
from wittartin.liecore import (
    LieAlgebra,
    StructureConstantError,
    abelian,
    chu_form,
    direct_sum,
    h_perp_mu,
    killing_form,
    so3,
    stabilizer_of_momentum,
)
from wittartin.splitting import ProblemInstance, SliceRep

F = Fraction


def vec(*xs):
    return tuple(F(x) for x in xs)


def span(n, *vectors):
    return Subspace.span(n, vectors)


class TestConstruction:
    def test_antisymmetry_rejected(self):
        c = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]  # c[0][1] != -c[1][0]
        with pytest.raises(StructureConstantError, match="antisymmetry"):
            LieAlgebra.from_constants(c)

    def test_jacobi_rejected(self):
        # Antisymmetric but non-Jacobi: [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=e2.
        c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2], c[1][0][2] = 1, -1
        c[0][2][0], c[2][0][0] = 1, -1
        c[1][2][1], c[2][1][1] = 1, -1
        with pytest.raises(StructureConstantError, match="Jacobi"):
            LieAlgebra.from_constants(c)

    def test_so3_brackets_are_cross_products(self):
        L = so3()
        assert L.bracket(unit_vec(3, 0), unit_vec(3, 1)) == vec(0, 0, 1)
        assert L.bracket(unit_vec(3, 1), unit_vec(3, 2)) == vec(1, 0, 0)
        assert L.bracket(unit_vec(3, 2), unit_vec(3, 0)) == vec(0, 1, 0)


class TestAdCoad:
    def test_so3_ad_e3_is_rotation_generator(self):
        # Cross-product table: e3 x e1 = e2, e3 x e2 = -e1.
        A = so3().ad_matrix(unit_vec(3, 2))
        assert A == Matrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 0]])

    def test_abelian_ad_vanishes(self):
        L = abelian(4)
        assert L.ad_matrix(vec(1, 2, 3, 4)).is_zero()

    def test_zero_vector_ad_vanishes(self):
        assert so3().ad_matrix(vec(0, 0, 0)).is_zero()

    def test_coad_is_transpose_with_fixed_sign_convention(self):
        # <ad*_x lam, y> = <lam, [x, y]> for all basis pairs.
        L = so3()
        x = vec(1, -2, F(1, 2))
        lam = vec(F(2, 3), 1, -1)
        coad = L.ad_matrix(x).transpose().apply(lam)
        for j in range(3):
            pairing = sum(l * b for l, b in
                          zip(lam, L.bracket(x, unit_vec(3, j))))
            assert coad[j] == pairing


class TestStabilizer:
    def test_so3_stabilizer_is_span_mu(self):
        assert stabilizer_of_momentum(so3(), vec(0, 0, 1)) == span(3, (0, 0, 1))

    def test_abelian_stabilizer_is_everything(self):
        L = abelian(3)
        assert stabilizer_of_momentum(L, vec(1, 2, 3)) == Subspace.full(3)

    def test_zero_momentum_stabilizer_is_everything(self):
        assert stabilizer_of_momentum(so3(), vec(0, 0, 0)) == Subspace.full(3)


class TestHPerpMu:
    def test_so3_generic_axis(self):
        # mu x e1 = e2, so the constraint is y_2 = 0.
        result = h_perp_mu(so3(), span(3, (1, 0, 0)), vec(0, 0, 1))
        assert result == span(3, (1, 0, 0), (0, 0, 1))

    def test_so3_collinear_axis_gives_everything(self):
        result = h_perp_mu(so3(), span(3, (0, 0, 1)), vec(0, 0, 1))
        assert result == Subspace.full(3)

    def test_abelian_gives_everything(self):
        L = abelian(4)
        h = span(4, (1, 0, 0, 0), (0, 1, 0, 0))
        assert h_perp_mu(L, h, vec(1, 2, 3, 4)) == Subspace.full(4)

    def test_non_subalgebra_follows_the_formula(self):
        # span(e1, e2) in so(3) is not bracket-closed ([e1,e2] = e3), and
        # the formula still applies: <e3, [x, e1]> = -x2 and
        # <e3, [x, e2]> = x1, so only the e3 axis remains.
        h, mu = span(3, (1, 0, 0), (0, 1, 0)), vec(0, 0, 1)
        result = h_perp_mu(so3(), h, mu)
        assert result == ref_h_perp_mu(so3(), h, mu) == span(3, (0, 0, 1))


class TestLengths:
    """Every operation names both lengths when a vector or basis does not
    live in the algebra, instead of reading a prefix or running off the end."""

    @pytest.mark.parametrize("n", [2, 4])
    def test_vector_operations_reject_a_wrong_length(self, n):
        L, good, bad = so3(), vec(1, 2, 3), tuple(F(1) for _ in range(n))
        calls = [lambda: L.bracket(bad, good), lambda: L.bracket(good, bad),
                 lambda: L.coad_apply(bad, good),
                 lambda: L.coad_apply(good, bad),
                 lambda: L.ad_matrix(bad), lambda: chu_form(L, bad),
                 lambda: L.bracket_gram(bad, Matrix.identity(3),
                                        Matrix.identity(3))]
        for call in calls:
            with pytest.raises(AmbientMismatch,
                               match=f"length {n} in a 3-dimensional"):
                call()

    def test_bracket_gram_rejects_a_basis_of_another_space(self):
        L, mu = so3(), vec(0, 0, 1)
        for X, Y in ((Matrix.identity(4), Matrix.identity(3)),
                     (Matrix.identity(3), Matrix.zeros(2, 1))):
            with pytest.raises(AmbientMismatch, match="in a 3-dimensional"):
                L.bracket_gram(mu, X, Y)

    def test_h_perp_mu_rejects_h_of_another_space(self):
        with pytest.raises(AmbientMismatch):
            h_perp_mu(so3(), span(4, (1, 0, 0, 0)), vec(0, 0, 1))


def h_alpha(L, h, mu):
    """ProblemInstance.h_alpha at momentum mu; g_m, the inner product and
    the slice do not enter it."""
    return ProblemInstance(L, h, Subspace.zero(L.dim), mu,
                           InnerProduct(Matrix.identity(L.dim)),
                           SliceRep.trivial()).h_alpha


class TestHAlpha:
    def test_abelian_h_alpha_is_h(self):
        L = abelian(3)
        h = span(3, (1, 0, 0))
        assert h_alpha(L, h, vec(1, 2, 3)) == h

    def test_so3_abelian_subgroup(self):
        h = span(3, (1, 0, 0))
        assert h_alpha(so3(), h, vec(0, 0, 1)) == h

    def test_zero_momentum_gives_h(self):
        h = span(3, (0, 0, 1))
        assert h_alpha(so3(), h, vec(0, 0, 0)) == h

    def test_agrees_with_intersection(self):
        L = direct_sum(so3(), so3())
        h = span(6, (1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1))
        mu = vec(0, 0, 1, 1, 0, 0)
        assert h_alpha(L, h, mu) == intersect(h, h_perp_mu(L, h, mu))


class TestChuForm:
    def test_zero_momentum_gives_zero_form(self):
        assert chu_form(so3(), vec(0, 0, 0)).is_zero()

    def test_so3_e3star(self):
        # <e3*, e_i x e_j> over the cross-product table.
        form = chu_form(so3(), vec(0, 0, 1))
        assert form == Matrix.from_rows(
            [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])

    def test_abelian_gives_zero_form(self):
        assert chu_form(abelian(5), vec(1, 2, 3, 4, 5)).is_zero()

    def test_radical_is_stabilizer(self):
        mu = vec(F(1, 2), -1, F(3, 4))
        assert kernel(chu_form(so3(), mu)) == stabilizer_of_momentum(so3(), mu)


class TestKillingForm:
    def test_so3_is_minus_two_identity(self):
        assert killing_form(so3()) == Matrix.identity(3).scale(-2)

    def test_abelian_vanishes(self):
        assert killing_form(abelian(3)).is_zero()

    def test_direct_sum_is_block_diagonal(self):
        B = killing_form(direct_sum(so3(), so3()))
        assert B == Matrix.identity(6).scale(-2)

    def test_ad_invariance(self):
        L = so3()
        G = killing_form(L)

        def B(x, y):
            return dot(x, G.apply(y))

        for i in range(3):
            for j in range(3):
                for k in range(3):
                    z, x, y = unit_vec(3, i), unit_vec(3, j), unit_vec(3, k)
                    assert B(L.bracket(z, x), y) + B(x, L.bracket(z, y)) == 0

    def test_equals_trace_of_ad_products_on_corpus(self):
        from corpus import build_corpus

        # aff(1): [e0, e1] = e1, whose Killing form diag(1, 0) is neither
        # zero nor a multiple of the identity.
        aff1 = LieAlgebra.from_constants([[[0, 0], [0, 1]], [[0, -1], [0, 0]]])
        algebras = {inst.algebra for inst in build_corpus()}
        algebras |= {aff1, direct_sum(so3(), aff1)}
        for L in algebras:
            n = L.dim
            ads = [L.ad_matrix(unit_vec(n, i)) for i in range(n)]
            reference = Matrix.from_rows(
                [[sum((ads[i] @ ads[j]).entries[k][k] for k in range(n))
                  for j in range(n)] for i in range(n)])
            assert killing_form(L) == reference, n
        assert killing_form(aff1) == Matrix.from_rows([[1, 0], [0, 0]])
