"""Normal-form evaluation away from the base point."""

import math
import random
from fractions import Fraction

import pytest

from instances import so3_case, so3xso3_diag, standard_slice, torus_instance, vec
from wittartin.catalog import all_examples, build_example
from wittartin.exactlin import Matrix, Subspace, dot, unit_vec, zero_vec
from wittartin.instancefile import from_dict
from wittartin.liecore import InnerProduct, so3
from wittartin.pointmodel import build_model
from wittartin.splitting import ProblemInstance, build_chain, validate
from wittartin.tube import (
    OffSlice,
    TubePoint,
    check_dphi_consistency,
    dphi_n1,
    expm,
    omega_tube,
    omega_tube_gram,
    phi_equivariance_check,
    phi_n1,
    phi_tilde,
)

F = Fraction


def split(model, v):
    """The (u, rho, nu) blocks of a model coordinate vector."""
    un = model.dim_m + model.dim_n
    return v[:un], v[un:un + model.dim_m], v[un + model.dim_m:]


def omega_tube_reference(inst, model, p, v1, v2):
    """The tube 2-form evaluated one pair of vectors at a time:

        <rho2, xi1> - <rho1, xi2> + <DPhi_N1(nu) nu2, xi1> - <DPhi_N1(nu) nu1, xi2>
        + <mu + rho + Phi_N1(nu), [xi1, xi2]> + omega_N1(nu1, nu2)

    with xi_i the g-vector of the U block of v_i.  This is the entrywise
    formula the Gram matrix of omega_tube_gram must reproduce exactly.
    """
    (u1, rho1, nu1), (u2, rho2, nu2) = split(model, v1), split(model, v2)
    xi1 = model.embed_u(u1)
    xi2 = model.embed_u(u2)

    def paired(rhodot, nudot, xi):
        lam = model.iota_mstar(rhodot)
        dphi = model.iota_gmstar(dphi_n1(inst, p.nu, nudot))
        return dot(lam, xi) + dot(dphi, xi)

    term12 = paired(rho2, nu2, xi1) - paired(rho1, nu1, xi2)
    br = inst.algebra.bracket(xi1, xi2)
    lam_point = model.iota_mstar(p.rho)
    lam_slice = model.iota_gmstar(phi_n1(inst, p.nu))
    term3 = dot(lam_point, br) + dot(lam_slice, br) + dot(inst.mu, br)
    term5 = dot(nu1, inst.slice_rep.omega.gram.apply(nu2))
    return term12 + term3 + term5


def _differential_instances():
    """Every catalog instance, torus(4,2), and so(3)^2 with a g_m that acts
    on the slice and a momentum with unequal Cartan parts."""
    out = [(name, from_dict(doc)) for name, doc in all_examples()]
    out.append(("torus(4,2)", from_dict(build_example("torus", 4, 2))))
    out.append(("so3^2-gm", so3xso3_diag(mu=vec(0, 0, 1, 0, 0, 2),
                                         with_gm=True)))
    return [pytest.param(name, inst, id=name) for name, inst in out]


def setup(inst):
    return build_model(build_chain(inst), inst)


def unit(model, i):
    return unit_vec(model.total_dim, i)


def origin(model):
    return TubePoint(zero_vec(model.inst.dim), zero_vec(model.dim_m),
                     zero_vec(model.slice_dim))


class TestOmegaTube:
    def test_base_point_equals_model_form(self):
        for inst in (so3_case("generic", slice_dim=2),
                     so3xso3_diag(with_gm=True)):
            model = setup(inst)
            p = origin(model)
            for i in range(model.total_dim):
                vi = unit(model, i)
                for j in range(model.total_dim):
                    vj = unit(model, j)
                    assert omega_tube(model, p, vi, vj) \
                        == model.omega.gram.entries[i][j]

    def test_abelian_rho_independence(self):
        inst = torus_instance(3, 1, slice_dim=2)
        model = setup(inst)
        v1 = unit(model, 0)
        v2 = unit(model, 1)
        at_zero = omega_tube(model, origin(model), v1, v2)
        shifted = TubePoint(zero_vec(3), (F(1, 3),) * model.dim_m,
                            zero_vec(model.slice_dim))
        assert omega_tube(model, shifted, v1, v2) == at_zero

    def test_so3_bracket_term_hand_expanded(self):
        # V's along a and r; [e1, e2] = e3, so the value is
        # <mu + rho~, e3> = 1 + 1/2 on the generic instance.
        inst = so3_case("generic", slice_dim=0)
        model = setup(inst)
        p = TubePoint(vec(0, 0, 0), (F(1, 2),), ())
        v1 = unit(model, model.blocks["a"][0])
        v2 = unit(model, model.blocks["r"][0])
        assert omega_tube(model, p, v1, v2) == F(3, 2)

    def test_rejects_off_slice_points(self):
        inst = so3_case("generic")
        model = setup(inst)
        p = TubePoint(vec(1, 0, 0), zero_vec(model.dim_m),
                      zero_vec(model.slice_dim))
        v = unit(model, 0)
        with pytest.raises(OffSlice):
            omega_tube(model, p, v, v)

    def test_antisymmetry_at_slice_points(self):
        inst = so3xso3_diag(with_gm=True)
        model = setup(inst)
        p = TubePoint(zero_vec(6),
                      tuple(F(1, 10) for _ in range(model.dim_m)),
                      tuple(F(-1, 10) for _ in range(model.slice_dim)))
        for i in (0, 3, 5):
            for j in (1, 2, 4):
                vi, vj = unit(model, i), unit(model, j)
                assert omega_tube(model, p, vi, vj) == \
                    -omega_tube(model, p, vj, vi)


class TestGramAgainstReference:
    @pytest.mark.parametrize("name, inst", _differential_instances())
    def test_gram_equals_entrywise_formula(self, name, inst):
        assert validate(inst).passed
        model = setup(inst)
        rng = random.Random(name)

        def rand_frac():
            return F(rng.randint(-9, 9), rng.randint(1, 7))

        points = [origin(model)] + [
            TubePoint(zero_vec(inst.dim),
                      tuple(rand_frac() for _ in range(model.dim_m)),
                      tuple(rand_frac() for _ in range(model.slice_dim)))
            for _ in range(2)]
        units = [unit(model, i) for i in range(model.total_dim)]
        for p in points:
            G = omega_tube_gram(model, p)
            assert (G.rows, G.cols) == (model.total_dim, model.total_dim)
            for i, vi in enumerate(units):
                for j, vj in enumerate(units):
                    assert G.entries[i][j] == \
                        omega_tube_reference(inst, model, p, vi, vj), (i, j)
        assert omega_tube_gram(model, points[0]) == model.omega.gram

    def test_omega_tube_pairs_through_the_gram(self):
        inst = so3xso3_diag(mu=vec(0, 0, 1, 0, 0, 2), with_gm=True)
        model = setup(inst)
        rng = random.Random(7)

        def rand_vec(n):
            return tuple(F(rng.randint(-5, 5), rng.randint(1, 4))
                         for _ in range(n))

        p = TubePoint(zero_vec(6), rand_vec(model.dim_m),
                      rand_vec(model.slice_dim))
        for _ in range(5):
            v1 = rand_vec(model.total_dim)
            v2 = rand_vec(model.total_dim)
            assert omega_tube(model, p, v1, v2) == \
                omega_tube_reference(inst, model, p, v1, v2)

    def test_gram_rejects_off_slice_points(self):
        inst = so3_case("generic")
        model = setup(inst)
        p = TubePoint(vec(0, 1, 0), zero_vec(model.dim_m),
                      zero_vec(model.slice_dim))
        with pytest.raises(OffSlice):
            omega_tube_gram(model, p)


class TestPhiTilde:
    def test_origin_gives_mu_exactly(self):
        inst = so3_case("generic", slice_dim=2)
        model = setup(inst)
        res = phi_tilde(model, origin(model))
        assert res == tuple(float(x) for x in inst.mu)

    def test_abelian_is_translation_for_any_xi(self):
        inst = torus_instance(3, 2, slice_dim=2)
        model = setup(inst)
        p = TubePoint(vec(5, -7, F(1, 3)), (F(1, 2), F(2), F(-3)),
                      (F(1), F(1, 4)))
        res = phi_tilde(model, p)
        lam = list(inst.mu)
        for i, x in enumerate(model.iota_mstar(p.rho)):
            lam[i] += x
        # Trivial slice action: the quadratic momentum vanishes.
        assert res == tuple(float(x) for x in lam)

    def test_so3_rotation_closed_form(self):
        inst = ProblemInstance(
            so3(), Subspace.span(3, [vec(0, 0, 1)]), Subspace.zero(3),
            vec(1, 0, 0), InnerProduct(Matrix.identity(3)),
            standard_slice(0))
        model = setup(inst)
        t = F(7, 10)
        p = TubePoint((F(0), F(0), t), zero_vec(model.dim_m), ())
        res = phi_tilde(model, p)
        expected = (math.cos(t), math.sin(t), 0.0)
        assert max(abs(a - b) for a, b in zip(res, expected)) <= 1e-9


class TestExpm:
    def test_zero_matrix(self):
        assert expm([[0.0, 0.0], [0.0, 0.0]]) == [[1.0, 0.0], [0.0, 1.0]]

    def test_rotation_generator(self):
        t = 1.3
        E = expm([[0.0, -t], [t, 0.0]], rel_tol=1e-14)
        assert abs(E[0][0] - math.cos(t)) < 1e-12
        assert abs(E[1][0] - math.sin(t)) < 1e-12


class TestConsistencyChecks:
    def test_abelian_fd_is_essentially_exact(self):
        inst = torus_instance(3, 1, slice_dim=2)
        checks = check_dphi_consistency(setup(inst))
        assert checks[0].passed, checks[0].detail

    def test_so3_generic_fd(self):
        inst = so3_case("generic", slice_dim=2)
        checks = check_dphi_consistency(setup(inst))
        assert checks[0].passed, checks[0].detail

    def test_so3xso3_fd(self):
        inst = so3xso3_diag(with_gm=True)
        checks = check_dphi_consistency(setup(inst))
        assert checks[0].passed, checks[0].detail

    def test_equivariance_identity_group_element(self):
        # xi = 0: both paths reduce to the same exact covector.
        inst = so3_case("generic", slice_dim=2)
        model = setup(inst)
        p = TubePoint(zero_vec(3), (F(1, 2),) * model.dim_m,
                      (F(1), F(-2)))
        lhs = phi_tilde(model, p)
        base = phi_tilde(model, p)
        assert lhs == base

    def test_equivariance_sampled(self):
        inst = so3_case("generic", slice_dim=2)
        checks = phi_equivariance_check(setup(inst), samples=20)
        assert checks[0].passed, checks[0].detail

    def test_equivariance_abelian_exact(self):
        inst = torus_instance(3, 1, slice_dim=0)
        checks = phi_equivariance_check(setup(inst), samples=5)
        assert checks[0].passed
        assert "deviation 0.000e+00" in checks[0].detail
