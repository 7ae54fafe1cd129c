"""The tangent model: form assembly, generators, momentum differentials."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from instances import (
    full_stabilizer_instance,
    so3_case,
    so3xso3_diag,
    standard_slice,
    torus_instance,
    vec,
)
from wittartin.exactlin import Matrix, Subspace, dot, preserves, unit_vec, zero_vec
from wittartin.pointmodel import (
    DegenerateModel,
    build_model,
    dphi_G,
    dphi_H,
    inf_action,
    isotropy_action,
    momentum_differential,
)
from wittartin.splitting import build_chain
from wittartin.tube import TubePoint, _shifted_momentum, omega_tube_gram

F = Fraction


def model_for(inst):
    return build_model(build_chain(inst))


class TestBuildModel:
    def test_model_reads_its_instance_off_its_chain(self):
        chain = build_chain(so3_case("generic"))
        assert build_model(chain).inst is chain.inst

    @pytest.mark.parametrize("r", ["zero", "a"])
    def test_chain_that_is_no_basis_of_g_raises_degenerate_model(self, r):
        # so3-generic has a = r = a line: without r the (gm, m, n) columns
        # are 2 for dim g = 3, and with r = a they are 3 but dependent.
        chain = build_chain(so3_case("generic"))
        r = Subspace.zero(3) if r == "zero" else chain.a
        with pytest.raises(DegenerateModel,
                           match="gm \\+ m \\+ n do not form a basis of g"):
            build_model(replace(chain, r=r))

    def test_so3_generic_dims_and_rank(self):
        # total = (3 - 0) + dim m + dim N1 with dim m = 1.
        m0 = model_for(so3_case("generic", slice_dim=0))
        assert m0.total_dim == 4
        assert m0.omega.rank() == 4
        m2 = model_for(so3_case("generic", slice_dim=2))
        assert m2.total_dim == 6
        assert m2.omega.rank() == 6

    def test_abelian_model_is_canonical_pairing_plus_slice(self):
        inst = torus_instance(3, 1, slice_dim=2)
        m = model_for(inst)
        # U block is all of g (g_mu = g, n = 0), R block pairs with it, and
        # the bracket term vanishes, so the Gram is the canonical block form.
        total = m.total_dim
        assert total == 8
        expected = [[F(0)] * total for _ in range(total)]
        for i in range(3):
            expected[i][3 + i] = F(1)
            expected[3 + i][i] = F(-1)
        expected[6][7] = F(1)
        expected[7][6] = F(-1)
        assert m.omega == Matrix.from_rows(expected)

    def test_fixed_point_model_is_slice_alone(self):
        inst = full_stabilizer_instance()
        m = model_for(inst)
        assert m.total_dim == 4
        assert m.omega == inst.slice_rep.omega


class TestInfAction:
    def test_gm_vector_maps_to_zero(self):
        inst = so3xso3_diag(with_gm=True)
        m = model_for(inst)
        v = inf_action(m, vec(0, 0, 1, 0, 0, 1))
        assert v == zero_vec(m.total_dim)

    def test_n_vector_passes_through(self):
        inst = so3_case("generic")
        m = model_for(inst)
        chain = m.chain
        un = m.dim_m + m.dim_n
        for x in chain.n_space.basis_vectors():
            v = inf_action(m, x)
            assert m.mn_basis.apply(v[:un]) == x
            assert v[un:] == zero_vec(m.total_dim - un)

    def test_mixed_vector_projects(self):
        inst = so3xso3_diag(with_gm=True)
        m = model_for(inst)
        eta = vec(0, 0, 1, 0, 0, 1)           # in g_m
        x = m.chain.n_space.basis_vectors()[0]
        mixed = tuple(a + b for a, b in zip(eta, x))
        v = inf_action(m, mixed)
        assert m.mn_basis.apply(v[:m.dim_m + m.dim_n]) == x


def n0_vector(m, rho):
    """The model coordinates of the N0 vector with R block rho."""
    return zero_vec(m.dim_m + m.dim_n) + tuple(rho) + zero_vec(m.slice_dim)


class TestIsotropyAction:
    """The linearised g_m-action on the model, against properties it must
    have: it is infinitesimally symplectic, the generators are equivariant,
    and the bracket of g_m goes to the commutator."""

    @staticmethod
    def models():
        from corpus import build_corpus
        insts = [inst for inst in build_corpus() if inst.gm.dim > 0]
        return [model_for(inst) for inst in insts[::3]] + [
            model_for(so3xso3_diag(with_gm=True)),
            model_for(full_stabilizer_instance())]

    def test_symplectic_equivariant_and_a_representation(self):
        models = self.models()
        assert len(models) > 10
        for m in models:
            L, etas = m.inst.algebra, m.inst.gm.basis_vectors()
            actions = [isotropy_action(m, eta) for eta in etas]
            for eta, A in zip(etas, actions):
                assert preserves(A, m.omega)
                for i in range(m.inst.dim):
                    x = unit_vec(m.inst.dim, i)
                    assert A.apply(inf_action(m, x)) \
                        == inf_action(m, L.bracket(eta, x))
            for i, A in enumerate(actions):
                for j, B in enumerate(actions):
                    assert isotropy_action(m, L.bracket(etas[i], etas[j])) \
                        == A @ B - B @ A

    def test_slice_block_is_the_slice_representation(self):
        m = model_for(full_stabilizer_instance())
        v = m.indices("N1")
        for t, eta in enumerate(m.inst.gm.basis_vectors()):
            A = isotropy_action(m, eta)
            assert A.submatrix(v, v) == m.inst.slice_rep.action[t]
            assert A.submatrix(v, range(v[0])).is_zero()


class TestFMap:
    """f: N0 -> m* reads off the R block; its contract is
    <f(w), y> = omega(y_M, w) for y in the m basis."""

    def test_reads_off_rho_with_pairing_contract(self):
        m = model_for(so3_case("generic"))
        rho = tuple(F(k + 1, 2) for k in range(m.dim_m))
        w = n0_vector(m, rho)
        for j, y in enumerate(m.mn_basis.col(i) for i in m.indices("p", "b")):
            assert dot(inf_action(m, y), m.omega.apply(w)) == rho[j]

    def test_antisymmetry_of_pairing(self):
        m = model_for(so3_case("generic"))
        w = n0_vector(m, (F(1),) * m.dim_m)
        y = inf_action(m, m.chain.m_space.basis_vectors()[0])
        G = m.omega
        assert dot(y, G.apply(w)) == -dot(w, G.apply(y))


class TestDphiG:
    def test_abelian_map_is_rho_inclusion(self):
        inst = torus_instance(3, 2, slice_dim=2)
        m = model_for(inst)
        D = dphi_G(m)
        # u and nu columns vanish; rho columns embed m* = g*.
        for j in range(m.dim_m + m.dim_n):
            assert all(x == 0 for x in D.col(j))
        for j in range(m.slice_dim):
            assert all(x == 0 for x in D.col(m.dim_m + m.dim_n + m.dim_m + j))
        assert m.ker_dphi_G.dim == m.total_dim - m.dim_m

    def test_so3_generic_kernel_dim(self):
        for slice_dim, expected in ((0, 1), (2, 3)):
            m = model_for(so3_case("generic", slice_dim=slice_dim))
            assert m.ker_dphi_G.dim == expected

    def test_kernel_is_m_plus_slice_block(self):
        m = model_for(so3_case("collinear", slice_dim=2))
        units = [unit_vec(m.total_dim, i)
                 for name in ("p", "b") for i in m.blocks[name]]
        units += [unit_vec(m.total_dim, i) for i in m.blocks["N1"]]
        assert m.ker_dphi_G == Subspace.span(m.total_dim, units)

    def test_nonzero_on_n_directions(self):
        m = model_for(so3_case("generic"))
        D = dphi_G(m)
        for i in m.blocks["a"]:
            assert any(x != 0 for x in D.col(i))

    def test_injective_on_n_block(self):
        # -ad*_u mu vanishes only at u = 0 for u in the n block.
        m = model_for(so3xso3_diag(with_gm=True))
        D = dphi_G(m)
        n_cols = [D.col(i) for name in ("a", "s", "ntilde", "r")
                  for i in m.blocks[name]]
        sub = Matrix.from_cols(n_cols, rows=m.inst.dim)
        assert sub.rank() == len(n_cols)


class TestDphiH:
    def test_h_equals_g_matches_dphi_G_kernel(self):
        from wittartin.exactlin import InnerProduct
        from wittartin.liecore import so3
        from wittartin.splitting import ProblemInstance
        inst = ProblemInstance(
            so3(), Subspace.full(3), Subspace.zero(3), vec(0, 0, 1),
            InnerProduct(Matrix.identity(3)), standard_slice(2))
        m = model_for(inst)
        assert m.ker_dphi_H == m.ker_dphi_G

    def test_h_zero_kernel_is_everything(self):
        from wittartin.exactlin import InnerProduct
        from wittartin.liecore import so3
        from wittartin.splitting import ProblemInstance
        inst = ProblemInstance(
            so3(), Subspace.zero(3), Subspace.zero(3), vec(0, 0, 1),
            InnerProduct(Matrix.identity(3)), standard_slice(2))
        m = model_for(inst)
        assert m.ker_dphi_H == Subspace.full(m.total_dim)

    def test_so3_generic_kernel_dim_from_oracle(self):
        # Golden number fixed by the generic rank oracle: model dim 4,
        # rank of dphi_H = dim h - dim h_m = 1, so the kernel is 3-dim.
        m = model_for(so3_case("generic", slice_dim=0))
        D = dphi_H(m)
        assert D.rank() == 1
        assert m.ker_dphi_H.dim == 3

    def test_kernel_gap_matches_formula(self):
        inst = so3xso3_diag(with_gm=True)
        m = model_for(inst)
        gap = m.ker_dphi_H.dim - m.ker_dphi_G.dim
        d = m.chain.dims()
        assert gap == d["q"] + d["b"]


def test_tube_form_is_the_point_form_outside_uu():
    # Column a of the (m, n) basis is column gm + a of the g basis, so its g
    # coordinates are a unit vector; that makes the tube's U x R block [I; 0]
    # and its U x V block 0 at every slice point, the point form's blocks.
    from corpus import build_corpus
    models = [model_for(inst) for inst in build_corpus()]
    assert len(models) > 150
    rng = random.Random(0)

    def draw(k):
        return tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k))

    for m in models:
        n, gm, un = m.inst.dim, m.gm_dim, m.mn_basis.cols
        for a in range(un):
            assert m.g_coords(m.mn_basis.col(a)) == unit_vec(n, gm + a)
        for _ in range(2):
            p = TubePoint(zero_vec(n), draw(m.dim_m), draw(m.slice_dim))
            G = omega_tube_gram(m, p).entries
            assert all(G[i][j] == m.omega.entries[i][j]
                       for i in range(m.total_dim) for j in range(m.total_dim)
                       if i >= un or j >= un)


def test_momentum_differential_takes_no_zero_operand(fraction_ops):
    # -lam keeps lam's shared zeros, and ad*_u(-lam) replaces a ZERO
    # partial sum instead of adding to it, so at slice points (fresh
    # Fraction(0) coordinates among them) no sum or product of dJ takes a
    # zero operand.
    from corpus import build_corpus
    models = [model_for(inst) for inst in build_corpus()[::20]]
    models.append(model_for(so3xso3_diag(with_gm=True)))
    rng = random.Random(1)
    for m in models:
        for _ in range(2):
            p = TubePoint(zero_vec(m.inst.dim), *(
                tuple(F(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(k)) for k in (m.dim_m, m.slice_dim)))
            lam = _shifted_momentum(m, p)
            del fraction_ops[:]
            momentum_differential(m, lam, p.nu)
            assert fraction_ops and not any(zero for _, zero in fraction_ops)
