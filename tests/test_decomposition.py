"""Both decompositions, the slice form and the slice momentum map."""

from fractions import Fraction

from instances import (
    full_stabilizer_instance,
    middle_term_instance,
    so3_case,
    so3xso3_diag,
    standard_slice,
    torus_instance,
    vec,
)
from wittartin.decomposition import (
    _eta_action_on_nh1,
    coadjoint_slice_check,
    decompose_G,
    decompose_H,
    eq_M_subspace,
    h_decomposition_checks,
    slice_form,
    slice_momentum,
)
from wittartin.exactlin import Matrix, Subspace, dot, gram_on, zero_vec
from wittartin.liecore import InnerProduct, chu_form, so3
from wittartin.pointmodel import build_model
from wittartin.splitting import ProblemInstance, build_chain

F = Fraction


def setup(inst):
    chain = build_chain(inst)
    model = build_model(chain, inst)
    return chain, model


class TestDecomposeG:
    def test_so3_generic_dims(self):
        _, model = setup(so3_case("generic", slice_dim=0))
        d = decompose_G(model)
        assert tuple(map(len, (d.T0, d.T1, d.N0, d.N1))) == (1, 2, 1, 0)

    def test_abelian_free(self):
        _, model = setup(torus_instance(4, 2, slice_dim=2))
        d = decompose_G(model)
        assert len(d.T1) == 0
        assert len(d.T0) == 4         # g_mu = g, so T0 is all orbit directions
        assert len(d.N0) == 4         # isomorphic to g*
        assert len(d.N1) == 2

    def test_fixed_point_everything_in_N1(self):
        _, model = setup(full_stabilizer_instance())
        d = decompose_G(model)
        assert (d.T0, d.T1, d.N0) == ((), (), ())
        assert d.N1 == tuple(range(model.total_dim))

    def test_gram_T1_is_kks(self):
        chain, model = setup(so3_case("collinear", slice_dim=2))
        d = decompose_G(model)
        chu = chu_form(model.inst.algebra, model.inst.mu)
        nvecs = [model.mn_basis.col(i)
                 for name in ("a", "s", "ntilde", "r")
                 for i in model.blocks[name]]
        expected = Matrix.from_rows(
            [[chu(x, y) for y in nvecs] for x in nvecs], cols=len(nvecs))
        gram_T1 = model.omega_on(d.T1)
        assert gram_T1 == expected
        assert gram_T1 == gram_on(model.omega, model.unit_span(d.T1))
        assert gram_T1.rank() == len(d.T1)


class TestDecomposeH:
    def test_so3_generic_blocks(self):
        # N1_tilde = N1 + X_m with X_m of dimension 2 (b and its dual).
        _, model = setup(so3_case("generic", slice_dim=2))
        d = decompose_H(model)
        assert len(d.s_block) == 0
        assert len(d.Xm_block) == 2
        assert len(d.NH1) == 4
        assert d.NH1 == d.Xm_block + d.N1_block

    def test_so3_collinear_blocks(self):
        # N1_tilde = N1 + s*m with s*m of dimension 2 and X_m = 0.
        _, model = setup(so3_case("collinear", slice_dim=2))
        d = decompose_H(model)
        assert len(d.s_block) == 2
        assert len(d.Xm_block) == 0
        assert d.NH1 == d.s_block + d.N1_block

    def test_abelian_Xm_is_quotient_plus_dual(self):
        _, model = setup(torus_instance(5, 2, slice_dim=2))
        d = decompose_H(model)
        assert len(d.s_block) == 0
        assert len(d.Xm_block) == 2 * (5 - 2)
        assert len(d.NH1) == 2 * (5 - 2) + 2

    def test_h_zero_slice_is_whole_model(self):
        inst = ProblemInstance(
            so3(), Subspace.zero(3), Subspace.zero(3), vec(0, 0, 1),
            InnerProduct(Matrix.identity(3)), standard_slice(2))
        _, model = setup(inst)
        d = decompose_H(model)
        assert sorted(d.NH1) == list(range(model.total_dim))
        assert model.ker_dphi_H == Subspace.full(model.total_dim)

    def test_all_checks_pass_on_mixed_instance(self):
        _, model = setup(so3xso3_diag(with_gm=True))
        d = decompose_H(model)
        for check in h_decomposition_checks(d, model):
            assert check.passed, check.name

    def test_blocks_are_model_index_tuples(self):
        _, model = setup(middle_term_instance())
        d = decompose_H(model)
        ix = model.indices
        assert (d.TH0, d.TH1, d.NH0) == (ix("p", "a"), ix("ntilde"),
                                         ix("r", "pstar"))
        # NH1 keeps the block order of its form: s, b, Y_m, N1.
        assert d.NH1 == d.s_block + ix("b") + d.Ym + d.N1_block
        assert (d.Xm_block, d.Zm) == (ix("b", "bstar"), ix("a", "r"))
        assert d.form.gram == model.omega_on(d.NH1)

    def test_kernel_identity(self):
        _, model = setup(so3xso3_diag(with_gm=False))
        d = decompose_H(model)
        assert model.unit_span(d.TH0 + d.NH1) == model.ker_dphi_H


class TestEqM:
    def test_M_is_qm_plus_Ym(self):
        for inst in (so3_case("generic", slice_dim=2),
                     so3xso3_diag(with_gm=True),
                     middle_term_instance()):
            _, model = setup(inst)
            d = decompose_H(model)
            M = eq_M_subspace(model)
            # q*m occupies the a and s coordinate blocks.
            qm = model.indices("a", "s")
            assert M == model.unit_span(qm + d.Ym)
            chain = model.chain
            assert M.dim == chain.a.dim + chain.s.dim + chain.b.dim


class TestSliceForm:
    def test_collinear_is_kks_plus_slice(self):
        _, model = setup(so3_case("collinear", slice_dim=2))
        d = decompose_H(model)
        form = slice_form(model)
        chain = model.chain
        chu = chu_form(model.inst.algebra, model.inst.mu)
        svecs = chain.s.basis_vectors()
        for i in range(2):
            for j in range(2):
                assert form.gram.entries[i][j] == chu(svecs[i], svecs[j])
        # s block is genuinely symplectic here.
        sub = Matrix.from_rows([[form.gram.entries[i][j] for j in range(2)]
                                for i in range(2)])
        assert sub.rank() == 2
        assert form.gram.entries[2][3] == F(1)
        assert form.gram.entries[3][2] == F(-1)

    def test_abelian_is_canonical_pairing_plus_slice(self):
        _, model = setup(torus_instance(3, 1, slice_dim=2))
        d = decompose_H(model)
        form = slice_form(model)
        n = form.ambient_dim
        assert n == 6
        expected = [[F(0)] * n for _ in range(n)]
        for i in range(2):              # dim b = 2 canonical pairs
            expected[i][2 + i] = F(1)
            expected[2 + i][i] = F(-1)
        expected[4][5] = F(1)
        expected[5][4] = F(-1)
        assert form.gram == Matrix.from_rows(expected)

    def test_h_equals_g_gives_slice_form_only(self):
        inst = ProblemInstance(
            so3(), Subspace.full(3), Subspace.zero(3), vec(0, 0, 1),
            InnerProduct(Matrix.identity(3)), standard_slice(2))
        _, model = setup(inst)
        d = decompose_H(model)
        form = slice_form(model)
        assert form.gram == inst.slice_rep.omega.gram


class TestSliceMomentum:
    def test_zero_vector_gives_zero(self):
        _, model = setup(so3xso3_diag(with_gm=True))
        d = decompose_H(model)
        out = slice_momentum(model, zero_vec(len(d.NH1)))
        assert out == (F(0),)

    def test_free_instances_give_empty_covector(self):
        _, model = setup(so3_case("generic", slice_dim=2))
        d = decompose_H(model)
        assert slice_momentum(model, zero_vec(len(d.NH1))) == ()

    def test_diagonal_instance_frozen_value(self):
        # Oracle: direct definition 1/2 omega_NH1(eta.nu, nu), evaluated by
        # hand for this vector: quadratic term -5/4, the b-bracket term
        # vanishes ([b, eta] = 0 here), slice term -13/72.
        _, model = setup(so3xso3_diag(with_gm=True))
        d = decompose_H(model)
        nu_tilde = (F(1), F(1, 2), F(-1), F(2), F(1, 3), F(-1, 2))
        assert slice_momentum(model, nu_tilde) == (F(-103, 72),)

    def test_middle_term_instance_frozen_value(self):
        # Here [b, eta] != 0, so the -ad*_b f(w) term genuinely contributes;
        # value recorded from the direct-definition evaluation.
        _, model = setup(middle_term_instance())
        d = decompose_H(model)
        nu_tilde = tuple(F(k + 1, 2) for k in range(len(d.NH1)))
        assert slice_momentum(model, nu_tilde) == (F(-187, 8),)

    def test_formula_matches_direct_on_random_vectors(self):
        import random
        rng = random.Random(7)
        # [b, eta] = 0 on the first instance and != 0 on the second.
        for inst in (so3xso3_diag(with_gm=True), middle_term_instance()):
            _, model = setup(inst)
            d = decompose_H(model)
            # Direct route: 1/2 omega_NH1(eta . nu_tilde, nu_tilde).
            gram = slice_form(model).gram
            (eta,) = model.chain.h_m.basis_vectors()
            act = _eta_action_on_nh1(model, eta)
            for _ in range(10):
                v = tuple(F(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(len(d.NH1)))
                direct = F(1, 2) * dot(act.apply(v), gram.apply(v))
                assert slice_momentum(model, v) == (direct,)

    def test_quadratic_form_representation(self):
        from wittartin.decomposition import slice_momentum_forms
        from wittartin.exactlin import dot
        _, model = setup(middle_term_instance())
        d = decompose_H(model)
        forms = slice_momentum_forms(d)
        assert len(forms) == model.chain.h_m.dim == 1
        assert forms[0].is_symmetric()
        v = tuple(F(k + 1, 2) for k in range(len(d.NH1)))
        assert (dot(v, forms[0].apply(v)),) == slice_momentum(model, v)


class TestCoadjointSlice:
    def test_collinear_kernel_is_s_orbit(self):
        inst = so3_case("collinear", slice_dim=0)
        chain = build_chain(inst)
        for check in coadjoint_slice_check(chain, inst):
            assert check.passed, check.name
        assert chain.s.dim == 2 and chain.h_alpha.dim == 1
        assert chain.h_mu == chain.h_alpha  # h_alpha*mu orbit is trivial

    def test_abelian_orbit_is_a_point(self):
        inst = torus_instance(4, 1, slice_dim=0)
        chain = build_chain(inst)
        checks = coadjoint_slice_check(chain, inst)
        assert all(c.passed for c in checks)
        assert chain.n_space.dim == 0

    def test_diagonal_instance(self):
        inst = so3xso3_diag(with_gm=False)
        chain = build_chain(inst)
        for check in coadjoint_slice_check(chain, inst):
            assert check.passed, check.name
