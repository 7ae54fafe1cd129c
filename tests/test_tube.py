"""Normal-form evaluation away from the base point."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import build_corpus
from instances import so3_case, so3xso3_diag, standard_slice, torus_instance, vec
from wittartin import tube
from wittartin.catalog import all_examples, build_example
from wittartin.exactlin import (
    InnerProduct,
    Matrix,
    Subspace,
    dot,
    unit_vec,
    zero_vec,
)
from wittartin.instancefile import from_dict
from wittartin.liecore import so3
from wittartin.pointmodel import build_model
from wittartin.splitting import ProblemInstance, build_chain, validate
from wittartin.tube import (
    OffSlice,
    TubePoint,
    check_dphi_consistency,
    expm,
    omega_tube,
    omega_tube_gram,
    phi_equivariance_check,
    phi_tilde,
)

F = Fraction


def split(model, v):
    """The (u, rho, nu) blocks of a model coordinate vector."""
    un = model.dim_m + model.dim_n
    return v[:un], v[un:un + model.dim_m], v[un + model.dim_m:]


def zero_extend(model, start, cov):
    """The g* covector sum_k cov[k] * (row start + k of g_basis_inv): the
    zero-extension of an m* (start gm) or g_m* (start 0) covector."""
    rows = model.g_basis_inv.entries[start:start + len(cov)]
    return tuple(sum((c * r[i] for c, r in zip(cov, rows)), F(0))
                 for i in range(model.inst.dim))


def omega_tube_reference(inst, model, p, v1, v2):
    """The tube 2-form evaluated one pair of vectors at a time:

        <rho2, xi1> - <rho1, xi2> + <DPhi_N1(nu) nu2, xi1> - <DPhi_N1(nu) nu1, xi2>
        + <mu + rho + Phi_N1(nu), [xi1, xi2]> + omega_N1(nu1, nu2)

    with xi_i the g-vector of the U block of v_i.  This is the entrywise
    formula the Gram matrix of omega_tube_gram must reproduce exactly.
    """
    (u1, rho1, nu1), (u2, rho2, nu2) = split(model, v1), split(model, v2)
    xi1 = model.mn_basis.apply(u1)
    xi2 = model.mn_basis.apply(u2)

    def omega_n1(x, y):
        return dot(x, inst.slice_rep.omega.apply(y))

    # Phi_N1(nu) = 1/2 omega(A nu, nu) per action matrix A, and its
    # derivative along nudot, written out here apart from the package.
    phi = tuple(F(1, 2) * omega_n1(A.apply(p.nu), p.nu)
                for A in inst.slice_rep.action)

    def paired(rhodot, nudot, xi):
        lam = zero_extend(model, model.gm_dim, rhodot)
        dphi = zero_extend(model, 0, tuple(
            F(1, 2) * (omega_n1(A.apply(nudot), p.nu)
                       + omega_n1(A.apply(p.nu), nudot))
            for A in inst.slice_rep.action))
        return dot(lam, xi) + dot(dphi, xi)

    term12 = paired(rho2, nu2, xi1) - paired(rho1, nu1, xi2)
    br = inst.algebra.bracket(xi1, xi2)
    lam_point = zero_extend(model, model.gm_dim, p.rho)
    lam_slice = zero_extend(model, 0, phi)
    term3 = dot(lam_point, br) + dot(lam_slice, br) + dot(inst.mu, br)
    term5 = omega_n1(nu1, nu2)
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
    return build_model(build_chain(inst))


def momentum_map_misses(model, rng, points=4):
    """The failure details of check_dphi_consistency at the origin and at
    `points` random rational slice points, each with its point."""
    out = []
    for t in range(points + 1):
        p = TubePoint(zero_vec(model.inst.dim), *(
            tuple(F(rng.randint(-8, 8), rng.randint(1, 8)) if t else F(0)
                  for _ in range(dim))
            for dim in (model.dim_m, model.slice_dim)))
        miss = check_dphi_consistency(model, p, omega_tube_gram(model, p))
        if miss:
            out.append((p, miss))
    return out


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
                        == model.omega.entries[i][j]

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
        assert omega_tube_gram(model, points[0]) == model.omega

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


def ref_uu(model, p):
    """UU = Mn^T K Mn: the dense product omega_tube_gram's U x U block
    replaced, with K the bracket pairing against the shifted momentum."""
    K = model.inst.algebra.bracket_pairing(tube._shifted_momentum(model, p))
    return model.mn_basis.transpose() @ K @ model.mn_basis


def _corpus_models():
    """Two buildable instances of every algebra in the test corpus."""
    seen = {}
    for inst in build_corpus():
        if len(seen.setdefault(inst.algebra, [])) < 2:
            seen[inst.algebra].append(setup(inst))
    return [pytest.param(m, id=f"dim{m.inst.dim}-{t}")
            for t, m in enumerate(m for ms in seen.values() for m in ms)]


@pytest.mark.parametrize("model", _corpus_models())
def test_uu_block_equals_dense_product(model):
    rng = random.Random(model.total_dim)
    points = [origin(model)] + [
        TubePoint(zero_vec(model.inst.dim),
                  tuple(F(rng.randint(-9, 9), rng.randint(1, 7))
                        for _ in range(model.dim_m)),
                  tuple(F(rng.randint(-9, 9), rng.randint(1, 7))
                        for _ in range(model.slice_dim)))
        for _ in range(2)]
    un = model.dim_m + model.dim_n
    for p in points:
        G = omega_tube_gram(model, p)
        assert tuple(row[:un] for row in G.entries[:un]) \
            == ref_uu(model, p).entries


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
        for i, x in enumerate(zero_extend(model, model.gm_dim, p.rho)):
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

    @pytest.mark.parametrize("c", [0.0, 0.3, 8.0, 100.0])
    def test_ode_residual_of_expm_is_within_fd_tol_at_any_scale(self, c):
        # A rotation generator of norm 1.5 c: with a step that did not
        # shrink with the norm, c = 100 would miss by about 2e-5.
        A = [[0.0, -c, 0.0], [c, 0.0, 0.5 * c], [0.0, -0.5 * c, 0.0]]
        assert tube._ode_residual(A) <= tube.FD_TOL

    def test_ode_residual_of_expm_is_within_its_bound_beyond_norm_1e3(self):
        # expm of this rotation generator is 1.7e-6 from the closed form;
        # its complex-step residual is 3.5e-9.
        c = 2.6e4
        A = [[0.0, -c, 0.0], [c, 0.0, 0.0], [0.0, 0.0, 0.0]]
        assert tube._ode_residual(A) <= tube.FD_TOL

    @pytest.mark.parametrize("c, widened", [(0.0, 1e-6), (1e3, 1e-6),
                                            (2e3, 2e-6), (1e5, 1e-4)])
    def test_ode_bound_is_fd_tol_up_to_norm_1e3(self, c, widened):
        # The residual does not grow with the norm (0, 3.2e-9, 3.1e-9 and
        # 3.5e-9 here), so FD_TOL bounds it at every norm, tighter than the
        # bound FD_TOL max(1, ||A|| / 1e3) that once widened it.
        A = [[0.0, -c], [c, 0.0]]
        assert tube._ode_residual(A) <= tube.FD_TOL <= widened

    @pytest.mark.parametrize("A", [[[1e308, 1e308], [0.0, 0.0]],
                                   [[math.inf]]])
    def test_norm_beyond_float_range_raises(self, A):
        # Halving an infinite norm toward 1/2 never ended.
        with pytest.raises(tube.OutOfFloatRange,
                           match=r"is inf, out of float range$"):
            expm(A)

    @pytest.mark.parametrize("A", [[[1.0, 0.0], [0.0, math.nan]],
                                   [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                                    [0.0, math.nan, 0.0]]])
    def test_nan_outside_the_first_row_fails_the_tail_test(self, A):
        # The norm of A skips a nan after row 0; the tail of the series
        # keeps it, so no tail test passes.
        assert math.isfinite(tube._mat_norm(A))
        with pytest.raises(tube.SeriesNotConverged):
            expm(A)

    def test_ode_residual_sees_a_halved_exponential(self, monkeypatch):
        # Z = expm((1 + ih) A / 2): Im Z / h is A/2 expm(A/2), half of
        # A Re Z.
        monkeypatch.setattr(tube, "expm",
                            lambda A, exact=expm: exact(tube._mat_scale(0.5, A)))
        A = [[0.0, -2.0], [2.0, 0.0]]
        assert tube._ode_residual(A) > 0.1

    @pytest.mark.parametrize("c", [0.3, 8.0, 100.0])
    def test_real_part_of_the_complex_step_is_expm_within_its_bound(self, c):
        # Re Z = expm(A) cos(hA) with h ||A|| = 1e-4 from ||A|| = 1 on:
        # within cosh(1e-4) - 1 = 5.0e-9 of expm(A), relatively.
        A = [[0.0, -c, 0.0], [c, 0.0, 0.5 * c], [0.0, -0.5 * c, 0.0]]
        E = tube._complex_step(A)[0]
        bound = math.cosh(tube._ODE_STEP * min(1.0, tube._mat_norm(A))) - 1
        assert tube._relative_error([x for row in E for x in row],
                                    [x for row in expm(A) for x in row]) \
            <= bound * (1 + 1e-3) + 1e-15


class TestConsistencyChecks:
    @pytest.mark.parametrize("errors", [[math.nan, 1.0], [1.0, math.nan],
                                        [0.0, 2.0, math.nan, 3.0]])
    def test_worst_error_is_nan_wherever_a_nan_is(self, errors):
        # max() returns 1.0 for [1.0, nan]: it would hide the overflow.
        assert math.isnan(tube._worst(errors))

    def test_worst_error_is_the_largest_or_zero_for_none(self):
        assert tube._worst([0.5, 2.0, 1.0]) == 2.0
        assert tube._worst([]) == 0.0

    def test_abelian_fd_is_essentially_exact(self):
        model = setup(torus_instance(3, 1, slice_dim=2))
        assert momentum_map_misses(model, random.Random(0)) == []

    def test_so3_generic_fd(self):
        model = setup(so3_case("generic", slice_dim=2))
        assert momentum_map_misses(model, random.Random(1)) == []

    def test_so3xso3_fd(self):
        model = setup(so3xso3_diag(with_gm=True))
        assert momentum_map_misses(model, random.Random(2)) == []

    def test_momentum_map_equation_holds_on_the_corpus(self):
        # Far from the origin too: entries up to 8 in size.
        rng = random.Random(3)
        for i, inst in enumerate(build_corpus()):
            assert momentum_map_misses(setup(inst), rng, points=2) == [], i

    def test_momentum_map_equation_off_the_slice_raises(self):
        model = setup(so3_case("generic", slice_dim=2))
        p = TubePoint(unit_vec(3, 0), zero_vec(model.dim_m),
                      zero_vec(model.slice_dim))
        with pytest.raises(OffSlice):
            check_dphi_consistency(model, p, model.omega)

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


def ref_mat_mul(A, B):
    """The dense row-by-column float product that tube._mat_mul replaced."""
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def float_matrices(rows, cols, bound=1e3):
    """Mostly zeros, signed zeros included, as in ad matrices and their
    powers; the bound keeps every product and exponential finite."""
    entry = st.one_of(st.just(0.0), st.just(-0.0), st.just(0.0),
                      st.floats(-bound, bound, allow_nan=False))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


class TestZeroSkippingProduct:
    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
           .flatmap(lambda d: st.tuples(float_matrices(d[0], d[1]),
                                        float_matrices(d[1], d[2]))))
    def test_equals_dense_product(self, AB):
        A, B = AB
        assert tube._mat_mul(A, B) == ref_mat_mul(A, B)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: float_matrices(n, n, 4.0)))
    def test_expm_equals_expm_on_dense_product(self, A):
        assert expm(A) == _expm_with(ref_mat_mul, A)

    def test_expm_equals_expm_on_dense_product_for_corpus_ad_matrices(self):
        rng = random.Random(11)
        for L in sorted({inst.algebra for inst in build_corpus()},
                        key=lambda L: (L.dim, str(L.c))):
            xi = tuple(F(rng.randint(-8, 8), rng.randint(1, 8))
                       for _ in range(L.dim))
            A = [[float(x) for x in row] for row in L.ad_matrix(xi).entries]
            assert expm(A) == _expm_with(ref_mat_mul, A)


def expm_reference(A, rel_tol=tube.REL_TOL):
    """The exponential as it was before the series step read S's nonzeros
    once, folded in the 1/k and skipped the norm of the partial sum: every
    step scaled, added and took both norms, on the dense product."""
    def scale(c, M):
        return [[c * x for x in row] for row in M]

    def norm(M):
        return max((sum(abs(x) for x in row) for row in M), default=0.0)

    n = len(A)
    if n == 0:
        return []
    a_norm = norm(A)
    squarings = 0
    while a_norm > 0.5:
        squarings += 1
        a_norm /= 2.0
    S = scale(0.5 ** squarings, A)
    result = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    term = [row[:] for row in result]
    s_norm = norm(S)
    for k in range(1, 60):
        term = scale(1.0 / k, ref_mat_mul(term, S))
        result = [[x + y for x, y in zip(ra, rb)]
                  for ra, rb in zip(result, term)]
        tail = norm(term)
        q = s_norm / (k + 2)
        if q < 1 and tail / (1 - q) <= rel_tol * max(1.0, norm(result)):
            break
    else:
        raise tube.SeriesNotConverged("exponential series tail bound not met")
    for _ in range(squarings):
        result = ref_mat_mul(result, result)
    return result


class TestExpmAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.tuples(st.integers(0, 7), st.sampled_from([0.3, 4.0, 40.0]))
           .flatmap(lambda d: float_matrices(d[0], d[0], d[1])),
           st.sampled_from([tube.REL_TOL, 1e-14, 1e-3]))
    def test_equals_reference_on_drawn_matrices(self, A, rel_tol):
        assert expm(A, rel_tol) == expm_reference(A, rel_tol)

    def test_equals_reference_on_corpus_ad_and_coad_matrices(self):
        # xi as drawn by phi_equivariance_check: entries up to 8 in size,
        # so the exponential scales and squares.
        rng = random.Random(23)
        squared = False
        for L in sorted({inst.algebra for inst in build_corpus()},
                        key=lambda L: (L.dim, str(L.c))):
            for _ in range(4):
                xi = tuple(F(rng.randint(-8, 8), rng.randint(1, 8))
                           for _ in range(L.dim))
                for M in (L.ad_matrix(xi), L.ad_matrix(xi).transpose()):
                    A = [[float(x) for x in row] for row in M.entries]
                    squared |= tube._mat_norm(A) > 0.5
                    assert expm(A) == expm_reference(A)
        assert squared


@st.composite
def permuted_block_diagonal(draw, bound):
    """A matrix whose rows and columns, permuted, are block diagonal: blocks
    of drawn sizes (1x1 zeros and 1x1 nonzeros among them) drawn as
    float_matrices, and a signed zero off the blocks."""
    sizes = draw(st.lists(st.integers(1, 4), max_size=4))
    n = sum(sizes)
    order = draw(st.permutations(range(n)))
    off = draw(st.sampled_from([0.0, -0.0]))
    A = [[off] * n for _ in range(n)]
    start = 0
    for size in sizes:
        block = draw(float_matrices(size, size, bound))
        idx = order[start:start + size]
        for i, row in zip(idx, block):
            for j, x in zip(idx, row):
                A[i][j] = x
        start += size
    return A


class TestBlockExpmAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0.3, 4.0, 40.0]).flatmap(permuted_block_diagonal),
           st.sampled_from([tube.REL_TOL, 1e-14, 1e-3]))
    def test_equals_reference_on_permuted_block_diagonal_matrices(
            self, A, rel_tol):
        assert expm(A, rel_tol) == expm_reference(A, rel_tol)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_zero_matrix_with_signed_zeros_is_the_identity(self, n):
        A = [[-0.0 if (i + j) % 2 else 0.0 for j in range(n)]
             for i in range(n)]
        identity = [[float(i == j) for j in range(n)] for i in range(n)]
        assert expm(A) == expm_reference(A) == identity

    def test_blocks_are_the_components_in_ascending_order(self):
        # 0 ~ 3 through S[3][0] only, 2 ~ 4 ~ 1 through a chain, 5 alone
        # with a nonzero diagonal; 6 is a zero row and column.
        A = [[0.0] * 7 for _ in range(7)]
        A[3][0] = A[4][2] = A[1][4] = A[5][5] = 1.0
        A[6][6] = -0.0
        assert tube._blocks(A) == [[0, 3], [1, 2, 4], [5]]


def _hex_rows(M):
    """Each entry's bits: the sign of a zero shows, as it does not in ==."""
    return [[float(x).hex() for x in row] for row in M]


class TestComplexExpm:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.tuples(st.integers(0, 6), st.sampled_from([0.3, 4.0, 40.0]))
        .flatmap(lambda d: float_matrices(d[0], d[0], d[1])),
        st.sampled_from([0.3, 4.0, 40.0]).flatmap(permuted_block_diagonal)),
        st.sampled_from([tube.REL_TOL, 1e-14, 1e-3]))
    def test_real_matrix_as_complex_keeps_the_float_path(self, A, rel_tol):
        Z = expm([[complex(x, 0.0) for x in row] for row in A], rel_tol)
        assert _hex_rows([[z.real for z in row] for row in Z]) \
            == _hex_rows(expm(A, rel_tol))
        assert all(z.imag == 0.0 for row in Z for z in row)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda n: st.lists(
        st.integers(-100, 100),
        min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
        .map(lambda xs: (n, xs))), st.floats(0.0, 150.0))
    def test_complex_step_residual_of_rotation_generators_is_within_fd_tol(
            self, shape, norm):
        # An antisymmetric matrix scaled to a norm in [0, 150].
        n, xs = shape
        A = [[0.0] * n for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for (i, j), x in zip(pairs, xs):
            A[i][j], A[j][i] = float(x), float(-x)
        size = tube._mat_norm(A)
        if size:
            A = tube._mat_scale(norm / size, A)
        assert tube._mat_norm(A) <= 150.0 * (1 + 1e-12)
        assert tube._ode_residual(A) <= tube.FD_TOL


def _expm_with(mat_mul, A):
    """expm with tube._mat_mul swapped for mat_mul for one call."""
    fast = tube._mat_mul
    tube._mat_mul = mat_mul
    try:
        return expm(A)
    finally:
        tube._mat_mul = fast
