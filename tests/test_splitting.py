"""Validation and the subspace chain, against the worked rotation cases."""

from dataclasses import replace
from fractions import Fraction

import pytest

from instances import (
    J2,
    so3_case,
    so3xso3_diag,
    standard_slice,
    torus_instance,
    vec,
)
from wittartin.catalog import build_example
from wittartin.exactlin import (
    InnerProduct,
    Matrix,
    Subspace,
    direct_sum,
    dot,
    kernel,
    sum_spaces,
    unit_vec,
)
from wittartin.instancefile import from_dict
from wittartin.liecore import abelian, so3
from wittartin.splitting import (
    ProblemInstance,
    SliceRep,
    ValidationFailed,
    build_chain,
    chain_checks,
    dim_formulas,
    validate,
)
from wittartin.report import build_report
from wittartin.verify import run_all

F = Fraction


def dims_of(inst):
    return build_chain(inst).dims()


class TestValidate:
    def test_clean_instance_passes(self):
        report = validate(so3_case("generic"))
        assert report.passed, report.failures()

    def test_gm_outside_stabilizer_fails(self):
        # ad*_{e3} e1* != 0, so span(e3) cannot stabilize e1*.
        inst = ProblemInstance(
            so3(), Subspace.span(3, [vec(1, 0, 0)]),
            Subspace.span(3, [vec(0, 0, 1)]), vec(1, 0, 0),
            InnerProduct(Matrix.identity(3)), SliceRep.trivial())
        report = validate(inst)
        failed = {c.name for c in report.failures()}
        assert "gm_in_g_mu" in failed

    def test_noninvariant_ip_fails(self):
        # <[e3,e1],e2> + <e1,[e3,e2]> = 2 - 1 with ip = diag(1,2,3).
        inst = ProblemInstance(
            so3(), Subspace.span(3, [vec(0, 0, 1)]),
            Subspace.span(3, [vec(0, 0, 1)]), vec(0, 0, 1),
            InnerProduct(Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])),
            SliceRep(Matrix.zeros(0, 0), (Matrix.zeros(0, 0),)))
        report = validate(inst)
        failed = {c.name for c in report.failures()}
        assert "ip_ad_gm_invariant" in failed

    def test_wrong_ip_dimension_is_a_named_fail(self):
        # g_m != 0, so ad invariance would multiply the 7x7 form by 6x6 ad
        # matrices; it fails with a detail instead, in the usual order.
        good = from_dict(build_example("so3xso3-diagonal"))
        inst = replace(good, ip=InnerProduct(Matrix.identity(7)))
        assert inst.gm.dim == 1
        report = validate(inst)
        assert ([c.name for c in report.checks]
                == [c.name for c in validate(good).checks])
        failed = {c.name: c.detail for c in report.failures()}
        assert list(failed) == ["ip_dimension", "ip_positive_definite",
                                "ip_ad_gm_invariant"]
        assert failed["ip_ad_gm_invariant"] == (
            "inner product has dimension 7, g has 6")
        checks = run_all(inst)
        assert [c.name for c in checks] == [
            f"validate.{c.name}" for c in report.checks]
        assert [c.name for c in checks if not c.passed] == [
            f"validate.{name}" for name in failed]

    @pytest.mark.parametrize("rows, name, detail", [
        ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], "ip_symmetric",
         "entry (0, 1) of the inner product is 1, entry (1, 0) is 0"),
        ([[1, 0, 0], [0, -1, 0], [0, 0, 1]], "ip_positive_definite",
         "leading minor 2 of the inner product is not positive: pivot 1 "
         "is -1"),
        ([[1, 0, 0], [0, 0, 0], [0, 0, 1]], "ip_positive_definite",
         "leading minor 2 of the inner product is not positive: pivot 1 "
         "is 0")],
        ids=["asymmetric", "negative_pivot", "zero_pivot"])
    def test_inner_product_off_its_type_names_a_witness(self, rows, name,
                                                        detail):
        # InnerProduct refuses these Grams when it is built, so the instance
        # holds one that bypassed its constructor: validate restates both
        # properties and names the first pair or pivot that breaks one.
        ip = object.__new__(InnerProduct)
        object.__setattr__(ip, "gram", Matrix.from_rows(rows))
        inst = replace(so3_case("generic"), ip=ip)
        failed = {c.name: c.detail for c in validate(inst).failures()}
        assert failed == {name: detail}

    @pytest.mark.parametrize("doc, failure", [
        # so3-generic, h = span(e_0), with a quarter turn about the mu axis
        # e_2: an isometry and an automorphism that fixes mu, but R e_0 =
        # e_1 is outside h.
        (dict(build_example("so3-generic"), gm_component_reps=[
            [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]]]),
         ("gm_component_rep_0_normalizes_h", "R h_0 leaves h for rep 0")),
        # An abelian algebra with g_m = span(e_1) and mu = (1, 1, 1): the
        # swap of e_1 and e_2 is an isometry and an automorphism that fixes
        # mu and h = span(e_0), but it moves g_m.
        (dict(build_example("torus", 3, 1), mu=["1", "1", "1"],
              gm_basis=[["0", "1", "0"]],
              slice=dict(build_example("torus", 3, 1)["slice"],
                         action=[[["0", "0"], ["0", "0"]]]),
              gm_component_reps=[[["1", "0", "0"], ["0", "0", "1"],
                                  ["0", "1", "0"]]]),
         ("gm_component_rep_0_preserves_gm", "R gm_0 leaves gm for rep 0")),
    ], ids=["normalizes_h", "preserves_gm"])
    def test_rep_moving_h_or_gm_names_the_basis_vector(self, doc, failure):
        failed = [(c.name, c.detail) for c in validate(from_dict(doc)).failures()]
        assert failed == [failure]

    def test_component_rep_isometry_is_never_vacuous(self):
        # An instance built in code is checked as a loaded one: a quarter
        # turn in the (e_0, e_1) plane is an isometry of the identity form
        # and an automorphism that fixes mu, but it moves the diagonal h;
        # diag(1, 1, 1, 1, 1, 2) is none of these and moves g_m too, and no
        # rep passes at the wrong size or against a form of the wrong size.
        good = from_dict(build_example("so3xso3-diagonal"))
        assert good.ip.gram == Matrix.identity(6)

        def matrix(entries):
            return Matrix.from_rows([[entries.get((i, j), 0) for j in range(6)]
                                     for i in range(6)])

        turn = matrix({(0, 1): -1, (1, 0): 1, **{(i, i): 1 for i in range(2, 6)}})
        scale = matrix({**{(i, i): 1 for i in range(5)}, (5, 5): 2})
        reps = (turn, scale, Matrix.identity(5))
        inst = replace(good, gm_component_reps=reps)
        failed = {c.name: c.detail for c in validate(inst).failures()}
        assert failed == {
            "gm_component_rep_0_normalizes_h": "R h_0 leaves h for rep 0",
            "gm_component_rep_1_isometry":
                "entry (5, 5) of R^T G R for rep 1 is 4, expected 1",
            "gm_component_rep_1_automorphism":
                "R [e_3, e_4] is not [R e_3, R e_4] for rep 1",
            "gm_component_rep_1_fixes_mu":
                "coordinate 5 of R^T mu for rep 1 is 2, expected 1",
            "gm_component_rep_1_normalizes_h": "R h_2 leaves h for rep 1",
            "gm_component_rep_1_preserves_gm": "R gm_0 leaves gm for rep 1",
            "gm_component_rep_2_isometry": "rep 2 is 5x5, g has dimension 6",
            "gm_component_rep_2_automorphism": "rep 2 is 5x5, g has dimension 6",
            "gm_component_rep_2_fixes_mu": "rep 2 is 5x5, g has dimension 6",
            "gm_component_rep_2_normalizes_h": "rep 2 is 5x5, g has dimension 6",
            "gm_component_rep_2_preserves_gm":
                "rep 2 is 5x5, g has dimension 6"}
        misfit = replace(inst, ip=InnerProduct(Matrix.identity(7)))
        failed = {c.name: c.detail for c in validate(misfit).failures()}
        assert all(failed[f"gm_component_rep_{t}_isometry"]
                   == "inner product has dimension 7, g has 6"
                   for t in range(3))

    @pytest.mark.parametrize("omega, radical", [
        (standard_slice(3).omega, 1),
        (Matrix.zeros(2, 2), 2),
        (Matrix.from_blocks(((J2, Matrix.zeros(2, 2)),
                             (Matrix.zeros(2, 4),))), 2)])
    def test_degenerate_slice_omega_names_its_radical(self, omega, radical):
        inst = replace(so3_case("generic"), slice_rep=SliceRep(omega, ()))
        failed = [(c.name, c.detail) for c in validate(inst).failures()]
        assert failed == [("slice_omega_nondegenerate",
                           f"the slice omega has a {radical}-dimensional "
                           "radical")]

    def test_build_chain_rejects_invalid(self):
        inst = ProblemInstance(
            so3(), Subspace.span(3, [vec(1, 0, 0)]),
            Subspace.span(3, [vec(0, 0, 1)]), vec(1, 0, 0),
            InnerProduct(Matrix.identity(3)), SliceRep.trivial())
        with pytest.raises(ValidationFailed):
            build_chain(inst)

    def test_zero_dimensional_inner_product_is_positive_definite(self):
        # The 0x0 Gram has no leading minor, so none is <= 0: it is
        # positive definite, and validate agrees with InnerProduct on it.
        inst = ProblemInstance(
            abelian(0), Subspace.zero(0), Subspace.zero(0), (),
            InnerProduct(Matrix.zeros(0, 0)), SliceRep.trivial())
        report = validate(inst)
        assert report.passed, report.failures()
        assert ("ip_positive_definite", True) in [
            (c.name, c.passed) for c in report.checks]

    @pytest.mark.parametrize("example", ["so3xso3-diagonal", "torus"])
    @pytest.mark.parametrize("run", [run_all, build_report],
                             ids=["run_all", "build_report"])
    def test_positive_definiteness_is_proven_once(self, monkeypatch, example,
                                                  run):
        """Loading builds the InnerProduct, which proves it positive
        definite; a pass adds validate.ip_positive_definite and nothing
        else, since orth_complement takes the proof from the type.  Both
        read the pivots through first_nonpositive_pivot."""
        calls = []
        exact = Matrix.first_nonpositive_pivot

        def counted(self):
            calls.append(self)
            return exact(self)

        monkeypatch.setattr(Matrix, "first_nonpositive_pivot", counted)
        inst = from_dict(build_example(example))
        assert len(calls) == 1
        run(inst)
        assert len(calls) == 2


class TestSo3Cases:
    def test_generic_dims(self):
        # Worked case: b = g_mu = span(mu), s = 0; a = h since h_mu = 0.
        d = dims_of(so3_case("generic"))
        assert (d["h_mu"], d["p"], d["b"], d["a"], d["s"], d["ntilde"],
                d["r"]) == (0, 0, 1, 1, 0, 0, 1)
        chain = build_chain(so3_case("generic"))
        assert chain.b == Subspace.span(3, [vec(0, 0, 1)])
        assert chain.a == Subspace.span(3, [vec(1, 0, 0)])

    def test_collinear_dims(self):
        # Worked case: s(G,H,mu) is a 2-dimensional plane, b = 0.
        d = dims_of(so3_case("collinear"))
        assert (d["h_mu"], d["b"], d["a"], d["s"], d["ntilde"], d["r"]) == \
            (1, 0, 0, 2, 0, 0)

    def test_zero_momentum_dims(self):
        # Worked case: b = complement of h in g, so dim b = 2; s = 0.
        d = dims_of(so3_case("zero"))
        assert (d["s"], d["b"], d["a"], d["ntilde"], d["r"]) == (0, 2, 0, 0, 0)

    def test_h_equals_g(self):
        inst = ProblemInstance(
            so3(), Subspace.full(3), Subspace.zero(3), vec(0, 0, 1),
            InnerProduct(Matrix.identity(3)), SliceRep.trivial())
        d = dims_of(inst)
        assert (d["s"], d["a"], d["b"]) == (0, 0, 0)
        assert d["q"] == 0


class TestTorus:
    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (6, 5)])
    def test_abelian_dims(self, n, k):
        d = dims_of(torus_instance(n, k))
        assert d["s"] == 0 and d["a"] == 0 and d["b"] == n - k


class TestSo3xSo3:
    def test_diagonal_free_dims_against_rank_oracle(self):
        # Independent oracle: dimensions from brute-force kernel/rank
        # computations on the 6-dim algebra, before consulting the chain.
        inst = so3xso3_diag(with_gm=False)  # mu = (e3*, 2e3*)
        L, mu, h = inst.algebra, inst.mu, inst.h

        rows = [[sum(mu[k] * L.bracket(unit_vec(6, i), unit_vec(6, j))[k]
                     for k in range(6)) for i in range(6)] for j in range(6)]
        g_mu_dim = kernel(Matrix.from_rows(rows)).dim
        rows_h = [[sum(mu[k] * L.bracket(unit_vec(6, i), eta)[k]
                       for k in range(6)) for i in range(6)]
                  for eta in h.basis_vectors()]
        hperp_dim = kernel(Matrix.from_rows(rows_h)).dim

        d = dims_of(inst)
        assert d["g_mu"] == g_mu_dim == 2
        assert d["h_perp_mu"] == hperp_dim == 4
        assert (d["h_mu"], d["p"], d["b"], d["a"], d["s"], d["ntilde"],
                d["r"]) == (1, 1, 1, 0, 2, 2, 0)

    def test_diagonal_with_stabilizer(self):
        d = dims_of(so3xso3_diag(with_gm=True))
        assert d["h_m"] == 1 and d["p"] == 0 and d["b"] == 1
        assert d["s"] == 2 and d["ntilde"] == 2 and d["r"] == 0


class TestDegenerateInputs:
    def test_h_zero(self):
        inst = ProblemInstance(
            so3(), Subspace.zero(3), Subspace.zero(3), vec(0, 0, 1),
            InnerProduct(Matrix.identity(3)), SliceRep.trivial())
        d = dims_of(inst)
        assert d["h_perp_mu"] == 3 and d["h_alpha"] == 0
        assert d["s"] == 2 and d["ntilde"] == 0 and d["r"] == 0

    def test_mu_zero_h_zero(self):
        inst = ProblemInstance(
            abelian(2), Subspace.zero(2), Subspace.zero(2), vec(0, 0),
            InnerProduct(Matrix.identity(2)), SliceRep.trivial())
        # For abelian g with h = 0: h_mu = 0, so p = 0 and b = g_mu = g.
        d = dims_of(inst)
        assert d["p"] == 0 and d["b"] == 2 and d["m"] == 2 and d["n"] == 0

    def test_gm_equals_g(self):
        from instances import full_stabilizer_instance
        d = dims_of(full_stabilizer_instance())
        assert d["m"] == 0 and d["n"] == 0


class TestShearedComplement:
    def test_r_is_chu_isotropic_even_when_plain_complement_is_not(self):
        # Opposite diagonal momenta + a skewed invariant product: the naive
        # orthogonal complement pairs nontrivially under the Chu form, so
        # this pins the isotropic-shear construction of r.
        from corpus import _sheared_r_instance
        from wittartin.exactlin import orth_complement, perp_under_form
        from wittartin.liecore import chu_form

        inst = _sheared_r_instance()
        chain = build_chain(inst)
        K = chu_form(inst.algebra, inst.mu)

        def chu(x, y):
            return dot(x, K.apply(y))

        assert chain.a.dim == 2 and chain.r.dim == 2

        V = perp_under_form(inst.chu, sum_spaces(chain.ntilde, chain.s))
        pre = orth_complement(sum_spaces(inst.g_mu, chain.a), V, inst.ip)
        pre_vs = pre.basis_vectors()
        assert any(chu(x, y) != 0 for x in pre_vs for y in pre_vs)

        r_vs = chain.r.basis_vectors()
        assert all(chu(x, y) == 0 for x in r_vs for y in r_vs)
        assert all(chu(x, y) == 0 for x in r_vs
                   for y in chain.ntilde.basis_vectors()
                   + chain.s.basis_vectors())


class TestChainIdentities:
    def test_eight_identities_on_mixed_instance(self):
        inst = so3xso3_diag(with_gm=True)
        chain = build_chain(inst)
        g = Subspace.full(6)
        assert sum_spaces(chain.h_m, chain.p) == chain.h_mu
        assert sum_spaces(chain.h_mu, chain.a) == inst.h_alpha
        assert sum_spaces(inst.g_mu, chain.a, chain.s) == inst.h_perp_mu
        assert sum_spaces(inst.h_alpha, chain.ntilde) == inst.h
        assert direct_sum(inst.gm, chain.m_space, chain.n_space) == g
        assert sum_spaces(inst.gm, chain.m_space, chain.n_space) == g

    def test_determinism(self):
        a = build_chain(so3xso3_diag(with_gm=True))
        b = build_chain(so3xso3_diag(with_gm=True))
        assert a == b


# (example, chain field, its replacement (another field, or None for the
# zero space), check, witness of that check on the changed chain).
DIRECT_SUM_FAULTS = [
    ("so3xso3-diagonal", "hm_perp_in_gm", "h_m", "chain.gm_decomposition",
     "h_m + hm_perp_in_gm is not direct"),
    ("so3-zero", "p", None, "chain.hmu_decomposition",
     "basis vector 0 of h_mu is not in h_m + p"),
    ("so3-zero", "b", None, "chain.gmu_decomposition",
     "basis vector 0 of g_mu is not in h_m + p + hm_perp_in_gm + b"),
    ("so3-generic", "a", None, "chain.halpha_decomposition",
     "basis vector 0 of h_alpha is not in h_mu + a"),
    ("so3xso3-diagonal", "s", None, "chain.hperpmu_decomposition",
     "basis vector 0 of h_perp_mu is not in g_mu + a + s"),
    ("so3xso3-diagonal", "q", None, "chain.q_decomposition",
     "basis vector 0 of a + s is not in q"),
    ("so3xso3-diagonal", "ntilde", None, "chain.h_decomposition",
     "basis vector 0 of h is not in h_alpha + ntilde"),
    ("so3-generic", "r", None, "chain.g_decomposition_hperp",
     "basis vector 1 of g is not in h_perp_mu + ntilde + r"),
    ("so3-zero", "m_space", None, "chain.g_decomposition_gm_m_n",
     "basis vector 0 of g is not in gm + m + n"),
    ("so3-zero", "p", None, "chain.g_decomposition_gm_m_n",
     "basis vector 2 of m is not in p + b"),
    ("so3-generic", "q", None, "chain.g_decomposition_gm_m_n",
     "basis vector 0 of n is not in q + ntilde + r"),
]


@pytest.mark.parametrize("example, field, other, name, witness",
                         DIRECT_SUM_FAULTS,
                         ids=[f"{f[3]}-{f[1]}" for f in DIRECT_SUM_FAULTS])
def test_direct_sum_check_names_its_witness(example, field, other, name,
                                            witness):
    chain = build_chain(from_dict(build_example(example)))
    new = (Subspace.zero(chain.inst.dim) if other is None
           else getattr(chain, other))
    before = {c.name: c for c in chain_checks(chain)}
    after = {c.name: c for c in chain_checks(replace(chain, **{field: new}))}
    assert (before[name].passed, before[name].detail) == (True, "")
    assert (after[name].passed, after[name].detail) == (False, witness)


class TestDimFormulas:
    def test_generic_with_slice_dim_4(self):
        d = dim_formulas(build_chain(so3_case("generic", slice_dim=4)))
        assert d.slice_dim_H == 6

    def test_collinear_with_slice_dim_4(self):
        d = dim_formulas(build_chain(so3_case("collinear", slice_dim=4)))
        assert d.slice_dim_H == 6

    def test_h_equals_g_keeps_slice(self):
        inst = ProblemInstance(
            so3(), Subspace.full(3), Subspace.zero(3), vec(0, 0, 1),
            InnerProduct(Matrix.identity(3)),
            so3_case("generic", slice_dim=2).slice_rep)
        d = dim_formulas(build_chain(inst))
        assert d.slice_dim_H == 2
