"""Which Grams build_chain and the decomposition checks build.

The Witt-Artin axioms decide "X0 + Y0 is symplectic" as W & W^omega = 0
on the perp of W = X0 + Y0 under omega, and wittH.6 decides the a x r Chu
pairing as r & a^perp = 0, so neither builds a Gram.  wittH.5 and the
wittG forms on T1 and N1 read the omega submatrices on the blocks' index
tuples, which once each block is proven equal to its definition is the
form on it.  These tests wrap the Gram builders in exactlin and in every
module that imports them by name, and the model's omega_on, and pin that
the decomposition checks build no Gram at all, so that a refactor cannot
bring one back without a failing test.  build_chain takes every complement
as W & U^perp on the sparse form-perp, so the one Gram it builds is the Chu
Gram on [a | C] that shears the pre-complement C into r, and none when
C = 0.

The bracket Grams <lam, [u, v]> that the package constructs (the point
form's U x U block, the tube form's, and h_perp_mu's constraint rows) come
from the sparse LieAlgebra.bracket_gram, and no Matrix.__matmul__ builds
them.  The dense products left are validation's invariance tests, the
checks' independent second routes (gram_on of the Chu form, _chu_on_n),
dphi_H, the isotropy action and the momentum forms; their number per run
is pinned, so that a dense product cannot come back unseen.
"""

import dataclasses

import pytest

from wittartin import decomposition as dec
from wittartin import exactlin, splitting, verify
from wittartin.catalog import build_example
from wittartin.exactlin import Matrix
from wittartin.instancefile import from_dict
from wittartin.liecore import h_perp_mu
from wittartin.pointmodel import TangentModel, build_model
from wittartin.report import build_report
from wittartin.splitting import build_chain

GRAM_BUILDERS = ("gram_on",)


@pytest.fixture(scope="module")
def model():
    inst = from_dict(build_example("torus", dim=8, subdim=4))
    return build_model(build_chain(inst))


@pytest.fixture
def grams(monkeypatch):
    """Every Gram built through exactlin's builders, as (builder, form,
    spaces); the blocks each run of the axioms receives go to "blocks"."""
    calls, blocks = [], []
    for name in GRAM_BUILDERS:
        exact = getattr(exactlin, name)

        def recorded(form, *spaces, _name=name, _exact=exact):
            calls.append((_name, form, spaces))
            return _exact(form, *spaces)

        for module in (exactlin, dec, splitting, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recorded)
    axioms = dec._witt_artin_axioms

    def recorded_axioms(model, ker, ker_name, named_blocks):
        blocks.append(list(named_blocks.values()))
        return axioms(model, ker, ker_name, named_blocks)

    monkeypatch.setattr(dec, "_witt_artin_axioms", recorded_axioms)
    return {"calls": calls, "blocks": blocks}


def test_build_chain_builds_no_gram_when_r_is_zero(grams):
    inst = from_dict(build_example("torus", dim=8, subdim=4))
    assert build_chain(inst).r.dim == 0
    assert grams["calls"] == []


def test_build_chain_builds_only_the_shear_gram(grams):
    from corpus import build_corpus
    found = next(inst for inst in build_corpus() if build_chain(inst).r.dim)
    inst = dataclasses.replace(found)  # nothing derived from mu is cached
    del grams["calls"][:]
    chain = build_chain(inst)
    [(name, form, spaces)] = grams["calls"]
    assert (name, form) == ("gram_on", inst.chu)
    assert len(spaces) == 2 and spaces[0] == chain.a
    assert spaces[1].dim == chain.r.dim == chain.a.dim > 0


@pytest.mark.parametrize("side", ["G", "H"])
def test_axioms_and_witt_h6_build_no_gram(model, grams, side):
    if side == "G":
        checks = [dec.g_decomposition_check(dec.decompose_G(model), model)]
    else:
        checks = dec.h_decomposition_checks(dec.decompose_H(model), model)
        assert "wittH.6_a_r_pairing_nondegenerate" in [c.name for c in checks]
    assert all(c.passed for c in checks)
    assert len(grams["blocks"]) == 1
    assert grams["calls"] == []


def test_the_wrapped_builders_see_a_gram_built_in_decomposition(model, grams):
    # slice_form_check needs the value of the Chu Gram on s, so it is the
    # one Gram left in decomposition; seeing it shows the wrapping works.
    check = dec.slice_form_check(dec.decompose_H(model), model)
    assert check.passed
    assert grams["calls"] == [("gram_on", model.inst.chu, (model.chain.s,))]


def test_witt_h5_and_witt_g_forms_build_no_gram_of_omega(model, grams,
                                                        monkeypatch):
    read = []
    exact_omega_on = TangentModel.omega_on

    def recorded_omega_on(self, indices):
        read.append(tuple(indices))
        return exact_omega_on(self, indices)

    monkeypatch.setattr(TangentModel, "omega_on", recorded_omega_on)
    g_decomp, h_decomp = dec.decompose_G(model), dec.decompose_H(model)
    del read[:]  # decompose_H reads the slice form off omega
    checks = [dec.g_decomposition_check(g_decomp, model),
              *dec.h_decomposition_checks(h_decomp, model)]
    assert all(c.passed for c in checks)
    assert [name for name, form, _ in grams["calls"]
            if form is model.omega] == []
    # The wittG forms on T1 and N1, then wittH.5 on s + X_m + N1 and Z_m.
    assert read == [g_decomp.T1, g_decomp.N1,
                    h_decomp.s_block + h_decomp.Xm_block + h_decomp.N1_block,
                    h_decomp.Zm]


@pytest.fixture
def matmuls(monkeypatch):
    """The (rows, inner, cols) shape of every Matrix.__matmul__ call."""
    calls = []
    exact = Matrix.__matmul__

    def counted(self, other):
        calls.append((self.rows, self.cols, other.cols))
        return exact(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    return calls


EXAMPLES = {"so3xso3-diagonal": {}, "torus(8,4)": {"dim": 8, "subdim": 4}}


def _example(label):
    return from_dict(build_example(label.split("(")[0], **EXAMPLES[label]))


@pytest.mark.parametrize("label", EXAMPLES)
def test_build_model_and_h_perp_mu_take_no_dense_product(matmuls, label):
    inst = _example(label)
    chain = build_chain(inst)
    del matmuls[:]
    build_model(chain)
    h_perp_mu(inst.algebra, inst.h, inst.mu)
    assert matmuls == []


@pytest.mark.parametrize("label, run, count", [
    ("so3xso3-diagonal", verify.run_all, 23),
    ("so3xso3-diagonal", build_report, 17),
    ("torus(8,4)", verify.run_all, 7),
    ("torus(8,4)", build_report, 7),
], ids=["so3xso3-run_all", "so3xso3-build_report", "torus-run_all",
        "torus-build_report"])
def test_dense_products_per_run(matmuls, label, run, count):
    run(_example(label))
    assert len(matmuls) == count
