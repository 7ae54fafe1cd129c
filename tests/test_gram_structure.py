"""Which Grams the decomposition checks build, on torus(8, 4).

The Witt-Artin axioms decide "X0 + Y0 is symplectic" on the k x k pairing
of X0 with Y0, not on a 2k x 2k Gram of their sum.  wittH.5 and the wittG
forms on T1 and N1 build no Gram of omega at all: once each block is
proven equal to its definition, they read the omega submatrices on the
blocks' index tuples.  These tests wrap the Gram builders that
decomposition imports, and the model's omega_on, and pin both, so that a
refactor cannot bring the larger Grams back without a failing test.
"""

import pytest

from wittartin import decomposition as dec
from wittartin.catalog import build_example
from wittartin.exactlin import sum_spaces
from wittartin.instancefile import from_dict
from wittartin.pointmodel import TangentModel, build_model
from wittartin.splitting import build_chain

GRAM_BUILDERS = ("gram_on", "cross_gram")


@pytest.fixture(scope="module")
def model():
    inst = from_dict(build_example("torus", dim=8, subdim=4))
    return build_model(build_chain(inst), inst)


@pytest.fixture
def grams(monkeypatch):
    """Every Gram built through decomposition's builders, as (builder,
    form, spaces, inside the axioms); the axioms' blocks go to "blocks"."""
    calls, blocks, depth = [], [], [0]
    for name in GRAM_BUILDERS:
        exact = getattr(dec, name)

        def recorded(form, *spaces, _name=name, _exact=exact):
            calls.append((_name, form, spaces, depth[0] > 0))
            return _exact(form, *spaces)

        monkeypatch.setattr(dec, name, recorded)
    axioms = dec._witt_artin_axioms

    def recorded_axioms(model, ker, ker_name, named_blocks):
        blocks.append(list(named_blocks.values()))
        depth[0] += 1
        try:
            return axioms(model, ker, ker_name, named_blocks)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(dec, "_witt_artin_axioms", recorded_axioms)
    return {"calls": calls, "blocks": blocks}


@pytest.mark.parametrize("side", ["G", "H"])
def test_axioms_build_only_the_pairing_of_X0_with_Y0(model, grams, side):
    if side == "G":
        checks = [dec.g_decomposition_check(dec.decompose_G(model), model)]
    else:
        checks = dec.h_decomposition_checks(dec.decompose_H(model), model)
    assert all(c.passed for c in checks)
    (X0, _, Y0, _), = grams["blocks"]
    inside = [(name, form is model.omega, spaces)
              for name, form, spaces, nested in grams["calls"] if nested]
    assert inside == [("cross_gram", True, (X0, Y0))]
    X0Y0 = sum_spaces(X0, Y0)
    assert all(X0Y0 not in spaces for _, _, spaces, _ in grams["calls"])


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
    outside = [(name, [S.dim for S in spaces])
               for name, form, spaces, nested in grams["calls"]
               if form is model.omega and not nested]
    assert outside == []
    # The wittG forms on T1 and N1, then wittH.5 on s + X_m + N1 and Z_m.
    assert read == [g_decomp.T1, g_decomp.N1,
                    h_decomp.s_block + h_decomp.Xm_block + h_decomp.N1_block,
                    h_decomp.Zm]
