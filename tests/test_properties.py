"""Randomized-corpus invariants and determinism.

The full corpus sweep lives in the acceptance suite; here a strided subset
keeps routine runs fast while still crossing all three algebra families.
"""

import pytest

from corpus import build_corpus
from instances import so3xso3_diag
from wittartin import verify
from wittartin.decomposition import decompose_H
from wittartin.exactlin import preserves
from wittartin.pointmodel import build_model
from wittartin.splitting import build_chain

CORPUS = build_corpus()
SUBSET = CORPUS[::4]


def _label(inst):
    return f"dim{inst.dim}_h{inst.h.dim}_gm{inst.gm.dim}_N{inst.slice_rep.dim}"


# The one check whose detail is not "" on a pass: it states the float
# deviation of the sampled equivariance.  Every other detail is a failure
# witness.
DETAIL_ON_PASS = {"tube.equivariance"}


@pytest.mark.parametrize(
    "inst", SUBSET, ids=[f"{i}_{_label(x)}" for i, x in enumerate(SUBSET)])
def test_all_exact_invariants(inst):
    checks = verify.run_all(inst, samples=4)
    failed = [c for c in checks if not c.passed]
    assert not failed, [f"{c.name}: {c.detail}" for c in failed]
    assert [c.name for c in checks
            if c.detail and c.name not in DETAIL_ON_PASS] == []


def test_nh1_is_a_symplectic_representation_of_h_m():
    """On every corpus instance, the H-side slice NH1 carries a
    nondegenerate antisymmetric form, and h_m acts on it by elements of
    sp(form) that bracket as h_m does."""
    brackets = 0
    for inst in CORPUS:
        model = build_model(build_chain(inst))
        nh1, h_m = decompose_H(model).nh1, model.chain.h_m
        assert nh1.omega.is_antisymmetric()
        assert nh1.omega.rank() == nh1.dim
        assert len(nh1.action) == h_m.dim
        assert all(preserves(A, nh1.omega) for A in nh1.action)
        hv, A = h_m.basis_vectors(), nh1.action
        for i in range(len(hv)):
            for j in range(len(hv)):
                c = h_m.coords_of(inst.algebra.bracket(hv[i], hv[j]))
                assert nh1.combine(c) == A[i] @ A[j] - A[j] @ A[i]
                brackets += any(c)
    assert brackets > 0


def test_corpus_is_large_and_varied():
    assert len(CORPUS) >= 100
    dims = {inst.dim for inst in CORPUS}
    assert {3, 6} <= dims              # so(3) and so(3)+so(3) families
    assert any(inst.dim in (2, 4, 5, 6) and inst.algebra.c[0][1][0] == 0
               and all(x == 0 for ci in inst.algebra.c for cij in ci
                       for x in cij)
               for inst in CORPUS)     # abelian family present
    assert any(inst.gm.dim > 0 for inst in CORPUS)
    assert any(inst.slice_rep.dim == 4 for inst in CORPUS)
    assert any(all(x == 0 for x in inst.mu) for inst in CORPUS)


def test_chain_output_is_bit_identical_across_runs():
    inst = so3xso3_diag(with_gm=True)
    chains = [build_chain(inst) for _ in range(2)]
    assert chains[0] == chains[1]
    models = [build_model(c) for c in chains]
    assert models[0].omega == models[1].omega
    assert models[0].g_basis_inv == models[1].g_basis_inv


def test_corpus_generation_is_deterministic():
    again = build_corpus()
    assert len(again) == len(CORPUS)
    for a, b in zip(again, CORPUS):
        assert a.mu == b.mu and a.h == b.h and a.gm == b.gm
