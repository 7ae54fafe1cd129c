"""Acceptance criteria.

Each criterion is one test that prints a PASS/FAIL line (visible with -s or
in verbose failure output).  The core criteria are exact (zero
tolerance); the tube criterion requires the tube module's float bounds to
be the stated ones (the ODE residual 1e-6, equivariance 1e-9).
"""

import json
import random
import time
from fractions import Fraction

from corpus import build_corpus
from wittartin import verify
from wittartin.catalog import build_example
from wittartin.cli import main
from wittartin.decomposition import decompose_H, slice_form
from wittartin.exactlin import Matrix
from wittartin.instancefile import from_dict
from wittartin.pointmodel import build_model
from wittartin.splitting import build_chain
from wittartin import tube
from wittartin.tube import check_dphi_consistency, phi_equivariance_check

F = Fraction


def _report(name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"{status}: {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


def _decompose_json(capsys, path) -> dict:
    code = main(["decompose", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_1_so3_golden_tables(capsys, tmp_path):
    """SO(3)/SO(2): the three worked cases, exactly, in under a second."""
    start = time.monotonic()
    results = {}
    for name in ("so3-generic", "so3-collinear", "so3-zero"):
        path = tmp_path / f"{name}.json"
        assert main(["example", name, "-o", str(path)]) == 0
        capsys.readouterr()
        results[name] = _decompose_json(capsys, path)
    elapsed = time.monotonic() - start

    g = results["so3-generic"]
    case_i = (g["dims"]["s"] == 0 and g["dims"]["b"] == 1
              and g["witt_H"]["dim_X_m"] == 2
              and g["dim_N1_tilde"] == g["dims"]["N1"] + 2)
    c = results["so3-collinear"]
    case_ii = (c["dims"]["s"] == 2 and c["dims"]["b"] == 0
               and c["witt_H"]["dim_X_m"] == 0
               and c["dim_N1_tilde"] == c["dims"]["N1"] + 2)
    z = results["so3-zero"]
    case_iii = (z["dims"]["s"] == 0 and z["dims"]["b"] == 2
                and z["witt_H"]["dim_X_m"] == 4)
    _report("criterion 1: SO(3)/SO(2) golden tables",
            case_i and case_ii and case_iii and elapsed < 1.0,
            f"elapsed {elapsed:.3f}s")


def test_criterion_2_torus_family():
    """torus(n,k), 1 <= k < n <= 6, arbitrary rational mu: s = 0,
    dim X_m = 2(n-k), slice form block diagonal with zero Chu block."""
    rng = random.Random(1234)
    worst_elapsed = 0.0
    ok = True
    for n in range(2, 7):
        for k in range(1, n):
            start = time.monotonic()
            doc = build_example("torus", dim=n, subdim=k)
            doc["mu"] = [str(F(rng.randint(-9, 9), rng.randint(1, 9)))
                         for _ in range(n)]
            inst = from_dict(doc)
            chain = build_chain(inst)
            model = build_model(chain)
            dec = decompose_H(model)
            form = slice_form(model)

            ok &= chain.s.dim == 0
            ok &= len(dec.Xm_block) == 2 * (n - k)
            # Block diagonal with zero Chu block: the whole form is the
            # canonical pairing on b + b* plus the slice block.
            nb = n - k
            d = form.rows
            expected = [[F(0)] * d for _ in range(d)]
            for i in range(nb):
                expected[i][nb + i] = F(1)
                expected[nb + i][i] = F(-1)
            expected[2 * nb][2 * nb + 1] = F(1)
            expected[2 * nb + 1][2 * nb] = F(-1)
            ok &= form == Matrix.from_rows(expected)
            worst_elapsed = max(worst_elapsed, time.monotonic() - start)
    _report("criterion 2: torus family exact slice structure",
            ok and worst_elapsed < 1.0,
            f"worst instance {worst_elapsed:.3f}s")


def test_criterion_3_property_suite_full_corpus():
    """>= 100 randomized instances; every named check, tube included; < 60 s."""
    corpus = build_corpus()
    start = time.monotonic()
    failures = []
    for idx, inst in enumerate(corpus):
        checks = verify.run_all(inst, samples=10)
        failures.extend((idx, c) for c in checks if not c.passed)
    elapsed = time.monotonic() - start
    _report("criterion 3: property suite, tube included, on randomized corpus",
            len(corpus) >= 100 and not failures and elapsed < 60.0,
            f"{len(corpus)} instances in {elapsed:.1f}s, "
            f"{len(failures)} failures")


def test_criterion_4_oracle_equivalence():
    """Generic rank reduction of dphi_H equals TH0 + NH1, canonically."""
    corpus = [inst for inst in build_corpus()]
    checked = 0
    ok = True
    for inst in corpus:
        chain = build_chain(inst)
        model = build_model(chain)
        if model.total_dim > 10:
            continue
        decomp = decompose_H(model)
        ok &= model.ker_dphi_H == model.unit_span(decomp.TH0 + decomp.NH1)
        checked += 1
    _report("criterion 4: kernel oracle equivalence (model dim <= 10)",
            ok and checked > 0, f"{checked} instances compared")


def test_criterion_5_tube_consistency():
    """Exact base-point agreement; the exact momentum map equation dJ =
    X^T G at the base point and at 5 random slice points; equivariance <
    1e-9 over >= 20 samples; so(3) family; < 10 s."""
    from wittartin.tube import TubePoint, omega_tube, omega_tube_gram
    from wittartin.exactlin import unit_vec, zero_vec

    start = time.monotonic()
    assert (tube.REL_TOL, tube.FD_TOL) == (1e-9, 1e-6)
    ok = True
    details = []
    for name in ("so3-generic", "so3-collinear", "so3-zero",
                 "so3xso3-diagonal"):
        inst = from_dict(build_example(name))
        chain = build_chain(inst)
        model = build_model(chain)

        origin = TubePoint(zero_vec(inst.dim), zero_vec(model.dim_m),
                           zero_vec(model.slice_dim))
        exact = all(
            omega_tube(model, origin, unit_vec(model.total_dim, i),
                       unit_vec(model.total_dim, j))
            == model.omega.entries[i][j]
            for i in range(model.total_dim) for j in range(model.total_dim))

        rng = random.Random(5)
        points = [origin] + [TubePoint(zero_vec(inst.dim), *(
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                  for _ in range(dim))
            for dim in (model.dim_m, model.slice_dim))) for _ in range(5)]
        fd = [check_dphi_consistency(model, p, omega_tube_gram(model, p))
              for p in points]
        eq = phi_equivariance_check(model, samples=20)
        ok &= exact and not any(fd) and eq[0].passed
        details.append(f"{name}: {[d for d in fd if d]}; {eq[0].detail}")
    elapsed = time.monotonic() - start
    _report("criterion 5: tube consistency on the so(3) family",
            ok and elapsed < 10.0,
            f"elapsed {elapsed:.2f}s")
