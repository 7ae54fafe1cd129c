"""Every run_all record at the sizes the benchmark times.

tests/golden/verify-all-examples.json pins the check details, the tube's
printed float errors among them, on the five catalog examples only.  This
golden pins them on so(3)^3 with g_m = 0 and on torus(8, 4), the largest
instances of the verify-so3k and verify-torus workloads, with a fixed mu.
"""

import json
from fractions import Fraction
from pathlib import Path

from wittartin import verify
from wittartin.exactlin import InnerProduct, Matrix, Subspace
from wittartin.liecore import abelian, direct_sum, so3
from wittartin.splitting import ProblemInstance, SliceRep

GOLDEN = Path(__file__).parent / "golden" / "run-all-benchmarked-sizes.json"

F = Fraction
J2 = Matrix.from_rows([[0, 1], [-1, 0]])


def _unit(n: int, i: int) -> tuple:
    return tuple(F(int(j == i)) for j in range(n))


def so3_cubed() -> ProblemInstance:
    """so(3)^3, h the diagonal so(3), mu on the three e3's, g_m = 0."""
    L = direct_sum(direct_sum(so3(), so3()), so3())
    h = Subspace.span(9, [tuple(F(int(j % 3 == i)) for j in range(9))
                          for i in range(3)])
    mu = (F(0), F(0), F(3, 2), F(0), F(0), F(1), F(0), F(0), F(2, 3))
    return ProblemInstance(L, h, Subspace.zero(9), mu,
                           InnerProduct(Matrix.identity(9)),
                           SliceRep(J2, ()))


def torus_8_4() -> ProblemInstance:
    """Abelian torus(8, 4): h the first four coordinates, g_m = 0."""
    L = abelian(8)
    h = Subspace.span(8, [_unit(8, i) for i in range(4)])
    mu = (F(1, 3), F(-1), F(1, 8), F(-1, 2), F(1, 5), F(-1, 7), F(1, 4), F(1, 6))
    return ProblemInstance(L, h, Subspace.zero(8), mu,
                           InnerProduct(Matrix.identity(8)),
                           SliceRep(J2, ()))


def records_text() -> str:
    """The records of both instances, canonical JSON."""
    records = [{"name": f"{label}:{c.name}", "passed": c.passed,
                "detail": c.detail}
               for label, inst in (("so3^3", so3_cubed()),
                                   ("torus(8,4)", torus_8_4()))
               for c in verify.run_all(inst)]
    return json.dumps({"checks": records}, indent=2, sort_keys=True) + "\n"


def test_run_all_records_match_golden_at_benchmarked_sizes():
    assert records_text().encode() == GOLDEN.read_bytes()
