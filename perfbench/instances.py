"""Seeded instance generators and the workload definitions of the benchmark.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
imports ``wittartin`` from there, so the benchmark always measures the source
tree it sits in and never an installed copy.

Generated instances are plain instance docs (schema ``wittartin-instance/1``)
built only from the public algebra constructors ``abelian``, ``so3`` and
``direct_sum``; the program receives them through ``instancefile.from_dict``
exactly as it would receive a user's file.

The seed changes rational entries only, never a dimension: ``mu`` is a seeded
permutation (and, for the torus, sign choice) of a fixed pool of rationals,
so every seed yields coefficients of the same sizes and the same subspace
dimensions, while the exact values and basis orders differ.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"

sys.path.insert(0, str(SRC))

import wittartin  # noqa: E402
from wittartin import catalog, instancefile  # noqa: E402
from wittartin.liecore import LieAlgebra, abelian, direct_sum, so3  # noqa: E402

if Path(wittartin.__file__).resolve().parent != SRC / "wittartin":
    raise ImportError(f"wittartin was imported from {wittartin.__file__}, "
                      f"not from {SRC}")

J2 = [["0", "1"], ["-1", "0"]]
ROT2 = [["0", "-1"], ["1", "0"]]

# Positive, pairwise distinct Cartan coefficients for so(3)^k.  Positive keeps
# sum(mu) != 0, so h_alpha (and every other dimension) is the same for every
# permutation the seed picks.
SO3K_MU_POOL = ("1", "2", "3", "1/2", "3/2", "2/3", "5/4", "4/5")


def _doc(L: LieAlgebra, h_basis, gm_basis, mu, action) -> dict:
    return {
        "format": instancefile.FORMAT,
        "dim": L.dim,
        "structure_constants": [[[str(x) for x in cij] for cij in ci]
                                for ci in L.c],
        "h_basis": h_basis,
        "gm_basis": gm_basis,
        "mu": mu,
        "inner_product": "identity",
        "slice": {"dim": 2, "omega": J2, "action": action},
    }


def torus_doc(n: int, rng: random.Random) -> dict:
    """Abelian torus(n, n/2): h is the first n/2 coordinates, g_m = 0.

    mu is a seeded signed permutation of 1, 1/2, ..., 1/n.
    """
    k = n // 2
    h_basis = [["1" if j == i else "0" for j in range(n)] for i in range(k)]
    pool = [Fraction(1, i + 1) for i in range(n)]
    rng.shuffle(pool)
    mu = [str(x if rng.random() < 0.5 else -x) for x in pool]
    return _doc(abelian(n), h_basis, [], mu, [])


def so3k_doc(k: int, with_gm: bool, rng: random.Random) -> dict:
    """so(3)^k with h the diagonal so(3) and mu a seeded Cartan covector.

    mu has coefficient a_c on e3 of copy c.  With ``with_gm`` the stabilizer
    g_m is the diagonal e3, acting by rotation on a 2-dimensional N1, so h_m
    is nonzero; otherwise g_m = 0 and N1 carries no action.
    """
    if not 1 <= k <= len(SO3K_MU_POOL):
        raise ValueError(f"so3k needs 1 <= k <= {len(SO3K_MU_POOL)}")
    L = so3()
    for _ in range(k - 1):
        L = direct_sum(L, so3())
    n = 3 * k
    diag = [["1" if j % 3 == i else "0" for j in range(n)] for i in range(3)]
    coeffs = list(SO3K_MU_POOL[:k])
    rng.shuffle(coeffs)
    mu = ["0"] * n
    for c, a in enumerate(coeffs):
        mu[3 * c + 2] = a
    if with_gm:
        return _doc(L, diag, [diag[2]], mu, [ROT2])
    return _doc(L, diag, [], mu, [])


# Instance sizes per workload.  TINY_SIZES are for the self-test only.
SIZES = {
    "verify-torus": {"torus": (4, 6, 8)},
    "verify-so3k": {"so3k": ((2, True), (3, False))},
    "decompose-mixed": {"catalog": True, "so3k": ((5, True),),
                        "torus": (14,)},
}
TINY_SIZES = {
    "verify-torus": {"torus": (2, 4)},
    "verify-so3k": {"so3k": ((1, True), (2, False))},
    "decompose-mixed": {"catalog": True, "so3k": ((2, True),),
                        "torus": (4,)},
}
KIND = {"verify-torus": "verify", "verify-so3k": "verify",
        "decompose-mixed": "decompose"}
WORKLOADS = tuple(KIND)


@dataclass(frozen=True)
class Item:
    """One instance of a workload; ``golden`` is its committed report file."""

    label: str
    doc: dict
    golden: Path | None = None

    @property
    def dim(self) -> int:
        return self.doc["dim"]


def workload_items(workload: str, seed: int, tiny: bool = False) -> list[Item]:
    """The instance set of one workload, generated from the seed."""
    sizes = (TINY_SIZES if tiny else SIZES)[workload]
    rng = random.Random(seed)
    items = []
    if sizes.get("catalog"):
        for name, doc in catalog.all_examples():
            items.append(Item(name, doc, GOLDEN_DIR / f"{name}.report.json"))
    for k, with_gm in sizes.get("so3k", ()):
        label = f"so3^{k}" + ("-gm" if with_gm else "")
        items.append(Item(label, so3k_doc(k, with_gm, rng)))
    for n in sizes.get("torus", ()):
        items.append(Item(f"torus({n},{n // 2})", torus_doc(n, rng)))
    return items


def largest(items: list[Item]) -> Item:
    """The instance of largest algebra dimension (the first one on a tie)."""
    return max(items, key=lambda it: it.dim)
