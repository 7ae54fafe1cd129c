"""Lie-algebra structure from rational structure constants.

The sign convention throughout is <ad*_x lam, y> = <lam, [x, y]>, and the
coadjoint-orbit tangent vector generated by x at mu is -ad*_x mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import (
    BilinearForm,
    Matrix,
    Subspace,
    Vec,
    ZERO,
    check_positive_definite,
    dot,
    frac,
    intersect,
    kernel,
    unit_vec,
    zero_vec,
)


class StructureConstantError(ValueError):
    """Structure constants violate antisymmetry or the Jacobi identity."""


class NotSubalgebra(ValueError):
    """A subspace required to be bracket-closed is not."""


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra on Q^n with [e_i, e_j] = sum_k c[i][j][k] e_k.

    Antisymmetry and the Jacobi identity are checked eagerly; malformed
    constants are rejected at construction time.
    """

    dim: int
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        n = self.dim
        if len(self.c) != n or any(
            len(ci) != n or any(len(cij) != n for cij in ci) for ci in self.c
        ):
            raise StructureConstantError("structure constant array is not n x n x n")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.c[i][j][k] != -self.c[j][i][k]:
                        raise StructureConstantError(
                            f"antisymmetry fails at (i,j,k)=({i},{j},{k})"
                        )
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    s = self._jacobi(i, j, k)
                    if any(x != 0 for x in s):
                        raise StructureConstantError(
                            f"Jacobi identity fails on basis triple ({i},{j},{k})"
                        )

    @staticmethod
    def from_constants(c) -> "LieAlgebra":
        n = len(c)
        table = tuple(
            tuple(tuple(frac(x) for x in cij) for cij in ci) for ci in c
        )
        return LieAlgebra(n, table)

    def _jacobi(self, i: int, j: int, k: int) -> Vec:
        ei, ej, ek = (unit_vec(self.dim, t) for t in (i, j, k))
        t1 = self.bracket(ei, self.bracket(ej, ek))
        t2 = self.bracket(ej, self.bracket(ek, ei))
        t3 = self.bracket(ek, self.bracket(ei, ej))
        return tuple(a + b + c for a, b, c in zip(t1, t2, t3))

    def bracket(self, x: Vec, y: Vec) -> Vec:
        n = self.dim
        out = [ZERO] * n
        for i in range(n):
            if x[i] == 0:
                continue
            for j in range(n):
                if y[j] == 0:
                    continue
                coef = x[i] * y[j]
                for k in range(n):
                    cijk = self.c[i][j][k]
                    if cijk != 0:
                        out[k] += coef * cijk
        return tuple(out)

    def ad_matrix(self, x: Vec) -> Matrix:
        """Matrix of y -> [x, y] in the defining basis."""
        cols = [self.bracket(x, unit_vec(self.dim, j)) for j in range(self.dim)]
        return Matrix.from_cols(cols, rows=self.dim)

    def coad_matrix(self, x: Vec) -> Matrix:
        """Matrix of ad*_x on covector coordinates: the transpose of ad_x."""
        return self.ad_matrix(x).transpose()

    def coad_apply(self, x: Vec, lam: Vec) -> Vec:
        """ad*_x lam, i.e. the covector y -> <lam, [x, y]>."""
        return self.coad_matrix(x).apply(lam)


Covector = Vec


@dataclass(frozen=True)
class InnerProduct:
    """Symmetric positive-definite Gram matrix on the algebra."""

    gram: Matrix

    def __post_init__(self):
        check_positive_definite(BilinearForm(self.gram))

    @property
    def ambient_dim(self) -> int:
        return self.gram.rows

    def pairing(self, x: Vec, y: Vec) -> Fraction:
        return dot(x, self.gram.apply(y))

    def form(self) -> BilinearForm:
        return BilinearForm(self.gram)


def subalgebra_witness(L: LieAlgebra, S: Subspace) -> tuple[int, int] | None:
    """Index pair of basis vectors whose bracket escapes S, or None."""
    vs = S.basis_vectors()
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if not S.contains(L.bracket(vs[i], vs[j])):
                return (i, j)
    return None


def is_subalgebra(L: LieAlgebra, S: Subspace) -> bool:
    return subalgebra_witness(L, S) is None


def stabilizer_of_momentum(L: LieAlgebra, mu: Covector) -> Subspace:
    """g_mu = {x : ad*_x mu = 0}, the coadjoint stabilizer of mu."""
    n = L.dim
    # Row j of the constraint matrix is x -> <mu, [x, e_j]>.
    rows = []
    for j in range(n):
        rows.append(
            tuple(dot(mu, L.bracket(unit_vec(n, i), unit_vec(n, j))) for i in range(n))
        )
    return kernel(Matrix.from_rows(rows, cols=n))


def h_perp_mu(L: LieAlgebra, h: Subspace, mu: Covector) -> Subspace:
    """{x : <mu, [x, eta]> = 0 for every eta in h}.

    Equivalently ad*_x mu annihilates h; these are the algebra elements whose
    generator at the point is omega-orthogonal to the H-orbit.
    """
    w = subalgebra_witness(L, h)
    if w is not None:
        raise NotSubalgebra(f"basis pair {w} of h has bracket outside h")
    n = L.dim
    rows = []
    for eta in h.basis_vectors():
        rows.append(tuple(dot(mu, L.bracket(unit_vec(n, i), eta)) for i in range(n)))
    return kernel(Matrix.from_rows(rows, cols=n))


def h_alpha(L: LieAlgebra, h: Subspace, mu: Covector) -> Subspace:
    """Stabilizer of alpha = mu|_h inside h, computed as h with h_perp_mu.

    The two descriptions (intersection with h_perp_mu; kernel of the pairing
    restricted to h) agree because the pairing only sees brackets inside h.
    """
    return intersect(h, h_perp_mu(L, h, mu))


def chu_form(L: LieAlgebra, mu: Covector) -> BilinearForm:
    """The form (x, y) -> <mu, [x, y]>.

    Its radical is g_mu; verify proves that as liecore.chu_radical_is_g_mu.
    """
    n = L.dim
    gram = Matrix.from_rows(
        [
            tuple(dot(mu, L.bracket(unit_vec(n, i), unit_vec(n, j))) for j in range(n))
            for i in range(n)
        ],
        cols=n,
    )
    return BilinearForm(gram)


def killing_form(L: LieAlgebra) -> BilinearForm:
    """B(x, y) = trace(ad_x ad_y), read off the structure constants.

    (ad_i)[k][l] = c[i][l][k], so B_ij = sum_{k,l} c[i][l][k] c[j][k][l];
    the sum runs over the nonzero entries of ad_i only.
    """
    n, c = L.dim, L.c
    nonzero = [[(k, l, c[i][l][k]) for k in range(n) for l in range(n)
                if c[i][l][k] != 0] for i in range(n)]
    gram = tuple(
        tuple(sum((x * c[j][k][l] for k, l, x in nonzero[i]), ZERO)
              for j in range(n))
        for i in range(n))
    return BilinearForm(Matrix(n, n, gram))


# Ready-made algebras used by the example catalog and tests.

def so3() -> LieAlgebra:
    """so(3) with the cross-product bracket: [e_i, e_j] = eps_ijk e_k."""
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    c = [[[Fraction(eps.get((i, j, k), 0)) for k in range(3)]
          for j in range(3)] for i in range(3)]
    return LieAlgebra(3, tuple(tuple(tuple(r) for r in ci) for ci in c))


def abelian(n: int) -> LieAlgebra:
    z = tuple(tuple(zero_vec(n) for _ in range(n)) for _ in range(n))
    return LieAlgebra(n, z)


def direct_sum(L1: LieAlgebra, L2: LieAlgebra) -> LieAlgebra:
    n1, n2 = L1.dim, L2.dim
    n = n1 + n2
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            for k in range(n1):
                c[i][j][k] = L1.c[i][j][k]
    for i in range(n2):
        for j in range(n2):
            for k in range(n2):
                c[n1 + i][n1 + j][n1 + k] = L2.c[i][j][k]
    return LieAlgebra(n, tuple(tuple(tuple(r) for r in ci) for ci in c))
