"""Lie-algebra structure from rational structure constants.

The sign convention throughout is <ad*_x lam, y> = <lam, [x, y]>, and the
coadjoint-orbit tangent vector generated by x at mu is -ad*_x mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactlin import (
    AmbientMismatch,
    Matrix,
    Subspace,
    Vec,
    ZERO,
    _total,
    frac,
    kernel,
    zero_vec,
)


class StructureConstantError(ValueError):
    """Structure constants violate antisymmetry or the Jacobi identity."""


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra on Q^n with [e_i, e_j] = sum_k c[i][j][k] e_k.

    Antisymmetry and the Jacobi identity are checked eagerly; malformed
    constants are rejected at construction time.  Every operation reads the
    nonzero constants, held once as (i, j, k, c[i][j][k]) in lexicographic
    order.
    """

    dim: int
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        n = self.dim
        if len(self.c) != n or any(
            len(ci) != n or any(len(cij) != n for cij in ci) for ci in self.c
        ):
            raise StructureConstantError("structure constant array is not n x n x n")
        # c[i][j][k] = -c[j][i][k] fails at (i,j,k) or (j,i,k) only when one
        # of the two is nonzero; report the lexicographically first.
        bad = [min((i, j, k), (j, i, k)) for i, j, k, x in self.nonzero
               if self.c[j][i][k] != -x]
        if bad:
            raise StructureConstantError(
                "antisymmetry fails at (i,j,k)=({},{},{})".format(*min(bad)))
        bad = self._jacobi_failures()
        if bad:
            raise StructureConstantError(
                "Jacobi identity fails on basis triple ({},{},{})".format(*min(bad)))

    @cached_property
    def nonzero(self) -> tuple[tuple[int, int, int, Fraction], ...]:
        # A row c[i][j] of the shared ZERO equals zero_row by identity alone,
        # so the all-zero rows of a sparse table cost no Fraction comparison.
        zero_row = (ZERO,) * self.dim
        return tuple((i, j, k, x) for i, ci in enumerate(self.c)
                     for j, cij in enumerate(ci) if cij != zero_row
                     for k, x in enumerate(cij) if x is not ZERO and x)

    @staticmethod
    def from_constants(c) -> "LieAlgebra":
        n = len(c)
        table = tuple(
            tuple(tuple(frac(x) for x in cij) for cij in ci) for ci in c
        )
        return LieAlgebra(n, table)

    def _jacobi_failures(self) -> list[tuple[int, int, int]]:
        """Basis triples i < j < k whose Jacobiator is nonzero.

        For i < j < k the Jacobiator is
        [e_i,[e_j,e_k]] - [e_j,[e_i,e_k]] + [e_k,[e_i,e_j]]: every term is
        [e_x, [e_y, e_z]] with y < z, negated exactly when y < x < z.
        """
        by_middle: dict[int, list] = {}
        for x, l, m, b in self.nonzero:
            by_middle.setdefault(l, []).append((x, m, b))
        jac: dict[tuple, Fraction] = {}
        for y, z, l, a in self.nonzero:
            if y < z:
                for x, m, b in by_middle.get(l, ()):
                    if x != y and x != z:
                        key = (tuple(sorted((x, y, z))), m)
                        term = -a * b if y < x < z else a * b
                        jac[key] = jac.get(key, ZERO) + term
        return [t for (t, _), v in jac.items() if v]

    def _check_len(self, *vs: Vec) -> None:
        for v in vs:
            if len(v) != self.dim:
                raise AmbientMismatch(f"vector of length {len(v)} in a "
                                      f"{self.dim}-dimensional algebra")

    def bracket(self, x: Vec, y: Vec) -> Vec:
        self._check_len(x, y)
        out = [ZERO] * self.dim
        for i, j, k, c in self.nonzero:
            if (a := x[i]) is not ZERO and a and (b := y[j]) is not ZERO and b:
                out[k] += a * b * c
        return tuple(out)

    def ad_matrix(self, x: Vec) -> Matrix:
        """Matrix of y -> [x, y] in the defining basis."""
        n = self.dim
        m = [[ZERO] * n for _ in range(n)]
        for i, j, k, c in self.nonzero:
            if (a := x[i]) is not ZERO and a:
                m[k][j] += a * c
        return Matrix(n, n, tuple(map(tuple, m)))

    def coad_apply(self, x: Vec, lam: Vec) -> Vec:
        """ad*_x lam, i.e. the covector y -> <lam, [x, y]>."""
        self._check_len(x, lam)
        out = [ZERO] * self.dim
        for i, j, k, c in self.nonzero:
            if (a := x[i]) is not ZERO and a and (b := lam[k]) is not ZERO and b:
                # As _total: a ZERO partial sum is replaced, not added to.
                t, s = a * b * c, out[j]
                out[j] = (s + t or ZERO) if s is not ZERO else t
        return tuple(out)

    def bracket_pairing(self, lam: Vec) -> Matrix:
        """K[a][b] = <lam, [e_a, e_b]>: the structure constants contracted
        with the covector lam."""
        self._check_len(lam)
        n = self.dim
        K = [[ZERO] * n for _ in range(n)]
        for a, b, k, c in self.nonzero:
            if (x := lam[k]) is not ZERO and x:
                K[a][b] += x * c
        return Matrix(n, n, tuple(map(tuple, K)))

    def bracket_gram(self, lam: Vec, X: Matrix, Y: Matrix) -> Matrix:
        """Entry (a, b) is <lam, [x_a, y_b]> for the columns x_a of X and
        y_b of Y: the Gram X^T K Y of the bracket pairing K, with no K built.

        Row a is the covector ad*_{x_a} lam, summed from the nonzero entries
        of x_a and of the contraction <lam, [e_i, e_j]>, which is read off
        the nonzero constants at the nonzero entries of lam; it is paired
        with each y_b where both are nonzero.  No sum or product takes a
        zero operand.
        """
        self._check_len(lam)
        for M in (X, Y):
            if M.rows != self.dim:
                raise AmbientMismatch(f"{M.rows}x{M.cols} basis in a "
                                      f"{self.dim}-dimensional algebra")
        sums: dict[int, dict[int, Fraction]] = {}
        for i, j, k, c in self.nonzero:
            if (x := lam[k]) is not ZERO and x:
                _accumulate(sums.setdefault(i, {}), j, x * c)
        # K[i] holds the nonzero <lam, [e_i, e_j]> as (j, w).
        K = {i: [(j, w) for j, w in r.items() if w] for i, r in sums.items()}
        ys = [[(j, y) for j, y in enumerate(col) if y is not ZERO and y]
              for col in Y.columns()]
        gram = []
        for x in X.columns():
            row: dict[int, Fraction] = {}
            for i, xi in enumerate(x):
                if xi is not ZERO and xi:
                    for j, w in K.get(i, ()):
                        _accumulate(row, j, xi * w)
            gram.append(tuple(_total([r * y for j, y in nz if (r := row.get(j))])
                              for nz in ys))
        return Matrix(X.cols, Y.cols, tuple(gram))


def _accumulate(acc: dict[int, Fraction], j: int, t: Fraction) -> None:
    """acc[j] += t for a nonzero t; an absent or cancelled entry becomes t."""
    s = acc.get(j)
    acc[j] = s + t if s else t


Covector = Vec


def subalgebra_witness(L: LieAlgebra, S: Subspace) -> tuple[int, int] | None:
    """Index pair of basis vectors whose bracket escapes S, or None."""
    vs = S.basis_vectors()
    return next(((i, j) for i in range(len(vs)) for j in range(i + 1, len(vs))
                 if not S.contains(L.bracket(vs[i], vs[j]))), None)


def stabilizer_of_momentum(L: LieAlgebra, mu: Covector) -> Subspace:
    """g_mu = {x : ad*_x mu = 0}, the coadjoint stabilizer of mu."""
    # Row j of the constraint matrix is x -> <mu, [x, e_j]>: column j of K.
    return kernel(L.bracket_pairing(mu).transpose())


def h_perp_mu(L: LieAlgebra, h: Subspace, mu: Covector) -> Subspace:
    """{x : <mu, [x, eta]> = 0 for every eta in h}.

    Equivalently ad*_x mu annihilates h; these are the algebra elements whose
    generator at the point pairs to zero with the H-orbit under omega.
    The formula holds for any subspace h; that the instance's h is a
    subalgebra is validate's h_subalgebra check.  Its constraint rows are
    the covectors ad*_eta mu over h's basis, from LieAlgebra.bracket_gram,
    so no matrix of the bracket pairing is built.
    """
    # Row t is x -> <mu, [eta_t, x]> = -<mu, [x, eta_t]>: the sign leaves
    # the kernel alone.
    return kernel(L.bracket_gram(mu, h.basis, Matrix.identity(L.dim)))


def chu_form(L: LieAlgebra, mu: Covector) -> Matrix:
    """The Gram matrix of the form (x, y) -> <mu, [x, y]>.

    Its radical is g_mu; verify proves that as liecore.chu_radical_is_g_mu.
    """
    return L.bracket_pairing(mu)


def killing_form(L: LieAlgebra) -> Matrix:
    """The Gram matrix of B(x, y) = trace(ad_x ad_y), read off the
    structure constants.

    (ad_i)[k][l] = c[i][l][k], so B_ij = sum_{k,l} c[i][l][k] c[j][k][l];
    the sum runs over the nonzero constants only.
    """
    n, c = L.dim, L.c
    gram = [[ZERO] * n for _ in range(n)]
    for i, l, k, x in L.nonzero:
        for j in range(n):
            if c[j][k][l]:
                gram[i][j] += x * c[j][k][l]
    return Matrix(n, n, tuple(map(tuple, gram)))


def center(L: LieAlgebra) -> Subspace:
    """{x : [x, e_j] = 0 for all j}: the kernel of the rows (c[i][j][k])_i."""
    rows = {(j, k): [L.c[i][j][k] for i in range(L.dim)] for _, j, k, _ in L.nonzero}
    return kernel(Matrix.from_rows(list(rows.values()), cols=L.dim))


def ad_invariance_defect(L: LieAlgebra, B: Matrix) -> dict:
    """Nonzero entries (i, a, b) of ad_i^T B + B ad_i, B not assumed symmetric:
    sum_k c[i][a][k] B[k][b] + B[a][k] c[i][b][k] over nonzero c and B."""
    g, out = B.entries, {}
    for i, j, k, c in L.nonzero:
        for t in range(L.dim):
            for key, x in (((i, j, t), g[k][t]), ((i, t, j), g[t][k])):
                if x:
                    out[key] = out.get(key, ZERO) + c * x
    return {key: x for key, x in out.items() if x}


# Ready-made algebras used by the example catalog and tests.

def so3() -> LieAlgebra:
    """so(3) with the cross-product bracket: [e_i, e_j] = eps_ijk e_k."""
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    c = [[[frac(eps.get((i, j, k), 0)) for k in range(3)]
          for j in range(3)] for i in range(3)]
    return LieAlgebra(3, tuple(tuple(tuple(r) for r in ci) for ci in c))


def abelian(n: int) -> LieAlgebra:
    z = tuple(tuple(zero_vec(n) for _ in range(n)) for _ in range(n))
    return LieAlgebra(n, z)


def direct_sum(L1: LieAlgebra, L2: LieAlgebra) -> LieAlgebra:
    """L1 on the first L1.dim coordinates and L2 on the rest: each summand's
    nonzero constants, shifted by its offset."""
    n = L1.dim + L2.dim
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for offset, L in ((0, L1), (L1.dim, L2)):
        for i, j, k, x in L.nonzero:
            c[offset + i][offset + j][offset + k] = x
    return LieAlgebra(n, tuple(tuple(tuple(r) for r in ci) for ci in c))
