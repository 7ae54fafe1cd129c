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
    ONE,
    Subspace,
    Vec,
    ZERO,
    _total,
    frac,
    kernel,
)


class StructureConstantError(ValueError):
    """Structure constants violate antisymmetry or the Jacobi identity."""


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra on Q^n with [e_i, e_j] = sum_k c[i][j][k] e_k.

    The constants are held once, as their nonzero entries (i, j, k,
    c[i][j][k]) in lexicographic order; every operation reads them.
    Antisymmetry and the Jacobi identity are checked eagerly; malformed
    constants are rejected at construction time.
    """

    dim: int
    nonzero: tuple[tuple[int, int, int, Fraction], ...]

    def __post_init__(self):
        value = {(i, j, k): x for i, j, k, x in self.nonzero}
        if list(value) != sorted(value) or len(value) != len(self.nonzero) or not all(
                x and 0 <= min(key) and max(key) < self.dim for key, x in value.items()):
            raise StructureConstantError("nonzero constants are not sorted, "
                                         "distinct, nonzero and in range")
        # c[i][j][k] = -c[j][i][k] fails at (i,j,k) or (j,i,k) only when one
        # of the two is nonzero; report the lexicographically first.
        bad = [min((i, j, k), (j, i, k)) for i, j, k, x in self.nonzero
               if value.get((j, i, k), ZERO) != -x]
        if bad:
            raise StructureConstantError(
                "antisymmetry fails at (i,j,k)=({},{},{})".format(*min(bad)))
        bad = self._jacobi_failures()
        if bad:
            raise StructureConstantError(
                "Jacobi identity fails on basis triple ({},{},{})".format(*min(bad)))

    @staticmethod
    def from_constants(c) -> "LieAlgebra":
        """The algebra of a dense n x n x n table of rationals; its zeros
        are dropped."""
        n = len(c)
        if any(len(ci) != n or any(len(cij) != n for cij in ci) for ci in c):
            raise StructureConstantError("structure constant array is not n x n x n")
        # A shared ZERO is dropped by identity, with no coercion.
        return LieAlgebra(n, tuple(
            (i, j, k, y) for i, ci in enumerate(c) for j, cij in enumerate(ci)
            for k, x in enumerate(cij) if x is not ZERO and (y := frac(x)) is not ZERO))

    @cached_property
    def c(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """The dense table c[i][j][k], a read-only view for the writers."""
        n = self.dim
        table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, x in self.nonzero:
            table[i][j][k] = x
        return tuple(tuple(map(tuple, ci)) for ci in table)

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
                        _accumulate(jac, (tuple(sorted((x, y, z))), m),
                                    -a * b if y < x < z else a * b)
        return [t for (t, _), v in jac.items() if v]

    def _check_len(self, *vs: Vec) -> None:
        for v in vs:
            if len(v) != self.dim:
                raise AmbientMismatch(f"vector of length {len(v)} in a "
                                      f"{self.dim}-dimensional algebra")

    def bracket(self, x: Vec, y: Vec) -> Vec:
        self._check_len(x, y)
        out: dict[int, Fraction] = {}
        for i, j, k, c in self.nonzero:
            if (a := x[i]) is not ZERO and a and (b := y[j]) is not ZERO and b:
                _accumulate(out, k, a * b * c)
        return _dense(out, self.dim)

    def ad_matrix(self, x: Vec) -> Matrix:
        """Matrix of y -> [x, y] in the defining basis."""
        self._check_len(x)
        n, rows = self.dim, {}
        for i, j, k, c in self.nonzero:
            if (a := x[i]) is not ZERO and a:
                _accumulate(rows.setdefault(k, {}), j, a * c)
        return Matrix(n, n, tuple(_dense(rows.get(k, {}), n) for k in range(n)))

    def coad_apply(self, x: Vec, lam: Vec) -> Vec:
        """ad*_x lam, i.e. the covector y -> <lam, [x, y]>."""
        self._check_len(x, lam)
        out: dict[int, Fraction] = {}
        for i, j, k, c in self.nonzero:
            if (a := x[i]) is not ZERO and a and (b := lam[k]) is not ZERO and b:
                _accumulate(out, j, a * b * c)
        return _dense(out, self.dim)

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


def _accumulate(acc: dict, j, t: Fraction) -> None:
    """acc[j] += t for a nonzero t; an absent or cancelled entry becomes t,
    so no sum takes a zero operand."""
    s = acc.get(j)
    acc[j] = s + t if s else t


def _dense(acc: dict[int, Fraction], n: int) -> Vec:
    """The vector of the sums in acc; an absent or cancelled entry is ZERO."""
    return tuple(acc.get(k) or ZERO for k in range(n))


Covector = Vec


def subalgebra_witness(L: LieAlgebra, S: Subspace) -> tuple[int, int] | None:
    """Index pair of basis vectors whose bracket escapes S, or None."""
    vs = S.basis_vectors()
    return next(((i, j) for i in range(len(vs)) for j in range(i + 1, len(vs))
                 if not S.contains(L.bracket(vs[i], vs[j]))), None)


def stabilizer_of_momentum(L: LieAlgebra, mu: Covector) -> Subspace:
    """g_mu = {x : ad*_x mu = 0}, the coadjoint stabilizer of mu."""
    # Row j of the constraint matrix is x -> <mu, [x, e_j]>, column j of the
    # Chu form K; K is antisymmetric, so K and K^T have one kernel.
    I = Matrix.identity(L.dim)
    return kernel(L.bracket_gram(mu, I, I))


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
    I = Matrix.identity(L.dim)
    return L.bracket_gram(mu, I, I)


def killing_form(L: LieAlgebra) -> Matrix:
    """The Gram matrix of B(x, y) = trace(ad_x ad_y), read off the
    structure constants.

    (ad_i)[k][l] = c[i][l][k], so B_ij = sum_{k,l} c[i][l][k] c[j][k][l]:
    each nonzero c[i][l][k] is paired with the nonzero c[j][k][l] of the
    same (k, l).
    """
    by_pair: dict[tuple[int, int], list] = {}
    for j, k, l, y in L.nonzero:
        by_pair.setdefault((k, l), []).append((j, y))
    rows: dict[int, dict[int, Fraction]] = {}
    for i, l, k, x in L.nonzero:
        for j, y in by_pair.get((k, l), ()):
            _accumulate(rows.setdefault(i, {}), j, x * y)
    n = L.dim
    return Matrix(n, n, tuple(_dense(rows.get(i, {}), n) for i in range(n)))


def center(L: LieAlgebra) -> Subspace:
    """{x : [x, e_j] = 0 for all j}: the kernel of the rows (c[i][j][k])_i."""
    rows: dict[tuple[int, int], list[Fraction]] = {}
    for i, j, k, x in L.nonzero:
        rows.setdefault((j, k), [ZERO] * L.dim)[i] = x
    return kernel(Matrix.from_rows(list(rows.values()), cols=L.dim))


def ad_invariance_defect(L: LieAlgebra, B: Matrix) -> dict:
    """Nonzero entries (i, a, b) of ad_i^T B + B ad_i, B not assumed symmetric:
    sum_k c[i][a][k] B[k][b] + B[a][k] c[i][b][k] over nonzero c and B."""
    g, out = B.entries, {}
    for i, j, k, c in L.nonzero:
        for t in range(L.dim):
            for key, x in (((i, j, t), g[k][t]), ((i, t, j), g[t][k])):
                if x is not ZERO and x:
                    _accumulate(out, key, c * x)
    return {key: x for key, x in out.items() if x}


# Ready-made algebras used by the example catalog and tests.

def so3() -> LieAlgebra:
    """so(3) with the cross-product bracket: [e_i, e_j] = eps_ijk e_k."""
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    return LieAlgebra(3, tuple(sorted([(i, j, k, ONE) for i, j, k in cyclic]
                                      + [(j, i, k, -ONE) for i, j, k in cyclic])))


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, ())


def direct_sum(L1: LieAlgebra, L2: LieAlgebra) -> LieAlgebra:
    """L1 on the first L1.dim coordinates and L2 on the rest: each summand's
    nonzero constants, shifted by its offset, so L2's sort after L1's."""
    d = L1.dim
    return LieAlgebra(d + L2.dim, L1.nonzero + tuple(
        (i + d, j + d, k + d, x) for i, j, k, x in L2.nonzero))
