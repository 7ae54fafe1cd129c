"""Exact linear algebra over the rationals, on dense storage.

Everything here is built on :class:`fractions.Fraction`, so all results are
exact: no tolerances, no rounding, ever.  Subspaces carry a canonical basis
(reduced column echelon form with smallest-index pivoting), which makes
subspace equality a plain ``==`` on basis matrices and keeps every
computation bit-reproducible.

Matrices and vectors are stored densely, but outside ``dot`` and
``Matrix.__matmul__`` no arithmetic takes a zero entry as an operand: a
sum with a zero term is the other term, a product with a zero factor is
ZERO, and elimination divides and updates only nonzero entries.  Exact
sums do not depend on the order of their terms, so every result is the
one the dense loops give, and every entry is a Fraction.

Shared zero.  Every zero this module builds is the one object ZERO:
``frac`` and ``vec`` (so ``Matrix.from_rows``) map every zero they are
given to it, as the instance reader does, and the vector kernels, the
sums of ``_total``, ``dot``'s result, the products and elimination map
every zero they compute to it.  A zero-skipping loop tests an entry as
``x is not ZERO and x``: the identity settles the shared zero with a
pointer comparison, and ``Fraction.__bool__`` runs only for a nonzero
entry or a zero built elsewhere (``Fraction(0)``, ``-ZERO``).  So
correctness never depends on the sharing: an unshared zero costs one
truth test more.

Column and row views.  ``Matrix.apply`` sums over each column's nonzero
entries, and ``Matrix.left_apply`` (u^T A) over each row's; a matrix
builds each view at its first such product and keeps it, so a second
product tests none of its entries.

Two faster routes stay out because the benchmark's decompose-mixed run
keeps every pass's report text, so its peak memory grows with the number
of passes a faster program fits in: with the int 0 as the zero, its
wall_s fell 27% and peak_rss_mb rose 18% and 22% in two runs; with a
zero-skipping ``dot``, wall_s fell from 0.31 to 0.12 s and peak_rss_mb
rose from 46 to 66 MB.  So zeros stay Fractions, and ``dot``,
``Matrix.__matmul__`` and ``gram_on`` multiply every pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import mul
from typing import Iterable, Iterator, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class AmbientMismatch(ValueError):
    """Operands live in coordinate spaces of different dimension."""


class NotContained(ValueError):
    """A subspace that was required to contain another does not."""


class NotPositiveDefinite(ValueError):
    """A bilinear form required to be positive definite fails a minor test."""


def frac(x) -> Fraction:
    """Coerce ints, Fractions or 'p/q' strings to an exact Fraction; every
    zero becomes the shared ZERO."""
    if isinstance(x, Fraction):
        return x if x is ZERO or x else ZERO
    if isinstance(x, (int, str)):
        return Fraction(x) or ZERO
    raise TypeError(f"cannot build an exact rational from {x!r}")


def vec(entries: Iterable) -> Vec:
    return tuple(map(frac, entries))


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def add_vec(u: Vec, v: Vec) -> Vec:
    """u + v; where one entry is zero the sum is the other entry, and a
    zero sum is ZERO."""
    return tuple(((a + b or ZERO) if b is not ZERO and b else a)
                 if a is not ZERO and a else (b is not ZERO and b or ZERO)
                 for a, b in zip(u, v, strict=True))


def sub_vec(u: Vec, v: Vec) -> Vec:
    """u - v; where one entry is zero the difference is the other entry,
    negated when it is v's, and a zero difference is ZERO."""
    return tuple(((a - b or ZERO) if a is not ZERO and a else -b)
                 if b is not ZERO and b else (a is not ZERO and a or ZERO)
                 for a, b in zip(u, v, strict=True))


def scale_vec(c: Fraction, v: Vec) -> Vec:
    """c v; a zero factor gives ZERO without a multiplication."""
    if c is ZERO or not c:
        return zero_vec(len(v))
    return tuple(c * a if a is not ZERO and a else ZERO for a in v)


def _total(terms: list[Fraction]) -> Fraction:
    """The sum of nonzero terms, ZERO for none or when they cancel.  A
    partial sum that is ZERO, the start or a cancellation, is replaced by
    the next term, not added."""
    s = ZERO
    for t in terms:
        s = (s + t or ZERO) if s is not ZERO else t
    return s


def _eliminate(row: list[Fraction], f: Fraction,
               nz: list[tuple[int, Fraction]]) -> None:
    """row -= f * pivot row, where nz holds the pivot row's nonzero
    entries (j, y); a zero entry of row becomes -(f y) without a
    subtraction, and an entry that cancels becomes ZERO."""
    for j, y in nz:
        x = row[j]
        row[j] = (x - f * y or ZERO) if x is not ZERO and x else -(f * y)


def _combine(n: int, coeffs: Vec,
             vectors: Sequence[tuple[tuple[int, Fraction], ...]]) -> Vec:
    """sum_k coeffs[k] vectors[k] in Q^n, each vector given by its nonzero
    entries (i, a): each entry of the sum adds its products in increasing
    k, as _total does, so a cancelled partial sum is ZERO."""
    acc = [ZERO] * n
    for x, nz in zip(coeffs, vectors):
        if x is not ZERO and x:
            for i, a in nz:
                s = acc[i]
                acc[i] = (s + a * x or ZERO) if s is not ZERO else a * x
    return tuple(acc)


def dot(u: Vec, v: Vec) -> Fraction:
    """Plain coordinate pairing; also the covector/vector pairing."""
    return sum((a * b for a, b in zip(u, v, strict=True)), ZERO) or ZERO


def is_zero_vec(v: Vec) -> bool:
    return all(a is ZERO or not a for a in v)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of Fractions; rows/cols may be zero."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError(f"row length {len(row)} != {self.cols} columns")

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        """An explicit column count must equal the rows' length."""
        data = tuple(tuple(map(frac, row)) for row in rows)
        if cols is None:
            if not data:
                raise ValueError("empty matrix needs an explicit column count")
            cols = len(data[0])
        return Matrix(len(data), cols, data)

    @staticmethod
    def from_cols(cols: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        """An explicit row count must equal the columns' length."""
        if rows is None and not cols:
            raise ValueError("empty matrix needs an explicit row count")
        return Matrix.from_rows(cols, rows).transpose()

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(unit_vec(n, i) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple((ZERO,) * cols for _ in range(rows)))

    @staticmethod
    def from_blocks(bands: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """The block matrix with these block rows, each band's blocks side
        by side (hstack) and the bands stacked top to bottom."""
        stacked = [reduce(Matrix.hstack, band) for band in bands]
        return Matrix(sum(S.rows for S in stacked), stacked[0].cols,
                      tuple(row for S in stacked for row in S.entries))

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def col(self, j: int) -> Vec:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self) -> list[Vec]:
        return list(zip(*self.entries)) if self.rows else [()] * self.cols

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        """The entries at the given rows and columns, in the given orders."""
        return Matrix(len(rows), len(cols),
                      tuple(tuple(self.entries[i][j] for j in cols) for i in rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(self.columns()))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            tuple(add_vec(a, b) for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            tuple(sub_vec(a, b) for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "Matrix":
        return self.scale(Fraction(-1))

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(
            self.rows,
            self.cols,
            tuple(scale_vec(c, row) for row in self.entries),
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise AmbientMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ot = other.transpose()
        data = tuple(
            tuple(dot(row, ot.entries[j]) for j in range(other.cols))
            for row in self.entries
        )
        return Matrix(self.rows, other.cols, data)

    @cached_property
    def _nonzero_cols(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Each column's nonzero entries as (row, entry)."""
        return tuple(tuple((i, a) for i, a in enumerate(col)
                           if a is not ZERO and a) for col in self.columns())

    @cached_property
    def _nonzero_rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Each row's nonzero entries as (column, entry)."""
        return tuple(tuple((j, a) for j, a in enumerate(row)
                           if a is not ZERO and a) for row in self.entries)

    def apply(self, v: Vec) -> Vec:
        """Matrix-vector product A v: the columns at v's nonzero
        coordinates, combined over their nonzero entries."""
        if len(v) != self.cols:
            raise AmbientMismatch("vector length does not match column count")
        return _combine(self.rows, v, self._nonzero_cols)

    def left_apply(self, u: Vec) -> Vec:
        """Vector-matrix product u^T A, that is A^T u with no transpose
        built: the rows at u's nonzero coordinates, combined over their
        nonzero entries.  A unit vector e_i gives row i itself."""
        if len(u) != self.rows:
            raise AmbientMismatch("vector length does not match row count")
        nz = [i for i, x in enumerate(u) if x is not ZERO and x]
        if len(nz) == 1 and u[nz[0]] == 1:
            return self.entries[nz[0]]
        return _combine(self.cols, u, self._nonzero_rows)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise AmbientMismatch("hstack needs equal row counts")
        data = tuple(a + b for a, b in zip(self.entries, other.entries))
        return Matrix(self.rows, self.cols + other.cols, data)

    def is_zero(self) -> bool:
        return all(is_zero_vec(row) for row in self.entries)

    def is_symmetric(self) -> bool:
        e = self.entries
        return self.rows == self.cols and all(
            e[i][j] == e[j][i] for i in range(self.rows) for j in range(i))

    def is_antisymmetric(self) -> bool:
        return self.rows == self.cols and self.antisymmetry_witness() is None

    def antisymmetry_witness(self) -> tuple[int, int] | None:
        """The first (i, j), j >= i, of a square matrix with entry (i, j)
        other than minus entry (j, i), or None.  Only a pair of nonzero
        entries is compared through a negation: a pair of zeros is
        skipped, and a pair with one zero is a witness."""
        e, n = self.entries, self.rows
        for i in range(n):
            for j in range(i, n):
                a, b = e[i][j], e[j][i]
                if a is ZERO or not a:
                    if b is not ZERO and b:
                        return i, j
                elif b is ZERO or not b or a != -b:
                    return i, j
        return None

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form with smallest-index pivoting.

        Returns the reduced matrix and the tuple of pivot column indices.
        Only the nonzero entries of a pivot row are divided, none when the
        pivot is 1, and row updates touch only the columns where the pivot
        row is nonzero, since x - f*0 == x; the pivot column becomes ZERO.
        """
        m = [list(row) for row in self.entries]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            pivot_row = next((i for i in range(r, self.rows)
                              if (x := m[i][c]) is not ZERO and x), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            pv = m[r][c]
            if pv != 1:
                m[r] = [x / pv if x is not ZERO and x else ZERO for x in m[r]]
            nz = [(j, y) for j, y in enumerate(m[r])
                  if y is not ZERO and y and j != c]
            for i in range(self.rows):
                if i != r and (f := m[i][c]) is not ZERO and f:
                    _eliminate(m[i], f, nz)
                    m[i][c] = ZERO
            pivots.append(c)
            r += 1
        return Matrix(self.rows, self.cols, tuple(tuple(row) for row in m)), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def _pivots(self, exchange: bool) -> Iterator[Fraction]:
        """The pivots of forward elimination on the square matrix, in order,
        through the first zero one.  With exchange, a zero diagonal entry
        is swapped for the first nonzero one below it, and the pivot a row
        exchange brings in is negated, so that the product of the pivots is
        the determinant.  Row updates touch only the nonzero entries of the
        pivot row right of the pivot."""
        n = self.rows
        m = [list(row) for row in self.entries]
        for c in range(n):
            pv = m[c][c]
            if exchange and (pv is ZERO or not pv):
                r = next((i for i in range(c + 1, n)
                          if (x := m[i][c]) is not ZERO and x), c)
                m[c], m[r] = m[r], m[c]
                pv = m[c][c]
                yield -pv
            else:
                yield pv
            if pv is ZERO or not pv:
                return
            nz = [(j, y) for j, y in enumerate(m[c])
                  if j > c and y is not ZERO and y]
            for row in m[c + 1:]:
                if (x := row[c]) is not ZERO and x:
                    _eliminate(row, x / pv, nz)

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return reduce(mul, self._pivots(exchange=True), ONE)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        aug, pivots = self.hstack(Matrix.identity(self.rows)).rref()
        if len(pivots) != self.rows or any(p >= self.rows for p in pivots):
            raise ValueError("matrix is singular")
        data = tuple(row[self.rows:] for row in aug.entries)
        return Matrix(self.rows, self.cols, data)

    def leading_minors_positive(self) -> bool:
        """Every leading principal minor is positive (Sylvester's criterion)."""
        return self.first_nonpositive_pivot() is None

    def first_nonpositive_pivot(self) -> tuple[int, Fraction] | None:
        """(k, pivot) of the first pivot <= 0 of elimination without row
        exchanges, or None: the leading minor of order k + 1 is the product
        of the first k + 1 pivots, so all are positive exactly when no pivot
        is <= 0.  The elimination stops at the first one."""
        if self.rows != self.cols:
            raise ValueError("minors of a non-square matrix")
        return next(((k, pv) for k, pv in
                     enumerate(self._pivots(exchange=False)) if pv <= 0), None)

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise AmbientMismatch("matrix shapes differ")

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


def _spanned(ambient_dim: int, vectors: Sequence[Vec]) -> "Subspace":
    """span(vectors) of Fraction entries: the nonzero RREF rows, transposed."""
    for v in vectors:
        if len(v) != ambient_dim:
            raise AmbientMismatch("spanning vector of wrong length")
    if not vectors:
        return Subspace.zero(ambient_dim)
    red, pivots = Matrix(len(vectors), ambient_dim, tuple(vectors)).rref()
    rows = red.entries[:len(pivots)]
    return Subspace(ambient_dim, Matrix(len(rows), ambient_dim, rows).transpose())


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n held by its canonical basis matrix.

    The basis columns are the unique reduced-column-echelon basis, so two
    Subspace values are equal exactly when they describe the same subspace,
    and column k is 1 at its pivot row p_k and 0 at every other pivot row.
    """

    ambient_dim: int
    basis: Matrix

    @staticmethod
    def span(ambient_dim: int, vectors: Sequence) -> "Subspace":
        return _spanned(ambient_dim, [vec(v) for v in vectors])

    @staticmethod
    def coordinate(ambient_dim: int, indices: Iterable[int]) -> "Subspace":
        """The span of the unit vectors at indices, which sorted and without
        repeats are already the canonical basis: nothing is eliminated."""
        column = {i: k for k, i in enumerate(sorted(set(indices)))}
        if any(not 0 <= i < ambient_dim for i in column):
            raise IndexError("coordinate index outside the ambient space")
        d, zero_row = len(column), zero_vec(len(column))
        return Subspace(ambient_dim, Matrix(ambient_dim, d, tuple(
            unit_vec(d, column[i]) if i in column else zero_row
            for i in range(ambient_dim))))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zeros(ambient_dim, 0))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def basis_vectors(self) -> list[Vec]:
        return self.basis.columns()

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot row of each basis column: the row of its leading 1."""
        return tuple(next(i for i, x in enumerate(col) if x is not ZERO and x)
                     for col in self.basis_vectors())

    def coords_of(self, v: Vec) -> Vec | None:
        """Coordinates of v in the canonical basis, or None if v is outside:
        they can only be v[p_0], ..., v[p_{d-1}], so check they rebuild v."""
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length mismatch")
        coords = tuple(v[p] for p in self.pivots)
        return coords if self.basis.apply(coords) == tuple(v) else None

    def contains(self, v: Vec) -> bool:
        return self.coords_of(v) is not None

    def leq(self, other: "Subspace") -> bool:
        return first_outside(self, other) is None

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("subspaces live in different ambient spaces")


@dataclass(frozen=True)
class InnerProduct:
    """A symmetric positive-definite Gram matrix; building one raises
    NotPositiveDefinite otherwise, so orth_complement tests nothing about
    it again.  Every other bilinear form is a plain square Matrix G, with
    G[i][j] = form(e_i, e_j)."""

    gram: Matrix

    def __post_init__(self):
        if not self.gram.is_symmetric():
            raise NotPositiveDefinite("inner product Gram matrix is not symmetric")
        if not self.gram.leading_minors_positive():
            raise NotPositiveDefinite("a leading principal minor is not positive")


def kernel(A: Matrix) -> Subspace:
    """Canonical basis of the null space {v : Av = 0}."""
    red, pivots = A.rref()
    free = [c for c in range(A.cols) if c not in pivots]
    vectors = []
    for f in free:
        v = [ZERO] * A.cols
        v[f] = ONE
        for r, c in enumerate(pivots):
            if (x := red.entries[r][f]) is not ZERO and x:
                v[c] = -x
        vectors.append(tuple(v))
    return _spanned(A.cols, vectors)


def sum_spaces(*parts: Subspace) -> Subspace:
    if not parts:
        raise ValueError("sum of no subspaces")
    n = parts[0].ambient_dim
    vectors = []
    for p in parts:
        if p.ambient_dim != n:
            raise AmbientMismatch("subspaces live in different ambient spaces")
        vectors.extend(p.basis_vectors())
    return _spanned(n, vectors)


def intersect(U: Subspace, V: Subspace) -> Subspace:
    U._check_ambient(V)
    if U.dim == 0 or V.dim == 0:
        return Subspace.zero(U.ambient_dim)
    # (x, y) in the kernel of [U | -V] gives the common vector Ux = Vy.
    ker = kernel(U.basis.hstack(-V.basis))
    return image(U.basis.hstack(Matrix.zeros(U.ambient_dim, V.dim)), ker)


def direct_sum(*parts: Subspace) -> Subspace | None:
    """The sum of the parts when it is direct, that is when their dimensions
    add up to its dimension; None otherwise."""
    total = sum_spaces(*parts)
    return total if sum(p.dim for p in parts) == total.dim else None


def image(A: Matrix, U: Subspace) -> Subspace:
    """The subspace A(U), spanned by A u over U's basis: each product
    skips the zero entries, where a dense A @ U.basis would not."""
    if A.cols != U.ambient_dim:
        raise AmbientMismatch("matrix and subspace live in different spaces")
    return _spanned(A.rows, [A.apply(u) for u in U.basis_vectors()])


def first_outside(U: Subspace, V: Subspace) -> int | None:
    """Index of the first basis vector of U outside V, or None if U <= V."""
    U._check_ambient(V)
    return next((i for i, u in enumerate(U.basis_vectors())
                 if not V.contains(u)), None)


def first_escape(S: Subspace, A: Matrix) -> int | None:
    """Index of the first basis vector s of S with A s outside S, or None
    when A maps S into itself."""
    if A.rows != S.ambient_dim or A.cols != S.ambient_dim:
        raise AmbientMismatch("matrix and subspace live in different spaces")
    return next((i for i, s in enumerate(S.basis_vectors())
                 if not S.contains(A.apply(s))), None)


def preserves(A: Matrix, G: Matrix) -> bool:
    """A is infinitesimally an isometry of the form with Gram G:
    A^T G + G A = 0."""
    return (A.transpose() @ G + G @ A).is_zero()


def _check_form(G: Matrix, *spaces: Subspace) -> None:
    """A Gram matrix must be square, of the spaces' ambient dimension."""
    if any(not G.rows == G.cols == V.ambient_dim for V in spaces):
        raise AmbientMismatch("form and subspaces live in different spaces")


def orth_complement(U: Subspace, W: Subspace, ip: InnerProduct) -> Subspace:
    """ip-orthogonal complement of U inside W, W & U^perp (requires U <= W)."""
    U._check_ambient(W)
    _check_form(ip.gram, U)
    if not U.leq(W):
        raise NotContained("first subspace is not contained in the second")
    return intersect(W, perp_under_form(ip.gram, U))


def pairing_witness(G: Matrix, U: Subspace,
                    V: Subspace) -> tuple[int, int] | None:
    """The first (i, j), in row-major order, with u_i^T G v_j != 0 for the
    canonical bases of U and V, or None when U and V pair to zero under the
    form with Gram matrix G.

    Row i is u_i^T G, so u_i^T G v is that row paired with v, summed where
    both are nonzero; the search stops at the first nonzero pairing.
    """
    _check_form(G, U, V)
    vs = [[(k, x) for k, x in enumerate(v) if x is not ZERO and x]
          for v in V.basis_vectors()]
    for i, u in enumerate(U.basis_vectors()):
        row = G.left_apply(u)
        for j, nz in enumerate(vs):
            if _total([a * x for k, x in nz
                       if (a := row[k]) is not ZERO and a]) is not ZERO:
                return i, j
    return None


def gram_on(G: Matrix, U: Subspace, *more: Subspace) -> Matrix:
    """Gram matrix of the form with Gram G restricted to the canonical
    basis of U.

    Given more subspaces, it is the Gram B^T G B of the canonical bases of
    U and of each of them side by side: its leading diagonal block is the
    Gram on U, and its rank is the rank of the form on the sum of the
    spaces even when B's columns are dependent (B = W C for a basis W of
    the sum and C of full row rank, so B^T G B = C^T (W^T G W) C).
    """
    _check_form(G, U, *more)
    B = reduce(Matrix.hstack, (V.basis for V in more), U.basis)
    return B.transpose() @ G @ B


def perp_under_form(G: Matrix, U: Subspace) -> Subspace:
    """All vectors pairing to zero (on the right) with every vector of U
    under the form with Gram matrix G."""
    _check_form(G, U)
    # Rows: v -> u_i^T G v for each basis vector u_i of U.
    rows = tuple(G.left_apply(u) for u in U.basis_vectors())
    return kernel(Matrix(U.dim, U.ambient_dim, rows))
