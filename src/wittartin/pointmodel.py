"""Concrete model of the tangent space at the base point.

The local model replaces the manifold entirely: coordinates are

    U block  --  g/g_m, parameterised by the chain bases of m then n,
                 with m ordered (p, b) and n ordered (a, s, ntilde, r);
    R block  --  m*, in the basis dual to the (p, b) basis of m;
    V block  --  the symplectic slice N1.

The symplectic form at the point is

    omega((u1,r1,v1),(u2,r2,v2)) = <r2, P_m u1> - <r1, P_m u2>
                                   + <mu, [u1, u2]> + omega_N1(v1, v2)

with P_m the projection onto m along g_m + n.  All entries are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .exactlin import (
    BilinearForm,
    Matrix,
    Subspace,
    Vec,
    ZERO,
    kernel,
    unit_vec,
    zero_vec,
)
from .splitting import Check, ProblemInstance, SplittingChain


class DegenerateModel(ValueError):
    """The assembled point form is singular (inconsistent slice data)."""


# Order of the chain blocks inside the U coordinates.
U_BLOCK_ORDER = ("p", "b", "a", "s", "ntilde", "r")


@dataclass(frozen=True)
class TangentModel:
    inst: ProblemInstance
    chain: SplittingChain
    total_dim: int
    dim_m: int
    dim_n: int
    # Columns: chain bases of (p, b, a, s, ntilde, r), as vectors in g.
    mn_basis: Matrix
    # Full basis of g: gm basis followed by the mn columns.
    g_basis: Matrix
    g_basis_inv: Matrix
    omega: BilinearForm
    blocks: dict[str, range]

    @property
    def gm_dim(self) -> int:
        return self.inst.gm.dim

    @property
    def slice_dim(self) -> int:
        return self.inst.slice_rep.dim

    # The kernels of the momentum differentials, computed once, on first use.
    @cached_property
    def ker_dphi_G(self) -> Subspace:
        return kernel(dphi_G(self))

    @cached_property
    def ker_dphi_H(self) -> Subspace:
        return kernel(dphi_H(self))

    def embed_u(self, u: Vec) -> Vec:
        """The g-vector with the given (m, n) coordinates."""
        if len(u) != self.dim_m + self.dim_n:
            raise ValueError("wrong U-block length")
        return self.mn_basis.apply(u)

    def g_coords(self, x: Vec) -> Vec:
        """Coordinates of x in the (gm, m, n) basis of g."""
        return self.g_basis_inv.apply(x)

    def dual_row(self, index: int) -> Vec:
        """Covector (in g* coordinates) dual to column `index` of g_basis."""
        return self.g_basis_inv.row(index)

    def dual_cols(self, start: int, stop: int) -> Matrix:
        """Dual rows start..stop-1 of g_basis_inv, as the columns of the
        matrix that zero-extends covectors on those basis columns to g*."""
        return Matrix(stop - start, self.inst.dim,
                      self.g_basis_inv.entries[start:stop]).transpose()

    def iota_mstar(self, rho: Vec) -> Vec:
        """Zero-extension of an m* covector to g* (kills gm and n)."""
        if len(rho) != self.dim_m:
            raise ValueError("wrong m* length")
        return self.dual_cols(self.gm_dim, self.gm_dim + self.dim_m).apply(rho)

    def iota_gmstar(self, lam: Vec) -> Vec:
        """Zero-extension of a g_m* covector to g* (kills m and n)."""
        if len(lam) != self.gm_dim:
            raise ValueError("wrong g_m* length")
        return self.dual_cols(0, self.gm_dim).apply(lam)

    def indices(self, *names: str) -> tuple[int, ...]:
        """Model coordinate indices of the named blocks, in the given order."""
        return tuple(i for name in names for i in self.blocks[name])

    def unit_span(self, indices: Sequence[int]) -> Subspace:
        """The coordinate subspace spanned by the unit vectors at indices."""
        return Subspace.span(self.total_dim,
                             [unit_vec(self.total_dim, i) for i in indices])

    def omega_on(self, indices: Sequence[int]) -> Matrix:
        """The point form on the unit vectors at indices, in that order: the
        omega submatrix on those rows and columns."""
        g = self.omega.gram.entries
        return Matrix(len(indices), len(indices),
                      tuple(tuple(g[i][j] for j in indices) for i in indices))


def build_model(chain: SplittingChain, inst: ProblemInstance) -> TangentModel:
    """Assemble the model and its point form; raises DegenerateModel if the
    form is singular."""
    n = inst.dim

    block_spaces = {
        "p": chain.p, "b": chain.b, "a": chain.a,
        "s": chain.s, "ntilde": chain.ntilde, "r": chain.r,
    }
    cols: list[Vec] = []
    blocks: dict[str, range] = {}
    for name in U_BLOCK_ORDER:
        start = len(cols)
        cols.extend(block_spaces[name].basis_vectors())
        blocks[name] = range(start, len(cols))
    dim_m = chain.p.dim + chain.b.dim
    dim_n = len(cols) - dim_m
    mn_basis = Matrix.from_cols(cols, rows=n)

    g_basis = inst.gm.basis.hstack(mn_basis)
    if g_basis.cols != n or g_basis.rank() != n:
        raise DegenerateModel("gm + m + n do not form a basis of g")
    g_basis_inv = g_basis.inverse()

    slice_dim = inst.slice_rep.dim
    total = (dim_m + dim_n) + dim_m + slice_dim
    un = dim_m + dim_n
    blocks["pstar"] = range(un, un + chain.p.dim)
    blocks["bstar"] = range(un + chain.p.dim, un + dim_m)
    blocks["N1"] = range(un + dim_m, total)

    # Gram of the point form in (U, R, V) coordinates.
    gram = [[ZERO] * total for _ in range(total)]
    chu_on_cols = (mn_basis.transpose() @ inst.chu.gram @ mn_basis).entries
    for i in range(un):
        gram[i][:un] = chu_on_cols[i]
    for i in range(dim_m):
        gram[i][un + i] = Fraction(1)
        gram[un + i][i] = Fraction(-1)
    og = inst.slice_rep.omega.gram
    for i in range(slice_dim):
        for j in range(slice_dim):
            gram[un + dim_m + i][un + dim_m + j] = og.entries[i][j]
    omega = BilinearForm(Matrix(total, total,
                                tuple(tuple(row) for row in gram)))
    if omega.gram.rank() != total:
        raise DegenerateModel("point form is singular")

    return TangentModel(
        inst=inst, chain=chain, total_dim=total,
        dim_m=dim_m, dim_n=dim_n,
        mn_basis=mn_basis, g_basis=g_basis, g_basis_inv=g_basis_inv,
        omega=omega, blocks=blocks,
    )


def inf_action(model: TangentModel, x: Vec) -> Vec:
    """Generator of x at the point, in model coordinates: the g/g_m
    component in the U block, zero in the R and V blocks."""
    if len(x) != model.inst.dim:
        raise ValueError("algebra vector of wrong length")
    return (model.g_coords(x)[model.gm_dim:]
            + zero_vec(model.dim_m + model.slice_dim))


def f_contract_check(model: TangentModel) -> Check:
    """model.f_contract: omega(U_j, R_k) = delta_jk on the m part of U.

    The isomorphism f: N0 -> m* reads off the R block, f(w) = rho; this
    check is its defining contract <f(w), y_j> = omega(y_j M, w) for every
    w in N0.
    """
    un, dim_m = model.dim_m + model.dim_n, model.dim_m
    block = [row[un:un + dim_m] for row in model.omega.gram.entries[:dim_m]]
    return Check("model.f_contract",
                 Matrix(dim_m, dim_m, tuple(block)) == Matrix.identity(dim_m))


def dphi_G(model: TangentModel) -> Matrix:
    """Matrix of the momentum differential, model coordinates -> g*.

    Columns: U direction u gives -ad*_u mu; R direction gives the
    zero-extended dual covector; V directions vanish (the slice momentum is
    quadratic, so its derivative at the origin is zero).
    """
    L = model.inst.algebra
    cols: list[Vec] = []
    for j in range(model.dim_m + model.dim_n):
        v = model.mn_basis.col(j)
        cols.append(tuple(-x for x in L.coad_apply(v, model.inst.mu)))
    for j in range(model.dim_m):
        cols.append(model.dual_row(model.gm_dim + j))
    for _ in range(model.slice_dim):
        cols.append(zero_vec(model.inst.dim))
    return Matrix.from_cols(cols, rows=model.inst.dim)


def dphi_H(model: TangentModel) -> Matrix:
    """Momentum differential for the subalgebra: restrict covectors to h."""
    return model.inst.h.basis.transpose() @ dphi_G(model)
