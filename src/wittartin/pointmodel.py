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

from .exactlin import (
    BilinearForm,
    Matrix,
    Subspace,
    Vec,
    ZERO,
    is_zero_vec,
    kernel,
    unit_vec,
    zero_vec,
)
from .splitting import Check, ProblemInstance, SplittingChain


class DegenerateModel(ValueError):
    """The assembled point form is singular (inconsistent slice data)."""


class NotInN0(ValueError):
    """A vector required to lie in the N0 block has other components."""


@dataclass(frozen=True)
class TangentVector:
    """Model tangent vector split into its (u, rho, nu) blocks."""

    u: Vec
    rho: Vec
    nu: Vec

    def coords(self) -> Vec:
        return self.u + self.rho + self.nu


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

    def pack(self, v: TangentVector) -> Vec:
        if (len(v.u), len(v.rho), len(v.nu)) != (
                self.dim_m + self.dim_n, self.dim_m, self.slice_dim):
            raise ValueError("tangent vector blocks have wrong lengths")
        return v.coords()

    def unpack(self, coords: Vec) -> TangentVector:
        un = self.dim_m + self.dim_n
        return TangentVector(
            u=coords[:un],
            rho=coords[un:un + self.dim_m],
            nu=coords[un + self.dim_m:],
        )

    def omega_value(self, v: TangentVector, w: TangentVector) -> Fraction:
        return self.omega(self.pack(v), self.pack(w))


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


def inf_action(model: TangentModel, x: Vec) -> TangentVector:
    """Generator of x at the point: the g/g_m component, in U coordinates."""
    if len(x) != model.inst.dim:
        raise ValueError("algebra vector of wrong length")
    coords = model.g_coords(x)
    return TangentVector(
        u=coords[model.gm_dim:],
        rho=zero_vec(model.dim_m),
        nu=zero_vec(model.slice_dim),
    )


def f_map(model: TangentModel, w: TangentVector) -> Vec:
    """The isomorphism N0 -> m*: in this model, read off the R block.

    The defining contract <f(w), y> = omega(y_M, w) for y in the m basis is
    the named check model.f_contract, which ties the model to the abstract
    map.
    """
    if not is_zero_vec(w.u) or not is_zero_vec(w.nu):
        raise NotInN0("vector has components outside the N0 block")
    return w.rho


def f_contract_check(model: TangentModel) -> Check:
    """model.f_contract: omega(U_j, R_k) = delta_jk on the m part of U.

    With f(w) = rho this is <f(w), y_j> = omega(y_j M, w) for every w in N0.
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


def unit_tangent(model: TangentModel, index: int) -> TangentVector:
    """The model basis vector at the given coordinate index."""
    return model.unpack(unit_vec(model.total_dim, index))
