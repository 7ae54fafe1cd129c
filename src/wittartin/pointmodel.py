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
from functools import cached_property
from typing import Sequence

from .exactlin import (
    ONE,
    Matrix,
    Subspace,
    Vec,
    kernel,
    scale_vec,
    zero_vec,
)
from .splitting import Check, ProblemInstance, SplittingChain, entry_detail


class DegenerateModel(ValueError):
    """The chain's (gm, m, n) columns do not form a basis of g."""


# Order of the chain blocks inside the U coordinates.
U_BLOCK_ORDER = ("p", "b", "a", "s", "ntilde", "r")


@dataclass(frozen=True)
class TangentModel:
    chain: SplittingChain
    total_dim: int
    dim_m: int
    dim_n: int
    # Columns: chain bases of (p, b, a, s, ntilde, r), as vectors in g.
    mn_basis: Matrix
    # Inverse of the basis of g formed by the gm basis and the mn columns.
    g_basis_inv: Matrix
    # Gram matrix of the point form in (U, R, V) coordinates.
    omega: Matrix
    blocks: dict[str, range]

    @property
    def inst(self) -> ProblemInstance:
        return self.chain.inst

    @property
    def gm_dim(self) -> int:
        return self.inst.gm.dim

    @property
    def slice_dim(self) -> int:
        return self.inst.slice_rep.dim

    # The momentum differential (defined by the module function dphi_G) and
    # the kernels of both differentials, computed once, on first use.
    @cached_property
    def dphi_G(self) -> Matrix:
        return dphi_G(self)

    @cached_property
    def ker_dphi_G(self) -> Subspace:
        return kernel(self.dphi_G)

    @cached_property
    def ker_dphi_H(self) -> Subspace:
        return kernel(dphi_H(self))

    @cached_property
    def slice_isotropy(self) -> tuple[Matrix, ...]:
        """The R and V block of isotropy_action for each g_m basis vector:
        how g_m acts on (rho, nu)."""
        rv = range(self.dim_m + self.dim_n, self.total_dim)
        return tuple(isotropy_action(self, eta).submatrix(rv, rv)
                     for eta in self.inst.gm.basis_vectors())

    def g_coords(self, x: Vec) -> Vec:
        """Coordinates of x in the (gm, m, n) basis of g."""
        return self.g_basis_inv.apply(x)

    @cached_property
    def coframe(self) -> Matrix:
        """g_basis_inv transposed: it sends a covector's coordinates in the
        dual of the (gm, m, n) basis to g*, so its columns gm .. gm + dim_m
        zero-extend m* and its first gm columns g_m*."""
        return self.g_basis_inv.transpose()

    def indices(self, *names: str) -> tuple[int, ...]:
        """Model coordinate indices of the named blocks, in the given order."""
        return tuple(i for name in names for i in self.blocks[name])

    def unit_span(self, indices: Sequence[int]) -> Subspace:
        """The coordinate subspace spanned by the unit vectors at indices."""
        return Subspace.coordinate(self.total_dim, indices)

    def omega_on(self, indices: Sequence[int]) -> Matrix:
        """The point form on the unit vectors at indices, in that order: the
        omega submatrix on those rows and columns."""
        return self.omega.submatrix(indices, indices)


def build_model(chain: SplittingChain) -> TangentModel:
    """Assemble the model and its point form; raises DegenerateModel if gm
    + m + n is no basis of g.  It only computes: verify.point_form_checks
    proves the form antisymmetric and nondegenerate."""
    inst = chain.inst
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

    try:
        g_basis_inv = inst.gm.basis.hstack(mn_basis).inverse()
    except ValueError as e:  # the basis is not square, or singular
        raise DegenerateModel("gm + m + n do not form a basis of g") from e

    slice_dim = inst.slice_rep.dim
    total = (dim_m + dim_n) + dim_m + slice_dim
    un = dim_m + dim_n
    blocks["pstar"] = range(un, un + chain.p.dim)
    blocks["bstar"] = range(un + chain.p.dim, un + dim_m)
    blocks["N1"] = range(un + dim_m, total)

    # Gram of the point form in (U, R, V) coordinates.
    UR = Matrix.identity(un).submatrix(range(un), range(dim_m))
    omega = Matrix.from_blocks((
        (inst.algebra.bracket_gram(inst.mu, mn_basis, mn_basis), UR,
         Matrix.zeros(un, slice_dim)),
        (-UR.transpose(), Matrix.zeros(dim_m, dim_m + slice_dim)),
        (Matrix.zeros(slice_dim, un + dim_m), inst.slice_rep.omega)))

    return TangentModel(
        chain=chain, total_dim=total, dim_m=dim_m, dim_n=dim_n,
        mn_basis=mn_basis, g_basis_inv=g_basis_inv,
        omega=omega, blocks=blocks,
    )


def inf_action(model: TangentModel, x: Vec) -> Vec:
    """Generator of x at the point, in model coordinates: the g/g_m
    component in the U block, zero in the R and V blocks."""
    if len(x) != model.inst.dim:
        raise ValueError("algebra vector of wrong length")
    return (model.g_coords(x)[model.gm_dim:]
            + zero_vec(model.dim_m + model.slice_dim))


def isotropy_action(model: TangentModel, eta: Vec) -> Matrix:
    """The linearised action of eta in g_m on the model coordinates.

    It is block diagonal: ad_eta on g/g_m in the U block, the coadjoint
    action -(ad_eta on m)^T on m* in the R block (m is ad(g_m)-stable,
    which chain.ad_gm_invariance checks), and the slice representation on
    N1 in the V block.
    """
    gm, un = model.gm_dim, model.dim_m + model.dim_n
    U = (model.g_basis_inv.submatrix(range(gm, model.inst.dim),
                                     range(model.inst.dim))
         @ model.inst.algebra.ad_matrix(eta) @ model.mn_basis)
    R = -U.submatrix(range(model.dim_m), range(model.dim_m)).transpose()
    V = model.inst.slice_rep.combine(model.g_coords(eta)[:gm])
    Z, dm, sd = Matrix.zeros, model.dim_m, model.slice_dim
    return Matrix.from_blocks(((U, Z(un, dm + sd)), (Z(dm, un), R, Z(dm, sd)),
                               (Z(sd, un + dm), V)))


def f_contract_check(model: TangentModel) -> Check:
    """model.f_contract: omega(U_j, R_k) = delta_jk on the m part of U.

    The isomorphism f: N0 -> m* reads off the R block, f(w) = rho; this
    check is its defining contract <f(w), y_j> = omega(y_j M, w) for every
    w in N0.
    """
    un, dim_m = model.dim_m + model.dim_n, model.dim_m
    block = model.omega.submatrix(range(dim_m), range(un, un + dim_m))
    return Check.of("model.f_contract", entry_detail(
        block, Matrix.identity(dim_m), "the m x m* block of the point form"))


def dphi_G(model: TangentModel) -> Matrix:
    """Matrix of the momentum differential at the base point: the
    momentum_differential at lam = mu and nu = 0, where the V columns
    vanish (the slice momentum is quadratic)."""
    return momentum_differential(model, model.inst.mu,
                                 zero_vec(model.slice_dim))


def momentum_differential(model: TangentModel, lam: Vec, nu: Vec) -> Matrix:
    """Matrix of dJ at the slice point [e, rho, nu] of the normal form,
    model coordinates -> g*, for lam = mu + rho + Phi_N1(nu).

    Columns: U direction u gives -ad*_u lam; R direction gives the
    zero-extended dual covector; V direction j gives the g_m* covector of
    the partial derivatives of Phi_N1, d/dnu_j nu^T S_t nu = ((S_t +
    S_t^T) nu)_j for each momentum form S_t, zero-extended: 0 at nu = 0.
    """
    L, gm, n = model.inst.algebra, model.gm_dim, model.inst.dim
    minus_lam = scale_vec(-ONE, lam)
    cols = [L.coad_apply(v, minus_lam) for v in model.mn_basis.columns()]
    cols.extend(model.coframe.columns()[gm:gm + model.dim_m])
    grads = [(S + S.transpose()).apply(nu) for S in
             model.inst.slice_rep.momentum_forms] if any(nu) else []
    cols.extend(model.coframe.apply(tuple(d[j] for d in grads)
                                    + zero_vec(n - len(grads)))
                for j in range(model.slice_dim))
    return Matrix.from_cols(cols, rows=n)


def dphi_H(model: TangentModel) -> Matrix:
    """Momentum differential for the subalgebra: restrict covectors to h."""
    return model.inst.h.basis.transpose() @ model.dphi_G
