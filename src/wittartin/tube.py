"""Local normal form away from the base point.

omega_tube_gram evaluates the tube 2-form at a slice point (group coordinate
at the identity) in exact arithmetic, as one Gram matrix in the model's
(U, R, V) coordinates.  The form is bilinear, so every block is a product of
matrices the model already holds: the bracket pairing against the shifted
momentum mu + rho + Phi_N1(nu) on U x U, the m-dual rows of the g basis on
U x R, the derivative of the slice momentum on U x V, and omega_N1 on V x V.
omega_tube pairs two model coordinate vectors through that Gram matrix.
phi_tilde evaluates the normal-form momentum map, which needs a matrix
exponential and is therefore the one floating-point corner of the package.
Consistency checks tie both back to the exact linear model; their two
tolerances are the module constants REL_TOL and FD_TOL.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .exactlin import Matrix, Vec, add_vec, dot, is_zero_vec, scale_vec, unit_vec, zero_vec
from .pointmodel import TangentModel, dphi_G
from .splitting import Check, ProblemInstance

# Relative tolerance of the exponential series and of the equivariance
# comparison, and the bound on the finite-difference error of phi_tilde.
REL_TOL = 1e-9
FD_TOL = 1e-6


class OffSlice(ValueError):
    """The point has a nonzero group coordinate where none is allowed."""


class SeriesNotConverged(ArithmeticError):
    """The exponential series remainder bound exceeded the tolerance."""


@dataclass(frozen=True)
class TubePoint:
    """A point [exp(xi), rho, nu] of the local model, rational coordinates."""

    xi: Vec
    rho: Vec
    nu: Vec


def phi_n1(inst: ProblemInstance, nu: Vec) -> Vec:
    """Slice momentum in g_m* coordinates: <., x> = 1/2 omega(x.nu, nu)."""
    og = inst.slice_rep.omega.gram
    out = []
    for A in inst.slice_rep.action:
        out.append(Fraction(1, 2) * dot(A.apply(nu), og.apply(nu)))
    return tuple(out)


def dphi_n1(inst: ProblemInstance, nu: Vec, nudot: Vec) -> Vec:
    """Exact derivative of the quadratic slice momentum at nu, applied to nudot."""
    og = inst.slice_rep.omega.gram
    half = Fraction(1, 2)
    out = []
    for A in inst.slice_rep.action:
        out.append(half * dot(A.apply(nudot), og.apply(nu))
                   + half * dot(A.apply(nu), og.apply(nudot)))
    return tuple(out)


def _shifted_momentum(model: TangentModel, p: TubePoint) -> Vec:
    """mu + rho + Phi_N1(nu), exactly, in g* coordinates."""
    return add_vec(add_vec(model.inst.mu, model.iota_mstar(p.rho)),
                   model.iota_gmstar(phi_n1(model.inst, p.nu)))


def omega_tube_gram(model: TangentModel, p: TubePoint) -> Matrix:
    """Gram matrix of the tube 2-form at a slice point, exactly.

    With Mn the (m, n) basis of g, D_m and D_gm the m- and g_m-dual rows of
    g_basis_inv, J the Jacobian of dphi_n1 at nu, and
    K[a][b] = <lam, [e_a, e_b]> for lam = mu + rho + Phi_N1(nu), the blocks
    in (U, R, V) order are

        UU = Mn^T K Mn     UR = Mn^T D_m^T    UV = Mn^T D_gm^T J
        RU = -UR^T         RR = 0             RV = 0
        VU = -UV^T         VR = 0             VV = omega_N1

    Only points with group coordinate at the identity are accepted; by
    invariance nothing is lost, and the evaluation stays rational.
    """
    if not is_zero_vec(p.xi):
        raise OffSlice("omega_tube only evaluates at group coordinate zero")
    inst = model.inst
    K = inst.algebra.bracket_pairing(_shifted_momentum(model, p))
    gm, dm, sd = model.gm_dim, model.dim_m, model.slice_dim
    J = Matrix.from_cols([dphi_n1(inst, p.nu, unit_vec(sd, j))
                          for j in range(sd)], rows=gm)
    MnT = model.mn_basis.transpose()
    UU = MnT @ K @ model.mn_basis
    UR = MnT @ model.dual_cols(gm, gm + dm)
    UV = MnT @ model.dual_cols(0, gm) @ J
    bands = ((UU, UR, UV),
             (-UR.transpose(), Matrix.zeros(dm, dm), Matrix.zeros(dm, sd)),
             (-UV.transpose(), Matrix.zeros(sd, dm), inst.slice_rep.omega.gram))
    rows = tuple(sum((B.entries[r] for B in band), ())
                 for band in bands for r in range(band[0].rows))
    return Matrix(model.total_dim, model.total_dim, rows)


def omega_tube(model: TangentModel, p: TubePoint, v1: Vec, v2: Vec) -> Fraction:
    """The tube 2-form at a slice point on two model coordinate vectors:
    v1 . G(p) . v2 with G = omega_tube_gram."""
    G = omega_tube_gram(model, p)
    return dot(v1, G.apply(v2))


def _to_float_rows(M: Matrix) -> list[list[float]]:
    return [[float(x) for x in row] for row in M.entries]


def _mat_mul(A: list[list[float]], B: list[list[float]]) -> list[list[float]]:
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def _mat_add(A, B):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def _mat_scale(c: float, A):
    return [[c * x for x in row] for row in A]


def _mat_norm(A) -> float:
    # Max absolute row sum (induced infinity norm).
    return max((sum(abs(x) for x in row) for row in A), default=0.0)


def _identity(n: int) -> list[list[float]]:
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def expm(A: list[list[float]], rel_tol: float = REL_TOL) -> list[list[float]]:
    """Matrix exponential by scaling and squaring with a bounded series tail.

    After scaling so the norm is at most 1/2, the Taylor series is summed
    until the rigorous remainder bound  ||term|| / (1 - q)  with
    q = ||A|| / (k + 2) drops below the tolerance.
    """
    n = len(A)
    if n == 0:
        return []
    norm = _mat_norm(A)
    squarings = 0
    while norm > 0.5:
        squarings += 1
        norm /= 2.0
    S = _mat_scale(0.5 ** squarings, A)

    result = _identity(n)
    term = _identity(n)
    converged = False
    for k in range(1, 60):
        term = _mat_scale(1.0 / k, _mat_mul(term, S))
        result = _mat_add(result, term)
        tail = _mat_norm(term)
        q = _mat_norm(S) / (k + 2)
        if q < 1 and tail / (1 - q) <= rel_tol * max(1.0, _mat_norm(result)):
            converged = True
            break
    if not converged:
        raise SeriesNotConverged("exponential series tail bound not met")
    for _ in range(squarings):
        result = _mat_mul(result, result)
    return result


def phi_tilde(model: TangentModel, p: TubePoint) -> tuple[float, ...]:
    """Normal-form momentum Ad*_{exp(-xi)}(mu + rho + Phi_N1(nu)), as floats.

    At xi = 0 the exponential is skipped and the returned floats are exact
    conversions of the rational covector.
    """
    lam = _shifted_momentum(model, p)
    if is_zero_vec(p.xi):
        return tuple(float(x) for x in lam)

    L = model.inst.algebra
    neg_ad = _to_float_rows(L.ad_matrix(p.xi).scale(Fraction(-1)))
    E = expm(neg_ad)
    lamf = [float(x) for x in lam]
    # <Ad*_{exp(-xi)} lam, y> = <lam, exp(-ad_xi) y>: apply the transpose.
    n = L.dim
    return tuple(sum(E[i][j] * lamf[i] for i in range(n)) for j in range(n))


def check_dphi_consistency(model: TangentModel) -> list[Check]:
    """Central differences of phi_tilde at the base against dphi_G."""
    step = Fraction(1, 10_000)
    dG = dphi_G(model)

    worst = 0.0
    worst_dir = -1
    for d in range(model.total_dim):
        fp = phi_tilde(model, _point_along(model, d, step))
        fm = phi_tilde(model, _point_along(model, d, -step))
        fd = [(a - b) / (2.0 * float(step)) for a, b in zip(fp, fm)]
        col = [float(x) for x in dG.col(d)]
        scale = max(1.0, max((abs(c) for c in col), default=0.0))
        err = max((abs(a - b) for a, b in zip(fd, col)), default=0.0) / scale
        if err > worst:
            worst, worst_dir = err, d
    return [Check(
        "tube.dphi_fd_consistency",
        worst <= FD_TOL,
        f"max relative error {worst:.3e} at direction {worst_dir}",
    )]


def _point_along(model: TangentModel, index: int, t: Fraction) -> TubePoint:
    """The point t times the model unit vector at index, with its U block
    mapped into g."""
    v = scale_vec(t, unit_vec(model.total_dim, index))
    un = model.dim_m + model.dim_n
    return TubePoint(xi=model.embed_u(v[:un]), rho=v[un:un + model.dim_m],
                     nu=v[un + model.dim_m:])


def phi_equivariance_check(model: TangentModel, samples: int,
                           seed: int = 0) -> list[Check]:
    """Equivariance of the normal-form momentum on random points.

    Compares phi_tilde at [exp(xi), rho, nu] (exponential applied inside the
    evaluation) against the coadjoint matrix exponential applied to the
    momentum of [e, rho, nu]; the two float paths must agree to REL_TOL.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)

    def rand_frac() -> Fraction:
        return Fraction(rng.randint(-8, 8), rng.randint(1, 8))

    worst = 0.0
    L = model.inst.algebra
    n = L.dim
    for _ in range(samples):
        xi = tuple(rand_frac() for _ in range(n))
        rho = tuple(rand_frac() for _ in range(model.dim_m))
        nu = tuple(rand_frac() for _ in range(model.slice_dim))
        lhs = phi_tilde(model, TubePoint(xi, rho, nu))
        base = phi_tilde(model, TubePoint(zero_vec(n), rho, nu))
        M = expm(_to_float_rows(L.coad_matrix(tuple(-x for x in xi))))
        rhs = [sum(M[i][j] * base[j] for j in range(n)) for i in range(n)]
        scale = max(1.0, max((abs(x) for x in rhs), default=0.0))
        dev = max((abs(a - b) for a, b in zip(lhs, rhs)), default=0.0) / scale
        worst = max(worst, dev)
    return [Check(
        "tube.equivariance",
        worst <= REL_TOL,
        f"max relative deviation {worst:.3e} over {samples} samples",
    )]
