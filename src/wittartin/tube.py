"""Local normal form away from the base point.

omega_tube_gram evaluates the tube 2-form at a slice point (group coordinate
at the identity) in exact arithmetic, as one Gram matrix in the model's
(U, R, V) coordinates: the point form model.omega with its U x U block, the
bracket pairing against the shifted momentum mu + rho + Phi_N1(nu),
replaced.  omega_tube pairs two model coordinate vectors through it.
check_dphi_consistency states, exactly, that the normal-form momentum J is
a momentum map for it at a slice point: dJ(p) = X(p)^T G(p).
phi_tilde evaluates J([g, rho, nu]) = Ad*_{g^-1}(mu + rho + Phi_N1(nu)),
which needs an exponential and is the one floating-point corner of the
package.  expm(A, v) is exp(A) v, a Taylor series run on the vector in
ceil(||A|| / (1/2)) substeps, never a matrix exponential.

phi_equivariance_check ties it to the exact model: the ODE of the
exponential of A = coad(-xi) on a drawn vector w, by the complex step
Z = exp((1 + ih) A), Im(Z w) / h against A Re(Z w), beside the identity
J([g k, k^-1 (rho, nu)]) = J([g, rho, nu]) for k = exp(zeta), zeta in
g_m, compared before the Ad*_{g^-1} both sides apply.  xi and zeta are
scaled exactly so that no exponent has a norm above 1/2: one series step
each.  A sample takes one exponential when g_m = 0, and two more
otherwise.  Float errors are _relative_error, against REL_TOL or FD_TOL.
A value out of float range, a series that does not converge and a nan
fail it by name.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlin import (
    ONE,
    ZERO,
    Matrix,
    Vec,
    _total,
    add_vec,
    dot,
    is_zero_vec,
    scale_vec,
    zero_vec,
)
from .pointmodel import TangentModel, momentum_differential
from .splitting import Check, entry_detail

# Relative tolerance of the exponential series and of the equivariance
# comparison, and the bound on the ODE residual of the complex step.
REL_TOL = 1e-9
FD_TOL = 1e-6


class OffSlice(ValueError):
    """The point has a nonzero group coordinate where none is allowed."""


class SeriesNotConverged(ArithmeticError):
    """The exponential series remainder bound exceeded the tolerance."""


class OutOfFloatRange(ArithmeticError):
    """An exact value is too large in magnitude to become a float."""


@dataclass(frozen=True)
class TubePoint:
    """A point [exp(xi), rho, nu] of the local model, rational coordinates."""

    xi: Vec
    rho: Vec
    nu: Vec


def _shifted_momentum(model: TangentModel, p: TubePoint) -> Vec:
    """mu + rho + Phi_N1(nu), exactly, in g* coordinates."""
    return add_vec(model.inst.mu, model.coframe.apply(
        model.inst.slice_rep.momentum(p.nu) + p.rho + zero_vec(model.dim_n)))


def omega_tube_gram(model: TangentModel, p: TubePoint) -> Matrix:
    """Gram matrix of the tube 2-form at a slice point, exactly.

    It is the point form model.omega with its U x U block replaced by
    UU[a][b] = <lam, [u_a, u_b]> over the (m, n) basis u of g, for lam =
    mu + rho + Phi_N1(nu): LieAlgebra.bracket_gram, which sums over the
    nonzero constants, lam and basis entries and builds no matrix of the
    bracket pairing.  Moving along the slice changes no other block: they
    pair the (m, n) directions with m* and give omega_N1 on N1.

    Only points with group coordinate at the identity are accepted; by
    invariance nothing is lost, and the evaluation stays rational.
    """
    if not is_zero_vec(p.xi):
        raise OffSlice("omega_tube only evaluates at group coordinate zero")
    mn, om = model.mn_basis, model.omega
    uu = model.inst.algebra.bracket_gram(_shifted_momentum(model, p), mn, mn)
    return Matrix(om.rows, om.cols, tuple(
        row + fixed[mn.cols:] for row, fixed in zip(uu.entries, om.entries))
        + om.entries[mn.cols:])


def omega_tube(model: TangentModel, p: TubePoint, v1: Vec, v2: Vec) -> Fraction:
    """The tube 2-form at a slice point on two model coordinate vectors:
    v1 . G(p) . v2 with G = omega_tube_gram."""
    G = omega_tube_gram(model, p)
    return dot(v1, G.apply(v2))


def _brief(x: Fraction) -> str:
    text = str(x)
    return text if len(text) <= 40 else \
        f"{text[:16]}...{text[-8:]} ({len(text)} characters)"


def _to_floats(values: Vec) -> list[float]:
    """The floats nearest to exact values, 0.0 for a zero without a
    division; raises OutOfFloatRange, naming the value, for one too large
    for a float."""
    out = []
    for x in values:
        try:
            out.append(float(x) if x is not ZERO and x else 0.0)
        except OverflowError:
            raise OutOfFloatRange(f"the exact value {_brief(x)} is out of "
                                  "float range") from None
    return out


def _worst(errors) -> float:
    """The largest error, 0.0 for none, or nan when one is nan (max alone
    keeps what it holds when it meets a nan, so it can hide one)."""
    errors = list(errors)
    if any(map(math.isnan, errors)):
        return math.nan
    return max(errors, default=0.0)


def _relative_error(got: Sequence[float], want: Sequence[float]) -> float:
    """max |got - want| over max(1, max |want|), entry by entry, or nan when
    a difference or an entry of want is nan."""
    return (_worst(abs(a - b) for a, b in zip(got, want))
            / _worst([1.0, *map(abs, want)]))


def _to_float_rows(M: Matrix) -> list[list[float]]:
    return [_to_floats(row) for row in M.entries]


def _mat_norm(A) -> float:
    """The largest absolute row sum (induced infinity norm), inf beyond
    float range, nan when a row holds a nan.  Each row sum is correctly
    rounded (math.fsum), so exact rows of sum at most 1/2, each entry
    rounded to the nearest float, still give at most 1/2."""
    try:
        return _worst(math.fsum(map(abs, row)) for row in A)
    except OverflowError:
        return math.inf


# The largest norm of an exponent: expm takes one series step per 1/2 of
# the norm, and every exponent a check takes is scaled to at most 1/2.
_HALF = 0.5


def expm(A: list[list], v: Sequence, rel_tol: float = REL_TOL) -> list:
    """exp(A) v, by the Taylor series on the vector (Al-Mohy and Higham,
    "Computing the action of the matrix exponential", SIAM J. Sci. Comput.
    33(2), 2011), in m = ceil(||A|| / (1/2)) substeps of exp(A / m).

    Each substep sums the series until the rigorous remainder bound
    ||term|| / (1 - q), q = ||A / m|| / (k + 2), drops below rel_tol times
    max(1, ||partial sum||), in infinity norms.  Every exponent that
    phi_equivariance_check takes has norm at most 1/2, so m = 1 there;
    phi_tilde takes any xi.

    A norm of A beyond float range raises OutOfFloatRange.
    SeriesNotConverged is raised for a nan in A, before the series; for a
    nan in v or in a term, as a nan tail or partial sum never passes the
    tail test; for a tail test not met in 59 terms; and for m epsilon >
    rel_tol, where the rounding of the m substeps alone could miss the
    tolerance: expm names m instead of running them.

    The entries may be complex, as in _ode_residual: the code only
    multiplies, adds, divides by an integer, takes abs (the modulus) and
    tests entries for zero.
    """
    n, norm = len(A), _mat_norm(A)
    if math.isnan(norm):
        raise SeriesNotConverged(f"a {n}x{n} matrix to exponentiate holds "
                                 "a nan")
    if norm == math.inf:
        raise OutOfFloatRange(f"the norm of a {n}x{n} matrix to exponentiate "
                              "is inf, out of float range")
    m = max(1, math.ceil(norm / _HALF))
    if m * sys.float_info.epsilon > rel_tol:
        raise SeriesNotConverged(
            f"exp(A) v at ||A|| = {norm:.3e} takes {m} substeps, whose "
            f"rounding could exceed the tolerance {rel_tol:.0e}")
    if m > 1:
        A = [[x / m for x in row] for row in A]
        norm = _mat_norm(A)
    nz = [[(j, x) for j, x in enumerate(row) if x] for row in A]
    for _ in range(m):
        result = term = v
        for k in range(1, 60):
            term = [sum(x * term[j] for j, x in row) / k for row in nz]
            result = [a + b for a, b in zip(result, term)]
            # q = ||A / m|| / (k + 2) <= 1/6: the bound is finite.
            q = norm / (k + 2)
            if _worst(map(abs, term)) / (1 - q) <= rel_tol * _worst(
                    [1.0, *map(abs, result)]):
                break
        else:
            raise SeriesNotConverged("exponential series tail bound not met")
        v = result
    return list(v)


def phi_tilde(model: TangentModel, p: TubePoint) -> tuple[float, ...]:
    """Normal-form momentum Ad*_{exp(-xi)}(mu + rho + Phi_N1(nu)), as floats.

    At xi = 0 the exponential is skipped and the returned floats are exact
    conversions of the rational covector.  Any other xi is taken as it is:
    expm runs ceil(||ad(xi)|| / (1/2)) substeps, and names a norm that
    would need more than REL_TOL / epsilon (about 4.5e6) of them.
    """
    lam = _shifted_momentum(model, p)
    if is_zero_vec(p.xi):
        return tuple(_to_floats(lam))
    ad = model.inst.algebra.ad_matrix(scale_vec(-ONE, p.xi))
    return _coadjoint_exp(_to_float_rows(ad), _to_floats(lam))


def _coadjoint_exp(ad: list[list[float]],
                   lam: Sequence[float]) -> tuple[float, ...]:
    """Ad*_{exp(-xi)} lam = exp(ad(-xi)^T) lam, as floats, from the floats
    of ad(-xi) and lam: <Ad*_{exp(-xi)} lam, y> = <lam, exp(-ad_xi) y>."""
    return tuple(expm([list(col) for col in zip(*ad)], lam))


def check_dphi_consistency(model: TangentModel, p: TubePoint,
                           G: Matrix) -> str:
    """"" when J is a momentum map for the tube 2-form at the slice point p,
    exactly: dJ(p) = X(p)^T G for G = omega_tube_gram(model, p), that is
    <dJ(p) v, xi> = omega_tube(p)(xi_Y(p), v) (Ortega and Ratiu 2004,
    7.2); otherwise entry_detail's first differing entry.

    Column i of X(p) is the generator of e_i at p: (u, zeta.(rho, nu)) for
    the g_coords (zeta, u) of e_i, with zeta acting on (rho, nu) by the R
    and V block of isotropy_action (model.slice_isotropy).  Row i of
    X^T G is x_i^T G, the rows of G at the nonzero coordinates of x_i
    combined: row k of G itself when x_i = e_k.  dJ(p) is
    pointmodel.momentum_differential at lam = mu + rho + Phi_N1(nu); at
    the base point it is model.dphi_G, the matrix the kernel checks read.
    The check takes no exponential.
    """
    if not is_zero_vec(p.xi):
        raise OffSlice("the momentum map equation is only checked at group "
                       "coordinate zero")
    rho_nu, gm = p.rho + p.nu, model.gm_dim
    dJ = (model.dphi_G if is_zero_vec(rho_nu) else momentum_differential(
        model, _shifted_momentum(model, p), p.nu))
    moved = Matrix.from_cols([A.apply(rho_nu) for A in model.slice_isotropy],
                             rows=len(rho_nu))
    XtG = Matrix(model.inst.dim, G.cols, tuple(
        G.left_apply(c[gm:] + moved.apply(c[:gm]))
        for c in model.g_basis_inv.columns()))
    return entry_detail(XtG, dJ, "X^T G")


# The complex step h of the ODE test.
_ODE_STEP = 1e-4


def _ode_residual(A: list[list[float]], w: Sequence[float]) -> float:
    """The _relative_error of Im(Z w) / h against A Re(Z w), for Z =
    exp((1 + ih) A) and h = _ODE_STEP: how far Z w is from the ODE
    d/dt exp(tA) w = A exp(tA) w at t = 1, by a complex step (Squire and
    Trapp, SIAM Rev. 1998; Al-Mohy and Higham, Numer. Algorithms 2010).
    Im(Z w) / h = exp(A) sin(hA) w / h and A Re(Z w) = A exp(A) cos(hA) w
    differ by about (h ||A||)^2 / 3 of A exp(A) w, 8.3e-10 at ||A|| =
    1/2, with nothing cancelling."""
    h = _ODE_STEP
    z = expm([[complex(x, h * x) for x in row] for row in A], w)
    return _relative_error([y.imag / h for y in z],
                           _mat_vec(A, [y.real for y in z]))


def _exact_norm(M: Matrix) -> Fraction:
    """||M||_inf exactly: the largest row sum of |entries|, summed over the
    nonzero entries only (no sum takes a zero operand)."""
    return max((_total([abs(x) for x in row if x is not ZERO and x])
                for row in M.entries), default=ZERO)


def _scaled_floats(bound: Fraction, norm: Fraction,
                   *mats: Matrix) -> list[list[list[float]]]:
    """The floats of mats, each first scaled exactly by min(1, bound /
    norm): for norm the largest norm among the exponents they give, no
    exponent has a norm above bound, and every entry fits a float.  The
    factor is never 0, so a nonzero matrix stays nonzero."""
    if norm > bound:
        mats = tuple(M.scale(bound / norm) for M in mats)
    return [_to_float_rows(M) for M in mats]


# The bound on ||coad(-xi)||: the ODE test exponentiates (1 + ih) coad(-xi),
# of norm at most (1 + h) ||coad(-xi)||, and that must be at most 1/2.
_ODE_BOUND = Fraction(_HALF) / (1 + Fraction(_ODE_STEP))


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    return sum(x * y for x, y in zip(u, v))


def _mat_vec(M: list[list[float]], v: Sequence[float]) -> list[float]:
    return [_dot(row, v) for row in M]


def phi_equivariance_check(model: TangentModel, samples: int,
                           seed: int = 0) -> list[Check]:
    """On random points, the identity that makes the normal form
    Y = G x_{G_m} (m* x N1) well defined (Marle 1985; Guillemin and
    Sternberg 1984): for k = exp(zeta), zeta in g_m,

        J([g k, k^-1 (rho, nu)]) = J([g, rho, nu]),

    to REL_TOL, and the _ode_residual of A = coad(-xi), g = exp(xi), on a
    vector w of floats drawn in [-1, 1], to FD_TOL; the detail names the
    first sample that misses either, or that raises.  Both sides of the
    identity apply the invertible Ad*_{g^-1}, so it is compared before
    it: Ad*_{k^-1} lam(k^-1 (rho, nu)) against lam(rho, nu), lam = mu +
    rho + Phi_N1(nu) in floats.  k^-1 acts on (rho, nu) by the
    exponential of minus model.slice_isotropy (the coadjoint action on
    m*, from the (p, b) block of ad(zeta) in the (g_m, m, n) basis, and
    the slice action on N1), and on the momentum by the coadjoint
    exponential of ad(-zeta).

    xi and zeta are drawn as rationals and scaled exactly, before any
    float conversion, by min(1, bound / norm): coad(-xi) to _ODE_BOUND,
    and ad(-zeta)^T and the action on (rho, nu) together to 1/2.  So no
    exponent has a norm above 1/2, expm sums one series step on a vector
    for each, and a value out of float range is one the instance holds,
    not one the draw made.  A sample takes three exponentials, the ODE's,
    k^-1's on (rho, nu) and ad(-zeta)^T's on lam.  When g_m = 0 it takes
    the ODE's alone, the deviation is 0, and the ODE test is all the
    check holds: its residual depends on the structure constants, the
    drawn xi and w, never on mu, the slice or the model.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)

    def rand_frac() -> Fraction:
        return Fraction(rng.randint(-8, 8), rng.randint(1, 8))

    worst, off_gm, off_ode, at = 0.0, "", "", ""
    L, gm, dm = model.inst.algebra, model.gm_dim, model.dim_m
    try:
        forms = [_to_float_rows(S) for S in model.inst.slice_rep.momentum_forms]
        coframe, muf = ((_to_float_rows(model.coframe),
                         _to_floats(model.inst.mu)) if gm else ([], []))

        def lam(rho_nu: list[float]) -> list[float]:
            # mu + rho + Phi_N1(nu), from its coordinates in the dual of
            # the (g_m, m, n) basis: Phi_N1 on g_m, rho on m.
            nu = rho_nu[dm:]
            dual = [_dot(nu, _mat_vec(S, nu)) for S in forms] + rho_nu[:dm]
            return [m + _dot(row, dual) for m, row in zip(muf, coframe)]

        for t in range(samples):
            at = f"sample {t}: "
            xi = tuple(rand_frac() for _ in range(L.dim))
            rho = tuple(rand_frac() for _ in range(dm))
            nu = tuple(rand_frac() for _ in range(model.slice_dim))
            w = [rng.uniform(-1.0, 1.0) for _ in range(L.dim)]
            coad = L.ad_matrix(scale_vec(-ONE, xi)).transpose()
            miss = _ode_residual(*_scaled_floats(
                _ODE_BOUND, _exact_norm(coad), coad), w)
            if not off_ode and not miss <= FD_TOL:
                off_ode = (f"; {at}d/dt exp(tA) w at t = 1 misses "
                           f"A exp(A) w by {miss:.3e}")
            if not gm:
                continue
            c = tuple(rand_frac() for _ in range(gm))
            ad_k = L.ad_matrix(scale_vec(-ONE, model.inst.gm.basis.apply(c)))
            acts = [A.scale(-x) for A, x in zip(model.slice_isotropy, c)]
            act_k = sum(acts[1:], acts[0])
            ad_f, act_f = _scaled_floats(
                Fraction(_HALF),
                max(_exact_norm(ad_k.transpose()), _exact_norm(act_k)),
                ad_k, act_k)
            rho_nu = _to_floats(rho + nu)
            dev = _relative_error(
                _coadjoint_exp(ad_f, lam(expm(act_f, rho_nu))), lam(rho_nu))
            worst = _worst((worst, dev))
            if not off_gm and not dev <= REL_TOL:
                off_gm = (f"; {at}J([g k, k^-1 (rho, nu)]) misses "
                          f"J([g, rho, nu]) by {dev:.3e}")
    except (OutOfFloatRange, SeriesNotConverged) as e:
        return [Check("tube.equivariance", False, f"{at}{e}")]
    return [Check(
        "tube.equivariance", worst <= REL_TOL and not off_gm and not off_ode,
        f"max relative deviation {worst:.3e} over {samples} samples"
        f"{off_gm}{off_ode}")]
