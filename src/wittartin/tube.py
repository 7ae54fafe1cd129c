"""Local normal form away from the base point.

omega_tube_gram evaluates the tube 2-form at a slice point (group coordinate
at the identity) in exact arithmetic, as one Gram matrix in the model's
(U, R, V) coordinates: the point form model.omega with its U x U block, the
bracket pairing against the shifted momentum mu + rho + Phi_N1(nu),
replaced.  omega_tube pairs two model coordinate vectors through it.
check_dphi_consistency states, exactly, that the normal-form momentum J is
a momentum map for it at a slice point: dJ(p) = X(p)^T G(p).
phi_tilde evaluates J([g, rho, nu]) = Ad*_{g^-1}(mu + rho + Phi_N1(nu)),
which needs a matrix exponential and is the one floating-point corner of
the package.

phi_equivariance_check ties it to the exact model: the ODE of the
exponential of A = coad(-xi), by the complex step _complex_step(A), Re Z
and Im Z / h for Z = expm((1 + ih) A), beside the identity J([g k, k^-1
(rho, nu)]) = J([g, rho, nu]) for k = exp(zeta), zeta in g_m, compared
before the Ad*_{g^-1} both sides apply.  A sample takes one n x n
exponential when g_m = 0, and two small ones more otherwise.  Float errors
are _relative_error, against REL_TOL or FD_TOL.  A value out of float
range, a series that does not converge and a nan fail it by name.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlin import Matrix, Vec, add_vec, dot, is_zero_vec, zero_vec
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
            out.append(float(x) if x else 0.0)
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


def _row_times(row: list[float], nzB: list[list[tuple[int, float]]],
               cols: int) -> list[float]:
    # row times B, from the nonzero (j, b) of each row k of B: sums a*b over
    # the nonzero a of row and the nonzero b in increasing k, == the dense
    # sums but for a 0's sign.
    acc = [0.0] * cols
    for k, a in enumerate(row):
        if a:
            for j, b in nzB[k]:
                acc[j] += a * b
    return acc


def _mat_mul(A: list[list[float]], B: list[list[float]]) -> list[list[float]]:
    nzB = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    cols = len(B[0]) if B else 0
    return [_row_times(row, nzB, cols) for row in A]


def _mat_scale(c: float, A):
    return [[c * x for x in row] for row in A]


def _mat_norm(A) -> float:
    # Max absolute row sum (induced infinity norm).
    return max((sum(map(abs, row)) for row in A), default=0.0)


# Relative slack of the running bound on ||result|| against float rounding.
_NORM_MARGIN = 1.0 + 1e-6


def _identity(n: int) -> list[list[float]]:
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def _blocks(S: list[list[float]]) -> list[list[int]]:
    """The connected components of S's nonzero pattern, i ~ j when S[i][j]
    or S[j][i] is nonzero, each in ascending order.  An index whose row
    and column are zero, a zero 1x1 block, is left out."""
    n = len(S)
    near: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(S):
        for j, x in enumerate(row):
            if x:
                near[i].append(j)
                near[j].append(i)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i] or not near[i]:
            continue
        seen[i] = True
        stack, block = [i], []
        while stack:
            v = stack.pop()
            block.append(v)
            for w in near[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        out.append(sorted(block))
    return out


def expm(A: list[list[float]], rel_tol: float = REL_TOL) -> list[list[float]]:
    """Matrix exponential by scaling and squaring with a bounded series tail.

    After scaling so the norm is at most 1/2, the Taylor series is summed
    until the rigorous remainder bound  ||term|| / (1 - q)  with
    q = ||A|| / (k + 2) drops below the tolerance.  ||result|| is at most
    1 + the sum of the term norms, so it is only computed once that bound
    (with a margin far above rounding) lets the tail test pass.

    The exponential of a block-diagonal matrix is made of its blocks'
    exponentials, so the series and the squarings run on each block of
    the scaled matrix S (see _blocks), with its indices in ascending order,
    and the blocks step in lockstep: the tail test reads the largest row
    sum over all of them.  Every sum then runs in the order of the dense
    computation, and on finite input each float equals its value there.
    An index in no block, with a zero row and column, is an identity row
    of the result; a block of every index is the result itself.

    A norm of A that is not finite, a row sum beyond float range, raises
    OutOfFloatRange: halving it would never reach 1/2.  A nan in any row of
    a term makes the tail nan, which never passes the tail test, so the
    series raises SeriesNotConverged.

    The entries may be complex, as in _complex_step: the code only
    multiplies, adds, takes abs (the modulus) and tests entries for zero.
    A real matrix given with zero imaginary parts gives its float result
    as the real parts.
    """
    n = len(A)
    if n == 0:
        return []
    norm = _mat_norm(A)
    if not math.isfinite(norm):
        raise OutOfFloatRange(f"the norm of a {n}x{n} matrix to exponentiate "
                              f"is {norm}, out of float range")
    squarings = 0
    while norm > 0.5:
        squarings += 1
        norm /= 2.0
    S = _mat_scale(0.5 ** squarings, A)
    s_norm = _mat_norm(S)

    blocks = _blocks(S)
    # Per block: S's nonzeros by row, in block coordinates; the partial
    # sum; and the last term of the series.
    nz = [[[(c, S[i][j]) for c, j in enumerate(idx) if S[i][j]] for i in idx]
          for idx in blocks]
    results = [_identity(len(idx)) for idx in blocks]
    terms = [_identity(len(idx)) for idx in blocks]
    bound = 1.0
    for k in range(1, 60):
        inv_k = 1.0 / k
        tail = 0.0
        for nzS, term, result in zip(nz, terms, results):
            m = len(term)
            for r, row in enumerate(term):
                acc = [inv_k * x if x else x for x in _row_times(row, nzS, m)]
                term[r] = acc
                result[r] = [x + y for x, y in zip(result[r], acc)]
                row_sum = sum(map(abs, acc))
                # The largest row sum, or nan once one is nan (as _worst).
                if row_sum > tail or row_sum != row_sum:
                    tail = row_sum
        bound += tail
        q = s_norm / (k + 2)
        if (q < 1 and tail / (1 - q) <= rel_tol * bound * _NORM_MARGIN
                and tail / (1 - q) <= rel_tol * max(
                    1.0, max(map(_mat_norm, results), default=0.0))):
            break
    else:
        raise SeriesNotConverged("exponential series tail bound not met")

    for b, result in enumerate(results):
        for _ in range(squarings):
            result = _mat_mul(result, result)
        results[b] = result
    if len(blocks) == 1 and len(blocks[0]) == n:  # one block of every index
        return results[0]
    E = _identity(n)
    for idx, result in zip(blocks, results):
        for i, row in zip(idx, result):
            E[i] = [0.0] * n
            for j, x in zip(idx, row):
                E[i][j] = x
    return E


def phi_tilde(model: TangentModel, p: TubePoint) -> tuple[float, ...]:
    """Normal-form momentum Ad*_{exp(-xi)}(mu + rho + Phi_N1(nu)), as floats.

    At xi = 0 the exponential is skipped and the returned floats are exact
    conversions of the rational covector.
    """
    lam = _shifted_momentum(model, p)
    if is_zero_vec(p.xi):
        return tuple(_to_floats(lam))
    ad = model.inst.algebra.ad_matrix(tuple(-x for x in p.xi))
    return _coadjoint_exp(_to_float_rows(ad), _to_floats(lam))


def _coadjoint_exp(ad: list[list[float]],
                   lam: list[float]) -> tuple[float, ...]:
    """Ad*_{exp(-xi)} lam, as floats, from the floats of ad(-xi) and lam."""
    # <Ad*_{exp(-xi)} lam, y> = <lam, exp(-ad_xi) y>: apply the transpose.
    return tuple(_mat_vec(list(zip(*expm(ad))), lam))


def check_dphi_consistency(model: TangentModel, p: TubePoint,
                           G: Matrix) -> str:
    """"" when J is a momentum map for the tube 2-form at the slice point p,
    exactly: dJ(p) = X(p)^T G for G = omega_tube_gram(model, p), that is
    <dJ(p) v, xi> = omega_tube(p)(xi_Y(p), v) (Ortega and Ratiu 2004,
    7.2); otherwise entry_detail's first differing entry.

    Column i of X(p) is the generator of e_i at p: (u, zeta.(rho, nu)) for
    the g_coords (zeta, u) of e_i, with zeta acting on (rho, nu) by the R
    and V block of isotropy_action (model.slice_isotropy).  Row i of
    X^T G is G^T x_i.  dJ(p) is pointmodel.momentum_differential at lam =
    mu + rho + Phi_N1(nu); at the base point it is model.dphi_G, the
    matrix the kernel checks read.
    """
    if not is_zero_vec(p.xi):
        raise OffSlice("the momentum map equation is only checked at group "
                       "coordinate zero")
    rho_nu, gm = p.rho + p.nu, model.gm_dim
    dJ = (model.dphi_G if is_zero_vec(rho_nu) else momentum_differential(
        model, _shifted_momentum(model, p), p.nu))
    moved = Matrix.from_cols([A.apply(rho_nu) for A in model.slice_isotropy],
                             rows=len(rho_nu))
    GT = G.transpose()
    XtG = Matrix(model.inst.dim, G.cols, tuple(
        GT.apply(c[gm:] + moved.apply(c[:gm]))
        for c in model.g_basis_inv.columns()))
    return entry_detail(XtG, dJ, "X^T G")


# Complex step of s -> expm(sA) at s = 1, before division by max(1, ||A||).
_ODE_STEP = 1e-4


def _complex_step(A: list[list[float]]
                  ) -> tuple[list[list[float]], list[list[float]]]:
    """expm(A) and its derivative A expm(A) along s -> expm(sA), as Re Z
    and Im Z / h for Z = expm((1 + ih) A), h = _ODE_STEP / max(1, ||A||),
    so h ||A|| <= 1e-4 (Squire and Trapp, SIAM Rev. 1998; Al-Mohy and
    Higham, Numer. Algorithms 2010).  Re Z = expm(A) cos(hA) is within
    cosh(h ||A||) - 1 <= 5.1e-9 of expm(A), and Im Z / h = expm(A) sin(hA)
    / h is about (h ||A||)^2 / 6 <= 1.7e-9 from A expm(A), relatively,
    with nothing cancelling."""
    h = _ODE_STEP / max(1.0, _mat_norm(A))
    Z = expm([[complex(x, h * x) for x in row] for row in A])
    return ([[z.real for z in row] for row in Z],
            [[z.imag / h for z in row] for row in Z])


def _ode_residual(A: list[list[float]]) -> float:
    """The _relative_error of Im Z / h against A Re Z for _complex_step:
    how far Z is from the ODE d/dt expm(tA) = A expm(tA) at t = 1, about
    (h ||A||)^2 / 3 <= 3.4e-9 on an exact exponential."""
    E, D = _complex_step(A)
    return _relative_error([x for row in D for x in row],
                           [x for row in _mat_mul(A, E) for x in row])


# The largest norm of an exponent of k^-1: no squaring multiplies errors.
_GM_NORM = 0.5


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

    to REL_TOL, and the _ode_residual of A = coad(-xi), g = exp(xi), to
    FD_TOL; the detail names the first sample that misses either.  Both
    sides of the identity apply the invertible Ad*_{g^-1}, so it is
    compared before it: Ad*_{k^-1} lam(k^-1 (rho, nu)) against lam(rho,
    nu), lam = mu + rho + Phi_N1(nu) in floats.  k^-1 acts on (rho, nu) by
    the exponential of minus model.slice_isotropy (the coadjoint action on
    m*, from the (p, b) block of ad(zeta) in the (g_m, m, n) basis, and the
    slice action on N1), and on the momentum by
    the coadjoint exponential of ad(-zeta), with zeta scaled so that
    neither exponent has a norm above _GM_NORM.  A sample takes three
    exponentials, the n x n ODE's, k^-1's and ad(-zeta)'s.  When g_m = 0 it
    takes the ODE's alone, the deviation is 0, and the ODE test is all the
    check holds: its residual depends on the structure constants and the
    drawn xi, never on mu, the slice or the model.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)

    def rand_frac() -> Fraction:
        return Fraction(rng.randint(-8, 8), rng.randint(1, 8))

    worst, off_gm, off_ode = 0.0, "", ""
    L, gm, dm = model.inst.algebra, model.gm_dim, model.dim_m
    try:
        # Per g_m basis vector eta: ad(-eta), and -(its action on rho, nu).
        gens = [[_to_float_rows(X) for X in (
            L.ad_matrix(tuple(-x for x in eta)), act.scale(-1))]
            for eta, act in zip(model.inst.gm.basis_vectors(),
                                model.slice_isotropy)]
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
            xi = tuple(rand_frac() for _ in range(L.dim))
            rho = tuple(rand_frac() for _ in range(dm))
            nu = tuple(rand_frac() for _ in range(model.slice_dim))
            # coad(-xi) = ad(-xi)^T, as floats entry by entry.
            miss = _ode_residual([list(col) for col in zip(
                *_to_float_rows(L.ad_matrix(tuple(-x for x in xi))))])
            if not off_ode and not miss <= FD_TOL:
                off_ode = (f"; sample {t}: d/dt expm(tA) at t = 1 misses "
                           f"A expm(A) by {miss:.3e}")
            if not gm:
                continue
            c = _to_floats([rand_frac() for _ in range(gm)])
            ad_k, act_k = ([[_dot(c, xs) for xs in zip(*rows)]
                            for rows in zip(*mats)] for mats in zip(*gens))
            scale = _GM_NORM / max(_GM_NORM, _mat_norm(ad_k), _mat_norm(act_k))
            rho_nu = _to_floats(rho + nu)
            moved = _mat_vec(expm(_mat_scale(scale, act_k)), rho_nu)
            dev = _relative_error(
                _coadjoint_exp(_mat_scale(scale, ad_k), lam(moved)),
                lam(rho_nu))
            worst = _worst((worst, dev))
            if not off_gm and not dev <= REL_TOL:
                off_gm = (f"; sample {t}: J([g k, k^-1 (rho, nu)]) misses "
                          f"J([g, rho, nu]) by {dev:.3e}")
    except (OutOfFloatRange, SeriesNotConverged) as e:
        return [Check("tube.equivariance", False, str(e))]
    return [Check(
        "tube.equivariance", worst <= REL_TOL and not off_gm and not off_ode,
        f"max relative deviation {worst:.3e} over {samples} samples"
        f"{off_gm}{off_ode}")]
