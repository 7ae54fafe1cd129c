"""Instance validation and the invariant subspace chain.

Given algebra data (g, h, g_m, mu, inner product, slice representation) this
module builds the named chain of ad(g_m)-invariant subspaces

    h_m, p, b, a, s(G,H,mu), q, ntilde, r, m, n

whose direct-sum identities drive both tangent-space decompositions.  Every
complement is an orthogonal complement for the instance's invariant inner
product, except r, which is additionally sheared inside the Chu-orthogonal
of ntilde + s so that the H-side orthogonality relations hold for any valid
inner product (a plain orthogonal complement does not guarantee them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .exactlin import (
    InnerProduct,
    Matrix,
    Subspace,
    Vec,
    direct_sum,
    dot,
    first_escape,
    first_outside,
    gram_on,
    intersect,
    orth_complement,
    pairing_witness,
    perp_under_form,
    preserves,
    sum_spaces,
)
from .liecore import (
    LieAlgebra,
    chu_form,
    h_perp_mu,
    stabilizer_of_momentum,
    subalgebra_witness,
)


class ValidationFailed(ValueError):
    """Raised by build_chain when the instance fails validation."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        names = ", ".join(c.name for c in report.failures())
        super().__init__(f"instance validation failed: {names}")


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""

    @staticmethod
    def of(name: str, failure: str) -> "Check":
        """The check that passes exactly when its failure detail is ""."""
        return Check(name, not failure, failure)


def outside_detail(A: Subspace, a_name: str, B: Subspace, b_name: str) -> str:
    """"" when A <= B; otherwise names the first basis vector of A not in B."""
    i = first_outside(A, B)
    return "" if i is None else f"basis vector {i} of {a_name} is not in {b_name}"


def equality_detail(A: Subspace, a_name: str, B: Subspace, b_name: str) -> str:
    """"" when A == B; otherwise names the first basis vector of one side
    that is not in the other."""
    return "" if A == B else (outside_detail(A, a_name, B, b_name)
                              or outside_detail(B, b_name, A, a_name))


def direct_sum_detail(W: Subspace, w_name: str,
                      parts: dict[str, Subspace]) -> str:
    """"" when W is the direct sum of the named parts; otherwise says that
    their sum is not direct, or gives the equality_detail of W and it."""
    total, names = direct_sum(*parts.values()), " + ".join(parts)
    return (f"{names} is not direct" if total is None
            else equality_detail(W, w_name, total, names))


def entry_detail(got: Matrix, expected: Matrix, what: str) -> str:
    """"" when got == expected; otherwise names the shape mismatch or the
    first differing entry, in row-major order, with both values."""
    if (got.rows, got.cols) != (expected.rows, expected.cols):
        return (f"{what} is {got.rows}x{got.cols}, expected "
                f"{expected.rows}x{expected.cols}")
    if got.entries == expected.entries:
        return ""
    return next((f"entry ({i}, {j}) of {what} is {x}, expected {y}"
                 for i, (row, want) in enumerate(zip(got.entries,
                                                     expected.entries))
                 for j, (x, y) in enumerate(zip(row, want)) if x != y), "")


def dim_detail(a_name: str, a: int, b_name: str, b: int) -> str:
    """"" when a == b; otherwise "<a_name> is a, <b_name> is b"."""
    return "" if a == b else f"{a_name} is {a}, {b_name} is {b}"


def antisymmetry_detail(G: Matrix, what: str) -> str:
    """"" when the square matrix G is antisymmetric; otherwise names the
    first entry pair (i, j) that breaks it."""
    pair = G.antisymmetry_witness()
    return "" if pair is None else (f"entry {pair} of {what} is not minus "
                                    f"entry {pair[::-1]}")


class CheckFailed(Exception):
    """A named check failed on a strict build path."""

    def __init__(self, name: str, detail: str):
        self.name = name
        self.detail = detail
        super().__init__(f"{name}: {detail}" if detail else name)


def require(checks) -> None:
    """Raise CheckFailed for the first failed check, if any."""
    for c in checks:
        if not c.passed:
            raise CheckFailed(c.name, c.detail)


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


@dataclass(frozen=True)
class SliceRep:
    """Symplectic slice data: the Gram matrix of a form on Q^d and one
    action matrix per basis vector of the acting algebra (the linearised
    action, keyed to its canonical basis).  N1 is one for g_m, and the
    H-side slice NH1 one for h_m (decomposition.WittDecompositionH.nh1)."""

    omega: Matrix
    action: tuple[Matrix, ...]

    def __post_init__(self):
        if self.omega.rows != self.omega.cols:
            raise ValueError("slice form Gram matrix must be square")

    @property
    def dim(self) -> int:
        return self.omega.rows

    @staticmethod
    def trivial() -> "SliceRep":
        return SliceRep(Matrix.zeros(0, 0), ())

    def combine(self, coords: Vec) -> Matrix:
        """sum_t coords[t] action[t]: the action of the element with these
        coordinates in the basis the actions are keyed to."""
        return sum((A.scale(c) for A, c in zip(self.action, coords) if c),
                   Matrix.zeros(self.dim, self.dim))

    def momentum_form(self, A: Matrix) -> Matrix:
        """1/2 A^T omega, the Gram of the MGS quadratic momentum
        v -> 1/2 omega(Av, v) of the element acting by A."""
        return (A.transpose() @ self.omega).scale(Fraction(1, 2))

    @cached_property
    def momentum_forms(self) -> tuple[Matrix, ...]:
        return tuple(map(self.momentum_form, self.action))

    def momentum(self, v: Vec) -> Vec:
        """The momentum at v, in the dual of the action basis."""
        return tuple(dot(v, S.apply(v)) for S in self.momentum_forms)


@dataclass(frozen=True)
class ProblemInstance:
    """Algebra-level data of a point with momentum mu and stabilizer g_m.

    The data derived from mu (validation report, Chu form, g_mu, h_perp_mu
    and h_alpha) is computed on first use and then held by the instance,
    which is immutable.
    """

    algebra: LieAlgebra
    h: Subspace
    gm: Subspace
    mu: Vec
    ip: InnerProduct
    slice_rep: SliceRep
    gm_component_reps: tuple[Matrix, ...] = field(default=())

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def validation(self) -> "ValidationReport":
        return validate(self)

    @cached_property
    def chu(self) -> Matrix:
        """The Gram matrix of the Chu form (x, y) -> <mu, [x, y]>."""
        return chu_form(self.algebra, self.mu)

    @cached_property
    def g_mu(self) -> Subspace:
        return stabilizer_of_momentum(self.algebra, self.mu)

    @cached_property
    def h_perp_mu(self) -> Subspace:
        # The liecore function of the same name; names in a method body
        # resolve in the module, not the class.
        return h_perp_mu(self.algebra, self.h, self.mu)

    @cached_property
    def h_alpha(self) -> Subspace:
        """The stabilizer of alpha = mu|_h in h: h intersected with
        h_perp_mu, since the pairing only sees brackets inside h there."""
        return intersect(self.h, self.h_perp_mu)


def validate(inst: ProblemInstance) -> ValidationReport:
    """Check every instance invariant; failures carry a witness."""
    L = inst.algebra
    n = L.dim
    checks: list[Check] = []

    def record(name: str, passed: bool, detail: str = ""):
        checks.append(Check(name, passed, detail))

    checks.append(Check.of("mu_length", dim_detail("len(mu)", len(inst.mu),
                                                   "dim g", n)))
    for name, space in (("h", inst.h), ("gm", inst.gm)):
        checks.append(Check.of(f"{name}_ambient", dim_detail(
            f"the ambient dimension of {name}", space.ambient_dim, "dim g", n)))
    if not all(c.passed for c in checks):
        return ValidationReport(tuple(checks))

    w = subalgebra_witness(L, inst.h)
    record("h_subalgebra", w is None,
           "" if w is None else f"bracket of h basis pair {w} leaves h")
    w = subalgebra_witness(L, inst.gm)
    record("gm_subalgebra", w is None,
           "" if w is None else f"bracket of gm basis pair {w} leaves gm")

    bad = first_outside(inst.gm, inst.g_mu)
    record("gm_in_g_mu", bad is None,
           "" if bad is None else f"gm basis vector {bad} does not stabilize mu")

    escapes = ((i, first_escape(inst.h, L.ad_matrix(eta)))
               for i, eta in enumerate(inst.gm.basis_vectors()))
    witness = next(((i, j) for i, j in escapes if j is not None), None)
    record("gm_normalizes_h", witness is None,
           "" if witness is None else f"[gm_{witness[0]}, h_{witness[1]}] leaves h")

    # InnerProduct proves the last two when built; validate restates them.
    G = inst.ip.gram
    size = dim_detail("the dimension of the inner product", G.rows, "dim g", n)
    checks.append(Check.of("ip_dimension", size))
    square = dim_detail("the rows of the inner product", G.rows,
                        "its columns", G.cols)
    pair = None if square else next(((i, j) for i in range(G.rows) for j in
        range(i + 1, G.rows) if G.entries[i][j] != G.entries[j][i]), None)
    checks.append(Check.of("ip_symmetric", square or ("" if pair is None else
        f"entry {pair} of the inner product is {G.entries[pair[0]][pair[1]]}, "
        f"entry {pair[::-1]} is {G.entries[pair[1]][pair[0]]}")))
    pivot = None if size or square else G.first_nonpositive_pivot()
    checks.append(Check.of("ip_positive_definite", size or square or (
        "" if pivot is None else f"leading minor {pivot[0] + 1} of the inner "
        f"product is not positive: pivot {pivot[0]} is {pivot[1]}")))

    # A form of another dimension is not a form on g: it fails ad
    # invariance and every isometry check, and multiplying it by the ad
    # matrices or the reps would raise.
    misfit = "" if G.rows == n else f"inner product has dimension {G.rows}, g has {n}"
    t = next((t for t, eta in enumerate(inst.gm.basis_vectors())
              if not misfit and not preserves(L.ad_matrix(eta), G)), None)
    checks.append(Check.of("ip_ad_gm_invariant", misfit or (
        "" if t is None else f"ad invariance fails for gm basis vector {t}")))

    # Every listed component of G_m acts by isometries, R^T G R = G, which
    # for a positive-definite G makes R invertible too.  As Ad of an element
    # of G_m, R is also an automorphism of g, R [e_i, e_j] = [R e_i, R e_j],
    # that fixes mu, R^T mu = mu, and maps h and g_m into (so onto) themselves.
    for t, R in enumerate(inst.gm_component_reps):
        shape = "" if (R.rows, R.cols) == (n, n) else \
            f"rep {t} is {R.rows}x{R.cols}, g has dimension {n}"
        checks.append(Check.of(f"gm_component_rep_{t}_isometry", misfit or shape
                               or entry_detail(R.transpose() @ G @ R, G,
                                               f"R^T G R for rep {t}")))
        # L.c[i][j] is [e_i, e_j], and column i of R is R e_i.
        cols = [] if shape else R.columns()
        pair = next(((i, j) for i in range(len(cols)) for j in range(i + 1, n)
                     if R.apply(L.c[i][j]) != L.bracket(cols[i], cols[j])),
                    None)
        checks.append(Check.of(f"gm_component_rep_{t}_automorphism", shape or (
            "" if pair is None else f"R [e_{pair[0]}, e_{pair[1]}] is not "
            f"[R e_{pair[0]}, R e_{pair[1]}] for rep {t}")))
        moved = () if shape else R.transpose().apply(inst.mu)
        k = next((k for k, (x, y) in enumerate(zip(moved, inst.mu)) if x != y),
                 None)
        checks.append(Check.of(f"gm_component_rep_{t}_fixes_mu", shape or (
            "" if k is None else f"coordinate {k} of R^T mu for rep {t} is "
            f"{moved[k]}, expected {inst.mu[k]}")))
        for check, name, space in (("normalizes_h", "h", inst.h),
                                   ("preserves_gm", "gm", inst.gm)):
            j = None if shape else first_escape(space, R)
            checks.append(Check.of(f"gm_component_rep_{t}_{check}", shape or (
                "" if j is None else f"R {name}_{j} leaves {name} for rep {t}")))

    sl = inst.slice_rep
    checks.append(Check.of("slice_action_count", dim_detail(
        "the number of slice action matrices", len(sl.action),
        "dim gm", inst.gm.dim)))
    checks.append(Check.of("slice_omega_antisymmetric",
                           antisymmetry_detail(sl.omega, "the slice omega")))
    radical = sl.dim - sl.omega.rank()
    checks.append(Check.of("slice_omega_nondegenerate", "" if not radical else
                           f"the slice omega has a {radical}-dimensional radical"))
    witness = next((t for t, A in enumerate(sl.action)
                    if A.rows != sl.dim or A.cols != sl.dim
                    or not preserves(A, sl.omega)), None)
    record("slice_action_symplectic", witness is None,
           "" if witness is None else f"action matrix {witness} is not in sp(omega)")

    # A pair whose bracket leaves g_m is reported by gm_subalgebra, and
    # action matrices of the wrong count or shape by the checks above.
    witness = None
    if len(sl.action) == inst.gm.dim and all(
            A.rows == A.cols == sl.dim for A in sl.action):
        gv, A = inst.gm.basis_vectors(), sl.action
        brackets = (((i, j), inst.gm.coords_of(L.bracket(gv[i], gv[j])))
                    for i in range(len(gv)) for j in range(len(gv)))
        witness = next(((i, j) for (i, j), coords in brackets
                        if coords is not None and sl.combine(coords)
                        != A[i] @ A[j] - A[j] @ A[i]), None)
    record("slice_action_homomorphism", witness is None,
           "" if witness is None else f"homomorphism fails on gm pair {witness}")

    return ValidationReport(tuple(checks))


@dataclass(frozen=True)
class SplittingChain:
    """All named subspaces of the chain, in ambient g coordinates, and the
    instance they are built from, which holds g_mu, h_alpha and h_perp_mu."""

    inst: ProblemInstance
    h_mu: Subspace
    h_m: Subspace
    hm_perp_in_gm: Subspace
    p: Subspace
    b: Subspace
    a: Subspace
    s: Subspace
    q: Subspace
    ntilde: Subspace
    r: Subspace
    m_space: Subspace
    n_space: Subspace

    def dims(self) -> dict[str, int]:
        inst = self.inst
        return {
            "g": inst.dim,
            "g_mu": inst.g_mu.dim,
            "h_mu": self.h_mu.dim,
            "h_m": self.h_m.dim,
            "h_alpha": inst.h_alpha.dim,
            "h_perp_mu": inst.h_perp_mu.dim,
            "p": self.p.dim,
            "b": self.b.dim,
            "a": self.a.dim,
            "s": self.s.dim,
            "q": self.q.dim,
            "ntilde": self.ntilde.dim,
            "r": self.r.dim,
            "m": self.m_space.dim,
            "n": self.n_space.dim,
            "N1": inst.slice_rep.dim,
        }


def _lagrangian_shear(chu: Matrix, a: Subspace, C: Subspace) -> Subspace:
    """Shear the complement C into the Chu-isotropic graph {c + tau(c)}.

    tau: C -> a is the unique map with chu(tau(c), c') = -1/2 chu(c, c');
    the corrected complement pairs to zero with itself, which is what the
    H-side Lagrangian axioms need from r.  P = chu(a, C) and K = chu(C, C)
    are the upper-right and lower-right blocks of the Chu Gram on [a | C].
    """
    if C.dim == 0:
        return C
    G, da = gram_on(chu, a, C), a.dim
    P = G.submatrix(range(da), range(da, G.cols))
    K = G.submatrix(range(da, G.cols), range(da, G.cols))
    T = P.transpose().inverse() @ K.scale(Fraction(1, 2))
    return Subspace.span(a.ambient_dim, (C.basis + a.basis @ T).columns())


def build_chain(inst: ProblemInstance) -> SplittingChain:
    """Construct the full chain.

    Raises ValidationFailed on an invalid instance.  The defining identities
    of the result are the named checks of chain_checks.
    """
    if not inst.validation.passed:
        raise ValidationFailed(inst.validation)

    g_mu, hperp, halpha = inst.g_mu, inst.h_perp_mu, inst.h_alpha
    h_mu = intersect(inst.h, g_mu)
    h_m = intersect(inst.h, inst.gm)

    hm_perp = orth_complement(h_m, inst.gm, inst.ip)
    p = orth_complement(h_m, h_mu, inst.ip)
    b = orth_complement(sum_spaces(inst.gm, h_mu), g_mu, inst.ip)
    a = orth_complement(h_mu, halpha, inst.ip)
    s = orth_complement(sum_spaces(g_mu, halpha), hperp, inst.ip)
    q = sum_spaces(a, s)
    ntilde = orth_complement(halpha, inst.h, inst.ip)

    chu = inst.chu
    V = perp_under_form(chu, sum_spaces(ntilde, s))
    # Raises NotContained unless g_mu + a is Chu-orthogonal to ntilde + s.
    C = orth_complement(sum_spaces(g_mu, a), V, inst.ip)
    r = _lagrangian_shear(chu, a, C)

    m_space = sum_spaces(p, b)
    n_space = sum_spaces(q, ntilde, r)

    return SplittingChain(
        inst=inst, h_mu=h_mu, h_m=h_m, hm_perp_in_gm=hm_perp,
        p=p, b=b, a=a, s=s, q=q, ntilde=ntilde, r=r,
        m_space=m_space, n_space=n_space,
    )


def chain_checks(chain: SplittingChain) -> list[Check]:
    """The defining identities of the chain, as named pass/fail checks."""
    inst = chain.inst
    L = inst.algebra
    g = Subspace.full(L.dim)
    chu = inst.chu
    g_mu, halpha, hperp = inst.g_mu, inst.h_alpha, inst.h_perp_mu
    named = {
        "h_m": chain.h_m, "hm_perp_in_gm": chain.hm_perp_in_gm,
        "p": chain.p, "b": chain.b, "a": chain.a, "s": chain.s,
        "q": chain.q, "ntilde": chain.ntilde, "r": chain.r,
        "m": chain.m_space, "n": chain.n_space,
        "g_mu": g_mu, "h_mu": chain.h_mu, "h_alpha": halpha,
        "h_perp_mu": hperp,
    }
    spaces = dict(named, g=g, gm=inst.gm, h=inst.h)
    out: list[Check] = []

    def record(name, failure):
        out.append(Check.of(name, failure))

    def direct(name, whole, *parts, more=""):
        # whole is the direct sum of the parts; more is a further detail.
        record(name, direct_sum_detail(spaces[whole], whole,
                                       {p: spaces[p] for p in parts}) or more)

    direct("chain.gm_decomposition", "gm", "h_m", "hm_perp_in_gm")
    direct("chain.hmu_decomposition", "h_mu", "h_m", "p")
    direct("chain.gmu_decomposition", "g_mu", "h_m", "p", "hm_perp_in_gm", "b")
    direct("chain.halpha_decomposition", "h_alpha", "h_mu", "a")
    direct("chain.hperpmu_decomposition", "h_perp_mu", "g_mu", "a", "s")
    direct("chain.q_decomposition", "q", "a", "s")
    direct("chain.h_decomposition", "h", "h_alpha", "ntilde")
    meet = intersect(chain.ntilde, hperp).dim
    record("chain.ntilde_avoids_hperpmu",
           "" if not meet else f"ntilde & h_perp_mu is {meet}-dimensional")
    direct("chain.g_decomposition_hperp", "g", "h_perp_mu", "ntilde", "r")
    direct("chain.g_decomposition_gm_m_n", "g", "gm", "m", "n", more=(
        equality_detail(sum_spaces(chain.p, chain.b), "p + b", chain.m_space,
                        "m")
        or equality_detail(sum_spaces(chain.q, chain.ntilde, chain.r),
                           "q + ntilde + r", chain.n_space, "n")))
    record("chain.gmu_halpha_in_hperpmu",
           outside_detail(g_mu, "g_mu", hperp, "h_perp_mu")
           or outside_detail(halpha, "h_alpha", hperp, "h_perp_mu"))
    record("chain.s_dim_formula", dim_detail(
        "dim s", chain.s.dim,
        "dim h_perp_mu - dim g_mu - dim h_alpha + dim h_mu",
        hperp.dim - g_mu.dim - halpha.dim + chain.h_mu.dim))

    # r must pair to zero under the Chu form with ntilde, s and itself;
    # this is what makes r*m land in the H-side Lagrangian complement.
    pairs = ((name, pairing_witness(chu, chain.r, other)) for name, other
             in (("ntilde", chain.ntilde), ("s", chain.s), ("r", chain.r)))
    name, w = next(((name, w) for name, w in pairs if w), (None, None))
    record("chain.r_chu_orthogonality",
           "" if w is None else f"r basis vector {w[0]} pairs with {name} "
           f"basis vector {w[1]} under the Chu form")
    record("chain.r_dim_matches_a",
           dim_detail("dim r", chain.r.dim, "dim a", chain.a.dim))

    ads = [L.ad_matrix(eta) for eta in inst.gm.basis_vectors()]
    bad = [name for name, space in named.items()
           if any(first_escape(space, A) is not None for A in ads)]
    record("chain.ad_gm_invariance",
           "" if not bad else f"not ad(gm)-invariant: {sorted(bad)}")

    for t, rep in enumerate(inst.gm_component_reps):
        bad = [name for name, space in named.items()
               if first_escape(space, rep) is not None]
        record(f"chain.gm_component_rep_{t}_invariance",
               "" if not bad else f"not invariant under rep {t}: {sorted(bad)}")

    return out


@dataclass(frozen=True)
class DimReport:
    dims: dict[str, int]
    slice_dim_H: int          # predicted dim of the H-slice
    kernel_gap: int           # predicted dim ker DPhi_H - dim ker DPhi_G


def dim_formulas(chain: SplittingChain) -> DimReport:
    """Dimension bookkeeping for the compatible slice."""
    d = chain.dims()
    slice_dim_H = d["N1"] + 2 * d["b"] + d["s"]
    kernel_gap = d["q"] + d["b"]
    return DimReport(dims=d, slice_dim_H=slice_dim_H, kernel_gap=kernel_gap)
