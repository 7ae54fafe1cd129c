"""Randomized instance corpus shared by the property and acceptance tests.

Candidates are generated from the abelian, so(3) and so(3)+so(3) families
with varied subalgebras, stabilizers, momenta, inner products and slice
representations, then filtered through validate(); only valid instances are
kept.  Everything is seeded, so the corpus is identical on every run.
"""

from __future__ import annotations

import random
from fractions import Fraction

from wittartin.exactlin import InnerProduct, Matrix, Subspace
from wittartin.liecore import abelian, direct_sum, killing_form, so3
from wittartin.splitting import ProblemInstance, SliceRep, validate

J2 = Matrix.from_rows([[0, 1], [-1, 0]])

# Left multiplication by i/2, j/2, k/2 on the quaternions, with the form
# given by right multiplication by i: a rational 4-dim slice representation
# of so(3) used for the full-stabilizer instances.
QUAT_OMEGA = Matrix.from_rows([
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
    [0, 0, 0, -1],
    [0, 0, 1, 0],
])
QUAT_ACTIONS = (
    Matrix.from_rows([[0, -1, 0, 0], [1, 0, 0, 0],
                      [0, 0, 0, -1], [0, 0, 1, 0]]).scale(Fraction(1, 2)),
    Matrix.from_rows([[0, 0, -1, 0], [0, 0, 0, 1],
                      [1, 0, 0, 0], [0, -1, 0, 0]]).scale(Fraction(1, 2)),
    Matrix.from_rows([[0, 0, 0, -1], [0, 0, -1, 0],
                      [0, 1, 0, 0], [1, 0, 0, 0]]).scale(Fraction(1, 2)),
)


def rand_frac(rng: random.Random, num: int = 4, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_vector(rng: random.Random, n: int) -> tuple:
    return tuple(rand_frac(rng) for _ in range(n))


def random_symplectic_slice(rng: random.Random, dim: int,
                            gm_dim: int) -> SliceRep:
    """A nondegenerate antisymmetric form plus gm_dim sp-elements.

    For gm_dim <= 1 the homomorphism condition is vacuous, so the actions
    can be arbitrary elements Omega^-1 S with S symmetric.
    """
    if dim == 0:
        return SliceRep(Matrix.zeros(0, 0),
                        tuple(Matrix.zeros(0, 0) for _ in range(gm_dim)))
    while True:
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                x = rand_frac(rng)
                rows[i][j] = x
                rows[j][i] = -x
        omega = Matrix.from_rows(rows)
        if omega.rank() == dim:
            break
    actions = []
    om_inv = omega.inverse()
    for _ in range(gm_dim):
        s_rows = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                x = rand_frac(rng)
                s_rows[i][j] = x
                s_rows[j][i] = x
        actions.append(om_inv @ Matrix.from_rows(s_rows))
    return SliceRep(omega, tuple(actions))


def zero_slice(gm_dim: int) -> SliceRep:
    return SliceRep(Matrix.zeros(0, 0),
                    tuple(Matrix.zeros(0, 0) for _ in range(gm_dim)))


def trivial_slice(dim: int, gm_dim: int) -> SliceRep:
    """Standard form with the zero action (a valid homomorphism)."""
    blocks = Matrix.zeros(dim, dim)
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(0, dim - 1, 2):
        rows[i][i + 1] = Fraction(1)
        rows[i + 1][i] = Fraction(-1)
    return SliceRep(Matrix.from_rows(rows),
                    tuple(Matrix.zeros(dim, dim) for _ in range(gm_dim)))


def _abelian_candidates(rng: random.Random) -> list[ProblemInstance]:
    out = []
    for n in range(2, 7):
        for k in range(1, n):
            L = abelian(n)
            h = Subspace.span(n, [tuple(Fraction(1 if j == i else 0)
                                        for j in range(n))
                                  for i in range(k)])
            mu = random_vector(rng, n)
            slice_rep = random_symplectic_slice(rng, rng.choice((0, 2, 4)), 0)
            ip = Matrix.identity(n)
            if rng.random() < 0.3:
                ip = Matrix.from_rows(
                    [[Fraction(rng.randint(1, 4)) if i == j else Fraction(0)
                      for j in range(n)] for i in range(n)])
            out.append(ProblemInstance(
                L, h, Subspace.zero(n), mu, InnerProduct(ip), slice_rep))
    return out


def _so3_candidates(rng: random.Random) -> list[ProblemInstance]:
    L = so3()
    n = 3
    e1 = (Fraction(1), Fraction(0), Fraction(0))
    e3 = (Fraction(0), Fraction(0), Fraction(1))
    line = (Fraction(1), Fraction(2), Fraction(-2))
    h_choices = [Subspace.zero(n), Subspace.span(n, [e1]),
                 Subspace.span(n, [e3]), Subspace.span(n, [line]),
                 Subspace.full(n)]
    mu_choices = [
        (Fraction(0),) * 3,
        e3,
        (Fraction(1, 2), Fraction(-1, 3), Fraction(1)),
        line,
    ]
    out = []
    for h in h_choices:
        for mu in mu_choices:
            gm_choices = [Subspace.zero(n)]
            if any(x != 0 for x in mu):
                gm_choices.append(Subspace.span(n, [mu]))
            else:
                gm_choices.append(Subspace.full(n))
            for gm in gm_choices:
                ips = [Matrix.identity(n), -killing_form(L)]
                if gm.dim == 0:
                    ips.append(Matrix.from_rows(
                        [[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
                for ip in ips:
                    if gm == Subspace.full(n) and rng.random() < 0.5:
                        slice_rep = SliceRep(QUAT_OMEGA, QUAT_ACTIONS)
                    elif gm.dim <= 1:
                        slice_rep = random_symplectic_slice(
                            rng, rng.choice((0, 2, 4)), gm.dim)
                    else:
                        slice_rep = trivial_slice(2, gm.dim)
                    out.append(ProblemInstance(
                        L, h, gm, mu, InnerProduct(ip), slice_rep))
    return out


def _so3xso3_candidates(rng: random.Random) -> list[ProblemInstance]:
    L = direct_sum(so3(), so3())
    n = 6

    def v(*coords):
        return tuple(Fraction(x) for x in coords)

    diag = Subspace.span(n, [v(1, 0, 0, 1, 0, 0), v(0, 1, 0, 0, 1, 0),
                             v(0, 0, 1, 0, 0, 1)])
    # Conjugated diagonal: second factor rotated a quarter turn about e1.
    twisted = Subspace.span(n, [v(1, 0, 0, 1, 0, 0), v(0, 1, 0, 0, 0, 1),
                                v(0, 0, 1, 0, -1, 0)])
    factor1 = Subspace.span(n, [v(1, 0, 0, 0, 0, 0), v(0, 1, 0, 0, 0, 0),
                                v(0, 0, 1, 0, 0, 0)])
    line_e3 = Subspace.span(n, [v(0, 0, 1, 0, 0, 0)])
    prod_lines = Subspace.span(n, [v(0, 0, 1, 0, 0, 0), v(0, 0, 0, 1, 0, 0)])
    so3_plus_line = Subspace.span(n, [v(1, 0, 0, 0, 0, 0),
                                      v(0, 1, 0, 0, 0, 0),
                                      v(0, 0, 1, 0, 0, 0),
                                      v(0, 0, 0, 0, 0, 1)])
    h_choices = [Subspace.zero(n), diag, twisted, factor1, line_e3,
                 prod_lines, so3_plus_line, Subspace.full(n)]
    mu_choices = [
        v(0, 0, 0, 0, 0, 0),
        v(0, 0, 1, 0, 0, 1),
        v(0, 0, 1, 0, 0, 2),
        v(0, 0, 1, 1, 0, 0),
        v(0, 0, 0, 0, 0, 1),
        random_vector(rng, n),
    ]
    gm_diag_e3 = Subspace.span(n, [v(0, 0, 1, 0, 0, 1)])
    gm_left_e3 = Subspace.span(n, [v(0, 0, 1, 0, 0, 0)])
    out = [_sheared_r_instance()]
    for h in h_choices:
        for mu in mu_choices:
            for gm in (Subspace.zero(n), gm_diag_e3, gm_left_e3):
                ips = [Matrix.identity(n)]
                if gm.dim == 0 and rng.random() < 0.5:
                    ips = [Matrix.from_rows(
                        [[1 if i == j else 0 for j in range(n)]
                         for i in range(n)][:5]
                        + [[0, 0, 0, 0, 0, 2]])]
                for ip in ips:
                    slice_rep = random_symplectic_slice(
                        rng, rng.choice((0, 2)), gm.dim)
                    out.append(ProblemInstance(
                        L, h, gm, mu, InnerProduct(ip), slice_rep))
    return out


def _sheared_r_instance() -> ProblemInstance:
    """Opposite diagonal momenta with a skewed inner product.

    Here a and r are 2-dimensional and the plain orthogonal complement of
    g_mu + a inside the Chu-orthogonal of ntilde + s is NOT Chu-isotropic,
    so the isotropic shear of r does real work.
    """
    L = direct_sum(so3(), so3())

    def v(*c):
        return tuple(Fraction(x) for x in c)

    diag = Subspace.span(6, [v(1, 0, 0, 1, 0, 0), v(0, 1, 0, 0, 1, 0),
                             v(0, 0, 1, 0, 0, 1)])
    ip = Matrix.from_rows([
        [4, -1, -1, 1, -2, 0],
        [-1, 6, 1, 0, 1, 0],
        [-1, 1, 7, -5, 0, 3],
        [1, 0, -5, 6, 0, -2],
        [-2, 1, 0, 0, 5, -3],
        [0, 0, 3, -2, -3, 6],
    ])
    return ProblemInstance(
        L, diag, Subspace.zero(6), v(0, 0, 1, 0, 0, -1),
        InnerProduct(ip), zero_slice(0))


def build_corpus(seed: int = 20240901) -> list[ProblemInstance]:
    """All valid instances from the seeded candidate families."""
    rng = random.Random(seed)
    candidates = (_abelian_candidates(rng) + _so3_candidates(rng)
                  + _so3xso3_candidates(rng))
    return [inst for inst in candidates if validate(inst).passed]
