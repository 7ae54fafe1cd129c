"""Named instances used across the test modules."""

from dataclasses import replace
from fractions import Fraction

from wittartin.exactlin import InnerProduct, Matrix, Subspace
from wittartin.liecore import abelian, direct_sum, so3
from wittartin.splitting import ProblemInstance, SliceRep

F = Fraction

J2 = Matrix.from_rows([[0, 1], [-1, 0]])


def vec(*xs):
    return tuple(F(x) for x in xs)


def standard_slice(dim: int, gm_dim: int = 0) -> SliceRep:
    rows = [[F(0)] * dim for _ in range(dim)]
    for i in range(0, dim - 1, 2):
        rows[i][i + 1] = F(1)
        rows[i + 1][i] = F(-1)
    return SliceRep(Matrix.from_rows(rows) if dim else Matrix.zeros(0, 0),
                    tuple(Matrix.zeros(dim, dim) for _ in range(gm_dim)))


def so3_case(case: str, slice_dim: int = 0) -> ProblemInstance:
    """The three rotation-group cases: generic, collinear, zero momentum."""
    L = so3()
    if case == "generic":
        h = Subspace.span(3, [vec(1, 0, 0)])
        mu = vec(0, 0, 1)
    elif case == "collinear":
        h = Subspace.span(3, [vec(0, 0, 1)])
        mu = vec(0, 0, 1)
    elif case == "zero":
        h = Subspace.span(3, [vec(0, 0, 1)])
        mu = vec(0, 0, 0)
    else:
        raise ValueError(case)
    return ProblemInstance(
        L, h, Subspace.zero(3), mu,
        InnerProduct(Matrix.identity(3)), standard_slice(slice_dim))


def torus_instance(n: int, k: int, mu=None, slice_dim: int = 2) -> ProblemInstance:
    L = abelian(n)
    h = Subspace.span(n, [tuple(F(1 if j == i else 0) for j in range(n))
                          for i in range(k)])
    if mu is None:
        mu = tuple(F(1, i + 1) for i in range(n))
    return ProblemInstance(
        L, h, Subspace.zero(n), mu,
        InnerProduct(Matrix.identity(n)), standard_slice(slice_dim))


def so3xso3_diag(mu=None, with_gm: bool = True,
                 slice_dim: int = 2) -> ProblemInstance:
    """Two rotation factors, diagonal subalgebra; optionally the diagonal
    e3 stabilizer acting by rotations on the slice."""
    L = direct_sum(so3(), so3())
    h = Subspace.span(6, [vec(1, 0, 0, 1, 0, 0), vec(0, 1, 0, 0, 1, 0),
                          vec(0, 0, 1, 0, 0, 1)])
    if mu is None:
        mu = vec(0, 0, 1, 0, 0, 1) if with_gm else vec(0, 0, 1, 0, 0, 2)
    if with_gm:
        gm = Subspace.span(6, [vec(0, 0, 1, 0, 0, 1)])
        rot = Matrix.from_rows([[0, -1], [1, 0]])
        slice_rep = SliceRep(J2, (rot,)) if slice_dim == 2 \
            else standard_slice(slice_dim, 1)
    else:
        gm = Subspace.zero(6)
        slice_rep = standard_slice(slice_dim)
    return ProblemInstance(L, h, gm, mu,
                           InnerProduct(Matrix.identity(6)), slice_rep)


def full_stabilizer_instance() -> ProblemInstance:
    """Fixed point of the rotation group: g_m = g, mu = 0, quaternion slice."""
    from corpus import QUAT_ACTIONS, QUAT_OMEGA
    L = so3()
    return ProblemInstance(
        L, Subspace.full(3), Subspace.full(3), vec(0, 0, 0),
        InnerProduct(Matrix.identity(3)),
        SliceRep(QUAT_OMEGA, QUAT_ACTIONS))


def diagonal_quaternion_instance() -> ProblemInstance:
    """so(3)+so(3) at mu = 0 with h = gm = the diagonal so(3), acting on a
    quaternion slice: gm is not abelian and acts on m = b, the
    antidiagonal, by rotations, so the G_m identity of the normal form sees
    each of the k^-1 actions on m* and N1 and the coadjoint one on g."""
    from corpus import QUAT_ACTIONS, QUAT_OMEGA
    L = direct_sum(so3(), so3())
    diag = Subspace.span(6, [vec(1, 0, 0, 1, 0, 0), vec(0, 1, 0, 0, 1, 0),
                             vec(0, 0, 1, 0, 0, 1)])
    return ProblemInstance(L, diag, diag, vec(0, 0, 0, 0, 0, 0),
                           InnerProduct(Matrix.identity(6)),
                           SliceRep(QUAT_OMEGA, QUAT_ACTIONS))


def middle_term_instance() -> ProblemInstance:
    """so(3)+so(3) with h = gm = span((e3,0)) and mu = (0, e3*): here b is
    3-dimensional and does not commute with h_m, so the -ad*_b f(w) term of
    the slice momentum is genuinely nonzero."""
    L = direct_sum(so3(), so3())
    line = Subspace.span(6, [vec(0, 0, 1, 0, 0, 0)])
    rot = Matrix.from_rows([[0, -1], [1, 0]])
    return ProblemInstance(
        L, line, line, vec(0, 0, 0, 0, 0, 1),
        InnerProduct(Matrix.identity(6)),
        SliceRep(J2, (rot,)))


def zero_slice_block(build):
    """build_model, then the slice block of the point form set to zero: the
    form stays antisymmetric, with a radical of dimension dim N1."""
    def wrapped(chain):
        model = build(chain)
        v = model.blocks["N1"]
        rows = [[0 if i in v and j in v else x for j, x in enumerate(row)]
                for i, row in enumerate(model.omega.entries)]
        return replace(model, omega=Matrix.from_rows(rows,
                                                     cols=model.total_dim))
    return wrapped
