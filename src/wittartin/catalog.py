"""Built-in example instances.

Each builder returns the JSON-ready dict of an instance file, so the
catalog is exercised through exactly the same loader as user files.
"""

from __future__ import annotations

from fractions import Fraction

from .instancefile import FORMAT, strings
from .liecore import LieAlgebra, abelian, direct_sum, so3

J2 = ((0, 1), (-1, 0))
ROT2 = ((0, -1), (1, 0))


def _base(L: LieAlgebra, h_basis, gm_basis, mu, action=()) -> dict:
    """A fresh document, on a 2-dimensional slice with omega J2: every list
    is built anew by strings, so no two documents share one."""
    return {
        "format": FORMAT,
        "dim": L.dim,
        "structure_constants": strings(L.c),
        "h_basis": strings(h_basis),
        "gm_basis": strings(gm_basis),
        "mu": strings(mu),
        "inner_product": "identity",
        "slice": {"dim": 2, "omega": strings(J2), "action": strings(action)},
    }


# so3-generic: rotations with a one-parameter subgroup whose axis misses mu.
# so3-collinear: subgroup axis collinear with mu.
# so3-zero: zero momentum.
def _so3(h_axis: int, mu: tuple) -> dict:
    return _base(so3(), [[int(i == h_axis) for i in range(3)]], [], mu)


def torus(dim: int, subdim: int) -> dict:
    """Free abelian example: dim-torus with a subdim-subtorus."""
    if not (1 <= subdim < dim):
        raise ValueError("torus needs 1 <= subdim < dim")
    h_basis = [[int(j == i) for j in range(dim)] for i in range(subdim)]
    mu = [Fraction(1, i + 1) for i in range(dim)]
    return _base(abelian(dim), h_basis, [], mu)


def so3xso3_diagonal() -> dict:
    """Two copies of the rotation algebra with the diagonal subalgebra and a
    one-dimensional diagonal stabilizer acting on a 2-dimensional slice."""
    L = direct_sum(so3(), so3())
    diag = [[1, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 1]]
    return _base(L, diag, [diag[2]], diag[2], [ROT2])


_BUILDERS = {
    "so3-generic": lambda: _so3(0, (0, 0, 1)),
    "so3-collinear": lambda: _so3(2, (0, 0, 1)),
    "so3-zero": lambda: _so3(2, (0, 0, 0)),
    "torus": torus,
    "so3xso3-diagonal": so3xso3_diagonal,
}

EXAMPLE_NAMES = tuple(sorted(_BUILDERS))

# Parameters used when `verify --all-examples` instantiates the catalog.
DEFAULT_TORUS = (3, 1)


def build_example(name: str, dim: int | None = None,
                  subdim: int | None = None) -> dict:
    if name not in _BUILDERS:
        raise KeyError(name)
    if name == "torus":
        n, k = DEFAULT_TORUS
        return torus(n if dim is None else dim, k if subdim is None else subdim)
    if dim is not None or subdim is not None:
        raise ValueError(f"example {name!r} has a fixed size; "
                         "--dim and --subdim apply only to torus")
    return _BUILDERS[name]()


def all_examples() -> list[tuple[str, dict]]:
    return [(name, build_example(name)) for name in EXAMPLE_NAMES]
