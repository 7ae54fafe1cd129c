"""Built-in example instances.

Each builder returns the JSON-ready dict of an instance file, so the
catalog is exercised through exactly the same loader as user files.
"""

from __future__ import annotations

from fractions import Fraction

from .instancefile import FORMAT
from .liecore import LieAlgebra, abelian, direct_sum, so3

J2 = [["0", "1"], ["-1", "0"]]
ROT2 = [["0", "-1"], ["1", "0"]]


def _constants(L: LieAlgebra) -> list:
    return [[[str(x) for x in cij] for cij in ci] for ci in L.c]


def _base(L: LieAlgebra, h_basis, gm_basis, mu, slice_=None) -> dict:
    return {
        "format": FORMAT,
        "dim": L.dim,
        "structure_constants": _constants(L),
        "h_basis": h_basis,
        "gm_basis": gm_basis,
        "mu": mu,
        "inner_product": "identity",
        "slice": slice_,
    }


def so3_generic() -> dict:
    """Rotations with a one-parameter subgroup whose axis misses mu."""
    return _base(
        so3(),
        h_basis=[["1", "0", "0"]],
        gm_basis=[],
        mu=["0", "0", "1"],
        slice_={"dim": 2, "omega": J2, "action": []},
    )


def so3_collinear() -> dict:
    """Subgroup axis collinear with mu."""
    return _base(
        so3(),
        h_basis=[["0", "0", "1"]],
        gm_basis=[],
        mu=["0", "0", "1"],
        slice_={"dim": 2, "omega": J2, "action": []},
    )


def so3_zero() -> dict:
    """Zero momentum."""
    return _base(
        so3(),
        h_basis=[["0", "0", "1"]],
        gm_basis=[],
        mu=["0", "0", "0"],
        slice_={"dim": 2, "omega": J2, "action": []},
    )


def torus(dim: int, subdim: int) -> dict:
    """Free abelian example: dim-torus with a subdim-subtorus."""
    if not (1 <= subdim < dim):
        raise ValueError("torus needs 1 <= subdim < dim")
    h_basis = [[str(1 if j == i else 0) for j in range(dim)]
               for i in range(subdim)]
    mu = [str(Fraction(1, i + 1)) for i in range(dim)]
    return _base(
        abelian(dim),
        h_basis=h_basis,
        gm_basis=[],
        mu=mu,
        slice_={"dim": 2, "omega": J2, "action": []},
    )


def so3xso3_diagonal() -> dict:
    """Two copies of the rotation algebra with the diagonal subalgebra and a
    one-dimensional diagonal stabilizer acting on a 2-dimensional slice."""
    L = direct_sum(so3(), so3())
    diag = [["1", "0", "0", "1", "0", "0"],
            ["0", "1", "0", "0", "1", "0"],
            ["0", "0", "1", "0", "0", "1"]]
    return _base(
        L,
        h_basis=diag,
        gm_basis=[["0", "0", "1", "0", "0", "1"]],
        mu=["0", "0", "1", "0", "0", "1"],
        slice_={"dim": 2, "omega": J2, "action": [ROT2]},
    )


_BUILDERS = {
    "so3-generic": so3_generic,
    "so3-collinear": so3_collinear,
    "so3-zero": so3_zero,
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
    out = []
    for name in EXAMPLE_NAMES:
        out.append((name, build_example(name)))
    return out
