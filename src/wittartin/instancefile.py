"""Versioned JSON instance files.

Numbers are exact rational strings ("p/q" or "p": an optional sign, ASCII
digits and an optional "/" with more digits) or JSON integers; no floating
point ever appears in an instance file.  Each distinct string is parsed once
per document.  Structural problems (bad JSON, missing keys,
wrong shapes) raise InstanceFormatError and map to exit code 2; semantic
problems (non-Jacobi constants, dependent bases, indefinite inner products)
raise InstanceDataError and map to a failed named check and exit code 1.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .exactlin import ZERO, InnerProduct, Matrix, NotPositiveDefinite, Subspace, Vec
from .liecore import LieAlgebra, StructureConstantError, killing_form
from .splitting import ProblemInstance, SliceRep

FORMAT = "wittartin-instance/1"


class InstanceFormatError(ValueError):
    """Malformed file: not an instance of the documented schema."""


class InstanceDataError(ValueError):
    """Well-formed file whose mathematical content is invalid."""

    def __init__(self, check_name: str, detail: str):
        self.check_name = check_name
        self.detail = detail
        super().__init__(f"{check_name}: {detail}")


# The documented grammar: an optional sign, decimal digits and an optional
# "/digits".  Fraction alone would also take decimals, exponents, underscores
# and surrounding spaces, and "1e999999999" would make it build 10**999999999.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _at(path: tuple) -> str:
    """The location ("name[i][j]") of the entry or vector at ``path``."""
    return str(path[0]) + "".join(f"[{i}]" for i in path[1:])


def _parse_fraction(x: Any, path: tuple, memo: dict[str, Fraction]) -> Fraction:
    """One entry, read through ``memo``; ``path`` is formatted only on errors."""
    if isinstance(x, str):
        value = memo.get(x)
        if value is None:
            try:
                if not _RATIONAL.fullmatch(x):
                    # Fraction's own wording: strings it rejects as well
                    # keep the message they always had.
                    raise ValueError(f"Invalid literal for Fraction: {x!r}")
                # Every zero is the shared ZERO, so all-zero rows compare
                # equal to a row of ZERO by identity alone.
                value = memo[x] = Fraction(x) or ZERO
            except (ValueError, ZeroDivisionError) as e:
                raise InstanceFormatError(f"{_at(path)}: bad rational {x!r} ({e})")
        return value
    if isinstance(x, bool):
        raise InstanceFormatError(f"{_at(path)}: booleans are not numbers")
    if isinstance(x, int):
        return Fraction(x)
    raise InstanceFormatError(
        f"{_at(path)}: expected a rational string or integer, got {type(x).__name__}")


def _parse_vector(v: Any, length: int, memo: dict[str, Fraction], *path) -> Vec:
    if not isinstance(v, list) or len(v) != length:
        raise InstanceFormatError(f"{_at(path)}: expected a list of length {length}")
    try:
        # Only strings are memo keys, and no bool, float or None equals one.
        return tuple([memo[x] for x in v])
    except (KeyError, TypeError):
        return tuple([_parse_fraction(x, (*path, k), memo)
                      for k, x in enumerate(v)])


def _parse_matrix(m: Any, rows: int, cols: int, memo: dict[str, Fraction],
                  *path) -> Matrix:
    if not isinstance(m, list) or len(m) != rows:
        raise InstanceFormatError(f"{_at(path)}: expected {rows} rows")
    return Matrix(rows, cols, tuple(_parse_vector(r, cols, memo, *path, i)
                                    for i, r in enumerate(m)))


def strings(data):
    """A rational (Fraction or int) as its str, and a nested sequence of
    them as nested lists of str: how files and reports write rationals."""
    if isinstance(data, (Fraction, int)):
        return str(data)
    return [strings(x) for x in data]


def loads(text: str) -> ProblemInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    except RecursionError:
        raise InstanceFormatError("JSON nested too deeply") from None
    return from_dict(doc)


def load(path: str) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise InstanceFormatError(f"not UTF-8 text: {e}")
    return loads(text)


def from_dict(doc: Any) -> ProblemInstance:
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level must be a JSON object")
    if doc.get("format") != FORMAT:
        raise InstanceFormatError(
            f"field 'format' must be {FORMAT!r}, got {doc.get('format')!r}")
    n = doc.get("dim")
    # type(), not isinstance(): a JSON boolean loads as a bool, an int.
    if type(n) is not int or n < 0:
        raise InstanceFormatError("field 'dim' must be a nonnegative integer")

    sc = doc.get("structure_constants")
    if not isinstance(sc, list) or len(sc) != n:
        raise InstanceFormatError("'structure_constants' must be an n-list")
    # One parse per distinct rational string of this document.
    memo: dict[str, Fraction] = {}
    table = []
    for i, ci in enumerate(sc):
        if not isinstance(ci, list) or len(ci) != n:
            raise InstanceFormatError(f"'structure_constants'[{i}] must be an n-list")
        table.append(tuple(
            _parse_vector(cij, n, memo, "structure_constants", i, j)
            for j, cij in enumerate(ci)))
    try:
        algebra = LieAlgebra(n, tuple(table))
    except StructureConstantError as e:
        raise InstanceDataError("structure_constants", str(e))

    def basis_subspace(key: str) -> tuple[Subspace, list[Vec]]:
        raw = doc.get(key)
        if not isinstance(raw, list):
            raise InstanceFormatError(f"'{key}' must be a list of vectors")
        vectors = [_parse_vector(v, n, memo, key, i) for i, v in enumerate(raw)]
        space = Subspace.span(n, vectors)
        if space.dim != len(vectors):
            raise InstanceDataError(f"{key}_independent",
                                    f"{key} vectors are linearly dependent")
        return space, vectors

    h, _ = basis_subspace("h_basis")
    gm, gm_given = basis_subspace("gm_basis")
    mu = _parse_vector(doc.get("mu"), n, memo, "mu")

    ip_raw = doc.get("inner_product", "identity")
    if ip_raw == "identity":
        gram = Matrix.identity(n)
    elif ip_raw == "neg_killing":
        gram = -killing_form(algebra)
    else:
        gram = _parse_matrix(ip_raw, n, n, memo, "inner_product")
    try:
        ip = InnerProduct(gram)
    except NotPositiveDefinite as e:
        raise InstanceDataError("inner_product_positive_definite", str(e))

    reps: list[Matrix] = []
    raw_reps = doc.get("gm_component_reps")
    if raw_reps is not None:
        if not isinstance(raw_reps, list):
            raise InstanceFormatError("'gm_component_reps' must be a list")
        for t, rep in enumerate(raw_reps):
            reps.append(_parse_matrix(rep, n, n, memo, "gm_component_reps", t))

    slice_rep = _parse_slice(doc.get("slice"), gm, gm_given, memo)

    return ProblemInstance(
        algebra=algebra, h=h, gm=gm, mu=mu, ip=ip,
        slice_rep=slice_rep, gm_component_reps=tuple(reps),
    )


def _parse_slice(raw: Any, gm: Subspace, gm_given: list[Vec],
                 memo: dict[str, Fraction]) -> SliceRep:
    if raw is None:
        if gm.dim == 0:
            return SliceRep.trivial()
        return SliceRep(Matrix.zeros(0, 0),
                        tuple(Matrix.zeros(0, 0) for _ in range(gm.dim)))
    if not isinstance(raw, dict):
        raise InstanceFormatError("'slice' must be null or an object")
    d = raw.get("dim")
    if type(d) is not int or d < 0:
        raise InstanceFormatError("'slice.dim' must be a nonnegative integer")
    omega = _parse_matrix(raw.get("omega", []), d, d, memo, "slice.omega")
    actions_raw = raw.get("action", [])
    if not isinstance(actions_raw, list) or len(actions_raw) != len(gm_given):
        raise InstanceFormatError(
            "'slice.action' must list one matrix per gm_basis vector")
    given = SliceRep(omega, tuple(
        _parse_matrix(a, d, d, memo, "slice.action", t)
        for t, a in enumerate(actions_raw)))
    # Actions are supplied for the file's gm basis; re-express them for the
    # canonical basis so everything downstream keys off canonical columns.
    # Column k of the inverse holds the given-basis coordinates of the k-th
    # canonical vector.
    rebase = Matrix.from_cols([gm.coords_of(v) for v in gm_given],
                              rows=gm.dim).inverse()
    return SliceRep(omega, tuple(given.combine(c) for c in rebase.columns()))


def to_dict(doc_or_inst) -> dict:
    """Serialize either an already-built dict (kept as-is) or an instance."""
    if isinstance(doc_or_inst, dict):
        return doc_or_inst
    inst = doc_or_inst
    doc = {
        "format": FORMAT,
        "dim": inst.dim,
        "structure_constants": strings(inst.algebra.c),
        "h_basis": strings(inst.h.basis_vectors()),
        "gm_basis": strings(inst.gm.basis_vectors()),
        "mu": strings(inst.mu),
        "inner_product": strings(inst.ip.gram.entries),
        "slice": {
            "dim": inst.slice_rep.dim,
            "omega": strings(inst.slice_rep.omega.entries),
            "action": strings(A.entries for A in inst.slice_rep.action),
        },
    }
    if inst.gm_component_reps:
        doc["gm_component_reps"] = strings(
            R.entries for R in inst.gm_component_reps)
    return doc


def dumps(doc_or_inst) -> str:
    return json.dumps(to_dict(doc_or_inst), indent=2, sort_keys=True) + "\n"
