"""Decomposition reports: assembly, JSON and text rendering.

Serialized output is deterministic: two runs on the same instance produce
byte-identical bytes.  Wall-clock timing is therefore kept out of the
serialized report and surfaced separately on stderr by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import decomposition as dec
from . import pointmodel as pm
from .exactlin import Matrix, unit_vec
from .instancefile import to_dict
from .splitting import (
    Check,
    ProblemInstance,
    build_chain,
    chain_checks,
    dim_formulas,
    require,
)
from .verify import chu_radical_check, h_alpha_check, h_perp_mu_check


@dataclass(frozen=True)
class Report:
    instance: dict
    dims: dict[str, int]
    slice_dim_H: int
    witt_g: dict
    witt_h: dict
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _matrix_strings(M: Matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in M.entries]


def build_report(inst: ProblemInstance, instance_doc: dict | None = None) -> Report:
    """Decompose one instance and collect the block data.

    This is the strict path: it raises ValidationFailed on an invalid
    instance and CheckFailed for the first failed named check among those
    the constructors rely on (chain, liecore, f contract, wittG, wittH 1-7,
    slice form and momentum-form symmetry).  Each of them runs once.
    """
    chain = build_chain(inst)
    require(chain_checks(inst, chain))
    require([
        chu_radical_check(inst.chu, chain.g_mu),
        h_alpha_check(inst, chain.h_alpha),
        h_perp_mu_check(chain.g_mu, chain.h_perp_mu_space),
    ])
    model = pm.build_model(chain, inst)
    require([pm.f_contract_check(model)])
    g_dec = dec.decompose_G(model)
    require([dec.g_decomposition_check(g_dec, model)])
    h_dec = dec.decompose_H(model)
    require(dec.h_decomposition_checks(h_dec, model))
    require([dec.slice_form_check(h_dec, model)])
    forms = dec.slice_momentum_forms(h_dec)
    require([dec.momentum_forms_check(model, forms, ())])
    dims = dim_formulas(chain)

    def block(indices):
        # The canonical basis of a coordinate span is its unit vectors in
        # ascending index order, and its Gram the omega submatrix there.
        ordered = sorted(indices)
        return {
            "basis": [[str(x) for x in unit_vec(model.total_dim, i)]
                      for i in ordered],
            "gram": _matrix_strings(model.omega_on(ordered)),
        }

    witt_g = {name: block(getattr(g_dec, name))
              for name in ("T0", "T1", "N0", "N1")}
    witt_g["gram_T1"] = witt_g["T1"]["gram"]
    witt_g["gram_N1"] = witt_g["N1"]["gram"]
    witt_h = {
        "TH0": block(h_dec.TH0),
        "TH1": block(h_dec.TH1),
        "NH0": block(h_dec.NH0),
        "N1_tilde": block(h_dec.NH1),
        "N1_tilde_blocks": {
            "s_m": block(h_dec.s_block),
            "X_m": block(h_dec.Xm_block),
            "N1": block(h_dec.N1_block),
        },
        "Y_m": block(h_dec.Ym),
        "Z_m": block(h_dec.Zm),
        "slice_form_gram": _matrix_strings(h_dec.form.gram),
        "dim_X_m": len(h_dec.Xm_block),
        "dim_N1_tilde": len(h_dec.NH1),
        # One quadratic form per h_m basis vector; an empty list states
        # explicitly that the momentum of the slice action is the zero
        # covector in a zero-dimensional dual.
        "slice_momentum": {
            "h_m_dim": chain.h_m.dim,
            "quadratic_forms": [_matrix_strings(S) for S in forms],
        },
    }
    checks = (
        Check("report.decompositions_built", True),
        Check("report.slice_dim_matches_formula",
              len(h_dec.NH1) == dims.slice_dim_H),
    )
    return Report(
        instance=to_dict(instance_doc if instance_doc is not None else inst),
        dims=dims.dims,
        slice_dim_H=dims.slice_dim_H,
        witt_g=witt_g,
        witt_h=witt_h,
        checks=checks,
    )


def report_to_dict(report: Report) -> dict:
    return {
        "format": "wittartin-report/1",
        "instance": report.instance,
        "dims": report.dims,
        "dim_N1_tilde": report.slice_dim_H,
        "witt_G": report.witt_g,
        "witt_H": report.witt_h,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }


_DIM_ORDER = ("g", "g_mu", "h_mu", "h_m", "h_alpha", "h_perp_mu",
              "p", "b", "a", "s", "q", "ntilde", "r", "m", "n", "N1")

_DIM_LABEL = {
    "g": "g", "g_mu": "g_mu", "h_mu": "h_mu", "h_m": "h_m",
    "h_alpha": "h_alpha", "h_perp_mu": "h_perp_mu",
    "p": "p", "b": "b", "a": "a", "s": "s(G,H,mu)", "q": "q",
    "ntilde": "ntilde", "r": "r", "m": "m", "n": "n", "N1": "N1",
}


def render_text(report: Report) -> str:
    lines = []
    lines.append("dims:")
    for key in _DIM_ORDER:
        lines.append(f"  {_DIM_LABEL[key]:<10} {report.dims[key]}")
    lines.append(f"  {'N1_tilde':<10} {report.slice_dim_H}")
    lines.append("")

    def block(title: str, data: dict):
        rows = data["basis"]
        lines.append(f"{title}  (dim {len(rows)})")
        for v in rows:
            lines.append("  [" + ", ".join(v) + "]")

    lines.append("Witt-Artin decomposition for G:")
    for name in ("T0", "T1", "N0", "N1"):
        block(f" {name}", report.witt_g[name])
    lines.append(" gram on T1 (KKS block):")
    for row in report.witt_g["gram_T1"]:
        lines.append("  [" + ", ".join(row) + "]")
    lines.append("")
    lines.append("Witt-Artin decomposition for H:")
    for name in ("TH0", "TH1", "NH0", "N1_tilde"):
        block(f" {name}", report.witt_h[name])
    lines.append(" N1_tilde blocks:")
    for name in ("s_m", "X_m", "N1"):
        block(f"  {name}", report.witt_h["N1_tilde_blocks"][name])
    lines.append(" form on N1_tilde (blocks s | b | Y_m | N1):")
    for row in report.witt_h["slice_form_gram"]:
        lines.append("  [" + ", ".join(row) + "]")
    momentum = report.witt_h["slice_momentum"]
    if momentum["quadratic_forms"]:
        lines.append(" slice momentum quadratic forms (one per h_m basis vector):")
        for t, S in enumerate(momentum["quadratic_forms"]):
            lines.append(f"  eta_{t}:")
            for row in S:
                lines.append("   [" + ", ".join(row) + "]")
    else:
        lines.append(" slice momentum: zero covector (h_m is trivial)")
    lines.append("")
    lines.append("checks:")
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        suffix = f"  ({c.detail})" if c.detail else ""
        lines.append(f"  {status} {c.name}{suffix}")
    return "\n".join(lines) + "\n"
