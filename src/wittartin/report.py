"""Decomposition reports: assembly, JSON and text rendering.

Serialized output is deterministic: two runs on the same instance produce
byte-identical bytes.  Wall-clock timing is therefore kept out of the
serialized report and surfaced separately on stderr by the CLI.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import decomposition as dec
from . import pointmodel as pm
from .exactlin import unit_vec
from .instancefile import strings, to_dict
from .splitting import (
    Check,
    ProblemInstance,
    dim_detail,
    dim_formulas,
    require,
)
from .verify import checked_model


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


def build_report(inst: ProblemInstance, instance_doc: dict | None = None) -> Report:
    """Decompose one instance and collect the block data.

    This is the strict path: it raises CheckFailed for the first failed
    named check among those the constructors rely on: verify.checked_model's
    (validate.*, liecore, chain.builds, chain, model.builds, the point
    form), then the f contract, wittG, wittH 1-7, slice form and
    momentum-form symmetry.  Each of them runs once, and none is tested
    here again.
    """
    checks, model = checked_model(inst)
    require(checks)
    chain = model.chain
    require([pm.f_contract_check(model)])
    g_dec = dec.decompose_G(model)
    require([dec.g_decomposition_check(g_dec, model)])
    h_dec = dec.decompose_H(model)
    require(dec.h_decomposition_checks(h_dec, model))
    require([dec.slice_form_check(h_dec, model)])
    forms = dec.slice_momentum_forms(h_dec)
    require([dec.momentum_forms_check(dec.momentum_formula_forms(model),
                                      forms)])
    dims = dim_formulas(chain)

    def block(indices):
        # Subspace.coordinate: a coordinate span's canonical basis is its unit
        # vectors in ascending index order, its Gram the omega submatrix there.
        ordered = sorted(indices)
        return {
            "basis": strings(unit_vec(model.total_dim, i) for i in ordered),
            "gram": strings(model.omega_on(ordered).entries),
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
        "slice_form_gram": strings(h_dec.nh1.omega.entries),
        "dim_X_m": len(h_dec.Xm_block),
        "dim_N1_tilde": len(h_dec.NH1),
        # One quadratic form per h_m basis vector; an empty list states
        # explicitly that the momentum of the slice action is the zero
        # covector in a zero-dimensional dual.
        "slice_momentum": {
            "h_m_dim": chain.h_m.dim,
            "quadratic_forms": strings(S.entries for S in forms),
        },
    }
    checks = (
        Check("report.decompositions_built", True),
        Check.of("report.slice_dim_matches_formula", dim_detail(
            "dim NH1", len(h_dec.NH1),
            "dim N1 + 2 dim b + dim s", dims.slice_dim_H)),
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
        "checks": [asdict(c) for c in report.checks],
    }


def render_text(report: Report) -> str:
    lines = []
    lines.append("dims:")
    for key, dim in report.dims.items():
        label = "s(G,H,mu)" if key == "s" else key
        lines.append(f"  {label:<10} {dim}")
    lines.append(f"  {'N1_tilde':<10} {report.slice_dim_H}")
    lines.append("")

    def matrix(rows, indent="  "):
        lines.extend(f"{indent}[{', '.join(row)}]" for row in rows)

    def block(title: str, data: dict):
        lines.append(f"{title}  (dim {len(data['basis'])})")
        matrix(data["basis"])

    lines.append("Witt-Artin decomposition for G:")
    for name in ("T0", "T1", "N0", "N1"):
        block(f" {name}", report.witt_g[name])
    lines.append(" gram on T1 (KKS block):")
    matrix(report.witt_g["gram_T1"])
    lines.append("")
    lines.append("Witt-Artin decomposition for H:")
    for name in ("TH0", "TH1", "NH0", "N1_tilde"):
        block(f" {name}", report.witt_h[name])
    lines.append(" N1_tilde blocks:")
    for name in ("s_m", "X_m", "N1"):
        block(f"  {name}", report.witt_h["N1_tilde_blocks"][name])
    lines.append(" form on N1_tilde (blocks s | b | Y_m | N1):")
    matrix(report.witt_h["slice_form_gram"])
    momentum = report.witt_h["slice_momentum"]
    if momentum["quadratic_forms"]:
        lines.append(" slice momentum quadratic forms (one per h_m basis vector):")
        for t, S in enumerate(momentum["quadratic_forms"]):
            lines.append(f"  eta_{t}:")
            matrix(S, "   ")
    else:
        lines.append(" slice momentum: zero covector (h_m is trivial)")
    lines.append("")
    lines.append("checks:")
    lines.extend("  " + check_line(c) for c in report.checks)
    return "\n".join(lines) + "\n"


def check_line(c: Check) -> str:
    """PASS|FAIL name, then the detail in parentheses when there is one."""
    suffix = f"  ({c.detail})" if c.detail else ""
    return f"{'PASS' if c.passed else 'FAIL'} {c.name}{suffix}"
