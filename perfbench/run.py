"""End-to-end benchmark of wittartin's decompose and verify paths.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-torus --seed 1 --seconds 36 --trace 0

Workloads: verify-torus, verify-so3k, decompose-mixed (see README.md).

A pass loads every instance doc of the workload with
``instancefile.from_dict`` and then runs ``verify.run_all`` on it, or
``report.build_report`` followed by canonical JSON serialization.  Passes
repeat until the next one would end after ``--seconds``; at least one runs.
Everything runs in this one process and thread, except the set-up probes,
which are fresh interpreters started one at a time.

With ``--trace 0`` the result line holds the end-to-end metrics, measured
untraced; their times are scaled to a reference host speed by a calibration
loop timed next to every measurement (calibrate.py), and the raw seconds
are printed beside them.  With ``--trace 1`` untraced and traced passes alternate; the
result line holds per-layer totals of the traced passes and the tracing
overhead, and the spans are written to ``perfbench/out/``.

Every instance run goes through the correctness gate; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every instance
passed the gate.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import instances  # noqa: E402  (imports wittartin from the checkout's src/)
from spans import Recorder  # noqa: E402
from wittartin import instancefile, report, verify  # noqa: E402

OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 7

# The ordered names `verify.run_all` reports for every valid instance.
EXPECTED_CHECKS = (
    "validate.mu_length", "validate.h_ambient", "validate.gm_ambient",
    "validate.h_subalgebra", "validate.gm_subalgebra", "validate.gm_in_g_mu",
    "validate.gm_normalizes_h", "validate.ip_dimension",
    "validate.ip_symmetric", "validate.ip_positive_definite",
    "validate.ip_ad_gm_invariant", "validate.slice_action_count",
    "validate.slice_omega_antisymmetric", "validate.slice_omega_nondegenerate",
    "validate.slice_action_symplectic", "validate.slice_action_homomorphism",
    "liecore.stabilizer_annihilates_mu", "liecore.chu_radical_is_g_mu",
    "liecore.center_in_stabilizer", "liecore.h_alpha_two_descriptions",
    "liecore.killing_ad_invariant", "liecore.g_mu_in_h_perp_mu",
    "chain.gm_decomposition", "chain.hmu_decomposition",
    "chain.gmu_decomposition", "chain.halpha_decomposition",
    "chain.hperpmu_decomposition", "chain.q_decomposition",
    "chain.h_decomposition", "chain.ntilde_avoids_hperpmu",
    "chain.g_decomposition_hperp", "chain.g_decomposition_gm_m_n",
    "chain.gmu_halpha_in_hperpmu", "chain.s_dim_formula",
    "chain.r_chu_orthogonality", "chain.r_dim_matches_a",
    "chain.ad_gm_invariance", "model.builds", "model.omega_antisymmetric",
    "model.omega_nondegenerate", "model.ker_dphiG_is_T0_plus_N1",
    "model.ker_dphiG_inside_ker_dphiH", "model.ker_dphiG_is_orbit_perp",
    "model.ker_dphiH_is_h_orbit_perp", "dims.kernel_gap_formula",
    "model.f_contract", "model.inf_action_kernel_is_gm",
    "wittG.all_assertions", "wittH.1_direct_sum",
    "wittH.2_TH0_NH1_is_ker_dphiH", "wittH.3_ker_split_with_M",
    "wittH.4_orthogonality_and_lagrangian", "wittH.5_symplectic_blocks",
    "wittH.6_a_r_pairing_nondegenerate", "wittH.7_a_orbit_lagrangian_in_Zm",
    "wittH.oracle_kernel_equality", "sliceform.block_diagonal",
    "sliceform.dim_formula", "dims.slice_dim_formula",
    "momentum.formula_equals_direct", "momentum.quadratic_forms_symmetric",
    "momentum.phiN1_equivariance", "coadjoint.kernel_is_a_plus_s_orbit",
    "coadjoint.s_complements_halpha_orbit", "tube.base_point_matches_model",
    "tube.antisymmetric_at_slice_points", "tube.nondegenerate_near_origin",
    "tube.dphi_fd_consistency", "tube.equivariance",
)

# Per-layer metrics of a traced pass: (metric, span name, field, unit).
# Fields: calls, s (total time), self_s, calls_per_instance.
LAYER_METRICS = [
    ("tube.omega_tube.calls", "tube.omega_tube", "calls", "count"),
    ("tube.omega_tube.s", "tube.omega_tube", "s", "s"),
    ("tube.phi_tilde.s", "tube.phi_tilde", "s", "s"),
    ("tube.expm.calls", "tube.expm", "calls", "count"),
    ("tube.expm.s", "tube.expm", "s", "s"),
    ("verify.tube_checks.self_s", "verify.tube_checks", "self_s", "s"),
    ("verify.liecore_checks.self_s", "verify.liecore_checks", "self_s", "s"),
    ("liecore.killing_form.s", "liecore.killing_form", "s", "s"),
]
for _span in ("liecore.stabilizer_of_momentum", "liecore.chu_form",
              "pointmodel.build_model", "decomposition.slice_form"):
    LAYER_METRICS += [
        (f"{_span}.calls", _span, "calls", "count"),
        (f"{_span}.s", _span, "s", "s"),
        (f"{_span}.calls_per_instance", _span, "calls_per_instance",
         "calls/instance"),
    ]
LAYER_METRICS += [
    ("exactlin.rref.calls", "exactlin.rref", "calls", "count"),
    ("exactlin.rref.s", "exactlin.rref", "s", "s"),
    ("exactlin.matmul.calls", "exactlin.matmul", "calls", "count"),
    ("exactlin.matmul.s", "exactlin.matmul", "s", "s"),
    ("exactlin.apply.calls", "exactlin.apply", "calls", "count"),
    ("exactlin.apply.s", "exactlin.apply", "s", "s"),
    ("exactlin.det.s", "exactlin.det", "s", "s"),
    ("exactlin.gram_on.s", "exactlin.gram_on", "s", "s"),
    ("splitting.build_chain.s", "splitting.build_chain", "s", "s"),
    ("splitting.chain_checks.s", "splitting.chain_checks", "s", "s"),
    ("decomposition.decompose_G.s", "decomposition.decompose_G", "s", "s"),
    ("decomposition.decompose_H.s", "decomposition.decompose_H", "s", "s"),
    ("decomposition.slice_momentum.calls", "decomposition.slice_momentum",
     "calls", "count"),
    ("decomposition.slice_momentum.s", "decomposition.slice_momentum",
     "s", "s"),
    ("decomposition.slice_momentum_forms.s",
     "decomposition.slice_momentum_forms", "s", "s"),
    ("instancefile.from_dict.s", "instancefile.from_dict", "s", "s"),
    ("splitting.validate.s", "splitting.validate", "s", "s"),
    ("report.build_report.s", "report.build_report", "s", "s"),
    ("report.serialize.s", "report.serialize", "s", "s"),
    ("verify.model_checks.self_s", "verify.model_checks", "self_s", "s"),
    ("verify.decomposition_checks.self_s", "verify.decomposition_checks",
     "self_s", "s"),
]

SETUP_PROBE = """
import sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import instances
from wittartin import instancefile
for item in instances.workload_items(sys.argv[2], int(sys.argv[3]),
                                     sys.argv[4] == "tiny"):
    instancefile.from_dict(item.doc)
elapsed = perf_counter() - t0
import calibrate
print(elapsed, calibrate.seconds())
"""


class Crash:
    """Output of an instance run that raised."""

    def __init__(self, error: BaseException):
        self.reason = f"raised {type(error).__name__}: {error}"


def canonical_json(rep) -> str:
    """Canonical report JSON, byte for byte as the golden files hold it."""
    return json.dumps(report.report_to_dict(rep), indent=2,
                      sort_keys=True) + "\n"


def run_instance(kind: str, item: instances.Item, seed: int,
                 rec: Recorder | None = None):
    """Load one instance doc and run the workload's operation on it.

    verify returns the check list as (name, passed, detail) tuples;
    decompose returns (report.passed, canonical JSON text).
    """
    inst = instancefile.from_dict(item.doc)
    if kind == "verify":
        checks = verify.run_all(inst, seed=seed)
        return tuple((c.name, c.passed, c.detail) for c in checks)
    rep = report.build_report(inst, instance_doc=item.doc)
    with rec.span("report.serialize") if rec else nullcontext():
        text = canonical_json(rep)
    return rep.passed, text


class Pass:
    """One pass over a workload's instance set."""

    def __init__(self, kind, items, seed, rec: Recorder | None = None):
        self.times: list[float] = []
        self.outputs: list = []
        start = perf_counter()
        for item in items:
            t = perf_counter()
            try:
                if rec is None:
                    out = run_instance(kind, item, seed)
                else:
                    with rec.span("bench.instance"):
                        out = run_instance(kind, item, seed, rec)
            except Exception as e:  # a crash is a failed instance, not an abort
                out = Crash(e)
            self.times.append(perf_counter() - t)
            self.outputs.append(out)
        self.wall = perf_counter() - start


def gate(kind: str, output, golden: str | None, reference) -> str | None:
    """Why one instance run is wrong, or None when it is correct.

    ``golden`` is the committed report text for a catalog instance;
    ``reference`` is the same instance's output from the first untraced
    pass of this run (None for that pass itself).
    """
    if isinstance(output, Crash):
        return output.reason
    if kind == "verify":
        names = tuple(c[0] for c in output)
        if names != EXPECTED_CHECKS:
            return f"check names differ from the expected {len(EXPECTED_CHECKS)}"
        failed = [c[0] for c in output if not c[1]]
        if failed:
            return f"{len(failed)} checks FAIL, first {failed[0]}"
    else:
        passed, text = output
        if not passed:
            return "report is not passed"
        if golden is not None and text != golden:
            return "report bytes differ from the golden file"
    if reference is not None and output != reference:
        return "output differs from the first untraced pass"
    return None


def gate_passes(kind, items, passes: list[Pass], reference: Pass) -> list[str]:
    """Gate every instance run of ``passes`` against ``reference``."""
    goldens = [it.golden.read_text(encoding="utf-8") if it.golden else None
               for it in items]
    failures = []
    for p in passes:
        for i, item in enumerate(items):
            ref = None if p is reference else reference.outputs[i]
            why = gate(kind, p.outputs[i], goldens[i], ref)
            if why is not None:
                failures.append(f"{item.label}: {why}")
    return failures


def setup_seconds(workload: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Import, generate and load, timed inside a fresh interpreter, and the
    calibration timed right after it in the same interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), workload,
         str(seed), "tiny" if tiny else "full"],
        capture_output=True, text=True, check=True, timeout=120)
    elapsed, calibration = done.stdout.split()
    return float(elapsed), float(calibration)


def repeat(seconds: float, one_round) -> list:
    """Call one_round() until the next call would end after ``seconds``."""
    rounds, start = [], perf_counter()
    while True:
        t = perf_counter()
        rounds.append(one_round())
        took = perf_counter() - t
        if perf_counter() - start + took > seconds:
            return rounds


def measure(workload: str, seed: int, seconds: float, tiny: bool = False):
    """Untraced run: returns (metrics, notes, attempted, failures).

    ``metrics`` maps a name to (value, unit); ``notes`` holds the sample
    counts and raw seconds printed beside them; ``failures`` lists the
    gate's reasons.  Times are scaled to the reference host speed with the
    calibration timed before and after each pass (see calibrate.py).
    """
    kind = instances.KIND[workload]
    setups = [setup_seconds(workload, seed, tiny)
              for _ in range(SETUP_SAMPLES)]
    items = instances.workload_items(workload, seed, tiny)
    calibrations = [calibrate.seconds()]

    def one_pass() -> Pass:
        done = Pass(kind, items, seed)
        calibrations.append(calibrate.seconds())
        return done

    passes = repeat(seconds, one_pass)
    speed = [(a + b) / 2 for a, b in zip(calibrations, calibrations[1:])]
    failures = gate_passes(kind, items, passes, passes[0])
    attempted = len(items) * len(passes)
    big = items.index(instances.largest(items))
    med = statistics.median
    metrics = {
        "wall_s": (med(calibrate.scale(p.wall, c)
                       for p, c in zip(passes, speed)), "s"),
        "largest_s": (med(calibrate.scale(p.times[big], c)
                          for p, c in zip(passes, speed)), "s"),
        "setup_s": (med(calibrate.scale(t, c) for t, c in setups), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_share": ((attempted - len(failures)) / attempted, "share"),
    }
    notes = {
        "wall_s": (f"median of {len(passes)} passes over {len(items)} "
                   f"instances; raw {med(p.wall for p in passes):.4g} s"),
        "largest_s": (f"median of {len(passes)}, instance {items[big].label}; "
                      f"raw {med(p.times[big] for p in passes):.4g} s"),
        "setup_s": (f"median of {len(setups)} fresh interpreters; "
                    f"raw {med(t for t, _ in setups):.4g} s"),
        "peak_rss_mb": "ru_maxrss of this process",
        "pass_share": f"{attempted - len(failures)}/{attempted} instance runs",
        "calibration": (f"median {med(calibrations):.4g} s over "
                        f"{len(calibrations)} samples; reference "
                        f"{calibrate.REFERENCE_S} s"),
    }
    return metrics, notes, attempted, failures


def measure_traced(workload: str, seed: int, seconds: float,
                   tiny: bool = False):
    """Alternating untraced and traced passes, as ``measure`` returns them,
    with the per-layer metrics of the traced passes."""
    kind = instances.KIND[workload]
    items = instances.workload_items(workload, seed, tiny)
    untraced, traced, recorders = [], [], []

    def one_round():
        untraced.append(Pass(kind, items, seed))
        rec = Recorder()
        with rec:
            traced.append(Pass(kind, items, seed, rec))
        recorders.append(rec)

    repeat(seconds, one_round)
    failures = gate_passes(kind, items, untraced + traced, untraced[0])
    attempted = len(items) * (len(untraced) + len(traced))

    totals = [rec.totals() for rec in recorders]

    def field(span: str, name: str) -> float:
        values = []
        for t in totals:
            entry = t.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
            if name == "calls_per_instance":
                values.append(entry["calls"] / len(items))
            else:
                values.append(entry[name])
        return statistics.median(values)

    metrics = {m: (field(span, f), unit) for m, span, f, unit in LAYER_METRICS}
    metrics["liecore.bracket.calls"] = (
        statistics.median(r.counts["liecore.bracket"] for r in recorders),
        "count")
    metrics["exactlin.rref.max_cells"] = (
        max(r.rref_max_cells for r in recorders), "cells")
    metrics["exactlin.rref.max_bits"] = (
        max(r.rref_max_bits for r in recorders), "bits")
    u = statistics.median(p.wall for p in untraced)
    t = statistics.median(p.wall for p in traced)
    metrics["trace.untraced_wall_s"] = (u, "s")
    metrics["trace.traced_wall_s"] = (t, "s")
    metrics["trace.overhead_ratio"] = (t / u, "ratio")
    metrics["trace.spans"] = (
        statistics.median(len(r.spans) for r in recorders), "count")
    notes = {
        "trace.overhead_ratio": (
            f"traced {t:.3f} s over untraced {u:.3f} s, medians of "
            f"{len(traced)} and {len(untraced)} passes"),
    }
    if not tiny:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(recorders):
                rec.write(fh, i)
        notes["spans"] = str(path.relative_to(BENCH_DIR.parent))
    return metrics, notes, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=instances.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = measure_traced if args.trace else measure
    metrics, notes, attempted, failures = run(args.workload, args.seed,
                                              args.seconds)
    for why in failures:
        print(f"FAIL {why}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<48} {value:.6g} {unit}{note}")
    if not args.trace:
        print(f"{'failed_share':<48} {len(failures) / attempted:.6g} share"
              f"  ({len(failures)}/{attempted} instance runs)")
    if "calibration" in notes:
        print(f"{'calibration':<48} {notes['calibration']}")
    if "spans" in notes:
        print(f"spans written to {notes['spans']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
