"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, at tiny sizes, that an untraced and a traced run of every workload
finish and pass the gate with every metric present; that the gate counts a
failure when one report byte is flipped or one check result is forced to
FAIL; and that every generated instance validates, with the same chain
dimensions, for a range of seeds at the benchmark's own sizes.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import instances  # noqa: E402
import run  # noqa: E402
from wittartin import instancefile  # noqa: E402
from wittartin.splitting import build_chain, dim_formulas, validate  # noqa: E402

VALIDATE_SEEDS = range(8)
E2E_METRICS = {"wall_s", "largest_s", "setup_s", "peak_rss_mb", "pass_share"}

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def tiny_runs() -> None:
    layer_names = {m for m, *_ in run.LAYER_METRICS} | {
        "liecore.bracket.calls", "exactlin.rref.max_cells",
        "exactlin.rref.max_bits", "trace.untraced_wall_s",
        "trace.traced_wall_s", "trace.overhead_ratio", "trace.spans"}
    for workload in instances.WORKLOADS:
        metrics, _, attempted, failures = run.measure(workload, 3, 0, tiny=True)
        check(attempted > 0 and not failures and set(metrics) == E2E_METRICS,
              f"{workload}: tiny untraced run passes the gate {failures}")
        metrics, _, attempted, failures = run.measure_traced(
            workload, 3, 0, tiny=True)
        check(attempted > 0 and not failures and set(metrics) == layer_names,
              f"{workload}: tiny traced run equals the untraced one {failures}")


def flip_byte(text: str, at: int) -> str:
    """text with the character at ``at`` replaced by a different one."""
    return text[:at] + ("0" if text[at] != "0" else "1") + text[at + 1:]


def gate_catches_corruption() -> None:
    items = instances.workload_items("decompose-mixed", 3, tiny=True)
    first = run.Pass("decompose", items, 3)
    for i, item in enumerate(items):
        golden = item.golden.read_text(encoding="utf-8") if item.golden else None
        passed, text = first.outputs[i]
        check(run.gate("decompose", (passed, text), golden, None) is None,
              f"{item.label}: report passes the gate")
        corrupt = (passed, flip_byte(text, len(text) // 2))
        if golden is not None:
            check(run.gate("decompose", corrupt, golden, None) is not None,
                  f"{item.label}: one flipped byte fails the golden gate")
        else:
            check(run.gate("decompose", corrupt, None, first.outputs[i])
                  is not None,
                  f"{item.label}: one flipped byte fails the repeat gate")
        check(run.gate("decompose", (False, text), golden, None) is not None,
              f"{item.label}: a report that is not passed fails the gate")

    items = instances.workload_items("verify-so3k", 3, tiny=True)
    out = run.Pass("verify", items, 3).outputs[0]
    check(run.gate("verify", out, None, None) is None,
          "verify output passes the gate")
    for k in (0, len(out) // 2, len(out) - 1):
        forced = out[:k] + ((out[k][0], False, out[k][2]),) + out[k + 1:]
        check(run.gate("verify", forced, None, None) is not None,
              f"forcing {out[k][0]} to FAIL fails the gate")
    check(run.gate("verify", out[:-1], None, None) is not None,
          "a missing check fails the gate")
    check(run.gate("verify", out, None, out[:-1] + (out[0],)) is not None,
          "output differing from the first pass fails the gate")
    check(run.gate("verify", run.Crash(RuntimeError("x")), None, None)
          is not None, "an instance that raised fails the gate")


def generated_instances_validate() -> None:
    for workload in instances.WORKLOADS:
        dims = None
        for seed in VALIDATE_SEEDS:
            items = [it for it in instances.workload_items(workload, seed)
                     if it.golden is None]
            insts = [instancefile.from_dict(it.doc) for it in items]
            ok = all(validate(inst).passed for inst in insts)
            check(ok, f"{workload} seed {seed}: every generated instance "
                      "validates")
            seed_dims = [dim_formulas(build_chain(inst)).dims
                         for inst in insts]
            if dims is None:
                dims = seed_dims
            check(seed_dims == dims,
                  f"{workload} seed {seed}: chain dimensions equal seed "
                  f"{VALIDATE_SEEDS[0]}'s")


def main() -> int:
    tiny_runs()
    gate_catches_corruption()
    generated_instances_validate()
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
