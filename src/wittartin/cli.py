"""Command-line front door.

Subcommands:
  check <file>                      validate an instance file
  decompose <file> [--format ...]   full decomposition report
  verify <file>|--all-examples      run the whole named-check suite
  example <name> [--dim --subdim]   emit a catalog instance file

Exit codes: 0 success, 1 check failure, 2 parse or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

from . import catalog, instancefile, verify
from .report import build_report, check_line, render_text, report_to_dict
from .splitting import Check, CheckFailed, require


def _check_payload(checks: list[Check]) -> dict:
    return {
        "format": "wittartin-checks/1",
        "passed": all(c.passed for c in checks),
        "checks": [asdict(c) for c in checks],
    }


def _emit_json(payload: dict, out) -> None:
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def _load_instance(path: str):
    """Returns (instance, failure_checks); exactly one of the two is None."""
    try:
        inst = instancefile.load(path)
        return inst, None
    except instancefile.InstanceDataError as e:
        return None, [Check(e.check_name, False, e.detail)]


def cmd_check(args) -> int:
    inst, failures = _load_instance(args.path)
    if failures is not None:
        _emit_json(_check_payload(failures), sys.stdout)
        return 1
    report = inst.validation
    checks = list(report.checks)
    _emit_json(_check_payload(checks), sys.stdout)
    return 0 if report.passed else 1


def cmd_decompose(args) -> int:
    inst, failures = _load_instance(args.path)
    start = time.monotonic()
    try:
        require(failures or ())
        rep = build_report(inst)
    except CheckFailed as e:
        # "FAIL <name>", then ": <detail>" when there is one.
        print(f"FAIL {e}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - start
    if args.format == "json":
        _emit_json(report_to_dict(rep), sys.stdout)
    else:
        sys.stdout.write(render_text(rep))
    print(f"decomposed in {elapsed:.3f}s", file=sys.stderr)
    return 0 if rep.passed else 1


def cmd_verify(args) -> int:
    jobs = []
    if args.all_examples:
        for name, doc in catalog.all_examples():
            jobs.append((name, instancefile.from_dict(doc)))
    else:
        inst, failures = _load_instance(args.path)
        if failures is not None:
            if args.format == "json":
                _emit_json(_check_payload(failures), sys.stdout)
            else:
                for c in failures:
                    print(f"FAIL {c.name}: {c.detail}")
            return 1
        jobs.append((args.path, inst))

    all_checks: list[Check] = []
    for label, inst in jobs:
        all_checks.extend(Check(f"{label}:{c.name}", c.passed, c.detail)
                          for c in verify.run_all(inst, samples=args.samples))

    if args.format == "json":
        _emit_json(_check_payload(all_checks), sys.stdout)
    else:
        for c in all_checks:
            print(check_line(c))
        failed = [c for c in all_checks if not c.passed]
        print(f"{len(all_checks) - len(failed)}/{len(all_checks)} checks passed")
    return 0 if all(c.passed for c in all_checks) else 1


def cmd_example(args) -> int:
    try:
        doc = catalog.build_example(args.name, dim=args.dim, subdim=args.subdim)
    except KeyError:
        print(f"unknown example {args.name!r}; known: "
              + ", ".join(catalog.EXAMPLE_NAMES), file=sys.stderr)
        return 2
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    text = instancefile.dumps(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittartin",
        description="Compatible Witt-Artin decompositions and symplectic "
                    "slices from Lie-algebra data, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an instance file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("decompose", help="print the decomposition report")
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="run every named check")
    p.add_argument("path", nargs="?")
    p.add_argument("--all-examples", action="store_true")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("example", help="emit a built-in instance file")
    p.add_argument("name")
    p.add_argument("--dim", type=int, default=None, help="torus only")
    p.add_argument("--subdim", type=int, default=None, help="torus only")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.all_examples == bool(args.path):
        parser.error("verify needs a path or --all-examples, not both")
    if args.command == "verify" and args.samples < 1:
        parser.error("--samples must be at least 1")
    try:
        return args.fn(args)
    except (instancefile.InstanceFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
