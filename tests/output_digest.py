"""One SHA-256 digest over everything wittartin reports, for checking that a
change keeps every output byte.

For each instance it writes one JSON line per ``verify.run_all`` record
(label, check name, passed, detail) and one with the SHA-256 of the
canonical ``report.build_report`` JSON; an exception that either raised is
a line too.  The digest is the SHA-256 of those lines, each ended by a
newline.  The instances are, in this order:

    corpus     the seeded ``tests/corpus.py`` instances;
    catalog    the built-in examples (``catalog.all_examples``);
    workloads  the instance docs of every benchmark workload at each seed,
               from ``perfbench/instances.py`` (loaded by path, not changed).

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/output_digest.py [--parts corpus catalog workloads] [--seeds 7 11] [--records PATH]

Run it at two commits and compare the printed digests; with --records it
also writes the lines to PATH, so that two commits can be diffed record by
record.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from corpus import build_corpus
from wittartin import catalog, instancefile, report, verify

ROOT = Path(__file__).resolve().parent.parent
PARTS = ("corpus", "catalog", "workloads")


def _workload_items(seed: int):
    path = ROOT / "perfbench" / "instances.py"
    module = sys.modules.get("_perfbench_instances")
    if module is None:
        spec = importlib.util.spec_from_file_location("_perfbench_instances", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    for workload in module.WORKLOADS:
        for item in module.workload_items(workload, seed):
            yield f"{workload}@{seed}:{item.label}", item.doc


def cases(parts=PARTS, seeds=(7,)):
    """(label, instance, instance doc or None, run_all seed) in digest order."""
    if "corpus" in parts:
        for i, inst in enumerate(build_corpus()):
            yield f"corpus:{i}", inst, None, 0
    if "catalog" in parts:
        for name, doc in catalog.all_examples():
            yield f"catalog:{name}", instancefile.from_dict(doc), doc, 0
    if "workloads" in parts:
        for seed in seeds:
            for label, doc in _workload_items(seed):
                yield label, instancefile.from_dict(doc), doc, seed


def _outcome(run):
    """run(), or the text of the exception it raised: an exception is an
    output too."""
    try:
        return run()
    except Exception as e:
        return f"raised {type(e).__name__}: {e}"


def records(parts=PARTS, seeds=(7,)):
    """The JSON lines the digest hashes, in digest order."""
    for label, inst, doc, seed in cases(parts, seeds):
        checks = _outcome(lambda: verify.run_all(inst, seed=seed))
        if isinstance(checks, str):
            yield json.dumps({"label": label, "raised": checks})
        else:
            for c in checks:
                yield json.dumps({"label": label, "check": c.name,
                                  "passed": c.passed, "detail": c.detail})
        text = _outcome(lambda: json.dumps(
            report.report_to_dict(report.build_report(inst, instance_doc=doc)),
            indent=2, sort_keys=True) + "\n")
        yield json.dumps({"label": label, "report_sha256":
                          hashlib.sha256(text.encode()).hexdigest()})


def digest(parts=PARTS, seeds=(7,), out=None) -> str:
    """The SHA-256 of the record lines; out, if given, receives each line."""
    h = hashlib.sha256()
    for line in records(parts, seeds):
        line += "\n"
        h.update(line.encode())
        if out is not None:
            out.write(line)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parts", nargs="+", choices=PARTS, default=list(PARTS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[7])
    parser.add_argument("--records", type=Path, metavar="PATH",
                        help="also write the hashed lines to PATH")
    args = parser.parse_args(argv)
    if args.records is None:
        print(digest(args.parts, args.seeds))
    else:
        with args.records.open("w") as out:
            print(digest(args.parts, args.seeds, out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
