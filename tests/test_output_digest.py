"""tests/output_digest.py: its digest is a pure function of the outputs."""

import hashlib
import json

from output_digest import digest, main


def test_catalog_digest_is_the_same_on_a_second_run(capsys):
    first = digest(parts=("catalog",))
    assert main(["--parts", "catalog"]) == 0
    assert capsys.readouterr().out == first + "\n"
    assert len(first) == 64 and int(first, 16) >= 0


def test_records_hash_to_the_printed_digest(capsys, tmp_path):
    path = tmp_path / "records.jsonl"
    assert main(["--parts", "catalog", "--records", str(path)]) == 0
    printed = capsys.readouterr().out
    data = path.read_bytes()
    assert printed == hashlib.sha256(data).hexdigest() + "\n"
    lines = [json.loads(line) for line in data.decode().splitlines()]
    # One line per check record and one per report, for each example.
    reports = [r for r in lines if "report_sha256" in r]
    assert [r["label"] for r in reports] == [
        "catalog:so3-collinear", "catalog:so3-generic", "catalog:so3-zero",
        "catalog:so3xso3-diagonal", "catalog:torus"]
    checks = [r for r in lines if "check" in r]
    assert len(checks) == 5 * 69 and len(lines) == len(checks) + 5
    assert checks[0] == {"label": "catalog:so3-collinear",
                         "check": "validate.mu_length", "passed": True,
                         "detail": ""}


# The digest of the catalog and of every benchmark workload at seed 7.  It
# changes only with an intended change of the reported output, and any
# such change states the new value and the reason in CHANGES.md; a change
# meant to keep every byte must leave it as it is.
CATALOG_WORKLOADS_SEED_7 = (
    "9fe976469ae789cf5c4f596899086429e0c18698012b57d259bd7c2a8652dd68")


def test_catalog_and_workloads_digest_is_pinned():
    assert digest(parts=("catalog", "workloads"), seeds=(7,)) \
        == CATALOG_WORKLOADS_SEED_7


# The digest of the seeded corpus (tests/corpus.py), including its
# instances with nonzero a and r and its zero-dimensional ones; the same
# rule as above holds for a change of it.
CORPUS = "346f2fba5726ba36f499ab7fb37d62c4065414b12393f9449f19c9dc9e68aaf1"


def test_corpus_digest_is_pinned():
    assert digest(parts=("corpus",)) == CORPUS
