"""tests/output_digest.py: its digest is a pure function of the outputs."""

from output_digest import digest, main


def test_catalog_digest_is_the_same_on_a_second_run(capsys):
    first = digest(parts=("catalog",))
    assert main(["--parts", "catalog"]) == 0
    assert capsys.readouterr().out == first + "\n"
    assert len(first) == 64 and int(first, 16) >= 0


# The digest of the catalog and of every benchmark workload at seed 7.  It
# changes only with an intended change of the reported output, and any
# such change states the new value and the reason in CHANGES.md; a change
# meant to keep every byte must leave it as it is.
CATALOG_WORKLOADS_SEED_7 = (
    "c1ff628992efa444758cfdf088a85f029004becadc80354fd04b6327698eeeb9")


def test_catalog_and_workloads_digest_is_pinned():
    assert digest(parts=("catalog", "workloads"), seeds=(7,)) \
        == CATALOG_WORKLOADS_SEED_7


# The digest of the seeded corpus (tests/corpus.py), including its
# instances with nonzero a and r and its zero-dimensional ones; the same
# rule as above holds for a change of it.
CORPUS = "38da259b1e7e3809873da8a708794be28cfafc90ff98698a22cc9afda8ff3ed9"


def test_corpus_digest_is_pinned():
    assert digest(parts=("corpus",)) == CORPUS
