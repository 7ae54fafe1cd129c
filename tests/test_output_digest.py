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
    "aa29f441a2cb2679fd9aec6903c2e948ad123add4b4e8dd921e559315e95dc07")


def test_catalog_and_workloads_digest_is_pinned():
    assert digest(parts=("catalog", "workloads"), seeds=(7,)) \
        == CATALOG_WORKLOADS_SEED_7


# The digest of the seeded corpus (tests/corpus.py), including its
# instances with nonzero a and r and its zero-dimensional ones; the same
# rule as above holds for a change of it.
CORPUS = "edd5323eb7ca9e9bac3b6b993ad2a9ed81e90f4d0c5d0ebb7b67142dd922764b"


def test_corpus_digest_is_pinned():
    assert digest(parts=("corpus",)) == CORPUS
