"""tests/output_digest.py: its digest is a pure function of the outputs."""

from output_digest import digest, main


def test_catalog_digest_is_the_same_on_a_second_run(capsys):
    first = digest(parts=("catalog",))
    assert main(["--parts", "catalog"]) == 0
    assert capsys.readouterr().out == first + "\n"
    assert len(first) == 64 and int(first, 16) >= 0
