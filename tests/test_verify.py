"""Non-vacuity of the matrix-form checks in run_all.

Each test breaks one computation on purpose and requires run_all to finish,
with the same check names as an unbroken run, and to report the check that
guards the computation as a named FAIL.
"""

from wittartin import tube, verify
from wittartin.catalog import build_example
from wittartin.exactlin import BilinearForm, Matrix
from wittartin.instancefile import from_dict


def _run():
    return verify.run_all(from_dict(build_example("so3-generic")), samples=3)


def _failed(checks):
    return [c.name for c in checks if not c.passed]


def test_unbroken_so3_instance_passes_every_check():
    assert _failed(_run()) == []


def test_flipped_tube_gram_entry_fails_base_point_check(monkeypatch):
    expected_names = [c.name for c in _run()]
    exact = tube.omega_tube_gram

    def flipped(inst, model, p):
        G = exact(inst, model, p)
        rows = [list(row) for row in G.entries]
        i, j = next((i, j) for i, row in enumerate(rows)
                    for j, x in enumerate(row) if x != 0)
        rows[i][j] = -rows[i][j]
        return Matrix.from_rows(rows, cols=G.cols)

    monkeypatch.setattr(tube, "omega_tube_gram", flipped)
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert "tube.base_point_matches_model" in _failed(checks)


def test_non_invariant_killing_form_fails_invariance_check(monkeypatch):
    expected_names = [c.name for c in _run()]
    diag = Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    monkeypatch.setattr(verify, "killing_form", lambda L: BilinearForm(diag))
    checks = _run()
    assert [c.name for c in checks] == expected_names
    assert _failed(checks) == ["liecore.killing_ad_invariant"]
