"""The command-line surface: exit codes, determinism, catalog round trips."""

import json
import subprocess
import sys

import pytest

from wittartin import decomposition as dec
from wittartin.catalog import EXAMPLE_NAMES
from wittartin.cli import main
from wittartin.exactlin import BilinearForm


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_example(capsys, tmp_path, name, *extra):
    path = tmp_path / f"{name}.json"
    code, out, _ = run_cli(capsys, "example", name, *extra, "-o", str(path))
    assert code == 0
    return path


class TestExample:
    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_catalog_round_trips_through_check(self, capsys, tmp_path, name):
        path = write_example(capsys, tmp_path, name)
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    def test_unknown_name_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "example", "nonesuch")
        assert code == 2
        assert "unknown example" in err

    def test_torus_parameters(self, capsys, tmp_path):
        path = write_example(capsys, tmp_path, "torus",
                             "--dim", "4", "--subdim", "2")
        doc = json.loads(path.read_text())
        assert doc["dim"] == 4
        assert len(doc["h_basis"]) == 2

    def test_torus_bad_parameters(self, capsys):
        code, _, err = run_cli(capsys, "example", "torus",
                               "--dim", "2", "--subdim", "2")
        assert code == 2


class TestCheck:
    def test_good_file(self, capsys, tmp_path):
        path = write_example(capsys, tmp_path, "so3-generic")
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 0

    def test_non_jacobi_constants_exit_1_and_name_triple(self, capsys, tmp_path):
        path = write_example(capsys, tmp_path, "so3-generic")
        doc = json.loads(path.read_text())
        c = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2], c[1][0][2] = "1", "-1"
        c[0][2][0], c[2][0][0] = "1", "-1"
        c[1][2][1], c[2][1][1] = "1", "-1"
        doc["structure_constants"] = c
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        [failure] = [c for c in payload["checks"] if not c["passed"]]
        assert failure["name"] == "structure_constants"
        assert "triple" in failure["detail"]

    def test_empty_h_is_legal(self, capsys, tmp_path):
        path = write_example(capsys, tmp_path, "so3-generic")
        doc = json.loads(path.read_text())
        doc["h_basis"] = []
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "check", str(path))
        assert code == 0

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "check", "/nonexistent/file.json")
        assert code == 2


class TestDecompose:
    def test_generic_dims_match_worked_case(self, capsys, tmp_path):
        path = write_example(capsys, tmp_path, "so3-generic")
        code, out, _ = run_cli(capsys, "decompose", str(path),
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["dims"]["s"] == 0
        assert doc["dims"]["b"] == 1
        assert doc["witt_H"]["dim_X_m"] == 2

    def test_text_format_uses_standard_notation(self, capsys, tmp_path):
        path = write_example(capsys, tmp_path, "so3-collinear")
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0
        assert "s(G,H,mu)" in out
        assert "N1_tilde" in out
        assert "h_perp_mu" in out

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        path = write_example(capsys, tmp_path, "so3xso3-diagonal")
        _, out1, _ = run_cli(capsys, "decompose", str(path), "--format", "json")
        _, out2, _ = run_cli(capsys, "decompose", str(path), "--format", "json")
        assert out1.encode() == out2.encode()

    def test_invalid_instance_exit_1(self, capsys, tmp_path):
        path = write_example(capsys, tmp_path, "so3-generic")
        doc = json.loads(path.read_text())
        doc["gm_basis"] = [["0", "1", "0"]]  # does not stabilize mu = e3*
        doc["slice"]["action"] = [[["0", "0"], ["0", "0"]]]
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 1
        assert "gm_in_g_mu" in err

    def test_failed_check_exit_1_with_named_fail(self, capsys, tmp_path,
                                                 monkeypatch):
        path = write_example(capsys, tmp_path, "so3-generic")
        exact = dec.slice_form
        monkeypatch.setattr(
            dec, "slice_form",
            lambda model: BilinearForm(exact(model).gram.scale(2)))
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("FAIL sliceform.block_diagonal:")


class TestVerify:
    def test_single_instance(self, capsys, tmp_path):
        path = write_example(capsys, tmp_path, "so3-generic")
        code, out, _ = run_cli(capsys, "verify", str(path), "--samples", "3")
        assert code == 0
        assert "checks passed" in out

    def test_all_examples_has_many_named_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all-examples",
                               "--samples", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        per_instance = {}
        for c in payload["checks"]:
            label = c["name"].split(":")[0]
            per_instance[label] = per_instance.get(label, 0) + 1
        assert len(per_instance) == len(EXAMPLE_NAMES)
        assert all(count >= 40 for count in per_instance.values())

    def test_noninvariant_ip_fails_at_validation(self, capsys, tmp_path):
        path = write_example(capsys, tmp_path, "so3xso3-diagonal")
        doc = json.loads(path.read_text())
        diag = [["0"] * 6 for _ in range(6)]
        for i in range(6):
            diag[i][i] = str(i + 1)
        doc["inner_product"] = diag
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert "validate.ip_ad_gm_invariant" in out

    def test_exit_code_matches_report(self, capsys, tmp_path):
        path = write_example(capsys, tmp_path, "torus")
        code, out, _ = run_cli(capsys, "verify", str(path),
                               "--samples", "2", "--format", "json")
        payload = json.loads(out)
        assert (code == 0) == payload["passed"]
        assert (code == 0) == all(c["passed"] for c in payload["checks"])

    def test_needs_path_or_all_examples(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2

    def test_negative_samples_is_usage_error(self, capsys, tmp_path):
        # Zero samples would pass the sampled checks without testing a point.
        path = write_example(capsys, tmp_path, "so3-generic")
        for samples in ("-3", "0"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", str(path), "--samples", samples])
            assert exc.value.code == 2
            _, err = capsys.readouterr()
            assert "--samples" in err


class TestModuleEntryPoint:
    def test_python_dash_m_smoke(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "wittartin", "example", "so3-generic"],
            capture_output=True, text=True)
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["dim"] == 3
