"""The command-line surface: exit codes, determinism, catalog round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from instances import zero_slice_block

from wittartin import decomposition as dec
from wittartin import pointmodel as pm
from wittartin import splitting, tube
from wittartin.catalog import EXAMPLE_NAMES, build_example
from wittartin.cli import main
from wittartin.exactlin import Subspace
from wittartin.report import check_line
from wittartin.splitting import Check

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_VERIFY = ROOT / "tests" / "golden" / "verify-all-examples.json"


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

    @pytest.mark.parametrize("option", ["--dim", "--subdim"])
    def test_size_of_a_fixed_size_example_is_usage_error(self, capsys,
                                                          option):
        code, out, err = run_cli(capsys, "example", "so3-generic",
                                 option, "4")
        assert code == 2
        assert out == ""
        assert "'so3-generic' has a fixed size" in err


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

    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
    def test_malformed_path_exit_2_with_error_line(self, capsys, tmp_path,
                                                   case):
        path = tmp_path / "instance.json"
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(b'{"format": "\xff"}')
        for command in ("check", "decompose", "verify"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 2, command
            assert out == "" and err.startswith("error: "), (command, err)

    @pytest.mark.parametrize("command", ["check", "decompose", "verify"])
    def test_deeply_nested_json_exit_2_with_error_line(self, capsys, tmp_path,
                                                       command):
        # json raises RecursionError on nesting this deep, not a decode error.
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: JSON nested too deeply"]

    @pytest.mark.parametrize("where", ["dim", "slice.dim"])
    def test_boolean_dim_exit_2_with_error_line(self, capsys, tmp_path,
                                                where):
        # Each document loads when the boolean is the integer 1.
        if where == "dim":
            doc = {"format": "wittartin-instance/1", "dim": True,
                   "structure_constants": [[["0"]]], "h_basis": [],
                   "gm_basis": [], "mu": ["1"], "inner_product": "identity",
                   "slice": None}
        else:
            doc = build_example("so3-generic")
            doc["slice"] = {"dim": True, "omega": [["0"]], "action": []}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "must be a nonnegative integer" in err

    @pytest.mark.parametrize("command", ["check", "decompose", "verify"])
    def test_exponent_entry_exit_2_with_error_line(self, tmp_path, command):
        # Fraction would build 10**999999999 from this entry; the documented
        # grammar rejects it.  A subprocess with a timeout turns a hang
        # into a failure.
        doc = build_example("so3-generic")
        doc["mu"] = ["0", "1e999999999", "1"]
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(doc))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "wittartin", command, str(path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.splitlines() == [
            "error: mu[1]: bad rational '1e999999999' "
            "(Invalid literal for Fraction: '1e999999999')"]

    def test_zero_dimensional_instance_passes_everywhere(self, capsys,
                                                         tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "format": "wittartin-instance/1", "dim": 0,
            "structure_constants": [], "h_basis": [], "gm_basis": [],
            "mu": []}))
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 0 and json.loads(out)["passed"] is True
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert out.splitlines()[-1] == "69/69 checks passed"
        code, out, _ = run_cli(capsys, "decompose", str(path),
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["dims"].values()) == {0}
        assert all(c["passed"] for c in doc["checks"])


def _gm_off_the_stabilizer(doc):
    doc["gm_basis"] = [["0", "1", "0"]]  # does not stabilize mu = e3*
    doc["slice"]["action"] = [[["0", "0"], ["0", "0"]]]


def _rep(*diagonal):
    return lambda doc: doc.update(gm_component_reps=[[
        [str(x) if i == j else "0" for j in range(3)]
        for i, x in enumerate(diagonal)]])


def _zero_slice_omega(doc):
    doc["slice"]["omega"] = [["0", "0"], ["0", "0"]]


# (example, edit of its doc, a point form with a radical injected,
#  the first failure's name and detail).
FAULTY_DOCS = {
    "gm-in-g-mu": ("so3-generic", _gm_off_the_stabilizer, False,
                   "validate.gm_in_g_mu",
                   "gm basis vector 0 does not stabilize mu"),
    "zero-rep": ("so3-collinear", _rep(0, 0, 0), False,
                 "validate.gm_component_rep_0_isometry",
                 "entry (0, 0) of R^T G R for rep 0 is 0, expected 1"),
    "degenerate-slice-omega": ("so3-generic", _zero_slice_omega, False,
                               "validate.slice_omega_nondegenerate",
                               "the slice omega has a 2-dimensional radical"),
    "non-isometric-rep": ("so3-collinear", _rep(1, 1, 2), False,
                          "validate.gm_component_rep_0_isometry",
                          "entry (2, 2) of R^T G R for rep 0 is 4, expected 1"),
    "point-form-radical": ("so3-generic", lambda doc: None, True,
                           "model.omega_nondegenerate",
                           "the point form has a 2-dimensional radical"),
}


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

    def test_json_instance_carries_component_reps(self, capsys, tmp_path):
        path = write_example(capsys, tmp_path, "so3-collinear")
        doc = json.loads(path.read_text())
        doc["gm_component_reps"] = [[["0", "-1", "0"], ["1", "0", "0"],
                                     ["0", "0", "1"]]]
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "decompose", str(path),
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["instance"]["gm_component_reps"] \
            == doc["gm_component_reps"]

    def test_invalid_instance_exit_1(self, capsys, tmp_path):
        path = write_example(capsys, tmp_path, "so3-generic")
        doc = json.loads(path.read_text())
        doc["gm_basis"] = [["0", "1", "0"]]  # does not stabilize mu = e3*
        doc["slice"]["action"] = [[["0", "0"], ["0", "0"]]]
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 1
        assert "gm_in_g_mu" in err

    @pytest.mark.parametrize("case", FAULTY_DOCS)
    def test_faulty_doc_fails_once_where_verify_fails_first(
            self, capsys, tmp_path, monkeypatch, case):
        example, edit, radical, name, detail = FAULTY_DOCS[case]
        path = write_example(capsys, tmp_path, example)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        if radical:
            monkeypatch.setattr(pm, "build_model",
                                zero_slice_block(pm.build_model))
        code, out, err = run_cli(capsys, "decompose", str(path))
        # "FAIL <name>", and ": <detail>" only when there is a detail.
        line = f"FAIL {name}: {detail}" if detail else f"FAIL {name}"
        assert (code, out, err) == (1, "", line + "\n")
        code, out, _ = run_cli(capsys, "verify", str(path), "--samples", "1")
        assert code == 1
        first = next(x for x in out.splitlines() if x.startswith("FAIL "))
        assert first == check_line(Check(f"{path}:{name}", False, detail))

    def test_failed_check_exit_1_with_named_fail(self, capsys, tmp_path,
                                                 monkeypatch):
        path = write_example(capsys, tmp_path, "so3-generic")
        exact = dec.slice_form
        monkeypatch.setattr(dec, "slice_form",
                            lambda model: exact(model).scale(2))
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("FAIL sliceform.block_diagonal:")

    def test_chain_that_cannot_be_built_exit_1_with_named_fail(
            self, capsys, tmp_path, monkeypatch):
        # g_mu + a is then outside the Chu-orthogonal of ntilde + s.
        path = write_example(capsys, tmp_path, "so3-generic")
        monkeypatch.setattr(splitting, "perp_under_form",
                            lambda form, U: Subspace.zero(U.ambient_dim))
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("FAIL chain.builds: ")
        assert "Traceback" not in err

    def test_model_that_cannot_be_built_exit_1_with_named_fail(
            self, capsys, tmp_path, monkeypatch):
        def degenerate(chain):
            raise pm.DegenerateModel("gm + m + n do not form a basis of g")

        path = write_example(capsys, tmp_path, "so3-generic")
        monkeypatch.setattr(pm, "build_model", degenerate)
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert code == 1
        assert out == ""
        assert err == "FAIL model.builds: gm + m + n do not form a basis of g\n"


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

    def test_path_with_all_examples_is_usage_error(self, capsys, tmp_path):
        # --all-examples would otherwise ignore the file without a word.
        path = write_example(capsys, tmp_path, "so3-generic")
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(path), "--all-examples"])
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert "not both" in err

    def test_bad_instance_data_gives_json_payload(self, capsys, tmp_path):
        path = write_example(capsys, tmp_path, "so3-generic")
        doc = json.loads(path.read_text())
        doc["h_basis"] = doc["h_basis"] * 2
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path), "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["format"] == "wittartin-checks/1"
        assert payload["passed"] is False
        assert [c["name"] for c in payload["checks"]] == ["h_basis_independent"]
        assert (code, out) == run_cli(capsys, "check", str(path))[:2]
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert out.startswith("FAIL h_basis_independent: ")

    def test_all_examples_json_matches_golden_file(self, capsys):
        # Every check name, result and detail, the float tube details too.
        code, out, _ = run_cli(capsys, "verify", "--all-examples",
                               "--format", "json")
        assert code == 0
        assert out.encode() == GOLDEN_VERIFY.read_bytes()

    @pytest.mark.parametrize("where", ["mu", "structure_constants"])
    def test_rational_beyond_float_range_fails_the_float_checks(
            self, capsys, tmp_path, monkeypatch, where):
        # A valid instance that check and decompose accept.  The float tube
        # check cannot convert a mu of 10**400 and names the value instead
        # of raising OverflowError.  The equivariance check reads mu only
        # through the G_m identity, so mu is scaled on an instance with
        # g_m != 0, where k = exp(zeta) still fixes it.  Brackets of
        # 10**400 pass: xi is scaled exactly, before any float conversion,
        # to a coad(-xi) of norm at most 1/2, whose entries all fit a
        # float; a halved exponent still fails there.  The momentum map
        # equation is exact and passes.
        example = "so3xso3-diagonal" if where == "mu" else "so3-generic"
        path = write_example(capsys, tmp_path, example)
        doc = json.loads(path.read_text())
        huge = "1" + "0" * 400
        if where == "mu":
            doc["mu"][2] = doc["mu"][5] = huge
        else:
            doc["structure_constants"] = [
                [[{"1": huge, "-1": "-" + huge}.get(x, x) for x in row]
                 for row in plane] for plane in doc["structure_constants"]]
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "check", str(path))[0] == 0
        assert run_cli(capsys, "decompose", str(path))[0] == 0

        def verify_failures():
            code, out, _ = run_cli(capsys, "verify", str(path), "--samples",
                                   "3", "--format", "json")
            checks = json.loads(out)["checks"]
            assert len(checks) == 69
            return code, {c["name"].split(":")[-1]: c["detail"]
                          for c in checks if not c["passed"]}

        code, failed = verify_failures()
        if where == "structure_constants":
            assert (code, failed) == (0, {})
            exact = tube.expm
            monkeypatch.setattr(tube, "expm", lambda A, v, *rest: exact(
                [[x / 2 for x in row] for row in A], v, *rest))
            code, failed = verify_failures()
            assert code == 1 and sorted(failed) == ["tube.equivariance"]
            assert "; sample 0: d/dt exp(tA) w at t = 1 misses A exp(A) w " \
                "by " in failed["tube.equivariance"]
            return
        assert code == 1
        assert sorted(failed) == ["tube.equivariance"]
        for detail in failed.values():
            assert detail.startswith("the exact value ")
            assert detail.endswith(" is out of float range")
            assert "0" * 8 in detail and len(detail) < 100

    def test_mu_beyond_float_range_with_gm_zero_passes_every_check(
            self, capsys, tmp_path):
        # With g_m = 0 the equivariance check is the ODE test of the
        # exponential of coad(-xi), which does not read mu, and every
        # other check is exact: no check converts mu to a float.
        path = write_example(capsys, tmp_path, "so3-generic")
        doc = json.loads(path.read_text())
        doc["mu"][2] = "1" + "0" * 400
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path), "--samples", "3",
                               "--format", "json")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert len(checks) == 69 and all(c["passed"] for c in checks)

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
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-m", "wittartin", "example", "so3-generic"],
            capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["dim"] == 3
