"""Every check is computed, so `python -O` changes no result.

`-O` strips `assert` statements.  The package therefore holds none, and an
injected fault is a named FAIL with and without the flag.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Doubles every slice-momentum quadratic form, then runs the check suite.
DOUBLED_FORMS = """
from wittartin import decomposition, verify
from wittartin.catalog import build_example
from wittartin.instancefile import from_dict

exact = decomposition.slice_momentum_forms
decomposition.slice_momentum_forms = (
    lambda d: tuple(S.scale(2) for S in exact(d)))
inst = from_dict(build_example("so3xso3-diagonal"))
for c in verify.run_all(inst, samples=3):
    print("PASS" if c.passed else "FAIL", c.name)
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


def test_package_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "wittartin").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_doubled_momentum_forms_are_a_named_fail(flags):
    out = _python(*flags, "-c", DOUBLED_FORMS)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "FAIL momentum.quadratic_forms_symmetric" in lines
    assert len(lines) == 69


def test_verify_all_examples_is_the_same_under_O():
    plain = _python("-m", "wittartin", "verify", "--all-examples")
    optimized = _python("-O", "-m", "wittartin", "verify", "--all-examples")
    assert plain.returncode == 0, plain.stderr
    assert (optimized.returncode, optimized.stdout) == (0, plain.stdout)
