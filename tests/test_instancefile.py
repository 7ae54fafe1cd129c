"""Instance file parsing, serialization and error taxonomy."""

import copy
import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittartin import instancefile
from wittartin.catalog import (
    EXAMPLE_NAMES,
    all_examples,
    build_example,
    so3xso3_diagonal,
)
from wittartin.exactlin import ZERO, Matrix
from wittartin.instancefile import (
    InstanceDataError,
    InstanceFormatError,
    dumps,
    from_dict,
    loads,
    to_dict,
)
from wittartin.splitting import validate
from wittartin.verify import run_all

F = Fraction

# The README's example: so3-collinear with a quarter turn about e3.
QUARTER_TURN_DOC = dict(build_example("so3-collinear"), gm_component_reps=[
    [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]]])


def test_readme_instance_snippet_is_the_quarter_turn_doc():
    # The README's snippet elides the structure constants with "..."; every
    # other field, one per line, must be the doc the tests run.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("\n```", 1)[0]
    lines = block.splitlines()
    assert (lines[0], lines[-1]) == ("{", "}")
    fields = {}
    for line in lines[1:-1]:
        key, value = line.split(":", 1)
        fields[json.loads(key)] = value.strip().rstrip(",")
    assert fields.keys() == QUARTER_TURN_DOC.keys()
    elided = {key for key, value in fields.items() if "..." in value}
    assert elided == {"structure_constants"}
    for key in fields.keys() - elided:
        assert json.loads(fields[key]) == QUARTER_TURN_DOC[key], key


class TestRoundTrip:
    @pytest.mark.parametrize("name,doc", all_examples())
    def test_catalog_parses_and_validates(self, name, doc):
        inst = from_dict(doc)
        assert validate(inst).passed
        # The loader keeps only the nonzero constants; the writer's dense
        # view gives the document's table back.
        assert to_dict(inst)["structure_constants"] == doc["structure_constants"]

    def test_component_reps_survive_a_round_trip(self):
        inst = from_dict(QUARTER_TURN_DOC)
        again = from_dict(to_dict(inst))
        assert again == inst
        checks = run_all(inst)
        assert len(checks) == 75 and run_all(again) == checks

    def test_every_corpus_and_catalog_instance_round_trips(self):
        from corpus import build_corpus
        insts = ([from_dict(doc) for _, doc in all_examples()]
                 + [from_dict(QUARTER_TURN_DOC)] + build_corpus())
        for inst in insts:
            again = from_dict(to_dict(inst))
            assert again == inst
            assert run_all(again, samples=1) == run_all(inst, samples=1)

    def test_non_isometric_rep_loads_unchanged_and_fails_validation(self):
        # diag(1, 1, 2) is invertible but scales e3: R^T R = diag(1, 1, 4).
        reps = [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]]
        inst = from_dict(dict(build_example("so3-collinear"),
                              gm_component_reps=reps))
        assert inst.ip.gram == Matrix.identity(3)
        assert to_dict(inst)["gm_component_reps"] == reps
        assert from_dict(to_dict(inst)) == inst
        failed = [(c.name, c.detail) for c in run_all(inst) if not c.passed]
        assert failed == [
            ("validate.gm_component_rep_0_isometry",
             "entry (2, 2) of R^T G R for rep 0 is 4, expected 1"),
            ("validate.gm_component_rep_0_automorphism",
             "R [e_0, e_1] is not [R e_0, R e_1] for rep 0"),
            ("validate.gm_component_rep_0_fixes_mu",
             "coordinate 2 of R^T mu for rep 0 is 2, expected 1")]

    @pytest.mark.parametrize("diagonal", [("1", "1", "-1"), ("-1", "-1", "-1")],
                             ids=["reflection", "minus_identity"])
    def test_isometric_rep_that_is_not_ad_of_g_m_fails_validation(
            self, diagonal):
        # diag(1, 1, -1) and -I are isometries of so(3), but neither is an
        # automorphism (both send [e_0, e_1] = e_2 to -e_2, while
        # [R e_0, R e_1] = e_2), and neither fixes mu = e_3*.
        reps = [[[x if i == j else "0" for j in range(3)]
                 for i, x in enumerate(diagonal)]]
        inst = from_dict(dict(build_example("so3-collinear"),
                              gm_component_reps=reps))
        failed = [(c.name, c.detail) for c in run_all(inst) if not c.passed]
        assert failed == [
            ("validate.gm_component_rep_0_automorphism",
             "R [e_0, e_1] is not [R e_0, R e_1] for rep 0"),
            ("validate.gm_component_rep_0_fixes_mu",
             "coordinate 2 of R^T mu for rep 0 is -1, expected 1")]

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_each_build_is_a_fresh_document(self, name):
        # Editing every list of one build in place changes no later build.
        expected = {n: copy.deepcopy(build_example(n)) for n in EXAMPLE_NAMES}

        def edit(data):
            for x in data.values() if isinstance(data, dict) else data:
                if isinstance(x, (dict, list)):
                    edit(x)
            if isinstance(data, list):
                data.append("7")

        edit(build_example(name))
        assert {n: build_example(n) for n in EXAMPLE_NAMES} == expected

    def test_dump_load_dump_is_stable(self):
        doc = so3xso3_diagonal()
        text = dumps(doc)
        inst = loads(text)
        text2 = dumps(to_dict(inst))
        inst2 = loads(text2)
        assert to_dict(inst2) == to_dict(inst)
        assert dumps(to_dict(inst2)) == text2


class TestFormatErrors:
    def test_bad_json_reports_line(self):
        with pytest.raises(InstanceFormatError, match="line"):
            loads("{not json")

    def test_wrong_format_string(self):
        with pytest.raises(InstanceFormatError, match="format"):
            from_dict({"format": "something-else"})

    def test_missing_mu(self):
        doc = build_example("so3-generic")
        del doc["mu"]
        with pytest.raises(InstanceFormatError, match="mu"):
            from_dict(doc)

    def test_bad_rational_string(self):
        doc = build_example("so3-generic")
        for bad in ("abc", "1/0", ""):
            doc["mu"] = ["0", "0", bad]
            with pytest.raises(InstanceFormatError, match="mu"):
                from_dict(doc)

    def test_wrong_vector_length(self):
        doc = build_example("so3-generic")
        doc["h_basis"] = [["1", "0"]]
        with pytest.raises(InstanceFormatError, match="h_basis"):
            from_dict(doc)


def line_doc(dim=1):
    """The abelian line with mu = 1 and no slice: a valid instance."""
    return {"format": "wittartin-instance/1", "dim": dim,
            "structure_constants": [[["0"]]], "h_basis": [], "gm_basis": [],
            "mu": ["1"], "inner_product": "identity", "slice": None}


class TestBooleanDims:
    # JSON true loads as a Python bool, which is an int equal to 1.
    def test_boolean_dim_is_rejected(self):
        assert validate(from_dict(line_doc())).passed
        with pytest.raises(InstanceFormatError,
                           match="^field 'dim' must be a nonnegative integer$"):
            from_dict(line_doc(dim=True))

    def test_boolean_slice_dim_is_rejected(self):
        doc = build_example("so3-generic")
        doc["slice"] = {"dim": 1, "omega": [["0"]], "action": []}
        assert from_dict(doc).slice_rep.dim == 1
        doc["slice"]["dim"] = True
        with pytest.raises(InstanceFormatError,
                           match=r"^'slice\.dim' must be a nonnegative integer$"):
            from_dict(doc)


class TestDataErrors:
    def test_non_jacobi_constants_name_the_triple(self):
        doc = build_example("so3-generic")
        # Antisymmetric but non-Jacobi structure constants.
        c = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2], c[1][0][2] = "1", "-1"
        c[0][2][0], c[2][0][0] = "1", "-1"
        c[1][2][1], c[2][1][1] = "1", "-1"
        doc["structure_constants"] = c
        with pytest.raises(InstanceDataError, match="triple"):
            from_dict(doc)
        try:
            from_dict(doc)
        except InstanceDataError as e:
            assert e.check_name == "structure_constants"

    def test_dependent_gm_basis(self):
        doc = so3xso3_diagonal()
        doc["gm_basis"] = doc["gm_basis"] + [
            [str(2 * int(x)) for x in doc["gm_basis"][0]]]
        doc["slice"]["action"] = doc["slice"]["action"] * 2
        with pytest.raises(InstanceDataError, match="dependent"):
            from_dict(doc)

    def test_indefinite_inner_product(self):
        doc = build_example("so3-generic")
        doc["inner_product"] = [["1", "0", "0"], ["0", "-1", "0"],
                                ["0", "0", "1"]]
        with pytest.raises(InstanceDataError):
            from_dict(doc)

    def test_neg_killing_on_abelian_is_rejected(self):
        doc = build_example("torus", dim=3, subdim=1)
        doc["inner_product"] = "neg_killing"
        with pytest.raises(InstanceDataError):
            from_dict(doc)


class TestPresetsAndRebasing:
    def test_neg_killing_on_so3_is_twice_identity(self):
        doc = build_example("so3-generic")
        doc["inner_product"] = "neg_killing"
        inst = from_dict(doc)
        assert inst.ip.gram.entries[0][0] == F(2)
        assert validate(inst).passed

    def test_actions_rebased_to_canonical_gm_basis(self):
        doc = so3xso3_diagonal()
        # Scale the given gm basis vector by 2: the canonical basis vector is
        # half of it, so the action matrix must come out halved.
        doc["gm_basis"] = [[str(2 * int(x)) for x in doc["gm_basis"][0]]]
        inst = from_dict(doc)
        A = inst.slice_rep.action[0]
        assert A.entries[0][1] == F(-1, 2)
        assert validate(inst).passed

    def test_gm_component_reps_are_used(self):
        doc = build_example("so3-collinear")
        # A quarter turn about e3 leaves every chain subspace invariant.
        doc["gm_component_reps"] = [[["0", "-1", "0"], ["1", "0", "0"],
                                     ["0", "0", "1"]]]
        inst = from_dict(doc)
        assert len(inst.gm_component_reps) == 1
        assert inst.ip.gram == Matrix.identity(3)  # as written, not averaged
        report = validate(inst)
        assert report.passed
        from wittartin.splitting import build_chain, chain_checks
        chain = build_chain(inst)
        rep_checks = [c for c in chain_checks(chain)
                      if "component_rep" in c.name]
        assert rep_checks and all(c.passed for c in rep_checks)

    def test_missing_slice_defaults_to_trivial(self):
        doc = build_example("so3-generic")
        doc["slice"] = None
        inst = from_dict(doc)
        assert inst.slice_rep.dim == 0


# The parser before entries were read through a per-document memo: every
# entry parsed on its own by Fraction, every location formatted eagerly.
# Kept as the reference for the differential below.

def ref_parse_fraction(x, where):
    if isinstance(x, bool):
        raise InstanceFormatError(f"{where}: booleans are not numbers")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise InstanceFormatError(f"{where}: bad rational {x!r} ({e})")
    raise InstanceFormatError(
        f"{where}: expected a rational string or integer, got {type(x).__name__}")


def ref_parse_vector(v, length, where):
    if not isinstance(v, list) or len(v) != length:
        raise InstanceFormatError(f"{where}: expected a list of length {length}")
    return tuple(ref_parse_fraction(x, f"{where}[{i}]") for i, x in enumerate(v))


def ref_parse_matrix(m, rows, cols, where):
    if not isinstance(m, list) or len(m) != rows:
        raise InstanceFormatError(f"{where}: expected {rows} rows")
    data = [ref_parse_vector(r, cols, f"{where}[{i}]") for i, r in enumerate(m)]
    return Matrix.from_rows(data, cols=cols)


def _where(path):
    return str(path[0]) + "".join(f"[{i}]" for i in path[1:])


def ref_from_dict(doc):
    """from_dict with the reference parser in place of the memoized one."""
    def vector(v, length, memo, *path):
        return ref_parse_vector(v, length, _where(path))

    def matrix(m, rows, cols, memo, *path):
        return ref_parse_matrix(m, rows, cols, _where(path))

    with patch.object(instancefile, "_parse_vector", vector), \
            patch.object(instancefile, "_parse_matrix", matrix):
        return from_dict(doc)


def ref_nonzero(doc):
    """LieAlgebra.nonzero as a scan of every entry of the document's table."""
    sc = doc["structure_constants"]
    return tuple((i, j, k, Fraction(x)) for i, ci in enumerate(sc)
                 for j, cij in enumerate(ci) for k, x in enumerate(cij) if Fraction(x))


def outcome(parse, doc):
    try:
        return parse(doc)
    except (InstanceFormatError, InstanceDataError) as e:
        return type(e), str(e)


def rational_slots(doc):
    """(container, key) of every rational entry of doc, in parse order."""
    def leaves(x):
        if isinstance(x, list) and x and not isinstance(x[0], list):
            yield from ((x, k) for k in range(len(x)))
        elif isinstance(x, list):
            for y in x:
                yield from leaves(y)

    fields = [doc.get(k) for k in ("structure_constants", "h_basis",
                                   "gm_basis", "mu", "inner_product",
                                   "gm_component_reps")]
    if isinstance(doc.get("slice"), dict):
        fields += [doc["slice"].get("omega"), doc["slice"].get("action")]
    return [slot for f in fields for slot in leaves(f)]


def respell(x, rng):
    """Another spelling of the rational x inside the documented grammar."""
    q = Fraction(x)
    k = rng.randint(1, 3)
    return rng.choice([
        str(q),
        f"{q.numerator * k}/{q.denominator * k}",
        ("+" if q >= 0 else "-") + "0" + str(abs(q)),
        q.numerator if q.denominator == 1 else str(q),
        "-0" if q == 0 else str(q),
    ])


BASE_DOCS = [doc for _, doc in all_examples()] + [
    {"format": "wittartin-instance/1", "dim": 0, "structure_constants": [],
     "h_basis": [], "gm_basis": [], "mu": []},
    QUARTER_TURN_DOC,
    dict(build_example("so3-generic"),
         inner_product=[["2", "0", "0"], ["0", "1/2", "0"], ["0", "0", "3"]]),
]
BAD_ENTRIES = ["abc", "", "1/0", "-3/0", "1/-2", "/2", "2/", "--1",
               True, False, 1.5, 0.0, None, [], {}]


class TestMemoizedParser:
    @settings(max_examples=150, deadline=None)
    @given(base=st.sampled_from(range(len(BASE_DOCS))), rng=st.randoms(),
           bad=st.none() | st.sampled_from(BAD_ENTRIES), data=st.data())
    def test_differential_against_reference_parser(self, base, rng, bad, data):
        doc = copy.deepcopy(BASE_DOCS[base])
        slots = rational_slots(doc)
        for container, key in slots:
            container[key] = respell(container[key], rng)
        if bad is not None and slots:
            # A bad entry after good ones in its vector, and again later:
            # a failed parse must not be remembered as a good one.
            first = data.draw(st.integers(0, len(slots) - 1), label="first")
            again = data.draw(st.integers(first, len(slots) - 1), label="again")
            for container, key in (slots[first], slots[again]):
                container[key] = bad
        got, want = outcome(from_dict, doc), outcome(ref_from_dict, doc)
        assert got == want
        if not isinstance(got, tuple):
            assert got.algebra.nonzero == ref_nonzero(doc)

    # "1e999999999" itself is left to tests/test_cli.py, which runs it in a
    # subprocess with a timeout: here a regression would hang the suite.
    @pytest.mark.parametrize("bad", ["1e3", "1E-2", "1.5", ".5", "1_000",
                                     " 1", "1 ", "1 / 2", "\u0661", "0x10",
                                     "inf", "nan"])
    def test_only_the_documented_grammar_is_a_rational(self, bad):
        doc = build_example("so3-generic")
        doc["mu"] = ["0", bad, "1"]
        with pytest.raises(InstanceFormatError) as e:
            from_dict(doc)
        assert str(e.value) == (f"mu[1]: bad rational {bad!r} "
                                f"(Invalid literal for Fraction: {bad!r})")

    @pytest.mark.parametrize("spelling,value", [
        ("+2", 2), ("-2", -2), ("007", 7), ("4/6", F(2, 3)), ("-6/3", -2),
        ("+10/05", 2), ("-0", 0), ("0/7", 0), (2, 2)])
    def test_grammar_spellings_parse_to_their_rational(self, spelling, value):
        doc = build_example("so3-generic")
        doc["mu"] = ["0", "0", spelling]
        assert from_dict(doc).mu == (0, 0, value)

    @pytest.mark.parametrize("zero", [0, "0", "-0", "0/7", "+00"])
    def test_every_zero_spelling_parses_to_the_shared_zero(self, zero):
        doc = build_example("so3-generic")
        doc["mu"] = [zero, "1", zero]
        doc["structure_constants"] = [
            [[zero if x == "0" else x for x in cij] for cij in ci]
            for ci in doc["structure_constants"]]
        inst = from_dict(doc)
        assert inst.mu[0] is ZERO and inst.mu[2] is ZERO
        zeros = [x for ci in inst.algebra.c for cij in ci for x in cij
                 if x == 0]
        assert len(zeros) == 21 and all(x is ZERO for x in zeros)

    def test_bool_is_rejected_where_the_memo_holds_its_integer(self):
        doc = build_example("so3-generic")
        doc["mu"] = ["1", True, "0"]
        with pytest.raises(InstanceFormatError,
                           match=r"^mu\[1\]: booleans are not numbers$"):
            from_dict(doc)

    @pytest.mark.parametrize("label", ["so3^5-gm", "torus(14,7)"])
    def test_one_fraction_parse_per_distinct_string(self, label):
        doc = BENCH_DOCS[label]
        parsed = []

        def counting(*args):
            if isinstance(args[0], str):
                parsed.append(args[0])
            return Fraction(*args)

        with patch.object(instancefile, "Fraction", counting):
            inst = from_dict(doc)
            from_dict(doc)
        strings = [c[k] for c, k in rational_slots(doc)]
        # Once per distinct string in each call: the memo lives in one call.
        assert sorted(parsed) == sorted(2 * list(set(strings)))
        assert len(strings) > 10 * len(parsed)
        assert inst == ref_from_dict(doc)


def _bench_docs():
    """The so(3)^5 with g_m and torus(14,7) docs of the decompose-mixed
    benchmark workload, from its own generator."""
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances",
        Path(__file__).resolve().parent.parent / "perfbench" / "instances.py")
    module = importlib.util.module_from_spec(spec)
    # dataclass() looks its module up in sys.modules while the module runs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
        del sys.modules[spec.name]
    return {"so3^5-gm": module.so3k_doc(5, True, random.Random(4242)),
            "torus(14,7)": module.torus_doc(14, random.Random(4242))}


BENCH_DOCS = _bench_docs()
