import contextlib
import copy
import io
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import PROBLEMS, cyclic_problem, load_raw, p1_into_p112_problem
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlift.cli import main
from coxlift.cyclo import CycOrder, CycScalar
from coxlift.errors import InputDataError
from coxlift.serialize import (
    emit_scalar,
    parse_element,
    parse_problem,
    replay_result,
)
from coxlift.mdstack import replay_tower


def run_cli(*argv):
    return main(list(argv))


def test_snf_command(capsys):
    assert run_cli("snf", "--matrix", "[[2]]") == 0
    assert capsys.readouterr().out.strip() == "Z/2"
    assert run_cli("snf", "--matrix", "[[2,0],[0,3]]") == 0
    assert capsys.readouterr().out.strip() == "Z/6"
    assert run_cli("snf", "--matrix", "[[0]]") == 0
    assert capsys.readouterr().out.strip() == "Z"
    assert run_cli("snf", "--matrix", "[]", "--ambient-rank", "2") == 0
    assert capsys.readouterr().out.strip() == "Z x Z"


def test_lift_command_half11(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = run_cli(
        "lift", str(PROBLEMS / "a1_into_half11.json"), "--out", str(out), "--log", "human"
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "divisor root: t, order 2" in text
    assert "x -> z1" in text and "y -> 0" in text
    doc = json.loads(out.read_text())
    assert doc["final_stack"]["pic_canonical"] == {"free_rank": 0, "invariants": [2]}
    assert doc["verification"]["passed"] is True


def test_lift_mu3_constraint_record(tmp_path):
    out = tmp_path / "res.json"
    assert run_cli("lift", str(PROBLEMS / "mu3.json"), "--out", str(out), "--log", "json") == 0
    doc = json.loads(out.read_text())
    step = doc["steps"][0]
    assert step["constraints"]["human"] == ["i+j ≡ 0 (mod 3)"]
    assert step["solution_count"] == 3
    assert step["alpha"] == [0, 0]


def test_free_class_group_lifts_and_verifies(tmp_path):
    problem, result = tmp_path / "p112.json", tmp_path / "res.json"
    problem.write_text(json.dumps(p1_into_p112_problem()))
    assert run_cli("lift", str(problem), "--out", str(result)) == 0
    assert json.loads(result.read_text())["final_stack"]["pic_canonical"] == {
        "free_rank": 1, "invariants": []}
    assert run_cli("verify", str(problem), str(result)) == 0


def test_missing_file_gives_exit_2(capsys):
    assert run_cli("lift", "no_such_file.json") == 2
    assert "error" in capsys.readouterr().err


def test_schema_violation_gives_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}))
    assert run_cli("lift", str(bad)) == 2
    err = capsys.readouterr().err
    assert "schema" in err
    bad.write_text("[1]")
    for argv in (["lift"], ["decompose"], ["factor", "--element", "{}"]):
        assert run_cli(argv[0], str(bad), *argv[1:]) == 2
        assert "JSON object" in capsys.readouterr().err


def test_empty_generator_list_rejected(tmp_path, capsys):
    raw = load_raw("a1_into_half11")
    raw["target"]["generators"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("lift", str(bad)) == 2
    assert "generator" in capsys.readouterr().err


def test_bad_declared_factorization_rejected(tmp_path, capsys):
    raw = load_raw("mu3")
    raw["source"]["declared_factorizations"][0]["factors"] = [["z1", 1], ["z2", 2]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("lift", str(bad)) == 2
    assert "verification" in capsys.readouterr().err


@pytest.mark.parametrize("command, problem, block, rule, pair", [
    # v^3*w rewrites to u*w^2 by one rule and to u^2*v by the other
    ("lift", "mu3", ("source",), {"lhs": {"v": 2, "w": 1}, "rhs": {"u": 2}},
     "v^3 -> 1*u*w and v^2*w -> 1*u^2 are not confluent: "
     "their critical pair leaves 1*u*w^2 + -1*u^2*v"),
    ("decompose", "decompose_half11_root", ("decompose", "stack"),
     {"lhs": {"t": 1, "z": 2}, "rhs": {"z": 2}},
     "z^2 -> 1*t and t*z^2 -> 1*z^2 are not confluent: "
     "their critical pair leaves -1*t + 1*t^2"),
], ids=["source", "decompose-stack"])
def test_non_confluent_rules_rejected(tmp_path, capsys, command, problem, block, rule, pair):
    raw = load_raw(problem)
    ring = raw
    for key in block:
        ring = ring[key]
    ring["relations"].append({"lhs": rule["lhs"],
                              "rhs": {"terms": [{"c": "1", "m": rule["rhs"]}]}})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli(command, str(bad)) == 2
    assert pair in capsys.readouterr().err


def test_verify_command_roundtrip(tmp_path, capsys):
    out = tmp_path / "res.json"
    assert run_cli("lift", str(PROBLEMS / "mu4.json"), "--out", str(out), "--log", "json") == 0
    capsys.readouterr()
    assert run_cli(
        "verify", str(PROBLEMS / "mu4.json"), str(out), "--log", "human"
    ) == 0
    assert "[ok] homogeneity" in capsys.readouterr().out


def test_verify_command_flags_tampering(tmp_path, capsys):
    out = tmp_path / "res.json"
    run_cli("lift", str(PROBLEMS / "a1_into_half11.json"), "--out", str(out), "--log", "json")
    capsys.readouterr()
    doc = json.loads(out.read_text())
    doc["images"]["x"] = {"terms": [{"c": "1", "m": {"z1": 2}}]}
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert run_cli(
        "verify", str(PROBLEMS / "a1_into_half11.json"), str(tampered), "--log", "human"
    ) == 1
    assert "FAIL" in capsys.readouterr().out


def test_decompose_command(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = run_cli(
        "decompose", str(PROBLEMS / "decompose_half11_root.json"),
        "--out", str(out), "--log", "human",
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert [s["kind"] for s in doc["tower"]] == ["divisor"]
    assert doc["tower"][0]["order"] == 2


def test_factor_command(capsys):
    assert run_cli(
        "factor", str(PROBLEMS / "mu3.json"),
        "--element", '{"terms":[{"c":"1","m":{"u":2}}]}',
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["factors"] == [["1*u", 2]]


def test_result_replay_reproduces_final_stack(tmp_path):
    for name in ("a1_into_half11", "mu3", "mu4", "origin_into_half11", "mu3_zero"):
        out = tmp_path / f"{name}.json"
        assert run_cli(
            "lift", str(PROBLEMS / f"{name}.json"), "--out", str(out), "--log", "json"
        ) == 0
        doc = json.loads(out.read_text())
        spec = parse_problem(str(PROBLEMS / f"{name}.json"))
        stack = replay_result(spec, doc)
        assert [
            {"name": n, "degree": list(d.coords)} for n, d in stack.cox_ring.generators
        ] == doc["final_stack"]["generators"]
        assert {
            "ambient_rank": stack.pic.ambient_rank,
            "relations": [list(r) for r in stack.pic.relations.entries],
        } == doc["final_stack"]["pic"]
        from coxlift.serialize import _emit_rules

        assert _emit_rules(stack.cox_ring.rules) == doc["final_stack"]["rules"]


def test_step_cap_flag_reaches_the_rings(capsys):
    # mu3 needs more than one rewrite step while it is parsed
    assert run_cli("lift", str(PROBLEMS / "mu3.json"), "--step-cap", "1") == 2
    assert "rewriting diverged" in capsys.readouterr().err
    assert run_cli("lift", str(PROBLEMS / "mu3.json"), "--step-cap", "50", "--log", "json") == 0


def test_lift_and_decompose_reject_each_others_documents(capsys):
    assert run_cli("decompose", str(PROBLEMS / "mu3.json")) == 2
    assert run_cli("lift", str(PROBLEMS / "decompose_half11_root.json")) == 2
    assert "is not a lift document" in capsys.readouterr().err


@pytest.mark.parametrize("matrix", ['[[1,"a"]]', "5", "[[2.5]]", "[[true]]", "[1, 2]"])
def test_snf_rejects_non_integer_matrices(matrix, capsys):
    assert run_cli("snf", "--matrix", matrix) == 2
    assert "must be" in capsys.readouterr().err


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("command,name,path,value", [
    ("lift", "a1_into_half11", ["target", "class_group", "relations"], [[2.5]]),
    ("lift", "a1_into_half11", ["target", "class_group", "ambient_rank"], True),
    ("lift", "a1_into_half11", ["target", "generators", 0, "degree"], [1.9]),
    ("lift", "a1_into_half11", ["target", "pic_subgroup"], [[1.0]]),
    ("lift", "a1_into_half11", ["base_morphism", "images", 0, "monomial", "x"], 2.0),
    ("lift", "mu3", ["source", "relations", 0, "lhs", "v"], "3"),
    ("decompose", "decompose_half11_root",
     ["decompose", "stack", "class_group", "relations"], [["2"]]),
])
def test_non_integer_group_data_is_rejected_not_truncated(tmp_path, capsys,
                                                          command, name, path, value):
    raw = load_raw(name)
    _set(raw, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli(command, str(bad)) == 2
    assert "must be an integer" in capsys.readouterr().err


DECLARED = ["source", "declared_factorizations", 0]


@pytest.mark.parametrize("name,path,value", [
    ("a1_into_half11", ["cyclotomic_order"], 2.9),
    ("mu3", [*DECLARED, "unit", "zeta"], 0.5),
    ("mu3", [*DECLARED, "unit"], {"order": 3.2, "coeffs": ["1"]}),
    ("mu3", [*DECLARED, "roots", 0, "order"], 3.7),
    ("mu3", [*DECLARED, "factors", 0, 1], 1.5),
    ("a1_into_half11", ["options", "step_cap"], "10000"),
    ("a1_into_half11", ["options", "spotcheck_bound"], 4.5),
])
def test_non_integer_scalar_and_option_fields_are_rejected(tmp_path, capsys, name, path, value):
    raw = load_raw(name)
    _set(raw, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("lift", str(bad)) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("rhs", [{"terms": []}, {"terms": [{}]}])
def test_rule_making_a_generator_zero_or_a_unit_is_rejected(tmp_path, capsys, rhs):
    raw = load_raw("decompose_half11_root")
    _set(raw, ["decompose", "stack", "relations", 0, "rhs"], rhs)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("decompose", str(bad)) == 2
    assert "makes a generator zero or a unit" in capsys.readouterr().err


@pytest.mark.parametrize("image", [{"terms": []}, {"terms": [{"c": "1", "m": {"u": 1}}]}])
def test_base_key_outside_the_picard_level_subring_is_rejected(tmp_path, capsys, image):
    """x has class 1 in Z/3, outside the trivial Picard subgroup, whether
    its image is zero or not."""
    raw = load_raw("mu3")
    raw["base_morphism"]["images"].append({"monomial": {"x": 1}, "image": image})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("lift", str(bad)) == 2
    assert "base key x is not in the Picard-level subring" in capsys.readouterr().err


def test_group_map_that_breaks_a_picard_relation_is_rejected(tmp_path, capsys):
    """With the source's class group made free, the Picard generator of
    order 2 maps to 1, of infinite order: no degree map exists on Pic."""
    raw = load_raw("identity_half11")
    raw["source"]["class_group"]["relations"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("lift", str(bad)) == 2
    assert "degree map is not well defined on the current subgroup" in capsys.readouterr().err


def test_negative_spotcheck_bound_is_rejected(tmp_path, capsys):
    """A negative bound would report a spot-check that compared nothing."""
    raw = load_raw("mu3")
    raw["options"] = {"spotcheck_bound": -1}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("lift", str(bad)) == 2
    assert "spotcheck_bound must not be negative" in capsys.readouterr().err
    assert run_cli("lift", str(PROBLEMS / "mu3.json"), "--spotcheck-bound=-1") == 2
    assert "spotcheck_bound must not be negative" in capsys.readouterr().err
    assert run_cli("lift", str(PROBLEMS / "mu3.json"), "--spotcheck-bound=0",
                   "--log", "json") == 0


@pytest.mark.parametrize("name,path,value", [
    ("mu3_zero", [0, "order"], 3.7),
    ("mu3_zero", [0, "class"], ""),
    ("a1_into_half11", [0, "order"], 2.5),
    ("mu3", [0, "roots", 0, "order"], 3.5),
    ("mu3", [0, "group_relations", 0, 0], 3.0),
])
def test_non_integer_tower_fields_are_rejected(tmp_path, capsys, name, path, value):
    problem = str(PROBLEMS / f"{name}.json")
    result = tmp_path / "res.json"
    assert run_cli("lift", problem, "--out", str(result), "--log", "json") == 0
    doc = json.loads(result.read_text())
    _set(doc["tower"], path, value)
    result.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", problem, str(result)) == 2
    assert "must be" in capsys.readouterr().err


def test_missing_tower_order_gives_exit_2(tmp_path, capsys):
    problem = str(PROBLEMS / "mu3_zero.json")
    result = tmp_path / "res.json"
    assert run_cli("lift", problem, "--out", str(result), "--log", "json") == 0
    doc = json.loads(result.read_text())
    del doc["tower"][0]["order"]
    result.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", problem, str(result)) == 2
    assert "tower step lacks the required field 'order'" in capsys.readouterr().err


@pytest.mark.parametrize("path,message", [
    ([*DECLARED, "roots", 0, "order"], "declared root lacks the required field 'order'"),
    (["target", "class_group"], "target lacks the required field 'class_group'"),
])
def test_missing_problem_field_gives_exit_2(tmp_path, capsys, path, message):
    raw = load_raw("mu3")
    *head, last = path
    block = raw
    for key in head:
        block = block[key]
    del block[last]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("lift", str(bad)) == 2
    assert message in capsys.readouterr().err


BASE_IMAGE = ["base_morphism", "images", 0]


@pytest.mark.parametrize("path,value,message", [
    ([*DECLARED, "factors", 0], ["z1"], "declared factor must be a [factor, exponent] pair"),
    ([*BASE_IMAGE, "image", "terms", 0], 5, "element term must be an object"),
    ([*BASE_IMAGE, "image", "terms", 0, "c"], "1/0", "term coefficient must be"),
    ([*BASE_IMAGE, "image", "terms", 0, "c"], "abc", "term coefficient must be"),
    ([*BASE_IMAGE, "monomial"], [1], "base image monomial must be an object"),
    (["options"], [], "problem field 'options' must be an object"),
    (["source", "assertions"], [], "source field 'assertions' must be an object"),
    (["source", "relations"], 5, "relations must be a list, got 5"),
    (["source", "irreducibles"], 5, "irreducibles must be a list, got 5"),
    (["target", "irrelevant"], 5, "irrelevant must be a list, got 5"),
    ([*DECLARED, "roots"], 5, "declared roots must be a list, got 5"),
    ([*DECLARED, "unit"], {"coeffs": 5}, "declared unit coefficients must be a list, got 5"),
    (["source", "declared_factorizations"], {},
     "declared_factorizations must be a list, got {}"),
    (["target", "class_group", "ambient_rank"], -1, "ambient rank must be nonnegative, got -1"),
], ids=["factor", "term", "coefficient-1/0", "coefficient-abc", "monomial", "options",
        "assertions", "relations", "irreducibles", "irrelevant", "roots", "unit-coeffs",
        "declared_factorizations", "negative-rank"])
def test_malformed_problem_field_gives_exit_2(tmp_path, capsys, path, value, message):
    raw = load_raw("mu3")
    _set(raw, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("lift", str(bad)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("path,value", [
    (["cyclotomic_order"], 100003),
    ([*BASE_IMAGE, "image", "terms", 0, "c"], {"coeffs": [1], "order": 100003}),
], ids=["problem", "scalar"])
def test_cyclotomic_order_above_the_maximum_gives_exit_2(tmp_path, capsys, path, value):
    """Phi_N is not built: the order is rejected before any arithmetic."""
    raw = load_raw("mu3")
    _set(raw, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    start = time.perf_counter()
    assert run_cli("lift", str(bad)) == 2
    assert time.perf_counter() - start < 0.5
    assert "exceeds the supported maximum 2000" in capsys.readouterr().err


def test_irreducible_mark_for_an_unknown_generator_gives_exit_2(tmp_path, capsys):
    raw = load_raw("mu3")
    raw["source"]["irreducibles"] = ["u", "q"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("lift", str(bad)) == 2
    assert "irreducible marks for unknown generators: ['q']" in capsys.readouterr().err


@pytest.mark.parametrize("side", ["target", "source"])
def test_generator_name_outside_the_identifier_form_gives_exit_2(tmp_path, capsys, side):
    """A generator named x*y would share its key with the monomial x*y."""
    raw = load_raw("a1_into_half11")
    raw[side]["generators"].append({"name": "x*y", "degree": [0] if side == "target" else []})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("lift", str(bad)) == 2
    assert "generator name 'x*y' is not of the form" in capsys.readouterr().err


def test_scalars_are_exact_or_rejected():
    """JSON floats and bools carry no exact rational, so they are rejected."""
    order = CycOrder(3)

    def parse_scalar(c):
        (got, _m), = parse_element({"terms": [{"c": c, "m": {}}]}, order).terms
        return got

    assert parse_scalar("1/3") == CycScalar.from_rational(order, Fraction(1, 3))
    assert parse_scalar(-2) == CycScalar.from_rational(order, Fraction(-2))
    for bad in (0.1, 1.0, True, False, {"coeffs": [0.5, "0"]}, {"coeffs": [True, 0]}):
        with pytest.raises(InputDataError, match="must be an integer or a"):
            parse_scalar(bad)


@pytest.mark.parametrize("N", [3, 5, 12])
def test_emitted_scalars_read_back_equal(N):
    """Every zeta_N^k and a dense scalar survive ``emit_scalar``, JSON and
    the document reader; the non-rational powers are written as {"zeta": k}."""
    order = CycOrder(N)
    dense = CycScalar(order, [1, 2, Fraction(-1, 3), 5][:order.degree])
    for s in [CycScalar.zeta(order, k) for k in range(N)] + [dense]:
        emitted = json.loads(json.dumps(emit_scalar(s)))
        if s == dense:
            assert emitted == {"order": N, "coeffs": [str(c) for c in s.coeffs]}
        elif not s.is_rational():
            assert set(emitted) == {"zeta"}
        (got, _m), = parse_element({"terms": [{"c": emitted, "m": {}}]}, order).terms
        assert got == s, (s, emitted)


def test_snf_rejects_a_negative_ambient_rank(capsys):
    assert run_cli("snf", "--matrix", "[]", "--ambient-rank", "-1") == 2
    assert "ambient rank must be nonnegative, got -1" in capsys.readouterr().err


def _lifted(tmp_path, name):
    """(problem path, result path, result document) of a bundled lift."""
    problem = str(PROBLEMS / f"{name}.json")
    result = tmp_path / "res.json"
    assert run_cli("lift", problem, "--out", str(result), "--log", "json") == 0
    return problem, result, json.loads(result.read_text())


@pytest.mark.parametrize("value", ["1", 1.5, True])
def test_verify_reads_group_map_as_integers(tmp_path, capsys, value):
    problem, result, doc = _lifted(tmp_path, "a1_into_half11")
    doc["group_map"][0][0] = value
    result.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", problem, str(result)) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_verify_rejects_images_of_unknown_generators(tmp_path, capsys):
    problem, result, doc = _lifted(tmp_path, "a1_into_half11")
    doc["images"]["bogus"] = doc["images"]["x"]
    result.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", problem, str(result)) == 2
    assert "unknown target generators ['bogus']" in capsys.readouterr().err


# one value of each JSON type; a substitution uses those of another type
JSON_VALUES = [5, "x", [], {}, None, 2.5, True, [5], {"a": 1}]


def _field_paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _field_paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def bundled_documents(tmp_path_factory):
    """(argv with the document's place left as None, document, its field paths)
    for every bundled problem and for the result document of every bundled lift."""
    tmp = tmp_path_factory.mktemp("lifted")
    docs = []
    for path in sorted(PROBLEMS.glob("*.json")):
        raw = json.loads(path.read_text())
        command = "decompose" if "decompose" in raw else "lift"
        docs.append(([command, None], raw, list(_field_paths(raw))))
        if command == "lift":
            result = tmp / path.name
            assert run_cli("lift", str(path), "--out", str(result), "--log", "json") == 0
            doc = json.loads(result.read_text())
            docs.append((["verify", str(path), None], doc, list(_field_paths(doc))))
    return tmp, docs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_field_of_another_type_never_crashes_the_cli(bundled_documents, data):
    """Replacing any one field of a bundled document with a value of another
    JSON type gives an exit code, never an uncaught exception."""
    tmp, docs = bundled_documents
    argv, doc, paths = data.draw(st.sampled_from(docs))
    path = data.draw(st.sampled_from(paths))
    original = doc
    for key in path:
        original = original[key]
    value = data.draw(st.sampled_from([v for v in JSON_VALUES
                                       if type(v) is not type(original)]))
    if path:
        doc = copy.deepcopy(doc)
        _set(doc, path, value)
    else:
        doc = value
    bad = tmp / "substituted.json"
    bad.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(*(str(bad) if a is None else a for a in argv))
    assert code in (0, 1, 2)


def _scale_image(doc, raw):
    doc["images"]["x"]["terms"][0]["c"] = "2"


def _shift_group_map(doc, raw):
    doc["group_map"][0][-1] += 1


def _scale_section(step, root=0):
    def change(doc, raw):
        entry = doc["tower"][step]
        entry.get("roots", [entry])[root]["section"]["terms"][0]["c"] = "2"
    change.__name__ = f"scale_section_{step}_{root}"
    return change


def _add_target_relation(doc, raw):
    """y^2 -> x^(2 deg y): one degree on both sides in every bundled target."""
    (ydeg,), = (g["degree"] for g in raw["target"]["generators"] if g["name"] == "y")
    raw["target"]["relations"].append(
        {"lhs": {"y": 2}, "rhs": {"terms": [{"c": "1", "m": {"x": 2 * ydeg}}]}})


def _drop_image(doc, raw):
    del doc["images"]["x"]


RESTRICTION, RELATION = ["restriction"], ["relation-preservation"]
DEGREE = ["homogeneity"]


def _tamper_id(value):
    if callable(value):
        return value.__name__.strip("_")
    if isinstance(value, list):
        return "+".join(value)
    return "exit-2" if " " in value else value


@pytest.mark.parametrize("name,change,expected", [
    ("a1_into_half11", _scale_image, RESTRICTION),
    ("a1_into_half11", _shift_group_map, DEGREE),
    ("a1_into_half11", _scale_section(0), RESTRICTION),
    ("a1_into_half11", _add_target_relation, RELATION),
    ("a1_into_half11", _drop_image, "generator x has no image"),
    ("identity_half11", _scale_image, RESTRICTION),
    ("identity_half11", _shift_group_map, [*DEGREE, "group-map"]),
    ("identity_half11", _add_target_relation, RELATION),
    ("mu3", _scale_image, RESTRICTION),
    ("mu3", _shift_group_map, DEGREE),
    ("mu3", _scale_section(0, 0),
     "tower root z1 is declared as the order-3 root of 1*u, not the order-3 root of 2*u"),
    ("mu3", _add_target_relation, RELATION),
    ("mu4", _scale_image, RESTRICTION),
    ("mu4", _shift_group_map, DEGREE),
    ("mu4", _scale_section(0, 1),
     "tower root z2 is declared as the order-2 root of 1*u, not the order-2 root of 2*u"),
    ("mu4", _scale_section(1), RESTRICTION),
    ("mu4", _add_target_relation, RELATION),
], ids=_tamper_id)
def test_one_change_to_a_bundled_lift_is_rejected(tmp_path, capsys, name, change, expected):
    """Changing one thing of a bundled lift fails exactly the expected checks
    (exit 1), or is an input error when the replayed stack contradicts the
    source's declared roots or an image is missing (exit 2).  The lifts of
    mu3_zero and origin_into_half11 map every generator to 0, so they have
    no scalar or section to change."""
    raw = load_raw(name)
    _problem, result, doc = _lifted(tmp_path, name)
    change(doc, raw)
    result.write_text(json.dumps(doc))
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(raw))
    capsys.readouterr()
    code = run_cli("verify", str(problem), str(result), "--log", "json")
    out = capsys.readouterr()
    if isinstance(expected, str):
        assert code == 2
        assert expected in out.err
    else:
        assert code == 1
        checks = json.loads(out.out)["verification"]["checks"]
        assert [c["name"] for c in checks if not c["passed"]] == expected


def test_deep_root_chain_verifies_under_a_small_step_cap(tmp_path, capsys):
    """x^12 -> prod_{i=1..8} (t - r_i) over A^1 with Cl = Z/12 lifts to
    x -> c * z_1 ... z_8, each z_i atop a chain of root rules.  One normal
    form of the restriction's product takes 765 steps; power by power, no
    normal form takes more than 3, so a cap of 100 suffices."""
    raw = cyclic_problem(12, (1, -2, 3, -4, 5, -6, 7, -8))
    raw["options"]["step_cap"] = 100
    problem = tmp_path / "f12m8.json"
    problem.write_text(json.dumps(raw))
    result = tmp_path / "res.json"
    assert run_cli("lift", str(problem), "--out", str(result), "--log", "json") == 0
    doc = json.loads(result.read_text())
    # the factorial spot-check is skipped on a ring of more than 6 generators
    assert [(c["name"], c["passed"]) for c in doc["verification"]["checks"]] == [
        ("homogeneity", True), ("relation-preservation", True), ("restriction", True),
        ("group-map", True)]
    capsys.readouterr()
    assert run_cli("verify", str(problem), str(result), "--log", "json") == 0


def test_base_morphism_lacking_a_picard_level_image_is_rejected(tmp_path, capsys):
    raw = load_raw("a1_into_half11")
    del raw["base_morphism"]["images"][2]  # y^2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("lift", str(bad)) == 2
    assert "base morphism misses images for ['y^2']" in capsys.readouterr().err


def test_base_image_of_the_wrong_degree_is_rejected(tmp_path, capsys):
    raw = load_raw("identity_half11")
    raw["base_morphism"]["images"][0]["image"]["terms"][0]["m"] = {"s": 2}  # x -> s^2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("lift", str(bad)) == 2
    assert ("base image of x has degree [2], expected the group-map image of its class"
            in capsys.readouterr().err)


def _drop_the_picard_subgroup(raw):
    raw["target"]["pic_subgroup"] = []
    raw["base_morphism"]["group_map"] = []


def _add_a_stack_generator_of_trivial_class(raw):
    raw["decompose"]["stack"]["generators"].append({"name": "w", "degree": [0]})


@pytest.mark.parametrize("command,name,edit,message", [
    ("lift", "p1_into_p112", _drop_the_picard_subgroup,
     "class group is not torsion over the Picard subgroup"),
    ("lift", "mu3", lambda raw: _set(raw, ["cyclotomic_order"], 0),
     "cyclotomic_order must be positive"),
    ("decompose", "decompose_half11_root", _add_a_stack_generator_of_trivial_class,
     "monomial w does not normalize into the coarse subring"),
], ids=["cl_z_without_pic", "cyclotomic_order_0", "key_outside_the_coarse_ring"])
def test_documents_failing_a_group_or_coarse_ring_check_give_exit_2(
        tmp_path, capsys, command, name, edit, message):
    """Cl = Z over a trivial Picard subgroup is not Q-factorial; w has the
    trivial class, so it is a Picard-level key, but it is no coarse generator."""
    raw = p1_into_p112_problem() if name == "p1_into_p112" else load_raw(name)
    edit(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli(command, str(bad)) == 2
    assert message in capsys.readouterr().err
