import hashlib
import json

import pytest

from quadalg.cli import builtin_ring, emit_table, parse_element, run
from quadalg.errors import InvalidRange


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classgroup(capsys):
    code, out, _ = invoke(capsys, "classgroup", "--delta", "-44")
    assert code == 0
    assert out.strip() == '{"h":3,"reps":[[1,0,11],[3,2,4],[3,-2,4]]}'


def test_compose(capsys):
    code, out, _ = invoke(capsys, "compose", "--delta", "-44", "[3,2,4]", "[3,2,4]")
    assert code == 0 and out.strip() == "[3,-2,4]"


def test_reduce(capsys):
    code, out, _ = invoke(capsys, "reduce", "[9,10,4]")
    assert code == 0 and out.strip() == "[3,2,4]"


def test_picmodconj(capsys):
    code, out, _ = invoke(capsys, "picmodconj", "--delta", "-44")
    assert code == 0
    assert json.loads(out) == {"count": 2,
                               "orbits": [[[1, 0, 11]], [[3, 2, 4], [3, -2, 4]]]}


def test_iso_zsqrt8_counterexample(capsys):
    code, out, _ = invoke(capsys, "iso", "--ring", "zsqrt8",
                          "--alg1", "r=0,s=-6", "--alg2", "r=w,s=-4")
    assert code == 0 and json.loads(out) == {"isomorphic": False}


def test_iso_over_z(capsys):
    code, out, _ = invoke(capsys, "iso", "--ring", "z",
                          "--alg1", "r=3,s=2", "--alg2", "r=1,s=0")
    assert code == 0
    assert json.loads(out) == {"isomorphic": True, "hom": {"u": 1, "v": -1}}


def test_iso_finite_ring_uses_bruteforce(capsys):
    code, out, _ = invoke(capsys, "iso", "--ring", "zmod4",
                          "--alg1", "r=0,s=-1", "--alg2", "r=0,s=-2")
    assert code == 0 and json.loads(out) == {"isomorphic": False}


def test_oriented_iso_biquad8_obstruction(capsys):
    code, out, _ = invoke(capsys, "oriented-iso", "--ring", "biquad8",
                          "--alg1", "r=X,s=2", "--alg2", "r=X,s=2",
                          "--theta1", "1", "--theta2", "3-Y")
    assert code == 0 and json.loads(out) == {"isomorphic": False}


def test_autos(capsys):
    code, out, _ = invoke(capsys, "autos", "--ring", "zmod8", "--alg", "r=0,s=-2")
    assert code == 0 and json.loads(out)["count"] == 8
    code, out, _ = invoke(capsys, "autos", "--ring", "zmod8", "--alg", "r=0,s=-2",
                          "--oriented")
    assert code == 0 and json.loads(out)["count"] == 2


def test_type_and_natural_type(capsys):
    code, out, _ = invoke(capsys, "type", "--ring", "zsqrt8", "--alg", "r=w,s=-4")
    assert code == 0 and json.loads(out) == {"delta": [24, 0], "parity": [0, 1]}
    code, out, _ = invoke(capsys, "natural-type", "[3,2,4]")
    assert code == 0 and json.loads(out) == {"delta": -44, "parity": [0]}


def test_validate_triple(capsys):
    code, out, _ = invoke(capsys, "validate-triple", "--ring", "z",
                          "--delta", "5", "--parity", "1")
    assert code == 0 and json.loads(out) == {"valid": True}
    code, out, _ = invoke(capsys, "validate-triple", "--ring", "z",
                          "--delta", "5", "--parity", "0")
    assert code == 0 and json.loads(out) == {"valid": False}


def test_form2ideal_and_back(capsys):
    code, out, _ = invoke(capsys, "form2ideal", "--delta", "-44", "[3,2,4]")
    assert code == 0
    ideal = json.loads(out)
    assert ideal == {"delta": -44, "pitilde": 0, "hnf": [[3, 2], [0, 1]]}
    code, out, _ = invoke(capsys, "ideal2form", json.dumps(ideal))
    assert code == 0
    a, b, c = json.loads(out)
    assert b * b - 4 * a * c == -44


def test_glue_check(capsys):
    payload = json.dumps({"cover": [2, 3], "cocycle": {"1,2": "3/2"},
                          "data": {"d": [-99, -44], "p": [1, 0]}})
    code, out, _ = invoke(capsys, "glue-check", payload)
    assert code == 0
    report = json.loads(out)
    assert all(item["ok"] for item in report)
    assert any(item["check"] == "transition_hom" for item in report)


def test_glue_check_from_file(tmp_path, capsys):
    path = tmp_path / "glue.json"
    path.write_text(json.dumps({"cover": [2, 3], "cocycle": {"1,2": 5},
                                "data": {"d": [-1100, -44], "p": [0, 0]}}))
    code, out, _ = invoke(capsys, "glue-check", "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert any(item["check"] == "cocycle_unit" and not item["ok"] for item in report)


def test_table(capsys):
    code, out, _ = invoke(capsys, "table", "--min", "-44", "--max", "-44")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,pitilde,h,picmod,reps"
    assert lines[1] == '-44,0,3,2,"[[1,0,11],[3,2,4],[3,-2,4]]"'
    code, out, _ = invoke(capsys, "table", "--min", "-4", "--max", "-3")
    rows = out.strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["-4", "-3"]
    assert all(r.split(",")[2] == "1" for r in rows)
    code, out, _ = invoke(capsys, "table", "--min", "-1", "--max", "-1")
    assert code == 0 and out.strip().splitlines() == ["delta,pitilde,h,picmod,reps"]


def test_table_json_format(capsys):
    code, out, _ = invoke(capsys, "table", "--min", "-4", "--max", "-3",
                          "--format", "json")
    rows = json.loads(out)
    assert [row["delta"] for row in rows] == [-4, -3]
    assert all(row["h"] == 1 for row in rows)


def test_table_golden_bytes():
    # SHA-256 of the printed table, trailing newline included: the output is frozen
    golden = [
        ((-3000, -3, "csv"),
         "edc340ac2e805966756ec5ef39afc519ad9c6eae47c48a3432a45ef08d77f268"),
        ((-400, -3, "json"),
         "b2356c585ea75d8e277968b43bdab2a1a57e27483dbec689b83ef23142da2714"),
    ]
    for args, digest in golden:
        out = emit_table(*args) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


def test_table_invalid_range():
    with pytest.raises(InvalidRange):
        emit_table(-3, -4)
    with pytest.raises(InvalidRange):
        emit_table(-4, 4)


def test_deterministic_output(capsys):
    _, first, _ = invoke(capsys, "table", "--min", "-60", "--max", "-40")
    _, second, _ = invoke(capsys, "table", "--min", "-60", "--max", "-40")
    assert first == second
    _, g1, _ = invoke(capsys, "classgroup", "--delta", "-71")
    _, g2, _ = invoke(capsys, "classgroup", "--delta", "-71")
    assert g1 == g2


def test_cli_matches_library(capsys):
    from quadalg.picard import class_group
    _, out, _ = invoke(capsys, "classgroup", "--delta", "-47")
    payload = json.loads(out)
    group = class_group(-47)
    assert payload["h"] == group.h
    assert payload["reps"] == [[int(q.a), int(q.b), int(q.c)]
                               for q in group.representatives]


def test_validation_errors_exit_2(capsys):
    code, _, err = invoke(capsys, "classgroup", "--delta", "-6")
    assert code == 2 and "error" in err
    code, _, err = invoke(capsys, "reduce", "[1,1,-1]")
    assert code == 2
    code, _, err = invoke(capsys, "table", "--min", "-3", "--max", "-4")
    assert code == 2
    code, _, err = invoke(capsys, "iso", "--ring", '{"kind":"table","mul":5}',
                          "--alg1", "r=0,s=1", "--alg2", "r=0,s=1")
    assert code == 2 and err.startswith("error:")
    for ring in ('{"kind":"quotient","base":{"kind":"integers"},"m":[2]}',
                 '{"kind":"localization","f":{"x":1}}'):
        code, _, err = invoke(capsys, "type", "--ring", ring, "--alg", "r=0,s=1")
        assert code == 2 and err.startswith("error:")
    for command, payload, message in [
        ("ideal2form", '{"delta":[1],"pitilde":0,"hnf":[[1,0],[0,1]]}',
         "'delta' must be an integer, got [1]"),
        ("ideal2form", '{"delta":-44,"pitilde":0,"hnf":5}',
         "'hnf' must be a 2x2 integer matrix, got 5"),
        ("ideal2form", '{"delta":-44,"pitilde":0}', "ideal payload is missing 'hnf'"),
        ("ideal2form", '{"delta":-44,"pitilde":0,"hnf":[[1,0],[1,1]]}',
         "'hnf' must be upper triangular, got [[1, 0], [1, 1]]"),
        ("ideal2form", "[]", "ideal payload must be a JSON object"),
        ("reduce", "[1.5,0,1]", "a ring element coordinate must be an integer, got 1.5"),
        ("reduce", "[true,0,1]", "a ring element coordinate must be an integer, got True"),
    ]:
        assert invoke(capsys, command, payload) == (2, "", f"error: {message}\n")
    valid = {"cover": [2, 3], "cocycle": {"1,2": "3/2"},
             "data": {"d": [-99, -44], "p": [1, 0]}}
    for payload in (dict(valid, cocycle={"1,2": "1/0"}), dict(valid, cocycle={"1,2": 0.5}),
                    dict(valid, cocycle=["3/2"]), []):
        code, _, err = invoke(capsys, "glue-check", json.dumps(payload))
        assert code == 2 and err.startswith("error:")


def test_compose_errors(capsys):
    cases = [
        (("-44", "[3,2,4]", "[1,1,3]"),
         "natural type of [1,1,3] does not match QuadraticOrder(delta=-44, pitilde=0)"),
        (("-44", "[6,4,8]", "[1,0,11]"), "[6,4,8] is not primitive"),
        (("-6", "[3,2,4]", "[3,2,4]"), "-6 is not a negative discriminant"),
    ]
    for (delta, q1, q2), message in cases:
        code, out, err = invoke(capsys, "compose", "--delta", delta, q1, q2)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_descriptor_errors_name_the_key(capsys):
    cases = [
        ({"kind": "quotient", "m": 2}, "quotient ring descriptor is missing 'base'"),
        ({"kind": "quotient", "base": {"kind": "integers"}},
         "quotient ring descriptor is missing 'm'"),
        ({"kind": "localization"}, "localization ring descriptor is missing 'f'"),
        ({"kind": "table"}, "table ring descriptor is missing 'mul'"),
        ({"kind": "quotient", "base": {"kind": "integers"}, "m": [2]},
         "quotient ring descriptor: 'm' must be an integer, got [2]"),
        ({"kind": "localization", "f": "1/2"},
         "localization ring descriptor: 'f' must be an integer, got '1/2'"),
    ]
    for descriptor, message in cases:
        code, out, err = invoke(capsys, "type", "--ring", json.dumps(descriptor),
                                "--alg", "r=0,s=1")
        assert (code, out, err) == (2, "", f"error: {message}\n")
    # integers and integer strings are still accepted
    code, out, _ = invoke(capsys, "type", "--alg", "r=0,s=1", "--ring",
                          '{"kind":"quotient","base":{"kind":"integers"},"m":"8"}')
    assert code == 0 and json.loads(out) == {"delta": [4], "parity": [0]}


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_parse_element_symbols():
    bq = builtin_ring("biquad8")
    assert parse_element(bq, "X+XY").coords == (0, 1, 0, 1)
    assert parse_element(bq, "3-Y").coords == (3, 0, -1, 0)
    assert parse_element(bq, "2X").coords == (0, 2, 0, 0)
    r8 = builtin_ring("zsqrt8")
    assert parse_element(r8, "3+w").coords == (3, 1)
    assert parse_element(r8, "-4").coords == (-4, 0)
    assert parse_element(r8, "[17,6]").coords == (17, 6)
    with pytest.raises(ValueError):
        parse_element(r8, "3+q")
