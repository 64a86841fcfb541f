import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from quadalg import glue
from quadalg.cli import _parse_glue_payload, builtin_ring, emit_table, parse_element, run
from quadalg.errors import InvalidRange

from glue_data import glue_payload
from oracles import ClassNumbers


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


def test_finite_ring_outputs_unchanged(capsys):
    # stdout recorded from the generic (u, v) search, before the index tables
    cases = [
        (("iso", "--ring", "zmod4", "--alg1", "r=1,s=3", "--alg2", "r=3,s=1"),
         '{"isomorphic":true,"hom":{"u":[1],"v":[1]}}'),
        (("iso", "--ring", "zmod4", "--alg1", "r=2,s=1", "--alg2", "r=2,s=3"),
         '{"isomorphic":false}'),
        (("iso", "--ring", "f4", "--alg1", "r=0,s=x", "--alg2", "r=0,s=1"),
         '{"isomorphic":true,"hom":{"u":[0,1],"v":[1,0]}}'),
        (("iso", "--ring", "f4", "--alg1", "r=x,s=1", "--alg2", "r=1+x,s=x"),
         '{"isomorphic":false}'),
        (("autos", "--ring", "zmod8", "--alg", "r=1,s=6"),
         '{"count":2,"automorphisms":[{"u":[1],"v":[0]},{"u":[7],"v":[7]}]}'),
        (("autos", "--ring", "zmod8", "--alg", "r=2,s=4"),
         '{"count":8,"automorphisms":[{"u":[1],"v":[0]},{"u":[1],"v":[4]},'
         '{"u":[3],"v":[2]},{"u":[3],"v":[6]},{"u":[5],"v":[0]},{"u":[5],"v":[4]},'
         '{"u":[7],"v":[2]},{"u":[7],"v":[6]}]}'),
        (("autos", "--ring", "zmod8", "--alg", "r=2,s=4", "--oriented"),
         '{"count":2,"automorphisms":[{"u":[1],"v":[0]},{"u":[1],"v":[4]}]}'),
        (("autos", "--ring", "zmod8", "--alg", "r=0,s=6", "--oriented", "--theta", "7"),
         '{"count":2,"automorphisms":[{"u":[1],"v":[0]},{"u":[1],"v":[4]}]}'),
    ]
    for args, out in cases:
        assert invoke(capsys, *args) == (0, out + "\n", "")


def test_iso_over_large_two_regular_ring(capsys):
    # the classification needs no index tables, so it has no size cap
    for m, u in ((1001, 501), (2187, 1094)):
        ring = f'{{"kind":"quotient","base":{{"kind":"integers"}},"m":{m}}}'
        for alg2, out in (("r=0,s=-8", f'{{"isomorphic":true,"hom":{{"u":[{u}],"v":[0]}}}}'),
                          ("r=0,s=-3", '{"isomorphic":false}')):
            assert invoke(capsys, "iso", "--ring", ring, "--alg1", "r=0,s=-2",
                          "--alg2", alg2) == (0, out + "\n", "")


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


def test_glue_check_golden_bytes(capsys):
    # SHA-256 of the concatenated stdout: the README example, valid covers of
    # 3, 4 and 5 opens, then one payload failing each base check in report order
    payloads = [
        '{"cover":[2,3],"cocycle":{"1,2":"3/2"},"data":{"d":[-99,-44],"p":[1,0]}}',
        '{"cover":[7,26,13],"cocycle":{"1,2":"14/13","1,3":"7","2,3":"13/2"},'
        '"data":{"d":["-4704","-4056","-96"],"p":["-14","-13","-2"]}}',
        '{"cover":[143,3,143,7],"cocycle":{"1,2":"13/33","1,3":"13","1,4":"91/11",'
        '"2,3":"33","2,4":"21","3,4":"7/11"},"data":{"d":["-3211/121","-171",'
        '"-19/121","-19/49"],"p":["39/11","9","3/11","3/7"]}}',
        '{"cover":[13,21,13,33,65],"cocycle":{"1,2":"3/91","1,3":"-1/13",'
        '"1,4":"-1/117","1,5":"1","2,3":"-7/3","2,4":"-7/27","2,5":"91/3",'
        '"3,4":"1/9","3,5":"-13","4,5":"-117"},"data":{"d":["-72/169","-392",'
        '"-72","-5832","-72/169"],"p":["-2/13","-14/3","2","18","-2/13"]}}',
        '{"cover":[2,4],"cocycle":{"1,2":1},"data":{"d":[5,5],"p":[1,1]}}',
        '{"cover":[2,3],"cocycle":{"1,2":5},"data":{"d":[-1100,-44],"p":[0,0]}}',
        '{"cover":[2,3,5],"cocycle":{"1,2":1,"1,3":1,"2,3":-1},'
        '"data":{"d":[5,5,5],"p":[1,1,1]}}',
        '{"cover":[2,3],"cocycle":{"1,2":"3/2"},"data":{"d":[-99],"p":[1]}}',
        '{"cover":[2,3],"cocycle":{"1,2":1},"data":{"d":["5/9","5/9"],"p":[1,1]}}',
        '{"cover":[2,3],"cocycle":{"1,2":1},"data":{"d":[6,6],"p":[0,0]}}',
        '{"cover":[2,3],"cocycle":{"1,2":"3/2"},"data":{"d":[-99,-43],"p":[1,1]}}',
        '{"cover":[3,5],"cocycle":{"1,2":1},"data":{"d":[5,4],"p":[1,0]}}',
    ]
    base_checks = ["cover", "cocycle_unit", "cocycle_triple", "data_shape",
                   "chart_membership", "chart_validity", "overlap_discriminant",
                   "overlap_parity"]
    digest = hashlib.sha256()
    for n, payload in enumerate(payloads):
        code, out, _ = invoke(capsys, "glue-check", payload)
        assert code == 0
        digest.update(out.encode())
        failed = [item["check"] for item in json.loads(out) if not item["ok"]]
        assert (failed == []) if n < 4 else (base_checks[n - 4] in failed), payload
    assert digest.hexdigest() == \
        "f890c90f8ef0d93305887089c7e22024828fd7a77b972ff77b74f4c3716c345f"
    # and over 240 seeded payloads of 1-5 opens, valid and perturbed, recorded
    # from the Fraction checks before they moved to int pairs
    rng = random.Random(9)
    digest = hashlib.sha256()
    for _ in range(240):
        code, out, _ = invoke(capsys, "glue-check", glue_payload(rng))
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == \
        "b913e3aede963780114edb2005aad513841a389e65c942265e8a58eb41a0c0ca"


def test_glue_payload_builds_one_fraction_per_entry(monkeypatch):
    # the CLI parses each cocycle entry once; LineBundleCocycle keeps that Fraction
    class Counted(Fraction):
        built = 0

        def __new__(cls, *args, **kwargs):
            Counted.built += 1
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(glue, "Fraction", Counted)
    data = json.loads('{"cover":[13,21,13,33,65],"cocycle":{"1,2":"3/91","1,3":"-1/13",'
                      '"1,4":"-1/117","1,5":"1","2,3":"-7/3","2,4":"-7/27","2,5":"91/3",'
                      '"3,4":"1/9","3,5":"-13","4,5":"-117"},"data":{"d":["-72/169",'
                      '"-392","-72","-5832","-72/169"],"p":["-2/13","-14/3","2","18","-2/13"]}}')
    _, cocycle, _ = _parse_glue_payload(data)
    assert Counted.built == 10 + 5 + 5
    assert cocycle.eps(1, 2) == Fraction(-7, 3) and cocycle.eps(4, 3) == Fraction(-1, 117)
    assert glue._as_fraction(cocycle.eps(0, 1), "an entry") is cocycle.eps(0, 1)


def test_glue_check_never_builds_charts(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("glue-check built the glued algebra")

    monkeypatch.setattr(glue, "build_glued", fail)
    payload = '{"cover":[2,3,5],"cocycle":{"1,2":1,"1,3":1,"2,3":1},' \
              '"data":{"d":[5,5,5],"p":[1,1,1]}}'
    code, out, _ = invoke(capsys, "glue-check", payload)
    report = json.loads(out)
    assert code == 0 and all(item["ok"] for item in report)
    checks = [item["check"] for item in report]
    assert checks.count("transition_hom") == 6 and checks.count("cocycle_transitions") == 1


def test_readme_cli_examples(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```\n", 2)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("quadalg "):
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith("  "):
            examples[-1][1].append(line[2:])
    assert len(examples) == 6
    for argv, shown in examples:
        assert invoke(capsys, *argv) == (0, "\n".join(shown) + "\n", ""), argv


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
        # the benchmark's window range, and a 64-wide window in JSON
        ((-12000, -8000, "csv"),
         "6db11492a192bad2f57ed708de2a2626131d6382e6cdd3cf6f71b0208b9e5bbd"),
        ((-10063, -10000, "json"),
         "f8c64f695f90562cb2bee099b977269111f7bb1dd6c682dda4c2a14500e6a1a6"),
    ]
    for args, digest in golden:
        out = emit_table(*args) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


def test_table_class_numbers_match_analytic_formula():
    class_numbers = ClassNumbers()
    rng = random.Random(8)
    for centre in (-10**4, -10**4, -10**5, -10**5):
        lo = centre - rng.randrange(1000)
        rows = emit_table(lo, lo + 63).split("\n")[1:]
        assert len(rows) == 32
        for row in rows:
            delta, _, h = row.split(",")[:3]
            assert int(h) == class_numbers(int(delta)), row


def test_closed_stdout_exits_quietly():
    # a reader that stops early, as in `quadalg table ... | head -c 50`:
    # the broken pipe is neither a validation error nor an exception at exit
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "quadalg.cli", "table", "--min", "-10000", "--max", "-3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(50).startswith(b"delta,pitilde,h,picmod,reps\n")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


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
    code, out, err = invoke(capsys, "autos", "--alg", "r=0,s=-2", "--ring",
                            '{"kind":"quotient","base":{"kind":"integers"},"m":1000}')
    assert (code, out, err) == \
        (2, "", "error: Z/1000 has 1000 elements; finite-ring tables are capped at 512\n")
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
        ("reduce", "[3,2,{}]", "a ring element object is missing 'coords', got {}"),
    ]:
        assert invoke(capsys, command, payload) == (2, "", f"error: {message}\n")
    valid = {"cover": [2, 3], "cocycle": {"1,2": "3/2"},
             "data": {"d": [-99, -44], "p": [1, 0]}}
    for payload, message in [
        (dict(valid, cocycle={"1,2": "1/0"}), "cocycle entry '1,2' has a zero denominator: '1/0'"),
        (dict(valid, cocycle={"1,2": 0.5}), "cocycle entry '1,2' must be a rational number, got 0.5"),
        (dict(valid, cocycle=["3/2"]), "'cocycle' must be an object keyed by 'i,j'"),
        ([], "glue payload must be a JSON object"),
        (dict(valid, cover=[True, 3]), "a 'cover' entry must be an integer, got True"),
        (dict(valid, cocycle={"1,2": True}), "cocycle entry '1,2' must be a rational number, got True"),
        (dict(valid, data={"d": [-99, -44], "p": [True, 0]}),
         "a 'p' entry must be a rational number, got True"),
        (dict(valid, cocycle={"1": "3/2"}), "cocycle key '1' must be 'i,j' with 1 <= i < j <= 2"),
        (dict(valid, cocycle={"2,1": "2/3"}), "cocycle key '2,1' must be 'i,j' with 1 <= i < j <= 2"),
        (dict(valid, cocycle={}), "missing cocycle entry '1,2'"),
    ]:
        assert invoke(capsys, "glue-check", json.dumps(payload)) == (2, "", f"error: {message}\n")


def test_glue_check_refuses_exponents_quickly(capsys):
    # Fraction("1e20000000") would compute 10**20000000 before any check runs
    for entry, field in (("1e20000000", "a 'd' entry"), ("-3E2", "a 'd' entry")):
        payload = '{"cover":[2,3],"cocycle":{"1,2":"3/2"},' \
                  f'"data":{{"d":["{entry}",-44],"p":[1,0]}}}}'
        start = time.perf_counter()
        result = invoke(capsys, "glue-check", payload)
        assert time.perf_counter() - start < 1
        assert result == (2, "", f"error: {field} must be a rational number, got '{entry}'\n")
    code, _, err = invoke(capsys, "glue-check", '{"cover":[2,3],"cocycle":{"1,2":"1e3"},'
                          '"data":{"d":[-99,-44],"p":[1,0]}}')
    assert (code, err) == (2, "error: cocycle entry '1,2' must be a rational number, got '1e3'\n")
    # integers, 'n/d' and decimals stay accepted
    code, out, _ = invoke(capsys, "glue-check", '{"cover":[2,3],"cocycle":{"1,2":"1.5"},'
                          '"data":{"d":["-99","-44/1"],"p":["1.0",0]}}')
    assert code == 0 and all(item["ok"] for item in json.loads(out))


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


def test_negative_denominator_exponent_exits_2(capsys):
    # {"coords": [n], "k": k} is n/f^k over Z[1/f]; a negative k is refused
    # before f ** k can make a float
    message = "error: the denominator exponent 'k' must be non-negative, got -2\n"
    for argv in (["type", "--alg", 'r={"coords":[1],"k":-2},s=0'],
                 ["validate-triple", "--delta", '{"coords":[-9],"k":-2}', "--parity", "1"]):
        assert invoke(capsys, *argv, "--ring", '{"kind":"localization","f":5}') \
            == (2, "", message)


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
