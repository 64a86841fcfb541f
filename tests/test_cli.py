import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quadalg import forms, glue
from quadalg.cli import (
    _parse_glue_payload,
    builtin_ring,
    emit_table,
    iter_table,
    parse_element,
    run,
)
from quadalg.errors import InvalidRange, brief

from glue_data import PERTURBATIONS, as_payload, glue_dataset, glue_payload
from golden_check import src_env
from oracles import ClassNumbers, ambiguous_count, table_one_sweep


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_iso_with_zero_discriminants_over_large_n_is_quick(capsys):
    # delta = 0 on both sides over Z[sqrt(N)] needs no unit of about sqrt(N) digits
    p = 10**9 + 7
    cases = [((p, "r=0,s=0", "r=0,s=0"), '{"isomorphic":true,"hom":{"u":[1,0],"v":[0,0]}}\n'),
             ((4 * p, "r=0,s=0", f"r=w,s={p}"), '{"isomorphic":false}\n')]
    for (n, alg1, alg2), out in cases:
        ring = ('{"kind":"table","rank":2,"mul":[[[1,0],[0,1]],[[0,1],[%d,0]]],'
                '"one":[1,0],"symbols":["1","w"]}' % n)
        start = time.perf_counter()
        assert invoke(capsys, "iso", "--ring", ring, "--alg1", alg1, "--alg2", alg2) \
            == (0, out, ""), n
        assert time.perf_counter() - start < 1.0, n


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


def test_glue_check_prints_the_report_as_json_dumps(capsys):
    # the row template prints exactly what json.dumps prints for the report:
    # seeded payloads of every perturbation kind ("shape" ends the report at
    # data_shape, with no indices), then valid covers of 12 opens, whose
    # indices have two digits, and of 30 opens, whose 10,356 rows are written
    # in three chunks of at most 4096
    rng = random.Random(19)
    datasets = [glue_dataset(rng, kind) for kind in dict.fromkeys(PERTURBATIONS)
                for _ in range(8)]
    datasets += [glue_dataset(rng, None, size=12), glue_dataset(rng, None, size=30)]
    rows = []
    for dataset in datasets:
        payload = as_payload(*dataset)
        report = [{"check": check, "indices": list(indices), "ok": ok} for check, indices, ok
                  in glue.verification_report(*_parse_glue_payload(json.loads(payload)))]
        assert invoke(capsys, "glue-check", payload) == \
            (0, json.dumps(report, separators=(",", ":")) + "\n", "")
        rows += report
    assert {"check": "data_shape", "indices": [], "ok": False} in rows
    assert all(item["ok"] for item in report) and len(report) == 10356
    assert {"check": "cocycle_transitions", "indices": [9, 10, 11], "ok": True} in report


def test_glue_payload_parses_each_entry_once(monkeypatch):
    # the CLI parses each cocycle entry once; LineBundleCocycle keeps that pair
    calls = []

    def counted(x, name, as_pair=glue._as_pair):
        calls.append((x, as_pair(x, name)))
        return calls[-1][1]

    monkeypatch.setattr(glue, "_as_pair", counted)
    data = json.loads('{"cover":[13,21,13,33,65],"cocycle":{"1,2":"3/91","1,3":"-1/13",'
                      '"1,4":"-1/117","1,5":"1","2,3":"-7/3","2,4":"-7/27","2,5":"91/3",'
                      '"3,4":"1/9","3,5":"-13","4,5":"-117"},"data":{"d":["-72/169",'
                      '"-392","-72","-5832","-72/169"],"p":["-2/13","-14/3","2","18","-2/13"]}}')
    _, cocycle, _ = _parse_glue_payload(data)
    parsed = [pair for x, pair in calls if isinstance(x, str)]
    assert len(parsed) == 10 + 5 + 5
    assert all(any(pair is p for p in parsed) for pair in cocycle._eps.values())
    assert cocycle.eps(1, 2) == (-7, 3) and cocycle.eps(4, 3) == (-1, 117)


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
        # two windows of 1093 discriminants and a third of one
        ((-70001, -67815, "csv"),
         "8b4671c5426f760516313740325fa2a7ea4d2626114b450b312cbf219487b0ae"),
        ((-70001, -67815, "json"),
         "1b37fe91251163f56a38f089911deca9db8ca930ccdc4aec6812d96cb18126ac"),
    ]
    for args, digest in golden:
        out = emit_table(*args) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


def test_streamed_table_matches_one_sweep():
    # windows hold 1024 discriminants at -3000 and 70001 // 64 = 1093 at -70001;
    # each range ends on a valid discriminant, so no window is empty
    for lo, window in ((-3000, 1024), (-70001, 1093)):
        for count in (window - 1, window, window + 1, 2 * window + 1):
            for fmt in ("csv", "json"):
                chunks = list(iter_table(lo, lo + count - 1, fmt))
                # the header or '[', one chunk per window, then '' or ']'
                assert len(chunks) == 2 + -(-count // window), (lo, count)
                text = "".join(chunks)
                assert text == emit_table(lo, lo + count - 1, fmt)
                assert text == table_one_sweep(lo, lo + count - 1, fmt), (lo, count, fmt)
    for lo, hi in ((-2, -1), (-1, -1)):
        assert emit_table(lo, hi) == "delta,pitilde,h,picmod,reps"
        assert emit_table(lo, hi, "json") == "[]"


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


def test_table_picmod_counts_the_ambiguous_classes_once():
    # each orbit under opposition is a class with its inverse, and one class
    # exactly when it has order at most 2, so on every row
    # 2 * picmod = h + 2^(mu - 1), the genus-theory count
    rng = random.Random(4)
    for _ in range(6):
        lo = -rng.randrange(400, 2 * 10**5)
        text = "".join(iter_table(lo, lo + rng.randrange(1, 300)))
        for row in text.split("\n")[1:]:
            delta, _, h, picmod = map(int, row.split(",")[:4])
            assert 2 * picmod == h + ambiguous_count(delta), row


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


def test_cli_import_leaves_out_fractions_and_decimal():
    # glue-check reads rationals as int pairs, so no CLI start pays for
    # importing fractions, or decimal, which fractions imports
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import quadalg.cli"],
                          capture_output=True, encoding="utf-8", env=src_env(), check=True)
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "quadalg.cli" in imported
    assert not imported & {"fractions", "decimal", "_decimal", "_pydecimal"}


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
    # the range is checked before the first window is printed
    for lo, hi in (("-3", "-4"), ("-100000", "5")):
        assert invoke(capsys, "table", "--min", lo, "--max", hi) == \
            (2, "", f"error: need min <= max < 0, got [{lo}, {hi}]\n")
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
        (dict(valid, cocycle={"1,2": "3/2", "01,2": "5"}),
         "cocycle keys '1,2' and '01,2' both name entry '1,2'"),
        (dict(valid, cocycle={" 1,2": "3/2", "1, 2": "3/2"}),
         "cocycle keys ' 1,2' and '1, 2' both name entry '1,2'"),
    ]:
        assert invoke(capsys, "glue-check", json.dumps(payload)) == (2, "", f"error: {message}\n")


def test_algebra_spec_refuses_a_repeated_field(capsys):
    # one value per field: r=1,r=2 is refused, not read as r=2
    for spec, field in (("r=1,r=2,s=0", "r"), ("r=0,s=1,s=1", "s"), ("s=1, r=0 ,r =0", "r")):
        assert invoke(capsys, "type", "--ring", "z", "--alg", spec) == \
            (2, "", f"error: algebra spec repeats the field '{field}'\n")
    assert invoke(capsys, "type", "--ring", "z", "--alg", " s=0 , r=1 ") == \
        (0, '{"delta":1,"parity":[1]}\n', "")


def test_glue_check_refuses_exponents_quickly(capsys):
    # Fraction("1e20000000") would compute 10**20000000 before any check runs;
    # that payload is a golden case with a 1 s bound
    assert invoke(capsys, "glue-check", '{"cover":[2,3],"cocycle":{"1,2":"3/2"},'
                  '"data":{"d":["-3E2",-44],"p":[1,0]}}') \
        == (2, "", "error: a 'd' entry must be a rational number, got '-3E2'\n")
    code, _, err = invoke(capsys, "glue-check", '{"cover":[2,3],"cocycle":{"1,2":"1e3"},'
                          '"data":{"d":[-99,-44],"p":[1,0]}}')
    assert (code, err) == (2, "error: cocycle entry '1,2' must be a rational number, got '1e3'\n")
    # integers, 'n/d' and decimals stay accepted
    code, out, _ = invoke(capsys, "glue-check", '{"cover":[2,3],"cocycle":{"1,2":"1.5"},'
                          '"data":{"d":["-99","-44/1"],"p":["1.0",0]}}')
    assert code == 0 and all(item["ok"] for item in json.loads(out))


def test_errors_echo_a_huge_value_briefly(capsys):
    payload = '{"cover":[2,3],"cocycle":{"1,2":"3/2"},' \
              f'"data":{{"d":["{"1" * 100000}",-44],"p":[1,0]}}}}'
    code, out, err = invoke(capsys, "glue-check", payload)
    assert (code, out) == (2, "") and len(err.encode()) < 300
    assert err.startswith("error: a 'd' entry must be a rational number, got '1111")
    # a value whose repr has at most 200 characters is echoed whole
    assert brief("x" * 198) == repr("x" * 198)
    assert brief("x" * 199) == repr("x" * 199)[:100] + "... (201 characters)"


def test_power_of_a_large_f_is_capped(capsys):
    # k is under EXPONENT_CAP, but f^k would have 6 * 10^6 bits
    start = time.perf_counter()
    result = invoke(capsys, "type", "--ring", '{"kind":"localization","f":1000000000000000000}',
                    "--alg", 'r={"coords":[1],"k":100000},s={"coords":[1],"k":1}')
    assert time.perf_counter() - start < 1
    assert result == (2, "", "error: 'k' is 100000, so f^k may have 6000000 bits; input "
                             "powers of f are capped at 400000 bits\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-string digit limit")
def test_result_too_long_to_print_exits_2(capsys):
    code, out, err = invoke(capsys, "type", "--ring", '{"kind":"localization","f":3}',
                            "--alg", 'r={"coords":[5],"k":10000},s={"coords":[7],"k":10000}')
    assert (code, out) == (2, "")
    assert err == (f"error: the result has an integer of more than {sys.get_int_max_str_digits()}"
                   " digits, Python's limit for printing an integer\n")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_a_lookup_error_inside_a_command_is_internal(capsys, monkeypatch):
    # no input reaches a KeyError or an IndexError, so one is a fault: exit 1
    def fail(q):
        raise KeyError("a")

    monkeypatch.setattr(forms, "reduce_posdef", fail)
    assert invoke(capsys, "reduce", "[9,10,4]") == (1, "", "internal error: 'a'\n")


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


def test_bare_integers_are_multiples_of_one(capsys):
    # the identity of this ring is e1, so "1" is e1 and r = 1 + e1 = 2 * 1
    ring = '{"kind":"table","rank":2,"mul":[[[0,1],[1,0]],[[1,0],[0,1]]],"one":[0,1]}'
    assert builtin_ring(ring).symbols == ("e0", "e1")
    assert invoke(capsys, "type", "--ring", ring, "--alg", "r=1+e1,s=0") \
        == (0, '{"delta":[0,4],"parity":[0,0]}\n', "")
    assert parse_element(builtin_ring(ring), "3-e0").coords == (-1, 3)
    assert builtin_ring('{"kind":"table","rank":2,"mul":[[[1,0],[0,1]],[[0,1],[2,0]]]}') \
        .symbols == ("1", "e1")
