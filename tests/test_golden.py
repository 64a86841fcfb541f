"""The golden CLI corpus, run in-process: one test per case of
``tests/golden/cli.jsonl`` (``golden_check.py`` runs it through the
installed entry point).  A case with ``max_rss_mb`` runs in a fresh child
process on this checkout's ``src``, so that its peak RSS is its own."""

import re
import sys
import time
from pathlib import Path

import pytest

from quadalg.cli import run

import golden_check
from golden_check import STARTUP_S, case_id, load_cases, mismatch, run_measured, src_env

CASES = load_cases()


@pytest.mark.parametrize("line, case", CASES, ids=[case_id(case) for _, case in CASES])
def test_cli(line, case, capsys):
    if "max_rss_mb" in case:
        code, out, err, seconds, rss = run_measured(case["argv"], env=src_env())
        problem = mismatch(line, case, code, out, err, seconds, STARTUP_S, rss)
    else:
        start = time.perf_counter()
        code = run(case["argv"])
        seconds = time.perf_counter() - start
        out, err = capsys.readouterr()
        problem = mismatch(line, case, code, out, err, seconds)
    if problem:
        pytest.fail(problem, pytrace=False)


def test_load_cases_refuses_a_malformed_corpus(tmp_path):
    case = '{"argv": ["reduce", "[9,10,4]"], "code": 0, "stdout": "[3,2,4]\\n"}'
    path = tmp_path / "cli.jsonl"
    for lines, message in [
        ([case.replace('"stdout"', '"stdot"')], "cli.jsonl:1: unknown fields ['stdot']"),
        ([case.replace('"code": 0, ', "")], "cli.jsonl:1: a case needs 'argv' and 'code'"),
        ([case.replace("}", ', "stdout_sha256": "0"}')], "exactly one of"),
        ([case.replace(', "stdout": "[3,2,4]\\n"', "")], "exactly one of"),
        ([case, case.replace("[3", "[4")], "cli.jsonl:2: the argv of line 1 again"),
    ]:
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_cases(path)


def test_golden_check_runs_each_case_under_a_given_interpreter(monkeypatch, capsys):
    # --python runs PATH -m quadalg.cli on this checkout's src, a max_rss_mb
    # case through PATH too, and names a case whose stdout differs
    case = {"argv": ["reduce", "[9,10,4]"], "code": 0, "stdout": "[3,2,4]\n", "stderr": ""}
    cases = [(1, case), (2, dict(case, max_rss_mb=100)), (3, dict(case, stdout="[3,2,5]\n"))]
    monkeypatch.setattr(golden_check, "load_cases", lambda: cases)
    assert golden_check.main(["--python", sys.executable]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0].startswith("cli.jsonl:3 [reduce-")
    assert "stdout '[3,2,4]\\n', expected '[3,2,5]\\n'" in out[0]
    assert out[1] == "2 of 3 golden cases match"


def test_rss_gate_fails_under_a_large_parent():
    # a child started by subprocess inherits its parent's ru_maxrss, so from a
    # parent that holds 300 MB a case's growth read there is 0 and no bound can
    # fail; the child's own VmHWM still sees the case's 10 MB of growth
    held = b"x" * (300 * 10**6)
    case = {"argv": ["classgroup", "--delta", "-100000000003"], "code": 0, "max_rss_mb": 5}
    code, out, err, seconds, rss = run_measured(case["argv"], env=src_env())
    del held
    problem = mismatch(1, case, code, out, err, seconds, STARTUP_S, rss)
    assert problem is not None and "peak RSS" in problem, problem
    if Path("/proc/self/status").exists():
        assert rss[1] == "VmHWM" and "(VmHWM)" in problem
