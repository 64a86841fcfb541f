"""The golden CLI corpus, run in-process: one test per case of
``tests/golden/cli.jsonl`` (``golden_check.py`` runs it through the
installed entry point).  A case with ``max_rss_mb`` runs in a fresh child
process on this checkout's ``src``, so that its peak RSS is its own."""

import os
import re
import time
from pathlib import Path

import pytest

from quadalg.cli import run

from golden_check import STARTUP_S, case_id, load_cases, mismatch, run_measured

CASES = load_cases()
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("line, case", CASES, ids=[case_id(case) for _, case in CASES])
def test_cli(line, case, capsys):
    if "max_rss_mb" in case:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        code, out, err, seconds, rss_mb = run_measured(case["argv"], env=env)
        problem = mismatch(line, case, code, out, err, seconds, STARTUP_S, rss_mb)
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
