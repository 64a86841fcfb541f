"""The golden CLI corpus, run through the installed ``quadalg`` entry point.

``tests/golden/cli.jsonl`` holds one case per line: ``argv``, the exit
``code``, then exactly one of the exact ``stdout`` or its ``stdout_sha256``,
and optionally the exact ``stderr``, ``max_s``, the time bound of the run
in-process, and ``max_rss_mb``, a bound in MB (10^6 bytes) on the growth of
the peak resident set from after ``import quadalg.cli`` to exit.
``tests/test_golden.py`` runs the same cases in-process through
``cli.run``; both runners load and compare with the functions below.  A case
with ``max_rss_mb`` runs in a fresh child process in both (``run_measured``):
the child calls the entry point ``quadalg.cli.main`` and reports the growth
of its own peak through a temp file, with the source it read: ``VmHWM`` in
``/proc/self/status``, the peak of the image the child exec'd, where there is
a ``/proc``; else ``ru_maxrss``, which a child inherits from its parent at
fork, so a parent larger than the child's peak makes it read 0.

    python tests/golden_check.py

runs each case through the ``quadalg`` on PATH (a ``max_rss_mb`` case
through the ``quadalg.cli.main`` this Python imports), names every case that
does not match, and exits 1 if any does not.

    python tests/golden_check.py --python ~/.pyenv/versions/3.10.13/bin/python

runs each case as ``PATH -m quadalg.cli`` instead, and each ``max_rss_mb``
case through that interpreter, with this checkout's ``src`` first on
PYTHONPATH: the corpus under an interpreter that has no pytest and no
installed quadalg.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import json
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "golden" / "cli.jsonl"
SRC = str(Path(__file__).resolve().parents[1] / "src")
FIELDS = {"argv", "code", "stdout", "stdout_sha256", "stderr", "max_s", "max_rss_mb"}
# a new process starts Python and imports quadalg before the command runs;
# a case with max_s = 1 then has 5 s, as under `timeout 5`
STARTUP_S = 4.0
# the child of run_measured: argv[1] is the report file, the rest the command;
# it reports "<source> <growth in bytes>"
MEASURED_CHILD = """
import resource, sys
from quadalg.cli import main
report, sys.argv = sys.argv[1], ["quadalg", *sys.argv[2:]]

def peak():
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return "VmHWM", int(line.split()[1]) * 1024
    except OSError:
        pass
    # ru_maxrss counts bytes on macOS and KiB elsewhere
    unit = 1 if sys.platform == "darwin" else 1024
    return "ru_maxrss", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit

source, start = peak()
try:
    main()
finally:
    with open(report, "w") as f:
        f.write("%s %d" % (source, peak()[1] - start))
"""


def load_cases(path: Path = CORPUS) -> list[tuple[int, dict]]:
    """The (line number, case) pairs of the corpus.  A case with a field
    that is not in FIELDS, without argv or code, with both or neither of
    stdout and stdout_sha256, or with the argv of an earlier case is refused."""
    cases, lines = [], {}
    for n, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        case = json.loads(text)
        where = f"{path.name}:{n}"
        if set(case) - FIELDS:
            raise ValueError(f"{where}: unknown fields {sorted(set(case) - FIELDS)}")
        if not {"argv", "code"} <= set(case):
            raise ValueError(f"{where}: a case needs 'argv' and 'code'")
        if ("stdout" in case) == ("stdout_sha256" in case):
            raise ValueError(f"{where}: a case needs exactly one of 'stdout' and "
                             f"'stdout_sha256'")
        argv = tuple(case["argv"])
        if argv in lines:
            raise ValueError(f"{where}: the argv of line {lines[argv]} again")
        lines[argv] = n
        cases.append((n, case))
    return cases


def case_id(case: dict) -> str:
    """The subcommand and a digest of the argv: fixed while the argv is."""
    argv = case["argv"]
    return f"{argv[0]}-{hashlib.sha256(json.dumps(argv).encode()).hexdigest()[:8]}"


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_measured(argv: list[str], timeout: float | None = None, env: dict | None = None,
                 python: str = sys.executable
                 ) -> tuple[int, str, str, float, tuple[float, str] | None]:
    """Run argv through ``quadalg.cli.main`` in a fresh child process of
    python: (exit code, stdout, stderr, seconds, rss), rss the peak RSS
    growth in MB and the source it was read from ("VmHWM" or "ru_maxrss"),
    or None when the child wrote no report."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "rss"
        start = time.perf_counter()
        proc = subprocess.run([python, "-c", MEASURED_CHILD, str(report), *argv],
                              capture_output=True, encoding="utf-8", timeout=timeout, env=env)
        seconds = time.perf_counter() - start
        rss = None
        if report.exists():
            source, growth = report.read_text().split()
            rss = int(growth) / 1e6, source
    return proc.returncode, proc.stdout, proc.stderr, seconds, rss


def mismatch(line: int, case: dict, code: int, out: str, err: str, seconds: float,
             startup_s: float = 0.0, rss: tuple[float, str] | None = None) -> str | None:
    """None when a run matches its case, else the case and what differs.
    The run may take ``startup_s`` past the case's max_s; ``rss`` is the
    peak RSS growth in MB and its source, as ``run_measured`` reported them."""
    found = []
    if code != case["code"]:
        found.append(f"exit {code}, expected {case['code']}")
    if "stdout" in case and out != case["stdout"]:
        found.append(f"stdout {out[:200]!r}, expected {case['stdout'][:200]!r}")
    if "stdout_sha256" in case:
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != case["stdout_sha256"]:
            found.append(f"stdout sha256 {digest}, expected {case['stdout_sha256']}")
    if "stderr" in case and err != case["stderr"]:
        found.append(f"stderr {err[:200]!r}, expected {case['stderr']!r}")
    if "max_s" in case and seconds > case["max_s"] + startup_s:
        found.append(f"took {seconds:.2f} s, bound {case['max_s'] + startup_s} s")
    if "max_rss_mb" in case:
        if rss is None:
            found.append("no peak RSS report")
        elif rss[0] > case["max_rss_mb"]:
            found.append(f"peak RSS ({rss[1]}) grew by {rss[0]:.1f} MB, "
                         f"bound {case['max_rss_mb']} MB")
    if not found:
        return None
    command = shlex.join(["quadalg", *case["argv"]])
    return f"{CORPUS.name}:{line} [{case_id(case)}] {command}: " + "; ".join(found)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the golden CLI corpus, one process "
                                                 "per case.")
    parser.add_argument("--python", metavar="PATH",
                        help="run each case as PATH -m quadalg.cli, with this checkout's "
                             "src on PYTHONPATH, instead of the quadalg on PATH")
    args = parser.parse_args(argv)
    if args.python:
        python, command, env = args.python, [args.python, "-m", "quadalg.cli"], src_env()
    else:
        python, command, env = sys.executable, ["quadalg"], None
    cases = load_cases()
    failed = 0
    for line, case in cases:
        bound = case["max_s"] + STARTUP_S if "max_s" in case else None
        start = time.perf_counter()
        try:
            if "max_rss_mb" in case:
                code, out, err, seconds, rss = run_measured(case["argv"], bound, env, python)
            else:
                proc = subprocess.run([*command, *case["argv"]], capture_output=True,
                                      encoding="utf-8", timeout=bound, env=env)
                code, out, err = proc.returncode, proc.stdout, proc.stderr
                seconds, rss = time.perf_counter() - start, None
        except subprocess.TimeoutExpired:
            problem = f"{CORPUS.name}:{line} [{case_id(case)}]: no exit within {bound} s"
        else:
            problem = mismatch(line, case, code, out, err, seconds, STARTUP_S, rss)
        if problem:
            failed += 1
            print(problem)
    print(f"{len(cases) - failed} of {len(cases)} golden cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
