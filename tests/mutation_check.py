"""Mutation check: every mutant of ``tests/mutants.jsonl`` must be killed.

Each line of the catalogue is one mutant: its ``id``, the ``file`` it edits
(relative to the repository root), an exact ``old`` snippet that occurs in
that file once, the ``new`` snippet that replaces it, the ``tests`` (pytest
node ids) expected to kill it, and ``why`` it matters.  A mutant that
changes no behaviour is kept with ``"equivalent": true`` and the reason as
its ``why``: it is checked for staleness like the others, but not run.

    python tests/mutation_check.py

first runs every listed test on an unchanged copy of the checkout, which must
pass: a test that already fails kills nothing.  Then, for each mutant, it
copies ``src``, ``tests``, ``perfbench``, ``pyproject.toml`` and
``README.md`` to a temporary directory, applies the mutant there, and runs
its tests with ``pytest -x`` on that copy (``src`` first on PYTHONPATH, so
child processes see the mutant too), under a timeout of ``TIMEOUT_S``
seconds.  A failing test, or a collection error, kills the mutant; so does
a timeout, reported as one.  It prints one line per mutant and exits 1 when
any mutant survives, when the catalogue is stale or its tests fail
unmutated, and when pytest cannot run a mutant's tests at all.  It uses
only the standard library.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = ROOT / "tests" / "mutants.jsonl"
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
FIELDS = ("id", "file", "old", "new", "tests", "why")  # and "equivalent": true, optional
TIMEOUT_S = 300
KILLED = (1, 2)  # pytest's exit codes for failed tests and for collection errors


def load_catalogue(path: Path = CATALOGUE) -> list[dict]:
    mutants = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if line.strip():
            mutant = json.loads(line)
            if sorted(mutant.keys() - {"equivalent"}) != sorted(FIELDS) \
                    or mutant.get("equivalent", True) is not True:
                raise ValueError(f"{path.name}:{number}: a mutant has exactly the fields {FIELDS}"
                                 f", and optionally \"equivalent\": true")
            mutants.append(mutant)
    return mutants


def stale_entries(mutants: list[dict]) -> list[str]:
    """A line per mutant whose ``old`` does not occur exactly once in its file,
    or which names a test file that does not exist."""
    problems = []
    for m in mutants:
        count = (ROOT / m["file"]).read_text().count(m["old"])
        if count != 1:
            problems.append(f"{m['id']}: 'old' occurs {count} times in {m['file']}")
        problems += [f"{m['id']}: no test file {t.split('::')[0]}" for t in m["tests"]
                     if not (ROOT / t.split("::")[0]).is_file()]
    return problems


def run_tests(tests: list[str], mutant: dict | None = None) -> tuple[int | None, str, float]:
    """(pytest's exit code, or None on a timeout; its output; seconds) for tests
    run with -x on a fresh copy of the checkout, with mutant applied if given."""
    with tempfile.TemporaryDirectory(prefix="quadalg-mutant-") as tmp:
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, Path(tmp, name),
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, Path(tmp, name))
        if mutant is not None:
            target = Path(tmp, mutant["file"])
            target.write_text(target.read_text().replace(mutant["old"], mutant["new"]))
        paths = filter(None, [str(Path(tmp, "src")), os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
                "--rootdir", tmp, *tests]
        start = time.perf_counter()
        # a session of its own, so that a timeout ends pytest's children too
        proc = subprocess.Popen(argv, cwd=tmp, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
            code = None
        return code, out, time.perf_counter() - start


def first_failure(output: str) -> str:
    """The node id of the first FAILED or ERROR line of pytest's summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return "a collection error"


def main() -> int:
    mutants = load_catalogue()
    problems = stale_entries(mutants)
    for problem in problems:
        print(f"stale: {problem}")
    if problems:
        return 1
    start = time.perf_counter()
    for m in mutants:
        if m.get("equivalent"):
            print(f"{m['id']}: equivalent, not run ({m['why']})")
    mutants = [m for m in mutants if not m.get("equivalent")]
    every_test = list(dict.fromkeys(t for m in mutants for t in m["tests"]))
    code, out, seconds = run_tests(every_test)
    if code != 0:
        print(out)
        print(f"the catalogue's tests do not pass unmutated (pytest exit {code})")
        return 1
    bad = 0
    for m in mutants:
        code, out, seconds = run_tests(m["tests"], m)
        if code is None:
            print(f"{m['id']}: killed by a timeout after {seconds:.1f} s")
        elif code in KILLED:
            print(f"{m['id']}: killed by {first_failure(out)} in {seconds:.1f} s")
        else:
            bad += 1
            verdict = "SURVIVED" if code == 0 else f"NOT RUN (pytest exit {code})"
            print(f"{m['id']}: {verdict} {m['tests']} in {seconds:.1f} s")
            if code:
                print(out)
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
