"""The mutant catalogue cannot go stale in silence: each mutant's ``old``
snippet occurs exactly once in its file, and each test it names is defined in
a file that exists.  ``python tests/mutation_check.py`` runs the mutants
themselves."""

import mutation_check
from mutation_check import load_catalogue, stale_entries


def test_every_mutant_applies_to_exactly_one_place():
    mutants = load_catalogue()
    assert mutants and all(m["tests"] for m in mutants)
    assert stale_entries(mutants) == []
    assert len({m["id"] for m in mutants}) == len(mutants)


def test_a_renamed_test_is_stale():
    # a test id left behind by a fold or a rename, with and without a [param]
    # suffix; the file exists, so only the function name can tell
    mutant = dict(load_catalogue()[0], tests=[
        "tests/test_ring.py::test_try_inverse",
        "tests/test_ring.py::test_no_such_test",
        "tests/test_golden.py::test_cli[type-e0f5da4d]",
        "tests/test_algebras.py::test_no_such_search_rows[Z/8]",
        "tests/test_no_such_file.py::test_try_inverse",
    ])
    assert stale_entries([mutant]) == [
        f"{mutant['id']}: tests/test_ring.py defines no test test_no_such_test",
        f"{mutant['id']}: tests/test_algebras.py defines no test test_no_such_search_rows",
        f"{mutant['id']}: no test file tests/test_no_such_file.py",
    ]


def test_named_mutants_run_alone(monkeypatch, capsys):
    # the baseline runs only the named mutants' tests, and only they are run
    mutants = [m for m in load_catalogue() if not m.get("equivalent")]
    first, last = mutants[0], mutants[-1]
    runs = []

    def fake_run(tests, mutant=None):
        runs.append((tests, mutant and mutant["id"]))
        return (0, "", 0.0) if mutant is None else (1, f"FAILED {tests[0]} - x", 0.0)

    monkeypatch.setattr(mutation_check, "run_tests", fake_run)
    assert mutation_check.main([last["id"], first["id"]]) == 0
    baseline = list(dict.fromkeys(first["tests"] + last["tests"]))
    assert runs == [(baseline, None), (first["tests"], first["id"]),
                    (last["tests"], last["id"])]
    assert capsys.readouterr().out.splitlines()[-1].startswith("2 of 2 mutants killed")


def test_an_unknown_mutant_id_is_named(monkeypatch, capsys):
    monkeypatch.setattr(mutation_check, "run_tests", None)  # nothing may run
    known = load_catalogue()[0]["id"]
    assert mutation_check.main([known, "no-such-mutant"]) == 1
    assert capsys.readouterr().out == "no mutant no-such-mutant in mutants.jsonl\n"
