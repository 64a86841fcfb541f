"""The mutant catalogue cannot go stale in silence: each mutant's ``old``
snippet occurs exactly once in its file, and each test it names is defined in
a file that exists.  ``python tests/mutation_check.py`` runs the mutants
themselves."""

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
