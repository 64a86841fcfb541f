"""The mutant catalogue cannot go stale in silence: each mutant's ``old``
snippet occurs exactly once in its file, and each test file it names exists.
``python tests/mutation_check.py`` runs the mutants themselves."""

from mutation_check import load_catalogue, stale_entries


def test_every_mutant_applies_to_exactly_one_place():
    mutants = load_catalogue()
    assert mutants and all(m["tests"] for m in mutants)
    assert stale_entries(mutants) == []
    assert len({m["id"] for m in mutants}) == len(mutants)
