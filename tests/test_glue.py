import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadalg.algebras import type_of
from quadalg.errors import ValidationFailed
from quadalg.glue import (
    GluedAlgebra,
    GluedTypeData,
    LineBundleCocycle,
    PrincipalCover,
    _as_pair,
    build_glued,
    check_cocycle_transitions,
    check_transition_hom,
    verification_report,
)

from oracles import as_fraction, localization_value, with_shift


def values(pairs):
    return tuple(map(as_fraction, pairs))


def all_pass(cover, cocycle, data):
    return all(ok for _, _, ok in verification_report(cover, cocycle, data))


def worked_example():
    cover = PrincipalCover([2, 3])
    cocycle = LineBundleCocycle(cover, {(0, 1): Fraction(3, 2)})
    data = GluedTypeData([-99, -44], [1, 0])
    return cover, cocycle, data


def test_single_chart_cover():
    cover = PrincipalCover([1])
    cocycle = LineBundleCocycle(cover, {})
    data = GluedTypeData([-44], [0])
    assert cover.covers()
    assert all_pass(cover, cocycle, data)
    glued = build_glued(cover, cocycle, data)
    chart = glued.charts[0]
    assert chart.r == 0 and chart.s == 11


def test_worked_example_builds():
    cover, cocycle, data = worked_example()
    assert cover.covers()
    assert all_pass(cover, cocycle, data)
    glued = build_glued(cover, cocycle, data)
    c0, c1 = glued.charts
    assert c0.r == 1 and c0.s == 25 and c0.ring.describe() == "Z[1/2]"
    assert c1.r == 0 and c1.s == 11 and c1.ring.describe() == "Z[1/3]"
    assert values(glued.transitions[(0, 1)]) == (Fraction(3, 2), Fraction(-1, 2))
    assert check_transition_hom(glued, 0, 1)
    assert check_transition_hom(glued, 1, 0)


def test_cocycle_not_a_unit():
    cover = PrincipalCover([2, 3])
    cocycle = LineBundleCocycle(cover, {(0, 1): 5})
    data = GluedTypeData([-44 * 25, -44], [0, 0])
    report = list(verification_report(cover, cocycle, data))
    assert [row for row in report if row[0] == "cocycle_unit"] == [("cocycle_unit", (0, 1), False)]
    with pytest.raises(ValidationFailed, match=r"^cocycle_unit failed at \[0, 1\]$"):
        build_glued(cover, cocycle, data)


def test_missing_cocycle_entry_is_named_by_its_key():
    # the first missing entry of (1,3) and (2,3), as a 1-based glue-check key
    cover = PrincipalCover([2, 3, 5])
    with pytest.raises(ValueError, match="^missing cocycle entry '1,3'$"):
        LineBundleCocycle(cover, {(0, 1): 1})


def _read(read, s):
    """read(s) as a Fraction, or None when it refuses s."""
    try:
        x = read(s)
    except (ValueError, ZeroDivisionError):
        return None
    return Fraction(*x) if isinstance(x, tuple) else x


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.text(alphabet="0123456789+-/._ eE", max_size=8))
@example("1_0")
@example("3 / 2")
@example(" -.5 ")
@example("1.50")
@example("5.")
@example("1/0")
@example("1e5")
def test_rational_strings_read_as_fraction_reads_them(s):
    # one grammar on every interpreter: Python 3.13's Fraction strings without
    # the exponent, which take in every string that an older Fraction takes
    got = _read(lambda x: _as_pair(x, "an entry"), s)
    if "e" in s or "E" in s:
        assert got is None
        return
    expected = _read(Fraction, s)
    if expected is not None or sys.version_info >= (3, 13):
        assert got == expected


def test_rationals_are_read_as_int_pairs():
    # not reduced, the denominator made positive; a Fraction is read through
    # its numerator and denominator
    for x, pair in (("1.50", (150, 100)), ("-6/4", (-6, 4)), (" +7 ", (7, 1)), (-3, (-3, 1)),
                    ((3, -6), (-3, 6)), (Fraction(-6, 4), (-3, 2)), ("\u0663/\u0664", (3, 4))):
        assert _as_pair(x, "an entry") == pair, x
    for x in (True, 1.5, None, "1e5", "1/2/3", (1, 2, 3), (1.0, 2), ("1", 2), "1" * 5000):
        with pytest.raises(ValueError, match="^an entry must be a rational number, got "):
            _as_pair(x, "an entry")
    for x in ("0/0", "3/0", (1, 0)):
        with pytest.raises(ValueError, match="^an entry has a zero denominator: "):
            _as_pair(x, "an entry")


def test_cover_must_cover():
    assert not PrincipalCover([2, 4]).covers()
    assert PrincipalCover([2, 3]).covers()
    assert PrincipalCover([6, 10, 15]).covers()


def test_cover_opens_are_exact_ints():
    with pytest.raises(TypeError):  # int() would read the cover as [2, 3]
        PrincipalCover([2.5, 3])


def test_perturbed_shift_fails_hom_check():
    cover, cocycle, data = worked_example()
    glued = build_glued(cover, cocycle, data)
    bad = with_shift(glued, 0, 1, as_fraction(glued.transitions[(0, 1)][1]) + 1)
    assert not check_transition_hom(bad, 0, 1)


def test_trivial_cocycle_two_charts():
    cover = PrincipalCover([2, 3])
    cocycle = LineBundleCocycle(cover, {(0, 1): 1})
    data = GluedTypeData([5, 5], [1, 1])
    glued = build_glued(cover, cocycle, data)
    for chart in glued.charts:
        assert chart.r == 1 and chart.s == -1
    assert values(glued.transitions[(0, 1)]) == (1, 0)
    assert check_transition_hom(glued, 0, 1)


def test_chart_types_match_data():
    cover, cocycle, data = worked_example()
    glued = build_glued(cover, cocycle, data)
    for i, chart in enumerate(glued.charts):
        t = type_of(chart)
        ring = chart.ring
        assert localization_value(t.delta) == as_fraction(data.d[i])
        assert t.parity == ring.mod2(ring.from_rational(*data.p[i]))


def test_chart_level_freeok():
    # two valid lifts of the same parity on one chart are freeok-related
    from quadalg.algebras import freeok_iso
    cover, cocycle, data = worked_example()
    glued = build_glued(cover, cocycle, data)
    chart = glued.charts[0]  # over Z[1/2]
    ring = chart.ring
    other_lift = chart.r + 2 * ring.from_rational(5, 2)
    target, hom = freeok_iso(chart, other_lift)
    assert hom.verifies(chart, target)
    assert type_of(target) == type_of(chart)


def random_valid_dataset(rng):
    """Valid cover data built from chart trivializations lambda_i."""
    primes = rng.sample([2, 3, 5, 7], rng.randrange(2, 5))
    cover = PrincipalCover(primes)
    lam = [Fraction(rng.choice((1, -1)) * f ** rng.randrange(0, 3))
           for f in primes]
    eps = {}
    for i in range(len(primes)):
        for j in range(i + 1, len(primes)):
            eps[(i, j)] = lam[j] / lam[i]
    cocycle = LineBundleCocycle(cover, eps)
    k = rng.randrange(-40, 40)
    delta = 4 * k + rng.choice((0, 1))
    pitilde = abs(delta) % 2
    d = [Fraction(delta) / (l * l) for l in lam]
    p = [Fraction(pitilde) / l + 2 * rng.randrange(-3, 4) for l in lam]
    return cover, cocycle, GluedTypeData(d, p)


def test_randomized_valid_datasets():
    rng = random.Random(20260810)
    for _ in range(120):
        cover, cocycle, data = random_valid_dataset(rng)
        report = list(verification_report(cover, cocycle, data))
        assert all(ok for _, _, ok in report), report
        glued = build_glued(cover, cocycle, data)
        k = cover.size
        for i in range(k):
            for j in range(k):
                if i != j:
                    assert check_transition_hom(glued, i, j)
                for t in range(k):
                    if len({i, j, t}) == 3:
                        assert check_cocycle_transitions(glued, i, j, t)


def test_transition_checks_need_overlap_membership():
    # the identities hold, and eps = 1/5 lies in the overlap ring of {5, 3} only
    e, zero, one = (1, 5), (0, 1), (1, 1)
    for opens, ok in (([5, 3], True), ([2, 3], False)):
        glued = GluedAlgebra(PrincipalCover(opens), [], (e, one), ((5, 25), (5, 1)),
                             {(0, 1): (e, zero)})
        assert check_transition_hom(glued, 0, 1) is ok
        transitions = {(0, 1): (e, zero), (1, 2): (one, zero), (0, 2): (e, zero)}
        glued = GluedAlgebra(PrincipalCover(opens + [7]), [], (), (), transitions)
        assert check_cocycle_transitions(glued, 0, 1, 2) is ok


def test_cocycle_transitions_skip_repeated_indices():
    cover, cocycle, data = worked_example()
    glued = build_glued(cover, cocycle, data)
    assert check_cocycle_transitions(glued, 0, 0, 1)


def test_report_flags_first_failure():
    cover = PrincipalCover([2, 3])
    cocycle = LineBundleCocycle(cover, {(0, 1): Fraction(3, 2)})
    data = GluedTypeData([-99, -43], [1, 1])  # d mismatch on the overlap
    failing = [row for row in verification_report(cover, cocycle, data) if not row[2]]
    assert failing and failing[0][0] == "overlap_discriminant"
