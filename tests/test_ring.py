import itertools
import random
import re
from fractions import Fraction
from math import gcd, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadalg.errors import (
    ExponentTooLarge,
    InfiniteRing,
    NoIdentity,
    NonAssociative,
    NonCommutative,
    RingMismatch,
    RingTooLarge,
    NotTwoRegular,
    UnsupportedRing,
)
from quadalg import ring as ring_module
from quadalg.cli import builtin_ring
from quadalg.ring import (
    EXPONENT_CAP,
    FINITE_TABLE_CAP,
    TABLE_RANK_CAP,
    UNIT_SCAN_CAP,
    IntegerRing,
    LocalizationRing,
    Mod2Element,
    QuotientRing,
    Ring,
    RingElement,
    TableRing,
    construct_ring,
    crt_roots,
    divides_power,
    hnf,
    in_localization,
    is_square,
    quadratic_table_ring,
    solve_hnf,
    solve_int,
    sqrt_mod_prime_power,
    xgcd,
)

from quadalg.algebras import find_parities

from oracles import (
    in_4R,
    in_4R_by_kind,
    lattice_index_minors,
    mod2_by_kind,
    mod2_residues_by_kind,
    mul_coords_dense,
    parities_by_kind,
    localization_add,
    localization_from_fraction,
    localization_in_4R,
    localization_sqrt,
    localization_try_divide,
    localization_try_halve,
    localization_try_inverse,
    localization_value,
    pell_fundamental,
    pell_scan,
    sqrt_from_candidates,
    sqrt_scan,
    unit_group_generators,
)

Z = IntegerRing()
ZSQRT8 = quadratic_table_ring(8)
ZSQRT2 = quadratic_table_ring(2)
ZMOD8 = QuotientRing(IntegerRing(), 8)
ZMOD4 = QuotientRing(IntegerRing(), 4)
F4 = QuotientRing(TableRing([[(1, 0), (0, 1)], [(0, 1), (-1, -1)]],
                            one=(1, 0), symbols=("1", "x")), 2)
ZINV6 = LocalizationRing(6)


def test_construct_ring_examples():
    assert construct_ring({"kind": "integers"}).two_regular
    r8 = construct_ring(ZSQRT8.descriptor())
    assert r8.two_regular and r8 == ZSQRT8
    q8 = construct_ring({"kind": "quotient", "base": {"kind": "integers"}, "m": 8})
    assert not q8.two_regular
    assert construct_ring({"kind": "quotient", "base": {"kind": "integers"},
                           "m": 9}).two_regular
    assert construct_ring({"kind": "localization", "f": 6}).two_regular


def test_descriptors_and_element_objects_refuse_unknown_keys():
    # a key that a descriptor's kind or an element object does not read is
    # refused by name, not dropped: {"kind":"integers","m":8} is not Z/8
    from quadalg.cli import BUILTIN_RINGS
    for descriptor in BUILTIN_RINGS.values():
        construct_ring(descriptor)
    for ring in (Z, ZSQRT8, ZMOD8, F4, ZINV6):
        assert construct_ring(ring.descriptor()) == ring
    for descriptor, kind, key in [
        ({"kind": "integers", "m": 8}, "integers", "m"),
        ({"kind": "table", "mul": [[[1]]], "m": 8}, "table", "m"),
        ({"kind": "quotient", "base": {"kind": "integers"}, "m": 8, "f": 2}, "quotient", "f"),
        ({"kind": "quotient", "base": {"kind": "integers", "rank": 1}, "m": 8}, "integers", "rank"),
        ({"kind": "localization", "f": 6, "k": 1}, "localization", "k"),
    ]:
        with pytest.raises(ValueError) as err:
            construct_ring(descriptor)
        assert str(err.value) == f"{kind} ring descriptor has an unknown key {key!r}"
    for ring in (Z, ZSQRT8, ZMOD8, ZINV6):
        with pytest.raises(ValueError) as err:
            ring.element_from_json({"coords": [1] * ring.rank, "k": 0, "x": 5})
        assert str(err.value) == "a ring element object has an unknown key 'x'"
    assert ZINV6.element_from_json({"k": 1, "coords": [3]}) == ZINV6.from_rational(1, 2)


def test_construct_ring_rejects_bad_tables():
    # a float, a string or a bool is refused, not cut down to an int
    for mul in (5, [5], [[5]], [[[1, 0]]], [[[1], [0]]], [[[None]]], [[[1.0]]], [[["1"]]],
                [[[True]]]):
        with pytest.raises(ValueError):
            construct_ring({"kind": "table", "mul": mul})
    for extra in ({"one": 5}, {"one": [None]}, {"symbols": 5}, {"one": [1.0]}, {"one": ["1"]},
                  {"one": [True]}):
        with pytest.raises(ValueError):
            construct_ring({"kind": "table", "mul": [[[1]]], **extra})
    with pytest.raises(TypeError):
        QuotientRing(Z, 8.0)
    with pytest.raises(ValueError):
        TableRing([[(1, 0), (0, 1)], [(0, 1), (2, 0)]], one=(1,))
    with pytest.raises(NonCommutative):
        TableRing([[(1, 0), (0, 1)], [(1, 0), (1, 0)]])
    with pytest.raises(NoIdentity):
        TableRing([[(2,)]])
    # commutative, unital, but (ab)b != a(bb)
    bad = [
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 1, 0), (0, 0, 0), (0, 1, 0)],
        [(0, 0, 1), (0, 1, 0), (0, 0, 0)],
    ]
    with pytest.raises(NonAssociative):
        TableRing(bad)


def test_localization_reads_f_as_an_exact_int():
    # as QuotientRing reads m: 6.0 is refused when the ring is built, not
    # taken and then failed on inside divides_power by the first division
    for f in (6.0, "6"):
        with pytest.raises(TypeError):
            LocalizationRing(f)
    with pytest.raises(ValueError, match="at least 2"):
        LocalizationRing(True)


def test_element_arithmetic_examples():
    assert Z.from_int(3) * Z.from_int(4) == 12
    w = ZSQRT8.element((0, 1))
    assert (3 + w) * (3 - w) == 1
    # (3 - Y)(3 + Y) = 1 in Z[X,Y]/(X^2-8, Y^2-8)
    from quadalg.cli import builtin_ring
    bq = builtin_ring("biquad8")
    y = bq.element((0, 0, 1, 0))
    assert (3 - y) * (3 + y) == 1


def test_ring_mismatch():
    # only an operand of the very same ring object skips coerce: an equal ring
    # object still passes it, and any other ring raises
    twin = quadratic_table_ring(8)
    x, y = ZSQRT8.element((1, 2)), twin.element((3, -1))
    assert twin is not ZSQRT8 and twin == ZSQRT8
    assert [z.coords for z in (x + y, x - y, x * y, y - x)] \
        == [(4, 1), (-2, 3), (-13, 5), (2, -3)]
    for a, b in ((Z.from_int(1), ZSQRT8.one), (ZSQRT8.one, ZSQRT2.one),
                 (ZMOD8.one, ZMOD4.one), (ZSQRT8.one, Z.one), (ZINV6.one, Z.one)):
        for op in (lambda: a + b, lambda: a - b, lambda: a * b,
                   lambda: a.ring.try_divide(b, a), lambda: a.ring.try_divide(a, b),
                   lambda: a.ring.mod2(b)):
            with pytest.raises(RingMismatch):
                op()
    # the derived operations read an operand's coords only once it is coerced
    for op in (ZINV6.try_halve, ZINV6.sqrt, ZSQRT8.sqrt):
        with pytest.raises(RingMismatch):
            op(Z.one)


def test_try_inverse():
    assert Z.try_inverse(Z.from_int(-1)) == -1
    assert Z.try_inverse(Z.from_int(2)) is None
    from quadalg.cli import builtin_ring
    bq = builtin_ring("biquad8")
    y = bq.element((0, 0, 1, 0))
    assert bq.try_inverse(3 - y) == 3 + y
    half = ZINV6.try_inverse(ZINV6.from_int(2))
    assert half is not None and half.coords == (3, 1)
    assert ZINV6.try_inverse(ZINV6.from_int(5)) is None
    assert ZMOD8.try_inverse(ZMOD8.from_int(3)) == ZMOD8.from_int(3)
    assert ZMOD8.try_inverse(ZMOD8.from_int(2)) is None


def test_try_halve():
    assert Z.try_halve(Z.from_int(10)) == 5
    w = ZSQRT8.element((0, 1))
    assert ZSQRT8.try_halve(2 * w) == w
    assert ZSQRT8.try_halve(w) is None  # 2 does not divide sqrt(8)
    with pytest.raises(NotTwoRegular):
        ZMOD8.try_halve(ZMOD8.from_int(4))
    # 2 is a unit in Z/9 and in Z[1/6]
    z9 = QuotientRing(IntegerRing(), 9)
    assert z9.try_halve(z9.from_int(1)) == z9.from_int(5)
    assert ZINV6.try_halve(ZINV6.from_int(1)) == ZINV6.element((3, 1))


def test_localization_products_are_normalized():
    # (3/6)(2/6) = 1/6: the kernel pair (6, 2) normalizes to (1, 1), and a
    # zero product to (0, 0), so that equal values have equal pairs
    half, third = ZINV6.element((3, 1)), ZINV6.element((2, 1))
    assert half * third == ZINV6.element((1, 1)) and (half * third).coords == (1, 1)
    assert (half * ZINV6.zero).coords == (0, 0)


def test_localization_residues_multiply():
    # a residue of Z[1/3] lifts to the kernel pair (bit, 0) before it
    # multiplies: 1/3 is odd, so (1/3 mod 2) * 1/3 is the residue 1
    zinv3 = LocalizationRing(3)
    third = zinv3.element((1, 1))
    product = zinv3.mod2(third).times(third)
    assert isinstance(product, Mod2Element) and product.residue == (1,)
    assert zinv3.mod2(zinv3.from_int(2)).times(third).is_zero()


def test_odd_quotient_halves_without_division(monkeypatch):
    # 2 is a unit mod an odd m, with inverse (m + 1)/2: halving scales by it
    # and solves no lattice system; the halves match division by 2
    rng = random.Random(9)
    cases = []
    for ring in (QuotientRing(ZSQRT2, 9), QuotientRing(Z, 100003)):
        for _ in range(20):
            x = ring.element([rng.randrange(ring.m) for _ in range(ring.rank)])
            cases.append((ring, x, ring.try_divide(x, ring.from_int(2))))
    calls = []

    def solve_int(*args):
        calls.append(args)
        return real_solve_int(*args)

    real_solve_int = ring_module.solve_int
    monkeypatch.setattr(ring_module, "solve_int", solve_int)
    for ring, x, half in cases:
        assert ring.try_halve(x) == half and 2 * half == x
    assert calls == []


def test_mod2_and_in_4r():
    assert Z.mod2(Z.from_int(7)).residue == (1,)
    assert in_4R(ZSQRT8.from_int(24 - 8))
    assert in_4R(ZINV6.from_int(1))  # 2 is invertible in Z[1/6]
    assert not in_4R(Z.from_int(6))
    assert ZINV6.mod2(ZINV6.from_int(3)).is_zero()  # f even kills R/2R
    z15 = LocalizationRing(15)
    assert z15.mod2(z15.from_int(3)).residue == (1,)


def _mod2_rings():
    rings = [Z, *(quadratic_table_ring(n) for n in (0, 8, -1, 4)), builtin_ring("biquad8"),
             TableRing([[(1,)]]), TableRing([[(0, 1), (1, 0)], [(1, 0), (0, 1)]], one=(0, 1))]
    rings += [QuotientRing(Z, m) for m in (2, 4, 6, 8, 9, 45)]
    rings += [F4, QuotientRing(ZSQRT8, 9)]
    return rings + [LocalizationRing(f) for f in (2, 5, 6, 15)]


def _mod2_sample(ring):
    """Every element of a finite ring; otherwise small coordinates, multiples
    of 4 among them, with exponents up to 2 in Z[1/f]."""
    if ring.is_finite():
        return ring.enumerate_elements()
    if ring.kind == "localization":
        return [ring.element((n, k)) for n in range(-9, 10) for k in range(3)]
    values = range(-5, 9) if ring.rank < 4 else (-4, -1, 0, 2, 4)
    return [ring.element(c) for c in itertools.product(values, repeat=ring.rank)]


def test_element_round_trips_the_kernel_tuple():
    # element takes x.coords in every backend, (num, k) in Z[1/f], and the
    # JSON object {"coords": [num], "k": k} is read by element_from_json alone
    for ring in _mod2_rings():
        for x in _mod2_sample(ring):
            assert ring.element(x.coords) == x, (ring, x)
    half = ZINV6.from_rational(1, 2)
    assert half.coords == (3, 1) and ZINV6.element(half.coords) == half
    assert ZINV6.element_from_json({"coords": [3], "k": 1}) == half
    with pytest.raises(ValueError, match="expected 1 coordinates"):
        ZINV6.element_from_json({"coords": [3, 1]})
    with pytest.raises(ValueError, match="carries no denominator exponent"):
        Z.element_from_json({"coords": [3], "k": 1})


def test_localization_element_names_the_pair():
    # a tuple of another length, such as the 1-tuple of an integer's coords,
    # is refused by a message that names the pair and echoes the argument
    for coords in ((3,), (1, 2, 3)):
        with pytest.raises(ValueError) as exc:
            ZINV6.element(coords)
        assert str(exc.value) == ("an element of Z[1/6] is the pair (num, k) of num/f^k, "
                                  f"got {coords!r}")


def test_mod2_and_in_4r_match_the_rule_of_each_ring_kind():
    for ring in _mod2_rings():
        assert ring.mod2_residues() == mod2_residues_by_kind(ring), ring
        sample = _mod2_sample(ring)
        assert [ring.mod2(x) for x in sample] == [mod2_by_kind(ring, x) for x in sample], ring
        assert [in_4R(x) for x in sample] == [in_4R_by_kind(x) for x in sample], ring
        if ring.two_regular:
            for delta in sample[:: max(1, len(sample) // 60)]:
                assert find_parities(ring, delta) == parities_by_kind(ring, delta), (ring, delta)


def test_unit_group_generators():
    # the oracle's fundamental unit against a direct scan and its norm, every
    # non-square N < 200; the scan stops at y <= 10^4, so past that it finds none
    for n in range(2, 200):
        if is_square(n):
            continue
        x, y = pell_fundamental(n)
        assert abs(x * x - n * y * y) == 1, n
        assert pell_scan(n, min(y, 10**4)) == ((x, y) if y <= 10**4 else None), n
    assert pell_scan(8, 10) == (3, 1) and pell_scan(2, 10) == (1, 1)
    gens8 = unit_group_generators(ZSQRT8)
    assert gens8[0] == -1 and gens8[1].coords == (3, 1)
    assert gens8[1] * ZSQRT8.element((3, -1)) == 1
    assert sorted(int(u) for u in ZMOD8.units) == [1, 3, 5, 7]
    # N = 0: the units +-(1 + b*w) are generated by -1 and (1 + w)^b = 1 + b*w
    zsqrt0 = quadratic_table_ring(0)
    minus, gen = unit_group_generators(zsqrt0)
    assert minus == -1 and gen.coords == (1, 1)
    assert all(gen ** b == zsqrt0.element((1, b)) for b in range(8))


def test_imaginary_quadratic_units_have_unit_norm():
    for n in (-2, -3, -11):
        ring = quadratic_table_ring(n)
        for u in ring.units:
            a, b = u.coords
            assert abs(a * a - n * b * b) == 1


def test_unit_lists():
    # finitely many units exactly where a norm scan finds them all
    assert Z.units == [1, -1] and ZINV6.units is None
    for n in range(-7, 11):
        ring = quadratic_table_ring(n)
        scan = sorted((a, b) for a in range(-5, 6) for b in range(-5, 6)
                      if abs(a * a - n * b * b) == 1)
        finite = n < 0 or n in (1, 4, 9)
        assert (ring.units is not None) == finite, n
        if finite:
            assert sorted(u.coords for u in ring.units) == scan, n
    # a rank-1 table ring is Z, with identity e0 or -e0
    for sign in (1, -1):
        rank1 = TableRing([[(sign,)]])
        assert [u.coords for u in rank1.units] == [(sign,), (-sign,)]
    assert TableRing([[(1, 0), (0, 1)], [(0, 1), (1, 1)]]).units is None


def test_sqrt_outside_zsqrt_n_is_unsupported():
    # Z[sqrt N]/m shares the lattice class of Z[sqrt N] but is not Z[sqrt N]:
    # it names no N, so it has no norm-based square root
    for ring in (Z, ZMOD8, TableRing([[(1,)]]), F4, QuotientRing(ZSQRT8, 9),
                 QuotientRing(ZSQRT2, 5)):
        assert ring.quadratic_param is None, ring
        with pytest.raises(UnsupportedRing, match=re.escape(f"no square-root routine for {ring!r}")):
            ring.sqrt(ring.one)


def test_localization_sqrt_examples():
    for f, q, root in ((6, Fraction(4, 9), Fraction(2, 3)), (6, 1, 1), (6, 0, 0),
                       (4, Fraction(1, 4), Fraction(1, 2)), (6, Fraction(1, 6), None),
                       (4, Fraction(1, 2), None), (6, 2, None), (6, -4, None)):
        ring = LocalizationRing(f)
        got = ring.sqrt(ring.from_rational(*q.as_integer_ratio()))
        assert (None if got is None else localization_value(got)) == root, (f, q)
    # delta of an algebra with r at the exponent cap
    for f in (2, 6, 12):
        ring = LocalizationRing(f)
        x = ring.element((-5 * 7**3, EXPONENT_CAP))
        assert ring.sqrt(x * x) == -x and ring.sqrt(f * x * x) is None


def test_sqrt_matches_the_candidate_root_finder():
    rng = random.Random(13)
    for n in [n for n in range(-7, 11) if n]:
        ring = quadratic_table_ring(n)
        for a in range(-12, 13):
            for b in range(-12, 13):
                y = ring.element((a, b))
                root = ring.sqrt(y * y)
                assert root == sqrt_from_candidates(ring, y * y), (n, a, b)
                assert root in (y, -y) or n in (1, 4, 9) and root * root == y * y
        for _ in range(300):
            x = ring.element((rng.randrange(-300, 301), rng.randrange(-300, 301)))
            assert ring.sqrt(x) == sqrt_from_candidates(ring, x), (n, x)


def test_sqrt_over_zsqrt0_matches_a_root_scan():
    # w^2 = 0: (a + b*w)^2 = a^2 + 2ab*w, so a root of x = t0 + t1*w with
    # |t0|, |t1| <= 50 has a <= 7 and |b| <= 25, inside the scan
    ring = quadratic_table_ring(0)
    rng = random.Random(0)
    xs = [(t0, t1) for t0 in range(-2, 37) for t1 in range(-24, 25)]
    xs += [(rng.randrange(-50, 51), rng.randrange(-50, 51)) for _ in range(200)]
    for x in xs:
        root = ring.sqrt(ring.element(x))
        assert (None if root is None else root.coords) == sqrt_scan(0, x, 25), x


def test_enumerate_elements():
    assert len(ZMOD4.enumerate_elements()) == 4
    assert len(F4.enumerate_elements()) == 4
    assert len(ZMOD8.enumerate_elements()) == 8
    with pytest.raises(InfiniteRing):
        Z.enumerate_elements()
    with pytest.raises(InfiniteRing):
        ZINV6.enumerate_elements()


def test_is_unit_agrees_with_exhaustive_search_on_finite_rings():
    for ring in (ZMOD4, ZMOD8, F4, QuotientRing(IntegerRing(), 9)):
        for x in ring.enumerate_elements():
            witnessed = any(x * y == ring.one for y in ring.enumerate_elements())
            assert ring.is_unit(x) == witnessed
            inv = ring.try_inverse(x)
            if inv is not None:
                assert x * inv == ring.one


def test_quotient_sums_stay_canonical():
    # quotient addition and negation skip ``element``; their coords must
    # still be the reduced ones that ``element`` produces
    for ring in (ZMOD8, F4, QuotientRing(ZSQRT8, 9)):
        elements = ring.enumerate_elements()
        for x in elements:
            assert (-x).coords == ring.element([-c for c in x.coords]).coords
            for y in elements:
                assert (x + y).coords == \
                    ring.element([a + b for a, b in zip(x.coords, y.coords)]).coords


def _random_element(rng, ring):
    if ring.kind == "localization":
        return ring.element((rng.randrange(-50, 51), rng.randrange(0, 3)))
    return ring.element(tuple(rng.randrange(-50, 51) for _ in range(ring.rank)))


def test_ring_axioms_fuzz():
    from quadalg.cli import builtin_ring
    rng = random.Random(20260810)
    rings = [Z, ZSQRT2, ZSQRT8, builtin_ring("biquad8"), ZMOD8, F4, ZINV6]
    per_ring = 1000 // len(rings) + 1
    for ring in rings:
        for _ in range(per_ring):
            x, y, z = (_random_element(rng, ring) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            assert (x * y) * z == x * (y * z)
            assert ring.one * x == x
            assert x - x == ring.zero


def test_halving_fuzz():
    rng = random.Random(99)
    for ring in (Z, ZSQRT8, ZINV6, QuotientRing(IntegerRing(), 9)):
        for _ in range(300):
            x = _random_element(rng, ring)
            assert ring.try_halve(x + x) == x
            y = ring.try_halve(x)
            if y is not None:
                assert y + y == x


def test_localization_canonical_form():
    x = ZINV6.element((12, 1))  # 12/6 = 2
    assert x.coords == (2, 0)
    y = ZINV6.element((3, 1))  # 3/6 stays: 6 does not divide 3
    assert y.coords == (3, 1)
    assert ZINV6.from_rational(1, 2) == y and ZINV6.from_rational(-9, -18) == y
    # one layout: an element's coords is its ring's kernel tuple, in every backend
    rng = random.Random(37)
    for ring in (Z, ZSQRT2, ZMOD8, F4, ZINV6):
        for _ in range(60):
            x, y = _random_element(rng, ring), _random_element(rng, ring)
            assert (x + y).coords == ring._add_coords(x.coords, y.coords)
            assert (x - y).coords == ring._sub_coords(x.coords, y.coords)
            assert (x * y).coords == ring._mul_coords(x.coords, y.coords)
            if ring is ZINV6:
                num, k = x.coords
                assert num % 6 or k == 0, x.coords
            assert ring.element_from_json(ring.element_to_json(x)) == x


def test_element_json_round_trip():
    from quadalg.cli import builtin_ring
    rng = random.Random(5)
    for ring in (Z, ZSQRT8, ZMOD8, ZINV6, builtin_ring("biquad8")):
        for _ in range(50):
            x = _random_element(rng, ring)
            assert ring.element_from_json(ring.element_to_json(x)) == x
    rebuilt = construct_ring(ZSQRT8.descriptor())
    assert rebuilt.descriptor() == ZSQRT8.descriptor()


@pytest.mark.parametrize("ring", [Z, ZSQRT2, QuotientRing(Z, 7), QuotientRing(ZSQRT8, 9), ZINV6],
                         ids=repr)
def test_elements_are_built_from_exact_ints(ring):
    # int() would read 2.5 as 2 and "3" as 3, and from_int stored them as given
    for bad in (2.5, "3"):
        with pytest.raises(TypeError):
            ring.element([bad] * ring.rank)
        with pytest.raises(TypeError):
            ring.from_int(bad)


def test_from_rational_reads_exact_ints():
    # n/d from two ints, not necessarily in lowest terms; any other value raises
    assert Z.from_rational(-6, 3) == -2 and Z.try_from_rational(6, -4) is None
    assert ZINV6.from_rational(10, -24) == localization_from_fraction(ZINV6, Fraction(-5, 12))
    assert ZINV6.try_from_rational(1, 10) is None
    for ring in (Z, ZINV6):
        for bad in ((Fraction(1, 2),), (2.5,), ("3",), (1, 2.0)):
            with pytest.raises(TypeError):
                ring.try_from_rational(*bad)
        with pytest.raises(ZeroDivisionError):
            ring.try_from_rational(1, 0)


# Z^3 in a twisted basis.  q = -3e1 + 2e2 kills 1 + e1 + 2e2, so q*y has many
# quotients, and a Q-solver that sets free variables to zero can miss them all
TWISTED_Z3 = TableRing([[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                        [(0, 1, 0), (0, -1, -2), (0, 0, 1)],
                        [(0, 0, 1), (0, 0, 1), (0, 0, -1)]], one=(1, 0, 0))


def test_table_ring_division_is_complete():
    from quadalg.cli import builtin_ring
    q, y = TWISTED_Z3.element((0, -3, 2)), TWISTED_Z3.element((1, 2, -1))
    z = TWISTED_Z3.try_divide(q * y, q)
    assert z is not None and q * z == q * y
    rng = random.Random(31)
    for ring in (TWISTED_Z3, builtin_ring("biquad8")):
        for _ in range(150):
            q = ring.element(tuple(rng.randrange(-4, 5) for _ in range(ring.rank)))
            y = _random_element(rng, ring)
            z = ring.try_divide(q * y, q)
            assert z is not None and q * z == q * y


def _monogenic(coeffs):
    """Z[x]/(x^n + c_{n-1} x^{n-1} + ... + c_0) on the basis 1, x, ..., x^{n-1}."""
    n = len(coeffs)
    powers = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    while len(powers) < 2 * n - 1:
        top = powers[-1]  # x * x^k: shift up, then x^n = -sum c_i x^i
        powers.append(tuple((top[i - 1] if i else 0) - top[-1] * coeffs[i] for i in range(n)))
    return TableRing([[powers[i + j] for j in range(n)] for i in range(n)])


_TABLE_RINGS = st.one_of(
    st.sampled_from((quadratic_table_ring(0), quadratic_table_ring(4), ZSQRT8, TWISTED_Z3,
                     TableRing([[(1, 0), (0, 0)], [(0, 0), (0, 1)]]),  # Z x Z
                     builtin_ring("biquad8"), builtin_ring("f4").base)),
    st.integers(-30, 30).map(quadratic_table_ring),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(_monogenic))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_TABLE_RINGS, st.none() | st.integers(2, 40), st.data())
def test_sparse_product_matches_dense_tensor_loop(base, m, data):
    # the compiled kernels of a table ring, or with m those of its quotient
    # mod m: the dense tensor loop and coordinate-wise sums, differences and
    # multiples, reduced mod m
    ring = base if m is None else QuotientRing(base, m)
    entries = st.integers(-50, 50) if m is None else st.integers(0, m - 1)
    coords = st.lists(entries, min_size=ring.rank, max_size=ring.rank).map(tuple)
    x, y = data.draw(coords), data.draw(coords)
    reduce = (lambda v: v) if m is None else (lambda v: tuple(c % m for c in v))
    assert ring._mul_coords(x, y) == reduce(mul_coords_dense(base.table, x, y))
    assert ring._add_coords(x, y) == reduce(tuple(a + b for a, b in zip(x, y)))
    assert ring._neg_coords(x) == reduce(tuple(-a for a in x))
    assert ring._sub_coords(x, y) == reduce(tuple(a - b for a, b in zip(x, y)))
    t = data.draw(st.integers(-2**70, 2**70))
    assert ring._scale_coords(t, x) == reduce(tuple(t * a for a in x))


def test_kernels_bind_constants_past_the_int_string_limit():
    # a 4301-digit N is never written out as text, so it compiles; its
    # quotient reduces it mod m
    n = 10**4300 + 7
    ring = quadratic_table_ring(n)
    w = ring.element((0, 1))
    assert (w * w).coords == (n, 0) and (w * w - n).is_zero()
    assert ring._mul_coords((3, 2), (1, 1)) == (3 + 2 * n, 5)
    q = QuotientRing(ring, 10**4300 + 9)
    assert (q.element((0, 1)) * q.element((0, 1))).coords == (n, 0)
    assert QuotientRing(ring, 11)._mul_coords((0, 1), (0, 1)) == (n % 11, 0)


@st.composite
def _kernel_rings(draw):
    """Z, a table ring (Z[sqrt(N)], biquad8, random monogenic tables, ...),
    its quotient by an odd or an even m, or Z[1/f]."""
    kind = draw(st.sampled_from(("base", "odd", "even", "localization")))
    if kind == "localization":
        return LocalizationRing(draw(st.integers(2, 30)))
    base = draw(st.just(Z) | _TABLE_RINGS)
    if kind == "base":
        return base
    return QuotientRing(base, 2 * draw(st.integers(1, 20)) + (kind == "odd"))


def _kernel_element(ring):
    coords = st.lists(st.integers(-10**6, 10**6) | st.integers(-2**70, 2**70),
                      min_size=ring.rank, max_size=ring.rank)
    if ring.kind == "localization":  # the kernel tuple (num, k)
        return st.builds(lambda c, k: ring.element([*c, k]), coords, st.integers(0, 4))
    return st.builds(ring.element, coords)


# 0, negative and past 2^64
_SCALARS = st.sampled_from((0, 1, -1, 2, 4)) | st.integers(-50, 50) | st.integers(2**64, 2**80) \
    | st.integers(-2**80, -2**64)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_kernel_rings(), st.data())
def test_difference_scale_mod2_and_halving_kernels(ring, data):
    element = _kernel_element(ring)
    x, y, n = data.draw(element), data.draw(element), data.draw(_SCALARS)
    assert x - y == x + (-y)
    assert n - x == ring.from_int(n) + (-x)
    assert n * x == x * n == ring.from_int(n) * x
    assert True * x == x * True == x
    residue = ring.mod2(x)
    assert residue == mod2_by_kind(ring, x)
    assert residue.lift() == ring.element_from_json(list(residue.residue))
    if ring.two_regular:
        if data.draw(st.booleans()):
            x = x + x
        half = ring.try_halve(x)
        assert half is None or 2 * half == x
        if ring.kind == "table":
            assert (half is None) == any(c % 2 for c in x.coords)


def test_a_difference_and_an_int_multiple_build_one_element(monkeypatch):
    # x - y runs one kernel, with no negation; 4*x scales the coordinates,
    # with no element for 4 and no product (Z[1/f] subtracts by its negation).
    # The kernels are counted in each ring's own namespace, where a lattice
    # ring keeps its compiled kernel and Z[1/f]'s method is shadowed
    rings = (Z, ZSQRT2, builtin_ring("biquad8"), ZMOD8, F4, QuotientRing(ZSQRT8, 9), ZINV6)
    pairs = [(ring.element_from_json(list(range(3, 3 + ring.rank))),
              ring.element_from_json(list(range(-2, -2 + ring.rank)))) for ring in rings]
    calls = []
    for ring in rings:
        for name in ("_neg_coords", "_mul_coords"):
            def counted(*args, _name=name, _real=getattr(ring, name)):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setitem(vars(ring), name, counted)
    for cls, name in ((Ring, "from_int"), (RingElement, "__init__")):
        def counted(self, *args, _name=name, _real=getattr(cls, name)):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(cls, name, counted)
    for ring, (x, y) in zip(rings, pairs):
        calls.clear()
        difference = x - y
        assert calls == (["_neg_coords"] if ring is ZINV6 else []) + ["__init__"], ring
        calls.clear()
        multiples = 4 * x, x * 4
        assert calls == ["__init__"] * 2, ring
        assert difference == x + (-y) and multiples == (x + x + x + x,) * 2


def test_table_rank_is_capped_before_any_kernel(monkeypatch):
    # the cap itself builds: the dense x^16 + x^15 + ... + 1
    ring = _monogenic([1] * TABLE_RANK_CAP)
    assert ring.rank == TABLE_RANK_CAP
    assert ring.one * ring.element(range(TABLE_RANK_CAP)) == ring.element(range(TABLE_RANK_CAP))

    def refuse(*args):
        raise AssertionError("the cap must be checked before compiling")
    monkeypatch.setattr(ring_module, "compile_kernels", refuse)
    with pytest.raises(RingTooLarge) as exc:
        _monogenic([1] * (TABLE_RANK_CAP + 1))
    assert str(exc.value) == "the table ring has rank 17; table rings are capped at rank 16"


def _is_canonical_hnf(rows, ncols):
    last = -1
    for r, row in enumerate(rows):
        if len(row) != ncols or not any(row):
            return False
        col = next(c for c, e in enumerate(row) if e)
        if col <= last or row[col] <= 0:
            return False
        if any(not 0 <= rows[i][col] < row[col] for i in range(r)):
            return False
        last = col
    return True


def _in_echelon_span(rows, v):
    v = list(v)
    for row in rows:
        col = next(c for c, e in enumerate(row) if e)
        f, rem = divmod(v[col], row[col])
        if rem:
            return False
        v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


_MATRICES = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-30, 30), min_size=n, max_size=n), min_size=1, max_size=6))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_MATRICES)
def test_hnf_kernel_against_oracles(rows):
    n = len(rows[0])
    out = hnf(rows)
    assert _is_canonical_hnf(out, n)
    assert all(_in_echelon_span(out, row) for row in rows)
    index = lattice_index_minors(rows) if len(rows) >= n else 0
    if index:
        pivots = 1
        for r, row in enumerate(out):
            pivots *= row[r]
        assert len(out) == n and pivots == index
    else:
        assert len(out) < n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_MATRICES, st.data())
def test_solve_int_multiplies_back(gens, data):
    n = len(gens[0])

    def combine(x):
        return tuple(sum(c * g[i] for c, g in zip(x, gens)) for i in range(n))
    coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=len(gens), max_size=len(gens)))
    x = solve_int(gens, combine(coeffs))
    assert x is not None and combine(x) == combine(coeffs)
    target = tuple(data.draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n)))
    x = solve_int(gens, target)
    assert x is None or combine(x) == target
    index = lattice_index_minors(gens) if len(gens) >= n else 0
    if index:
        # target lies in a full lattice iff adding it keeps the index
        assert (x is not None) == (lattice_index_minors(gens + [list(target)]) == index)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=2, max_size=2),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
       st.tuples(st.integers(-200, 200), st.integers(-200, 200)))
def test_solve_int_2x2_shortcut_matches_hnf(gens, coeffs, target):
    # a reachable target and an arbitrary one, on singular matrices too
    reachable = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(2))
    for t in (reachable, target):
        assert solve_int(gens, t) == solve_hnf(gens, t)


_XGCD_INTS = st.one_of(st.integers(-12, 12), st.integers(-10**6, 10**6),
                       st.integers(-2**700, 2**700))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_XGCD_INTS, _XGCD_INTS)
def test_xgcd_contract(a, b):
    # every sign, a zero on either side or both, and |b| / g == 1 (b divides a)
    cases = [(s * a, t * b) for s in (1, -1) for t in (1, -1)]
    cases += [(a, 0), (0, b), (0, 0), (a * b, b), (b, a * b), (a, 1), (a, -1)]
    for x, y in cases:
        g, u, v = xgcd(x, y)
        assert u * x + v * y == g == gcd(x, y) >= 0, (x, y)
        assert all(type(n) is int for n in (g, u, v))


def test_xgcd_with_b_zero_returns_the_sign_of_a():
    assert [xgcd(a, 0) for a in (0, 7, -5)] == [(0, 1, 0), (7, 1, 0), (5, -1, 0)]


def test_quotient_division_does_not_enumerate(monkeypatch):
    from quadalg.cli import builtin_ring
    rings = (ZMOD8, F4, QuotientRing(ZSQRT8, 9), QuotientRing(builtin_ring("biquad8"), 8))
    multiples = {}
    for ring in rings[:3]:
        elems = ring.enumerate_elements()
        multiples[ring] = {q: {q * y for y in elems} for q in elems}

    def refuse(self):
        raise AssertionError("division must not enumerate the ring")
    monkeypatch.setattr(QuotientRing, "enumerate_elements", refuse)
    for ring in rings[:3]:
        for q, reachable in multiples[ring].items():
            inv = ring.try_inverse(q)
            assert (inv is not None) == (ring.one in reachable)
            assert inv is None or q * inv == ring.one
            for p in multiples[ring]:
                z = ring.try_divide(p, q)
                assert (z is not None) == (p in reachable)
                assert z is None or q * z == p
    rng = random.Random(8)
    big = rings[3]
    for _ in range(100):
        q, y = (big.element(tuple(rng.randrange(8) for _ in range(4))) for _ in range(2))
        z = big.try_divide(q * y, q)
        assert z is not None and q * z == q * y
    assert big.try_inverse(big.element((3, 0, -1, 0))) == big.element((3, 0, 1, 0))


def test_finite_tables_match_ring_kernels():
    # fresh rings, so that no other test has read a row of theirs
    rings = (QuotientRing(Z, 4), QuotientRing(Z, 8), builtin_ring("f4"), QuotientRing(Z, 9),
             QuotientRing(Z, 15), QuotientRing(Z, 16), QuotientRing(ZSQRT2, 3),
             QuotientRing(ZSQRT8, 9))
    for ring in rings:
        t = ring.tables
        assert ring.tables is t
        elements = ring.enumerate_elements()
        assert t.elements == [x.coords for x in elements]
        assert all(t.index[x] == i for i, x in enumerate(t.elements))
        # double[i] is the index of x + x, and row(y)[i] that of x * (x + y),
        # for the tuple x of index i; a row is built on first use and kept under y
        add, mul = ring._add_coords, ring._mul_coords
        assert [t.elements[k] for k in t.double] == [add(x, x) for x in t.elements]
        assert not t.rows
        for y in t.elements:
            row = t.row(y)
            assert [t.elements[k] for k in row] == [mul(x, add(x, y)) for x in t.elements]
            assert t.row(y) is row
        assert len(t.rows) == len(t.elements)
        # the unit list against the products: 1 is among a unit's products
        assert [u.coords for u in ring.units] == _units_by_products(ring)


def test_finite_tables_are_capped(monkeypatch):
    from quadalg.algebras import FreeQuadraticAlgebra, automorphisms_bruteforce
    from quadalg.cli import builtin_ring
    with pytest.raises(RingTooLarge) as exc:
        QuotientRing(Z, FINITE_TABLE_CAP + 1).tables
    assert str(exc.value) == "Z/513 has 513 elements; finite-ring tables are capped at 512"
    # the cap itself is allowed; checked on a lowered cap to keep the build small
    monkeypatch.setattr(ring_module, "FINITE_TABLE_CAP", 16)
    assert len(QuotientRing(ZSQRT8, 4).tables.elements) == 16
    with pytest.raises(RingTooLarge, match="Z/17 has 17 elements; .* capped at 16"):
        QuotientRing(Z, 17).tables

    def refuse(*args, **kwargs):
        raise AssertionError("the cap must be checked before enumerating")
    monkeypatch.setattr(QuotientRing, "enumerate_elements", refuse)
    # the tables list their coordinate tuples from itertools.product
    monkeypatch.setattr(ring_module, "itertools", SimpleNamespace(product=refuse))
    huge = QuotientRing(builtin_ring("biquad8"), 10**6)
    with pytest.raises(RingTooLarge, match=f"has {10**24} elements"):
        huge.tables
    with pytest.raises(RingTooLarge):
        automorphisms_bruteforce(FreeQuadraticAlgebra(huge, 0, 1))


def _units_by_products(ring):
    """The coordinate tuples x, in element order, with 1 among the products
    x*y: the units, from the product kernel alone."""
    elements = [x.coords for x in ring.enumerate_elements()]
    return [x for x in elements if ring.one_coords in {ring._mul_coords(x, y) for y in elements}]


def test_quotient_units_are_one_uncapped_list():
    # against the products: 1 is among a unit's products
    for ring in (ZMOD8, F4, QuotientRing(Z, 15), QuotientRing(ZSQRT8, 9)):
        assert ring.units is ring.units
        assert [u.coords for u in ring.units] == _units_by_products(ring)
    # no table and so not the table cap: Z/1001 has 720 units, phi(7 * 11 * 13)
    big = QuotientRing(Z, 1001)
    assert len(big.units) == 720
    with pytest.raises(RingTooLarge):
        big.tables


def test_quotient_units_match_the_determinant_rule():
    # x is a unit of B/mB exactly when gcd(det of multiplication by x, m) = 1:
    # det x for Z, the norm a^2 - N*b^2 for Z[sqrt N]; past FINITE_TABLE_CAP too
    for m in range(2, 300):
        assert [u.coords for u in QuotientRing(Z, m).units] == \
            [(x,) for x in range(m) if gcd(x, m) == 1], m
    for n in (-1, 2, 8):
        base = quadratic_table_ring(n)
        for m in range(2, 41):
            want = [(a, b) for a in range(m) for b in range(m) if gcd(a * a - n * b * b, m) == 1]
            assert [u.coords for u in QuotientRing(base, m).units] == want, (n, m)
    assert 40 * 40 > FINITE_TABLE_CAP


def test_quotient_unit_scan_is_capped(monkeypatch):
    # the cap admits Z/100003, the largest quotient the classification is timed on
    assert 100003 <= UNIT_SCAN_CAP
    monkeypatch.setattr(ring_module, "UNIT_SCAN_CAP", 64)
    assert len(QuotientRing(Z, 63).units) == 36  # phi(63)
    assert len(QuotientRing(ZSQRT8, 8).units) == 32  # the cap itself: a + b*w with a odd

    def refuse(*args, **kwargs):
        raise AssertionError("the cap must be checked before enumerating")
    monkeypatch.setattr(ring_module, "itertools", SimpleNamespace(product=refuse))
    with pytest.raises(RingTooLarge) as exc:
        QuotientRing(Z, 65).units
    assert str(exc.value) == "Z/65 has 65 elements; unit scans are capped at 64"
    with pytest.raises(RingTooLarge, match=f"has {(10**9 + 7) ** 2} elements"):
        QuotientRing(ZSQRT8, 10**9 + 7).units


_FACTORS = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=5).map(prod)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_FACTORS, _FACTORS, _FACTORS, st.sampled_from((-1, 0, 1)))
def test_divides_power_matches_ring_layer(f, den, num, sign):
    # n divides a power of f iff it divides f^e with e the bit length of n
    def oracle(n):
        return n != 0 and pow(f, abs(n).bit_length(), abs(n)) == 0

    q = Fraction(sign * num, den)
    member = divides_power(q.denominator, f)
    unit = member and divides_power(q.numerator, f)
    ring = Z if f == 1 else LocalizationRing(f)
    x = ring.try_from_rational(sign * num, den)  # not in lowest terms
    assert member == (x is not None) == oracle(q.denominator)
    assert unit == (x is not None and ring.is_unit(x)) \
        == (oracle(q.denominator) and oracle(q.numerator))


def test_divides_power_squares_its_gcd(monkeypatch):
    # O(log k) gcds for n = f^k times a little, where one gcd per prime-power
    # step took k of them; n = 0 divides no power and must not loop
    calls = []

    def gcd(a, b):
        calls.append(1)
        return real_gcd(a, b)

    real_gcd = ring_module.gcd
    monkeypatch.setattr(ring_module, "gcd", gcd)
    assert divides_power(12 ** 30000 * 8, 6) and not divides_power(12 ** 30000 * 5, 6)
    assert len(calls) < 60
    assert not divides_power(0, 6) and divides_power(1, 6) and divides_power(-49, 7)
    assert in_localization((0, 5), 6) and not in_localization((5, 0), 6)
    assert in_localization((10, 4), 6) and in_localization((5, 10), 6)
    assert not in_localization((1, 10), 6)


# f with repeated primes; numerators and denominators carry powers of them
_LOC_F = st.sampled_from((2, 3, 4, 6, 8, 9, 12, 18, 30, 49, 72))
_LOC_NUM = st.builds(lambda sign, a, b, c, rest: sign * 2**a * 3**b * 7**c * rest,
                     st.sampled_from((-1, 0, 1)), st.integers(0, 40), st.integers(0, 25),
                     st.integers(0, 12), st.sampled_from((1, 5, 11, 25)))
_LOC_DEN = st.builds(lambda sign, a, b, c, rest: sign * 2**a * 3**b * 7**c * rest,
                     st.sampled_from((-1, 1)), st.integers(0, 40), st.integers(0, 25),
                     st.integers(0, 12), st.sampled_from((1, 5, 11)))


def _check_localization_kernel(f, x, y, num, den):
    ring = LocalizationRing(f)
    for n, k in (x, y):
        assert ring.element((n, k)) == localization_from_fraction(ring, Fraction(n, f ** k))
    x, y = (ring.element((n, k)) for n, k in (x, y))
    assert x + y == localization_add(x, y)
    # the other kernels, each normalizing its pair: x - y, -x, t*x and x*y
    vx, vy = localization_value(x), localization_value(y)
    for got, want in ((x - y, vx - vy), (-x, -vx), (f * x, f * vx), (num * y, num * vy),
                      (x * y, vx * vy)):
        assert got == localization_from_fraction(ring, want)
    assert ring.try_divide(x, y) == localization_try_divide(x, y)
    assert ring.try_divide(y, x) == localization_try_divide(y, x)
    assert ring.try_inverse(x) == localization_try_inverse(x)
    assert ring.try_halve(x) == localization_try_halve(x)
    assert in_4R(y) == localization_in_4R(y)
    assert ring.try_from_rational(num, den) == localization_from_fraction(ring, Fraction(num, den))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_LOC_F, _LOC_NUM, st.integers(0, 60), _LOC_NUM, st.integers(0, 60), _LOC_DEN)
def test_localization_kernel_matches_fraction_oracle(f, n1, k1, n2, k2, den):
    _check_localization_kernel(f, (n1, k1), (n2, k2), n1, den)


# the Fraction oracle takes about a second per example here, the kernel milliseconds
@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.sampled_from((2, 3, 4, 6, 9, 12)), _LOC_NUM,
       st.integers(EXPONENT_CAP - 50, EXPONENT_CAP), _LOC_NUM, st.integers(0, EXPONENT_CAP),
       _LOC_DEN)
def test_localization_kernel_matches_fraction_oracle_at_the_cap(f, n1, k1, n2, k2, den):
    _check_localization_kernel(f, (n1, k1), (n2, k2), n1, den)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_LOC_F, _LOC_NUM, st.integers(0, 60), _LOC_NUM, st.integers(0, 60))
def test_localization_sqrt_matches_fraction_oracle(f, n1, k1, n2, k2):
    ring = LocalizationRing(f)
    x, y = ring.element((n1, k1)), ring.element((n2, k2))
    for z in (y, x * x, x * x * y, f * x * x):
        assert ring.sqrt(z) == localization_sqrt(z)


def test_exponents_read_from_input_are_capped():
    ring = LocalizationRing(3)
    x = ring.element_from_json({"coords": [1], "k": EXPONENT_CAP})
    assert (x * x).coords == (1, 2 * EXPONENT_CAP)  # products of capped inputs pass the cap
    for ring in (ring, Z, ZSQRT8):
        with pytest.raises(ExponentTooLarge):
            ring.element_from_json({"coords": [1] * ring.rank, "k": EXPONENT_CAP + 1})


def test_quotient_one_is_the_base_identity():
    # the base's identity is e_1, not e_0
    base = TableRing([[(0, 1), (1, 0)], [(1, 0), (0, 1)]], one=(0, 1))
    q = QuotientRing(base, 4)
    assert q.one.coords == (0, 1) and q.from_int(3).coords == (0, 3)
    assert all(q.one * x == x for x in q.enumerate_elements())
    assert q.is_unit(q.one) and q.one in q.units


def _roots_by_squaring(n, m):
    return [x for x in range(m) if (x * x - n) % m == 0]


def _sqrt_mod(n, prime_powers):
    """The roots of x^2 = n mod the product of the (p, e), ascending: those
    of ``sqrt_mod_prime_power`` mod each p^e, combined by ``crt_roots``."""
    return sorted(crt_roots([(p**e, sqrt_mod_prime_power(n, p, e)) for p, e in prime_powers]))


def _factor(m):
    """The (p, e) with p^e || m, by trial division."""
    out, p = [], 2
    while m > 1:
        e = 0
        while not m % p:
            m //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out


def test_sqrt_mod_matches_squaring_every_residue():
    # every n mod m for m <= 600: powers of 2 up to 512, p | n, p^2 | n, n = 0
    for m in range(1, 601):
        roots = {}
        for x in range(m):
            roots.setdefault(x * x % m, []).append(x)
        prime_powers = _factor(m)
        for n in range(m):
            assert _sqrt_mod(n, prime_powers) == roots.get(n, []), (n, m)


# p - 1 for 257, 7681 and 65537 has 2-adic valuation 8, 9 and 16: long
# Tonelli-Shanks loops
SQRT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 97, 257, 7681, 65537, 99991)


@st.composite
def _prime_power_moduli(draw):
    """(n, [(p, e), ...]): coprime prime powers of at most 10^5 each whose
    product is at most 10^7, and n often divisible by p^f with f up to 2e."""
    prime_powers, n = [], draw(st.integers(-10**6, 10**6))
    for p in draw(st.lists(st.sampled_from(SQRT_PRIMES), min_size=2, max_size=4,
                           unique=True)):
        room = min(10**5, 10**7 // prod(q**f for q, f in prime_powers))
        e = draw(st.integers(1, 16))
        while e and p**e > room:
            e -= 1
        if e:
            prime_powers.append((p, e))
            n *= p ** draw(st.one_of(st.just(0), st.integers(1, 2 * e)))
    return n, prime_powers


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_prime_power_moduli())
def test_sqrt_mod_on_products_of_prime_powers(case):
    # the roots are distinct, ascending roots mod m, as many as the product of
    # the root counts mod each prime power, found by squaring every residue
    n, prime_powers = case
    qs = [p**e for p, e in prime_powers]
    m = prod(qs)
    roots = _sqrt_mod(n, prime_powers)
    assert roots == sorted(set(roots)) and all(0 <= x < m for x in roots)
    assert all((x * x - n) % m == 0 for x in roots)
    assert len(roots) == prod(len(_roots_by_squaring(n, q)) for q in qs)
