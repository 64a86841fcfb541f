import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadalg.errors import (
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
from quadalg.ring import (
    FINITE_TABLE_CAP,
    IntegerRing,
    LocalizationRing,
    QuotientRing,
    TableRing,
    construct_ring,
    divides_power,
    hnf,
    quadratic_table_ring,
    solve_int,
)

from oracles import lattice_index_minors, pell_scan

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


def test_construct_ring_rejects_bad_tables():
    for mul in (5, [5], [[5]], [[[1, 0]]], [[[1], [0]]], [[[None]]]):
        with pytest.raises(ValueError):
            construct_ring({"kind": "table", "mul": mul})
    for extra in ({"one": 5}, {"one": [None]}, {"symbols": 5}):
        with pytest.raises(ValueError):
            construct_ring({"kind": "table", "mul": [[[1]]], **extra})
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
    with pytest.raises(RingMismatch):
        Z.from_int(1) + ZSQRT8.one


def test_try_inverse():
    assert Z.try_inverse(Z.from_int(-1)) == -1
    assert Z.try_inverse(Z.from_int(2)) is None
    from quadalg.cli import builtin_ring
    bq = builtin_ring("biquad8")
    y = bq.element((0, 0, 1, 0))
    assert bq.try_inverse(3 - y) == 3 + y
    half = ZINV6.try_inverse(ZINV6.from_int(2))
    assert half is not None and half.coords == (3,) and half.k == 1
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
    assert ZINV6.try_halve(ZINV6.from_int(1)) == ZINV6.element((3,), 1)


def test_mod2_and_in_4r():
    assert Z.mod2(Z.from_int(7)).residue == (1,)
    assert ZSQRT8.in_4R(ZSQRT8.from_int(24 - 8))
    assert ZINV6.in_4R(ZINV6.from_int(1))  # 2 is invertible in Z[1/6]
    assert not Z.in_4R(Z.from_int(6))
    assert ZINV6.mod2(ZINV6.from_int(3)).is_zero()  # f even kills R/2R
    z15 = LocalizationRing(15)
    assert z15.mod2(z15.from_int(3)).residue == (1,)


def test_unit_group_generators():
    assert [int(u) for u in Z.unit_group_generators()] == [-1]
    gens8 = ZSQRT8.unit_group_generators()
    assert gens8[0] == -1 and gens8[1].coords == (3, 1)
    # oracle: minimal Pell solution for N=8 by scan of b <= 10
    assert pell_scan(8, 10) == (3, 1)
    assert pell_scan(2, 10) == (1, 1)
    fundamental = gens8[1]
    assert fundamental * ZSQRT8.element((3, -1)) == 1
    zmod8_gens = sorted(int(u) for u in ZMOD8.unit_group_generators())
    assert zmod8_gens == [3, 5, 7]
    gauss = quadratic_table_ring(-1)
    units = gauss.unit_group_generators()
    assert len(units) == 3  # -1, i, -i
    assert all(abs(u.coords[0] ** 2 + u.coords[1] ** 2) == 1 for u in units)
    with pytest.raises(UnsupportedRing):
        quadratic_table_ring(4).unit_group_generators()


def test_imaginary_quadratic_units_have_unit_norm():
    for n in (-2, -3, -11):
        ring = quadratic_table_ring(n)
        for u in ring.unit_group_generators():
            a, b = u.coords
            assert abs(a * a - n * b * b) == 1


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
        return ring.element((rng.randrange(-50, 51),), rng.randrange(0, 3))
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
    x = ZINV6.element((12,), 1)  # 12/6 = 2
    assert x.coords == (2,) and x.k == 0
    y = ZINV6.element((3,), 1)  # 3/6 stays: 6 does not divide 3
    assert y.coords == (3,) and y.k == 1
    assert ZINV6.from_rational(y.ring.rational_value(y)) == y


def test_element_json_round_trip():
    from quadalg.cli import builtin_ring
    rng = random.Random(5)
    for ring in (Z, ZSQRT8, ZMOD8, ZINV6, builtin_ring("biquad8")):
        for _ in range(50):
            x = _random_element(rng, ring)
            assert ring.element_from_json(ring.element_to_json(x)) == x
    rebuilt = construct_ring(ZSQRT8.descriptor())
    assert rebuilt.descriptor() == ZSQRT8.descriptor()


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
    rings = (ZMOD4, ZMOD8, F4, QuotientRing(Z, 16), QuotientRing(Z, 15),
             QuotientRing(ZSQRT8, 9))
    for ring in rings:
        t = ring.tables
        assert ring.tables is t
        elements = ring.enumerate_elements()
        assert t.elements == elements
        assert all(t.index[x.coords] == i for i, x in enumerate(elements))
        for i, x in enumerate(elements):
            for j, y in enumerate(elements):
                assert elements[t.mul[i][j]] == ring._mul(x, y)
        # the unit list against HNF division
        assert [elements[i] for i in t.units] == [x for x in elements if ring.is_unit(x)]


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

    def refuse(self):
        raise AssertionError("the cap must be checked before enumerating")
    monkeypatch.setattr(QuotientRing, "enumerate_elements", refuse)
    huge = QuotientRing(builtin_ring("biquad8"), 10**6)
    with pytest.raises(RingTooLarge, match=f"has {10**24} elements"):
        huge.tables
    with pytest.raises(RingTooLarge):
        automorphisms_bruteforce(FreeQuadraticAlgebra(huge, 0, 1))


def test_quotient_units_are_one_uncapped_list():
    # against the multiplication table: a unit's row reaches one
    for ring in (ZMOD8, F4, QuotientRing(Z, 15), QuotientRing(ZSQRT8, 9)):
        t = ring.tables
        one = t.index[ring.one.coords]
        assert ring.units is ring.units
        assert ring.units == [t.elements[i] for i, row in enumerate(t.mul) if one in row]
    # no table and so no cap: Z/1001 has 720 units, phi(7 * 11 * 13)
    big = QuotientRing(Z, 1001)
    assert len(big.units) == 720 and len(big.unit_group_generators()) == 719
    with pytest.raises(RingTooLarge):
        big.tables


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
    x = ring.try_from_rational(q)
    assert member == (x is not None) == oracle(q.denominator)
    assert unit == (x is not None and ring.is_unit(x)) \
        == (oracle(q.denominator) and oracle(q.numerator))
