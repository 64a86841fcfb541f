import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadalg.algebras import (
    AlgebraHom,
    AlgebraType,
    FreeQuadraticAlgebra,
    Orientation,
    algebras_isomorphic,
    automorphisms_bruteforce,
    build_from_type,
    change_basis,
    find_parities,
    freeok_iso,
    identity_hom,
    is_valid_triple,
    isomorphic_bruteforce,
    oriented_automorphisms_bruteforce,
    oriented_isomorphic,
    oriented_type,
    type_of,
    types_isomorphic,
    _search_homs,
)
from quadalg.cli import builtin_ring, render_hom, run
from quadalg.errors import (
    BadLift,
    InfiniteRing,
    InvalidTriple,
    NotAUnit,
    NotTwoRegular,
    ParityMismatch,
    RingMismatch,
    RingTooLarge,
    UnsupportedRing,
)
from quadalg.ring import (
    IntegerRing,
    LocalizationRing,
    QuotientRing,
    Ring,
    RingElement,
    TableRing,
    quadratic_table_ring,
)

from oracles import (
    affine_ring_map_count,
    hom_equations_hold,
    in_4R,
    localization_from_fraction,
    localization_value,
    mod2_by_kind,
    mul_coords_dense,
    parities_by_kind,
    pell_fundamental,
    search_homs_generic,
    unit_image_reps,
)

Z = IntegerRing()
ZSQRT2 = quadratic_table_ring(2)
ZSQRT8 = quadratic_table_ring(8)
ZMOD4 = QuotientRing(Z, 4)
ZMOD8 = QuotientRing(Z, 8)
F4 = builtin_ring("f4")
BIQUAD8 = builtin_ring("biquad8")
Z16 = QuotientRing(Z, 16)
Z9_SQRT8 = QuotientRing(ZSQRT8, 9)
Z15 = QuotientRing(Z, 15)
ZINV6 = LocalizationRing(6)

W8 = ZSQRT8.element((0, 1))


def alg(ring, r, s):
    return FreeQuadraticAlgebra(ring, r, s)


def test_type_of_examples():
    t = type_of(alg(Z, 3, 2))
    assert int(t.delta) == 1 and t.parity.residue == (1,)
    t1 = type_of(alg(ZSQRT8, 0, -6))
    assert t1.delta == 24 and t1.parity.is_zero()
    t2 = type_of(alg(ZSQRT8, W8, -4))
    assert t2.delta == 24 and t2.parity.residue == (0, 1)


def test_change_basis_examples():
    assert change_basis(alg(Z, 3, 2), 1, -1) == alg(Z, 5, 6)
    c = alg(Z, 3, 2)
    assert change_basis(c, 1, 0) == c
    c8 = alg(ZSQRT8, 0, -6)
    assert change_basis(c8, -1, 0) == c8
    with pytest.raises(NotAUnit):
        change_basis(c, 2, 0)


def test_type_covariance_under_change_of_basis_fuzz():
    rng = random.Random(11)
    units = {Z: [Z.from_int(1), Z.from_int(-1)],
             ZSQRT8: [ZSQRT8.one, -ZSQRT8.one, ZSQRT8.element((3, 1)),
                      ZSQRT8.element((3, -1))]}
    for ring in (Z, ZSQRT8):
        for _ in range(600):
            r = ring.element(tuple(rng.randrange(-20, 21) for _ in range(ring.rank)))
            s = ring.element(tuple(rng.randrange(-20, 21) for _ in range(ring.rank)))
            eps = rng.choice(units[ring])
            alpha = ring.element(tuple(rng.randrange(-20, 21)
                                       for _ in range(ring.rank)))
            c = alg(ring, r, s)
            t = type_of(c)
            t2 = type_of(change_basis(c, eps, alpha))
            assert t2.delta == eps * eps * t.delta
            assert t2.parity == t.parity.times(eps)


def test_is_valid_triple_examples():
    assert is_valid_triple(Z, AlgebraType(Z.from_int(5), Z.mod2(Z.from_int(1))))
    assert not is_valid_triple(Z, AlgebraType(Z.from_int(5), Z.mod2(Z.zero)))
    assert is_valid_triple(Z, AlgebraType(Z.from_int(-44), Z.mod2(Z.zero)))
    assert is_valid_triple(ZSQRT8, AlgebraType(ZSQRT8.from_int(24), ZSQRT8.mod2(W8)))
    with pytest.raises(NotTwoRegular):
        is_valid_triple(ZMOD8, AlgebraType(ZMOD8.zero, ZMOD8.mod2(ZMOD8.zero)))


def test_validity_is_lift_independent():
    rng = random.Random(12)
    for ring in (Z, ZSQRT8):
        for _ in range(200):
            delta = ring.element(tuple(rng.randrange(-40, 41)
                                       for _ in range(ring.rank)))
            for parity in ring.mod2_residues():
                base = is_valid_triple(ring, AlgebraType(delta, parity))
                t = ring.element(tuple(rng.randrange(-5, 6)
                                       for _ in range(ring.rank)))
                shifted = parity.lift() + 2 * t
                # (lift + 2t)^2 = lift^2 mod 4, so the answer cannot change
                diff = delta - shifted * shifted
                assert in_4R(diff) == base


def test_build_from_type_examples():
    c = build_from_type(Z, AlgebraType(Z.from_int(-44), Z.mod2(Z.zero)), Z.zero)
    assert c == alg(Z, 0, 11)
    c = build_from_type(Z, AlgebraType(Z.from_int(5), Z.mod2(Z.one)), Z.one)
    assert c == alg(Z, 1, -1)
    c = build_from_type(ZSQRT8, AlgebraType(ZSQRT8.from_int(24), ZSQRT8.mod2(W8)), W8)
    assert c == alg(ZSQRT8, W8, -4)
    assert type_of(c) == AlgebraType(ZSQRT8.from_int(24), ZSQRT8.mod2(W8))
    with pytest.raises(BadLift):
        build_from_type(Z, AlgebraType(Z.from_int(5), Z.mod2(Z.one)), Z.zero)
    with pytest.raises(InvalidTriple):
        build_from_type(Z, AlgebraType(Z.from_int(5), Z.mod2(Z.zero)), Z.zero)


def test_build_from_type_halves_without_dividing(monkeypatch):
    # validity is read from the two halvings that build the algebra, with no
    # division by 4 first; the refusals keep their order BadLift ->
    # NotTwoRegular -> InvalidTriple
    z9 = QuotientRing(Z, 9)
    calls = []
    for cls in (TableRing, LocalizationRing):
        real = cls._divide_coords
        monkeypatch.setattr(cls, "_divide_coords",
                            lambda self, p, q, real=real: calls.append((p, q)) or real(self, p, q))
    for ring, delta, lift, s in ((Z, -44, Z.zero, 11), (ZSQRT8, 24, W8, -4), (z9, 5, 1, -1),
                                 (ZINV6, 5, 1, -1)):
        t = AlgebraType(ring.coerce(delta), ring.mod2(ring.coerce(lift)))
        calls.clear()
        assert build_from_type(ring, t, lift) == alg(ring, lift, s)
        assert calls == [], ring
    calls.clear()
    with pytest.raises(InvalidTriple, match=r"is not the type of any quadratic algebra"):
        build_from_type(Z, AlgebraType(Z.from_int(5), Z.mod2(Z.zero)), Z.zero)
    with pytest.raises(InvalidTriple):
        build_from_type(ZSQRT8, AlgebraType(ZSQRT8.from_int(26), ZSQRT8.mod2(W8)), W8)
    assert calls == []
    t8 = AlgebraType(ZMOD8.from_int(5), ZMOD8.mod2(ZMOD8.one))
    with pytest.raises(BadLift):
        build_from_type(ZMOD8, t8, ZMOD8.zero)
    with pytest.raises(NotTwoRegular, match="validity is defined over rings where 2 is regular"):
        build_from_type(ZMOD8, t8, ZMOD8.one)


def test_validity_halves_without_dividing(monkeypatch):
    # is_valid_triple, and find_parities once per class of R/2R through it,
    # read validity from the two halvings that build_from_type takes, with no
    # division by 4; NotTwoRegular still comes first, with its message
    z9 = QuotientRing(Z, 9)
    cases = ((Z, -44, Z.zero, True), (Z, 5, Z.zero, False), (ZSQRT8, 24, W8, True),
             (ZSQRT8, 26, W8, False), (z9, 5, 1, True), (ZINV6, 5, 1, True))
    wanted = [parities_by_kind(ring, ring.coerce(delta)) for ring, delta, _, _ in cases]
    calls = []
    for cls in (TableRing, LocalizationRing):
        real = cls._divide_coords
        monkeypatch.setattr(cls, "_divide_coords",
                            lambda self, p, q, real=real: calls.append((p, q)) or real(self, p, q))
    for (ring, delta, lift, valid), want in zip(cases, wanted):
        t = AlgebraType(ring.coerce(delta), ring.mod2(ring.coerce(lift)))
        calls.clear()
        assert is_valid_triple(ring, t) is valid
        assert find_parities(ring, t.delta) == want
        assert calls == [], ring
    with pytest.raises(NotTwoRegular, match="validity is defined over rings where 2 is regular"):
        is_valid_triple(ZMOD8, AlgebraType(ZMOD8.one, ZMOD8.mod2(ZMOD8.one)))


def test_freeok_iso_examples():
    c = alg(Z, 3, 2)
    target, hom = freeok_iso(c, 3)
    assert target == c and hom == identity_hom(Z)
    target, hom = freeok_iso(c, 1)
    assert target == alg(Z, 1, 0) and hom == AlgebraHom(Z.one, Z.from_int(-1))
    target, hom = freeok_iso(c, -1)
    assert target == alg(Z, -1, 0) and hom == AlgebraHom(Z.one, Z.from_int(-2))
    with pytest.raises(ParityMismatch):
        freeok_iso(c, 2)


def test_freeok_iso_round_trip_fuzz():
    rng = random.Random(13)
    for ring in (Z, ZSQRT2, ZSQRT8):
        for _ in range(200):
            r = ring.element(tuple(rng.randrange(-15, 16) for _ in range(ring.rank)))
            s = ring.element(tuple(rng.randrange(-15, 16) for _ in range(ring.rank)))
            c = alg(ring, r, s)
            shift = ring.element(tuple(rng.randrange(-6, 7)
                                       for _ in range(ring.rank)))
            ptilde = r + 2 * shift
            target, hom = freeok_iso(c, ptilde)
            assert hom.verifies(c, target)
            # inverse map omega -> tau - (ptilde - r)/2
            back = AlgebraHom(ring.one, -hom.v)
            assert back.verifies(target, c)
            assert type_of(target) == type_of(c)


def test_types_isomorphic_examples():
    t = AlgebraType(Z.from_int(1), Z.mod2(Z.one))
    assert types_isomorphic(t, t) == 1
    t1 = type_of(alg(ZSQRT8, 0, -6))
    t2 = type_of(alg(ZSQRT8, W8, -4))
    assert types_isomorphic(t1, t2) is None
    ta = AlgebraType(ZSQRT8.from_int(1), ZSQRT8.mod2(ZSQRT8.one))
    tb = AlgebraType(ZSQRT8.element((17, 6)), ZSQRT8.mod2(ZSQRT8.element((1, 1))))
    eps = types_isomorphic(ta, tb)
    assert eps == ZSQRT8.element((3, 1))


def test_types_isomorphic_is_an_equivalence_fuzz():
    rng = random.Random(14)
    units = [ZSQRT2.one, -ZSQRT2.one, ZSQRT2.element((1, 1)), ZSQRT2.element((-1, 1))]
    for _ in range(200):
        r = ZSQRT2.element((rng.randrange(-10, 11), rng.randrange(-10, 11)))
        s = ZSQRT2.element((rng.randrange(-10, 11), rng.randrange(-10, 11)))
        t1 = type_of(alg(ZSQRT2, r, s))
        assert types_isomorphic(t1, t1) is not None  # reflexive
        eps = rng.choice(units)
        t2 = AlgebraType(eps * eps * t1.delta, t1.parity.times(eps))
        found = types_isomorphic(t1, t2)
        assert found is not None
        assert t2.delta == found * found * t1.delta
        assert t2.parity == t1.parity.times(found)
        back = types_isomorphic(t2, t1)  # symmetric
        assert back is not None
        eps2 = rng.choice(units)
        t3 = AlgebraType(eps2 * eps2 * t2.delta, t2.parity.times(eps2))
        assert types_isomorphic(t1, t3) is not None  # transitive


def test_zero_discriminant_types():
    t0 = AlgebraType(Z.zero, Z.mod2(Z.zero))
    t1 = AlgebraType(Z.zero, Z.mod2(Z.one))
    assert types_isomorphic(t0, t0) is not None
    assert types_isomorphic(t0, t1) is None
    tz = AlgebraType(Z.from_int(4), Z.mod2(Z.zero))
    assert types_isomorphic(t0, tz) is None  # mixed zero/nonzero
    # infinitely many units, R/2R of more than 2 classes and not Z[sqrt(N)]
    for ring in (BIQUAD8, TableRing([[(1, 0), (0, 1)], [(0, 1), (1, 1)]])):
        t = AlgebraType(ring.zero, ring.mod2(ring.zero))
        with pytest.raises(UnsupportedRing,
                           match=re.escape(f"no unit-group algorithm for {ring!r}")):
            types_isomorphic(t, t)
    assert repr(BIQUAD8) == "TableRing(rank=4)"


def test_algebras_isomorphic_examples():
    hom = algebras_isomorphic(alg(Z, 3, 2), alg(Z, 1, 0))
    assert hom == AlgebraHom(Z.one, Z.from_int(-1))
    assert algebras_isomorphic(alg(ZSQRT8, 0, -6), alg(ZSQRT8, W8, -4)) is None
    c = alg(Z, 3, 2)
    assert algebras_isomorphic(c, c) == identity_hom(Z)
    with pytest.raises(NotTwoRegular):
        algebras_isomorphic(alg(ZMOD8, 0, 1), alg(ZMOD8, 0, 1))


def test_uniqueness_fuzz():
    # isomorphic types <=> an explicit verified isomorphism exists
    rng = random.Random(15)
    units = {Z: [Z.one, -Z.one],
             ZSQRT2: [ZSQRT2.one, -ZSQRT2.one, ZSQRT2.element((1, 1)),
                      ZSQRT2.element((-1, 1)), ZSQRT2.element((3, 2)),
                      ZSQRT2.element((3, -2))]}
    for ring in (Z, ZSQRT2):
        for _ in range(300):
            r = ring.element(tuple(rng.randrange(-12, 13) for _ in range(ring.rank)))
            s = ring.element(tuple(rng.randrange(-12, 13) for _ in range(ring.rank)))
            c = alg(ring, r, s)
            eps = rng.choice(units[ring])
            alpha = ring.element(tuple(rng.randrange(-8, 9)
                                       for _ in range(ring.rank)))
            c2 = change_basis(c, eps, alpha)
            hom = algebras_isomorphic(c, c2)
            assert hom is not None and hom.verifies(c, c2)
            c3 = alg(ring, r, s + 1)  # different type: delta shifts by 4
            if types_isomorphic(type_of(c), type_of(c3)) is None:
                assert algebras_isomorphic(c, c3) is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from((1, 4, 9)), st.integers(0, 3),
       st.lists(st.integers(-9, 9), min_size=6, max_size=6))
def test_change_of_basis_is_found_over_square_n(n, which, coords):
    # over Z[sqrt(n^2)] delta can be a zero divisor, so division cannot find
    # the unit; the units are finite and each one is tested
    ring = quadratic_table_ring(n)
    units = ring.units
    r, s, alpha = (ring.element(coords[i:i + 2]) for i in (0, 2, 4))
    a = alg(ring, r, s)
    b = change_basis(a, units[which % len(units)], alpha)
    hom = algebras_isomorphic(a, b)
    assert hom is not None and hom.verifies(a, b)


def _known_units(ring, n):
    """Units of Z[sqrt(n)]: +-1 + b*w, |b| <= 5, when n = 0; the unit list
    when it is finite; else +-1, +-eps and +-1/eps for the fundamental eps."""
    if n == 0:
        return [ring.element((s, b)) for s in (1, -1) for b in range(-5, 6)]
    if ring.units is not None:
        return ring.units
    eps = ring.element(pell_fundamental(n))
    return [s * u for s in (1, -1) for u in (ring.one, eps, ring.try_inverse(eps))]


def test_change_of_basis_is_found_over_every_zsqrt_n():
    rng = random.Random(16)
    for n in range(-5, 10):
        ring = quadratic_table_ring(n)
        for u in _known_units(ring, n):
            for _ in range(6):
                r, s, alpha = (ring.element((rng.randrange(-9, 10), rng.randrange(-9, 10)))
                               for _ in range(3))
                a = alg(ring, r, s)
                b = change_basis(a, u, alpha)
                hom = algebras_isomorphic(a, b)
                assert hom is not None and hom.verifies(a, b), (n, u, a)
    # delta = 0 on both sides over Z[sqrt(0)]: r = 2m + r1*w, s = m^2 + m*r1*w,
    # where every unit +-(1 + b*w) fixes the parity, so the unit is 1
    zsqrt0 = quadratic_table_ring(0)
    for u in _known_units(zsqrt0, 0):
        for _ in range(6):
            m, r1 = rng.randrange(-9, 10), rng.randrange(-9, 10)
            a = alg(zsqrt0, zsqrt0.element((2 * m, r1)), zsqrt0.element((m * m, m * r1)))
            b = change_basis(a, u, zsqrt0.element((rng.randrange(-9, 10), rng.randrange(-9, 10))))
            assert type_of(b).delta.is_zero()
            hom = algebras_isomorphic(a, b)
            assert hom is not None and hom.verifies(a, b), (u, a)
    # parity w is fixed by every unit, so it never meets parity 0
    w = zsqrt0.element((0, 1))
    assert algebras_isomorphic(alg(zsqrt0, w, 0), alg(zsqrt0, 0, 0)) is None


@lru_cache(maxsize=None)
def _zero_delta_case(n):
    """Z[sqrt(n)], the oracle's units over (R/2R)*, and every r = a + b*w with
    |a|, |b| <= 4 and r^2 in 4R, the middle coefficients of delta = 0."""
    ring = quadratic_table_ring(n)
    rs = [r for a in range(-4, 5) for b in range(-4, 5)
          if in_4R((r := ring.element((a, b))) * r)]
    return ring, unit_image_reps(ring), rs


# Z[sqrt(N)] with infinitely many units: N = 0 and the non-square N > 1
_INFINITE_UNIT_N = [n for n in range(400) if n == 0 or isqrt(n) ** 2 != n]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(_INFINITE_UNIT_N), st.integers(0, 80), st.integers(0, 80))
def test_zero_discriminants_over_zsqrt_n_match_the_unit_search(n, i, j):
    # delta = 0 on both sides: iso exactly when some unit maps parity 1 to
    # parity 2, by a search over the units modulo 2; each unit fixes the parity
    ring, reps, rs = _zero_delta_case(n)
    a, b = (alg(ring, r, ring.try_halve(ring.try_halve(r * r))) for r in (rs[i % len(rs)],
                                                                          rs[j % len(rs)]))
    p1, p2 = type_of(a).parity, type_of(b).parity
    assert type_of(a).delta.is_zero() and type_of(b).delta.is_zero()
    assert all(p1.times(u) == p1 for u in reps), (n, p1)
    hom = algebras_isomorphic(a, b)
    assert (hom is not None) == any(p1.times(u) == p2 for u in reps), (n, a, b)
    assert hom is None or hom.u == 1 and hom.verifies(a, b)


def test_units_fix_every_zero_discriminant_parity_over_zsqrt_n():
    # the rule of _unit_and_inverse, checked against the oracle's units on
    # every ring of the differential above
    for n in _INFINITE_UNIT_N:
        ring, reps, _ = _zero_delta_case(n)
        parities = find_parities(ring, ring.zero)
        assert len(parities) == (2 if n % 4 == 0 else 1), n
        assert all(p.times(u) == p for p in parities for u in reps), n


def test_change_of_basis_is_found_over_localizations():
    # units of Z[1/f] are +-products of the primes of f; delta2/delta1 = eps^2
    rng = random.Random(18)
    for f, primes in ((2, (2,)), (6, (2, 3)), (10, (2, 5)), (15, (3, 5)), (12, (2, 3))):
        ring = LocalizationRing(f)

        def element():
            return ring.element((rng.randrange(-30, 31), rng.randrange(0, 3)))

        for _ in range(60):
            eps = rng.choice((1, -1)) * prod(Fraction(p) ** rng.randrange(-3, 4) for p in primes)
            a = alg(ring, element(), element())
            b = change_basis(a, ring.from_rational(*eps.as_integer_ratio()), element())
            hom = algebras_isomorphic(a, b)
            assert hom is not None and hom.verifies(a, b), (f, a, eps)
            if not type_of(a).delta.is_zero():
                # 7 is no unit, so 49 * delta is no unit square times delta
                c = alg(ring, 7 * a.r, 49 * a.s)
                assert algebras_isomorphic(a, c) is None, (f, a)


def test_types_isomorphic_matches_a_unit_scan():
    rng = random.Random(17)
    for ring in [Z] + [quadratic_table_ring(n) for n in range(-7, 0)]:
        def element():
            return ring.element(tuple(rng.randrange(-9, 10) for _ in range(ring.rank)))

        for _ in range(200):
            t1 = type_of(alg(ring, element(), element()))
            if rng.randrange(2):
                eps = rng.choice(ring.units)
                t2 = AlgebraType(eps * eps * t1.delta, t1.parity.times(eps))
            else:
                t2 = type_of(alg(ring, element(), element()))
            scan = next((u for u in ring.units if t2.delta == u * u * t1.delta
                         and t2.parity == t1.parity.times(u)), None)
            assert types_isomorphic(t1, t2) == scan, (ring, t1, t2)


def test_oriented_type_examples():
    t = oriented_type(alg(Z, 2, -1), Orientation(Z.one))
    assert int(t.delta) == 8 and t.parity.is_zero()
    x = BIQUAD8.element((0, 1, 0, 0))
    y = BIQUAD8.element((0, 0, 1, 0))
    c = alg(BIQUAD8, x, 2)
    t1 = oriented_type(c, Orientation(BIQUAD8.one))
    assert t1.delta.is_zero() and t1.parity.residue == (0, 1, 0, 0)
    t2 = oriented_type(c, Orientation(3 - y))
    assert t2.delta.is_zero() and t2.parity.residue == (0, 1, 0, 1)  # X + XY


def test_oriented_isomorphic_examples():
    c = alg(Z, 3, 2)
    assert oriented_isomorphic(c, Orientation(Z.one), c, Orientation(Z.one)) \
        == identity_hom(Z)
    x = BIQUAD8.element((0, 1, 0, 0))
    y = BIQUAD8.element((0, 0, 1, 0))
    cb = alg(BIQUAD8, x, 2)
    assert oriented_isomorphic(cb, Orientation(BIQUAD8.one),
                               cb, Orientation(3 - y)) is None
    hom = oriented_isomorphic(alg(Z, 3, 2), Orientation(Z.one),
                              alg(Z, 1, 0), Orientation(Z.one))
    assert hom == AlgebraHom(Z.one, Z.from_int(-1))


def test_orientation_keeps_its_inverse(monkeypatch):
    # the unit test of the orientation is its one division over Z[sqrt8]:
    # oriented_type and oriented_isomorphic read u_inv and divide no more
    u = ZSQRT8.element((3, 1))
    a = alg(ZSQRT8, 0, -6)
    b = change_basis(a, u, W8)
    theta_a, theta_b = Orientation(ZSQRT8.element((3, -1))), Orientation(ZSQRT8.one)
    calls = []

    def try_inverse(self, x):
        calls.append(x)
        return Ring.try_inverse(self, x)

    monkeypatch.setattr(TableRing, "try_inverse", try_inverse)
    hom = oriented_isomorphic(a, theta_a, b, theta_b)
    assert hom == AlgebraHom(ZSQRT8.element((3, -1)), ZSQRT8.element((8, -3)))
    assert oriented_isomorphic(a, theta_b, b, theta_a) is None
    assert oriented_type(a, theta_a) == oriented_type(b, theta_b)
    assert calls == []
    assert theta_a.u_inv == u and theta_b.u_inv == 1


def test_algebras_isomorphic_divides_once_by_the_unit(monkeypatch):
    # the unit test of eps in types_isomorphic is the division that finds
    # u = 1/eps; the hom does not divide by eps a second time.  The divisions
    # run on the kernel tuples, so the tuple kernel is what is counted
    a = alg(ZSQRT8, 0, -6)
    b = change_basis(a, ZSQRT8.element((3, 1)), 0)
    calls = []
    real = TableRing._divide_coords

    def divide(self, p, q):
        calls.append((p, q))
        return real(self, p, q)

    monkeypatch.setattr(TableRing, "_divide_coords", divide)
    hom = algebras_isomorphic(a, b)
    assert hom == AlgebraHom(ZSQRT8.element((3, -1)), ZSQRT8.zero)
    assert calls == [((408, 144), (24, 0)), ((1, 0), (3, 1))]
    calls.clear()
    assert types_isomorphic(type_of(a), type_of(b)) == ZSQRT8.element((3, 1))
    assert calls == [((408, 144), (24, 0)), ((1, 0), (3, 1))]


def test_orientation_by_a_non_unit_is_refused():
    for ring, value, shown in ((ZSQRT8, ZSQRT8.from_int(2), "2"),
                               (Z9_SQRT8, Z9_SQRT8.element((3, 0)), "3"),
                               (Z, Z.zero, "0")):
        with pytest.raises(NotAUnit) as err:
            Orientation(value)
        assert str(err.value) == f"orientation value {shown} is not a unit"


def test_oriented_iso_present_iff_oriented_types_equal_fuzz():
    rng = random.Random(16)
    units = [ZSQRT2.one, -ZSQRT2.one, ZSQRT2.element((1, 1)), ZSQRT2.element((-1, 1))]
    for _ in range(300):
        r = ZSQRT2.element((rng.randrange(-10, 11), rng.randrange(-10, 11)))
        s = ZSQRT2.element((rng.randrange(-10, 11), rng.randrange(-10, 11)))
        c = alg(ZSQRT2, r, s)
        th1 = Orientation(rng.choice(units))
        eps, alpha = rng.choice(units), ZSQRT2.element(
            (rng.randrange(-6, 7), rng.randrange(-6, 7)))
        c2 = change_basis(c, eps, alpha)
        th2 = Orientation(rng.choice(units))
        hom = oriented_isomorphic(c, th1, c2, th2)
        types_equal = oriented_type(c, th1) == oriented_type(c2, th2)
        assert (hom is not None) == types_equal
        if hom is not None:
            assert hom.verifies(c, c2)


def test_automorphisms_bruteforce_mod8():
    c = alg(ZMOD8, 0, -2)
    autos = automorphisms_bruteforce(c)
    assert len(autos) == 8
    us = sorted(int(h.u.coords[0]) for h in autos)
    vs = sorted({int(h.v.coords[0]) for h in autos})
    assert us == [1, 1, 3, 3, 5, 5, 7, 7] and vs == [0, 4]
    with pytest.raises(InfiniteRing):
        automorphisms_bruteforce(alg(Z, 0, -2))


def test_automorphisms_include_identity_over_f4():
    c = alg(F4, 1, 1)
    autos = automorphisms_bruteforce(c)
    assert identity_hom(F4) in autos


def test_automorphism_count_matches_full_map_search():
    # independent oracle: all 16 affine maps on (Z/4)[tau]/(tau^2 - 1)
    c = alg(ZMOD4, 0, -1)
    assert len(automorphisms_bruteforce(c)) == affine_ring_map_count(4, 0, -1)


def test_oriented_automorphisms():
    c = alg(ZMOD8, 0, -2)
    for theta in (Orientation(ZMOD8.one), Orientation(ZMOD8.from_int(3))):
        homs = oriented_automorphisms_bruteforce(c, theta)
        assert [(int(h.u.coords[0]), int(h.v.coords[0])) for h in homs] \
            == [(1, 0), (1, 4)]
    assert oriented_automorphisms_bruteforce(alg(Z, 3, 2), Orientation(Z.one)) \
        == [identity_hom(Z)]
    assert oriented_automorphisms_bruteforce(alg(ZSQRT8, W8, -4),
                                             Orientation(ZSQRT8.one)) \
        == [identity_hom(ZSQRT8)]


def test_isomorphic_bruteforce_counterexamples():
    x = F4.element((0, 1))
    c1, c2 = alg(F4, 1, 1), alg(F4, 1, x)
    assert type_of(c1) == AlgebraType(F4.one, F4.mod2(F4.one))
    assert type_of(c2) == AlgebraType(F4.one, F4.mod2(F4.one))
    assert isomorphic_bruteforce(c1, c2) is None
    zero_type = AlgebraType(ZMOD4.zero, ZMOD4.mod2(ZMOD4.zero))
    cs = [alg(ZMOD4, 0, -s) for s in range(4)]
    for c in cs:
        assert type_of(c) == zero_type
    for i in range(4):
        for j in range(4):
            hom = isomorphic_bruteforce(cs[i], cs[j])
            if i == j:
                assert hom is not None
            else:
                assert hom is None
    assert isomorphic_bruteforce(c1, c1) is not None
    with pytest.raises(InfiniteRing):
        isomorphic_bruteforce(alg(Z, 0, 1), alg(Z, 0, 1))


def test_find_parities_examples():
    assert [p.residue for p in find_parities(Z, Z.from_int(-44))] == [(0,)]
    assert [p.residue for p in find_parities(ZSQRT2, ZSQRT2.from_int(8))] == [(0, 0)]
    parities = find_parities(ZSQRT8, ZSQRT8.from_int(24))
    assert [p.residue for p in parities] == [(0, 0), (0, 1)]


def test_hom_json():
    # u and v print in their ring's element JSON: a bare int over Z, the
    # coordinate list over a table ring, {"coords", "k"} over Z[1/f]
    for ring, u, v in ((Z, 1, -1), (ZSQRT2, [1, 0], [-1, 0]),
                       (ZINV6, {"coords": [1], "k": 0}, {"coords": [-1], "k": 0})):
        hom = AlgebraHom(ring.one, ring.from_int(-1))
        assert render_hom(hom) == {"isomorphic": True, "hom": {"u": u, "v": v}}
    assert render_hom(AlgebraHom(ZINV6.element((1, 2)), ZINV6.zero))["hom"]["u"] \
        == {"coords": [1], "k": 2}


def _finite_pair(rng, ring, elements, units):
    """Two algebras over a finite ring; half the time the second is the
    first in a basis tau' = eps*tau + alpha with eps a unit."""
    a = alg(ring, rng.choice(elements), rng.choice(elements))
    if rng.random() < 0.5:
        return a, change_basis(a, rng.choice(units), rng.choice(elements))
    return a, alg(ring, rng.choice(elements), rng.choice(elements))


def test_bruteforce_matches_generic_search():
    # same homs in the same order as testing every (u, v) in ring arithmetic
    rng = random.Random(7)
    for ring, cases in ((ZMOD4, 40), (ZMOD8, 40), (F4, 40), (Z16, 30), (Z9_SQRT8, 1)):
        elements = ring.enumerate_elements()
        units = [x for x in elements if ring.is_unit(x)]
        for _ in range(cases):
            a, b = _finite_pair(rng, ring, elements, units)
            assert automorphisms_bruteforce(a) == search_homs_generic(a, a)
            assert oriented_automorphisms_bruteforce(a, Orientation(ring.one)) \
                == search_homs_generic(a, a, [ring.one])
            homs = search_homs_generic(a, b)
            assert list(_search_homs(a, b)) == homs
            assert isomorphic_bruteforce(a, b) == (homs[0] if homs else None)


def test_a_wrong_table_entry_trips_the_hom_verification():
    # over Z/8, tau^2 - 1 and tau^2 - 5 are not isomorphic; a planted product
    # that makes (u, v) = (1, 0) pass the index scan must fail the ring check
    ring = QuotientRing(Z, 8)
    a, b = alg(ring, 0, -1), alg(ring, 0, -5)
    assert isomorphic_bruteforce(a, b) is None
    t = ring.tables
    # for u = 1, v = 0 meets 2v = u*r' - r = 0, and v^2 + r*v = 0 is tested
    # against u^2*s' - s = 1*(-5) + 1 = 4 mod 8 by reading v*(v + r) at
    # v = 0 from the kept row of r; planted as 4 there, it makes (1, 0) pass
    # the scan
    t.row(a.r.coords)[t.index[ring.zero.coords]] = t.index[ring.from_int(4).coords]
    with pytest.raises(AssertionError, match="index tables disagree with ring arithmetic"):
        isomorphic_bruteforce(a, b)


def test_hom_verifications_survive_python_O():
    # the checks raise AssertionError themselves, so `python -O` keeps them
    script = """
from quadalg.algebras import (AlgebraHom, FreeQuadraticAlgebra, algebras_isomorphic,
                              freeok_iso, isomorphic_bruteforce)
from quadalg.cli import builtin_ring
AlgebraHom.verifies = lambda self, a, b: False
for ring, r, call in (("zsqrt2", 0, algebras_isomorphic), ("zsqrt2", 0, freeok_iso),
                      ("zmod8", 1, isomorphic_bruteforce)):
    ring = builtin_ring(ring)
    a = FreeQuadraticAlgebra(ring, ring.from_int(r), ring.from_int(-1))
    try:
        call(a, a if call is not freeok_iso else ring.from_int(2))
    except AssertionError as exc:
        print(repr(exc))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines() == [
        "AssertionError('constructed hom failed verification')",
        "AssertionError()",
        "AssertionError('index tables disagree with ring arithmetic')",
    ]


# rings of the verification tests, each with a few of its units
HOM_RINGS = {
    "Z": (Z, Z.units),
    "Z[sqrt2]": (ZSQRT2, [ZSQRT2.element(c) for c in ((1, 0), (-1, 0), (1, 1), (-1, 1),
                                                     (3, 2), (3, -2))]),
    "Z[sqrt8]": (ZSQRT8, [ZSQRT8.element(c) for c in ((1, 0), (-1, 0), (3, 1), (3, -1))]),
    "Z/8": (ZMOD8, ZMOD8.units),
    "F4": (F4, F4.units),
    "Z/15": (Z15, Z15.units),
    "Z[sqrt8]/9": (Z9_SQRT8, Z9_SQRT8.units),
    "Z[1/6]": (ZINV6, [ZINV6.element(c) for c in ((1, 0), (-1, 0), (2, 0), (3, 0),
                                                  (1, 1), (-3, 1), (2, 1))]),
}


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(HOM_RINGS)), st.integers(0, 2), st.integers(0, 9),
       st.lists(st.integers(-7, 7), min_size=8, max_size=8), st.integers(0, 2))
def test_verifies_matches_the_expanded_hom_equations(name, mode, which, coords, k):
    # mode 0: the hom onto a change of basis, so a hom; mode 1: its u with
    # another v; mode 2: any (u, v).  verifies is decided in five products,
    # the oracle in the nine of the term-by-term expansion
    ring, units = HOM_RINGS[name]

    def element(i):
        c = coords[2 * i:2 * i + ring.rank]
        return ring.element([*c, k]) if ring.kind == "localization" else ring.element(c)

    a = alg(ring, element(0), element(1))
    eps = units[which % len(units)]
    alpha = element(2)
    b = change_basis(a, eps, alpha)
    u = ring.try_inverse(eps)
    hom = AlgebraHom(u if mode < 2 else element(3), -alpha * u if mode == 0 else element(3))
    expected = hom_equations_hold(hom.u, hom.v, a, b)
    assert hom.verifies(a, b) == expected
    assert expected or mode > 0


def _oracle_type(a, uinv):
    """(delta * uinv^2, (r * uinv) mod 2) for a = (r, s), delta = r^2 - 4s, as
    elements built without the ring's kernels: each product from the dense
    loop over the structure constants, reduced mod m at the end, or over
    Z[1/f] in Fractions; the residue by the ring kind's own rule."""
    ring = a.ring
    if ring.kind == "localization":
        r, s, w = (localization_value(x) for x in (a.r, a.s, uinv))
        return (localization_from_fraction(ring, (r * r - 4 * s) * w * w),
                mod2_by_kind(ring, localization_from_fraction(ring, r * w)))

    def mul(x, y):
        return mul_coords_dense(ring.table, x, y)

    def element(v):
        return RingElement(ring, v if ring.m is None else tuple(c % ring.m for c in v))

    r, s, w = a.r.coords, a.s.coords, uinv.coords
    delta = tuple(p - 4 * q for p, q in zip(mul(r, r), s))
    return element(mul(mul(delta, w), w)), mod2_by_kind(ring, element(mul(r, w)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(HOM_RINGS)), st.booleans(), st.integers(0, 9), st.integers(0, 9),
       st.lists(st.integers(-7, 7), min_size=8, max_size=8),
       st.lists(st.integers(0, 2), min_size=4, max_size=4))
def test_decisions_match_the_oracles(name, iso, which, which_theta, coords, ks):
    # the tuple path against independent oracles: types against dense products
    # or Fractions, every hom found against the expanded hom equations, and
    # over finite rings every None against the search over every (u, v); b
    # is a change of basis of a when iso holds, and theta_b then matches it
    ring, units = HOM_RINGS[name]

    def element(i):
        c = coords[2 * i:2 * i + ring.rank]
        return ring.element([*c, ks[i]]) if ring.kind == "localization" else ring.element(c)

    a = alg(ring, element(0), element(1))
    eps = units[which % len(units)]
    b = change_basis(a, eps, element(2)) if iso else alg(ring, element(2), element(3))
    theta_a = Orientation(units[which_theta % len(units)])
    theta_b = Orientation(theta_a.u * eps)
    for x in (a, b):
        assert type_of(x) == AlgebraType(*_oracle_type(x, ring.one))
        assert oriented_type(x, theta_a) == AlgebraType(*_oracle_type(x, theta_a.u_inv))
    if not ring.two_regular:
        with pytest.raises(NotTwoRegular):
            algebras_isomorphic(a, b)
        return
    hom = algebras_isomorphic(a, b)
    assert (types_isomorphic(type_of(a), type_of(b)) is None) == (hom is None)
    if hom is None:
        assert not iso
        assert not ring.is_finite() or search_homs_generic(a, b) == []
    else:
        assert ring.is_unit(hom.u) and hom_equations_hold(hom.u, hom.v, a, b)
    u = theta_a.u * theta_b.u_inv
    hom = oriented_isomorphic(a, theta_a, b, theta_b)
    if hom is None:
        assert not iso
        assert not ring.is_finite() or search_homs_generic(a, b, [u]) == []
    else:
        assert hom.u == u and hom_equations_hold(u, hom.v, a, b)


def test_verifies_refuses_rings_other_than_the_source():
    twin = quadratic_table_ring(8)
    assert AlgebraHom(twin.one, twin.zero).verifies(alg(ZSQRT8, 0, -2), alg(twin, 0, -2))
    for ring, other in ((ZSQRT2, ZSQRT8), (ZMOD8, ZMOD4), (Z, ZINV6), (F4, ZMOD4)):
        a, b = alg(ring, 0, -1), alg(other, 0, -1)
        for hom, source, target in ((AlgebraHom(ring.one, ring.zero), a, b),
                                    (AlgebraHom(ring.one, ring.zero), b, a),
                                    (AlgebraHom(other.one, other.zero), a, a),
                                    (AlgebraHom(ring.one, other.zero), a, a)):
            with pytest.raises(RingMismatch):
                hom.verifies(source, target)


def test_verifies_makes_at_most_five_products(monkeypatch):
    # the factored hom equations take five products, the term-by-term expansion
    # nine; they run on the source ring's tuple kernel, so that is what is
    # counted: in the ring's own namespace, where a lattice ring keeps its
    # compiled kernel and where Z[1/f]'s method is shadowed until the undo
    cases = []
    for ring, units in HOM_RINGS.values():
        a = alg(ring, ring.from_int(1), ring.from_int(-1))
        for eps in units[:3]:
            u = ring.try_inverse(eps)
            cases.append((AlgebraHom(u, -2 * u), a, change_basis(a, eps, 2)))
    calls = []
    for ring, _ in HOM_RINGS.values():
        def counted(x, y, _mul=ring._mul_coords):
            calls.append((x, y))
            return _mul(x, y)

        monkeypatch.setitem(vars(ring), "_mul_coords", counted)
    for hom, a, b in cases:
        calls.clear()
        assert hom.verifies(a, b)
        assert 0 < len(calls) <= 5


def _count_kernels(monkeypatch, ring, calls):
    """Count, by name in the Counter calls, ring's calls of its tuple kernels
    and of its lattice division (whose products are counted too), in the
    ring's own namespace: the compiled kernels are restored on undo."""
    for name in ("_add_coords", "_neg_coords", "_sub_coords", "_mul_coords", "_divide_coords"):
        def counted(*args, _name=name, _real=getattr(ring, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setitem(vars(ring), name, counted)


def test_a_second_bruteforce_search_builds_no_rows(monkeypatch):
    # the row of v*(v + r) is kept by the tables under r: a second search
    # from the same r builds no row, whatever its target; each search makes
    # three products and two differences per unit, u*r' - r and u^2*s' - s,
    # and no other sum; another r builds its one row
    ring = QuotientRing(Z, 8)
    a, b, c, d = alg(ring, 1, 0), alg(ring, 1, 1), alg(ring, 1, 5), alg(ring, 3, 0)
    n, units = len(ring.tables.elements), len(ring.units)
    calls = Counter()
    _count_kernels(monkeypatch, ring, calls)
    for source, target, rows in ((a, b, 1), (a, b, 0), (a, c, 0), (d, b, 1)):
        calls.clear()
        assert isomorphic_bruteforce(source, target) is None
        # the row of v*(v + r) makes the only sums
        assert calls["_add_coords"] == rows * n
        assert calls["_neg_coords"] == calls["_divide_coords"] == 0
        assert calls["_sub_coords"] == 2 * units
        assert calls["_mul_coords"] == rows * n + 3 * units


def _count_cli_calls(monkeypatch, capsys, cls, name, argv):
    calls = []

    def counted(self, *args, _real=getattr(cls, name)):
        calls.append(self)
        return _real(self, *args)

    monkeypatch.setattr(cls, name, counted)
    assert run(argv) == 0
    out, err = capsys.readouterr()
    return len(calls), out, err


def _count_cli_kernels(monkeypatch, capsys, argv):
    """``_count_kernels`` over every quotient ring that the command builds."""
    calls = Counter()

    def counted_init(self, *args, _real=QuotientRing.__init__):
        _real(self, *args)
        _count_kernels(monkeypatch, self, calls)

    monkeypatch.setattr(QuotientRing, "__init__", counted_init)
    assert run(argv) == 0
    out, err = capsys.readouterr()
    return calls, out, err


Z512 = '{"kind":"quotient","base":{"kind":"integers"},"m":512}'


def test_autos_at_the_cap_builds_few_rows(monkeypatch, capsys):
    # Z/512 is at FINITE_TABLE_CAP; the search builds one row, y*(y + r), and
    # makes three products per unit, and the unit scan tests each of the n
    # tuples for the unit ideal with no division, one product per test at
    # rank 1: n row products, n for the scan, 3n/2 for the n/2 units and 10
    # for the two homs' checks (1,802), where a full table takes n(n + 1)/2
    n = 512
    calls, out, err = _count_cli_kernels(monkeypatch, capsys,
                                         ["autos", "--ring", Z512, "--alg", "r=1,s=0"])
    assert (out, err) == ('{"count":2,"automorphisms":[{"u":[1],"v":[0]},'
                          '{"u":[511],"v":[511]}]}\n', "")
    assert calls["_divide_coords"] == 0
    assert calls["_mul_coords"] <= 7 * n // 2 + 16


def test_bruteforce_past_the_cap_divides_nothing(monkeypatch):
    # the tables are read before the units are listed, so a ring past
    # FINITE_TABLE_CAP is refused before its unit scan makes one division
    ring = QuotientRing(Z, 1000)
    calls = Counter()
    _count_kernels(monkeypatch, ring, calls)
    a = alg(ring, 1, 0)
    for search in (lambda: isomorphic_bruteforce(a, a), lambda: automorphisms_bruteforce(a)):
        with pytest.raises(RingTooLarge) as exc:
            search()
        assert str(exc.value) == "Z/1000 has 1000 elements; finite-ring tables are capped at 512"
    assert calls["_divide_coords"] == 0


@pytest.mark.parametrize("r, s", [(1, 0), (3, 2)])
def test_bruteforce_builds_elements_only_for_the_homs(monkeypatch, r, s):
    # once the tables and the units are read, a search over Z/512 runs on
    # coordinate tuples and makes elements of the u and v of each hom alone
    ring = QuotientRing(Z, 512)
    a = alg(ring, r, s)
    assert ring.tables.elements and ring.units
    built = []

    def counted(self, *args, _real=RingElement.__init__):
        built.append(args)
        _real(self, *args)

    monkeypatch.setattr(RingElement, "__init__", counted)
    homs = automorphisms_bruteforce(a)
    assert len(homs) == 2 and len(built) == 2 * len(homs)


def test_oriented_autos_scans_no_units(monkeypatch, capsys):
    # u = 1 is the only candidate, so the units are never listed: the one
    # division left is the orientation's own unit test
    count, out, err = _count_cli_calls(monkeypatch, capsys, QuotientRing, "try_divide",
                                       ["autos", "--ring", Z512, "--alg", "r=1,s=0",
                                        "--oriented"])
    assert (out, err) == ('{"count":1,"automorphisms":[{"u":[1],"v":[0]}]}\n', "")
    assert count <= 1


def test_oriented_autos_builds_no_rows_of_r_prime_or_s_prime(monkeypatch, capsys):
    # u = 1 reads u*r' and u^2*s' from three products, as every unit does:
    # the row of y*(y + r), those three products and the hom's check
    n = 512
    calls, out, err = _count_cli_kernels(monkeypatch, capsys,
                                         ["autos", "--ring", Z512, "--alg", "r=1,s=0",
                                          "--oriented"])
    assert (out, err) == ('{"count":1,"automorphisms":[{"u":[1],"v":[0]}]}\n', "")
    assert calls["_mul_coords"] <= n + 16


# fresh rings, so that no other test has read a row of theirs
@pytest.mark.parametrize("ring", [QuotientRing(Z, 8), builtin_ring("f4"), QuotientRing(Z, 9),
                                  QuotientRing(ZSQRT2, 3)], ids=repr)
def test_cached_search_rows_match_ring_arithmetic(ring):
    t = ring.tables
    elements = ring.enumerate_elements()
    assert t.elements == [v.coords for v in elements]
    assert all(t.index[x] == i for i, x in enumerate(t.elements))
    assert [t.elements[i] for i in t.double] == [(v + v).coords for v in elements]
    assert not t.rows
    for r in elements:
        row = t.row(r.coords)
        assert [t.elements[i] for i in row] == [(v * (v + r)).coords for v in elements]
        assert t.row(r.coords) is row
    assert len(t.rows) == len(elements)


def test_classification_matches_bruteforce_on_two_regular_rings():
    # where 2 is regular, algebras are isomorphic iff their types are
    rng = random.Random(2021)
    rings = (QuotientRing(Z, 9), QuotientRing(Z, 25), QuotientRing(Z, 15), Z9_SQRT8,
             QuotientRing(ZSQRT2, 3), QuotientRing(ZSQRT2, 5))
    for ring in rings:
        elements = ring.enumerate_elements()
        units = [x for x in elements if ring.is_unit(x)]
        for _ in range(300):
            a, b = _finite_pair(rng, ring, elements, units)
            hom = algebras_isomorphic(a, b)
            assert (hom is None) == (isomorphic_bruteforce(a, b) is None)
            assert hom is None or hom.verifies(a, b)


def test_finite_classification_reads_one_unit_list(monkeypatch):
    # the units are listed once, by a unit-ideal test per coordinate tuple
    # and no division; each decision then divides once, for 1/eps
    for ring in (QuotientRing(Z, 9), QuotientRing(ZSQRT8, 9)):
        calls = Counter()
        _count_kernels(monkeypatch, ring, calls)
        t1 = type_of(alg(ring, 0, -6))
        t2 = AlgebraType(4 * t1.delta, t1.parity)
        eps = types_isomorphic(t1, t2)
        assert eps is not None and t2.delta == eps * eps * t1.delta
        assert types_isomorphic(t2, t1) is not None
        assert calls["_divide_coords"] == 2
        # the brute-force search reads the same list and divides no more
        calls.clear()
        assert automorphisms_bruteforce(alg(ring, 0, -6))
        assert calls["_divide_coords"] == 0
