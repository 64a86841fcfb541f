import random

import pytest

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
)
from quadalg.cli import builtin_ring
from quadalg.errors import (
    BadLift,
    InfiniteRing,
    InvalidTriple,
    NotAUnit,
    NotTwoRegular,
    ParityMismatch,
)
from quadalg.ring import IntegerRing, QuotientRing, Ring, TableRing, quadratic_table_ring

from oracles import affine_ring_map_count, search_homs_generic

Z = IntegerRing()
ZSQRT2 = quadratic_table_ring(2)
ZSQRT8 = quadratic_table_ring(8)
ZMOD4 = QuotientRing(Z, 4)
ZMOD8 = QuotientRing(Z, 8)
F4 = builtin_ring("f4")
BIQUAD8 = builtin_ring("biquad8")
Z16 = QuotientRing(Z, 16)
Z9_SQRT8 = QuotientRing(ZSQRT8, 9)

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
                assert ring.in_4R(diff) == base


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
    hom = AlgebraHom(Z.one, Z.from_int(-1))
    assert hom.to_json() == {"u": [1], "v": [-1]}


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
            assert isomorphic_bruteforce(a, b) == (homs[0] if homs else None)


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
    calls = []
    enumerate_elements = QuotientRing.enumerate_elements

    def counted(self):
        calls.append(self)
        return enumerate_elements(self)

    monkeypatch.setattr(QuotientRing, "enumerate_elements", counted)
    for ring in (QuotientRing(Z, 9), QuotientRing(ZSQRT8, 9)):
        calls.clear()
        t1 = type_of(alg(ring, 0, -6))
        t2 = AlgebraType(4 * t1.delta, t1.parity)
        eps = types_isomorphic(t1, t2)
        assert eps is not None and t2.delta == eps * eps * t1.delta
        assert types_isomorphic(t2, t1) is not None
        assert calls == [ring]
        # the tables and the unit-group generators read the same list
        assert [ring.tables.elements[i] for i in ring.tables.units] == ring.units
        assert ring.unit_group_generators() == [u for u in ring.units if u != 1]
