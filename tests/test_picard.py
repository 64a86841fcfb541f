import itertools
import random
from functools import cache
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadalg import picard
from quadalg.algebras import FreeQuadraticAlgebra, freeok_iso, type_of
from quadalg.errors import (
    BadParityLift,
    InvalidDiscriminant,
    InvalidRange,
    NotInvertible,
    NotPrimitive,
    OrderMismatch,
    TypeMismatch,
    ZeroLeadingCoefficient,
)
from quadalg.forms import (
    GL2Matrix,
    TwistedForm,
    act_gl2tw,
    equivalent_gl2tw,
    natural_type,
    reduce_posdef,
)
from quadalg.picard import (
    OrderIdeal,
    QuadraticOrder,
    class_group,
    compose,
    conjugate,
    conjugation_orbits,
    form_to_ideal,
    ideal_mul,
    ideal_norm,
    ideal_to_form,
    is_invertible,
    is_principal,
    order_from_type,
    pic_mod_conjugation,
    reduced_forms,
    reduced_triples,
    reduced_triples_between,
    wood_local_algebra,
)
from quadalg.ring import IntegerRing, xgcd

from oracles import (
    ClassNumbers,
    compose_via_ideals,
    ideal_class_count,
    principal_by_norm_equation,
    reduced_forms_bruteforce,
)

Z = IntegerRing()


def F(a, b, c):
    return TwistedForm.over_z(a, b, c)


O44 = order_from_type(-44, 0)
I44 = form_to_ideal(F(3, 2, 4), O44)
J44 = form_to_ideal(F(3, -2, 4), O44)


def test_order_from_type():
    o = order_from_type(-44, 0)
    assert o.algebra() == FreeQuadraticAlgebra(Z, 0, 11)
    o3 = order_from_type(-3, 1)
    assert o3.algebra() == FreeQuadraticAlgebra(Z, 1, 1)
    with pytest.raises(BadParityLift):
        order_from_type(-44, 1)
    with pytest.raises(InvalidDiscriminant):
        order_from_type(-5, 1)
    with pytest.raises(InvalidDiscriminant):
        order_from_type(44, 0)


def test_form_to_ideal_anchors():
    assert I44.hnf() == [[3, 2], [0, 1]]  # <3, omega - 1>
    assert I44 == OrderIdeal.from_generators(O44, [(3, 0), (-1, 1)])
    assert form_to_ideal(F(1, 0, 11), O44) == OrderIdeal.whole_order(O44)
    assert J44 == OrderIdeal.from_generators(O44, [(3, 0), (1, 1)])
    assert ideal_norm(I44) == 3


def test_form_to_ideal_errors():
    with pytest.raises(NotPrimitive):
        form_to_ideal(F(2, 2, 4), O44)
    with pytest.raises(ZeroLeadingCoefficient):
        form_to_ideal(F(0, 1, 3), O44)
    with pytest.raises(TypeMismatch):
        form_to_ideal(F(1, 0, 1), O44)


def test_ideal_arithmetic():
    assert conjugate(I44) == J44
    assert ideal_mul(OrderIdeal.whole_order(O44), I44) == I44
    sq = ideal_mul(I44, I44)
    assert ideal_norm(sq) == 9
    with pytest.raises(OrderMismatch):
        ideal_mul(I44, form_to_ideal(F(1, 0, 1), order_from_type(-4, 0)))


def test_ideal_closure_validation():
    assert OrderIdeal(O44, 3, 1, 1) == J44  # omega-closed: fine
    with pytest.raises(ValueError):
        OrderIdeal(O44, 5, 1, 1)  # Z*5 + Z*(1+omega) is not omega-closed
    with pytest.raises(ValueError):
        OrderIdeal(O44, 3, 5, 1)  # not canonical: b >= a


def test_is_invertible_conductor_example():
    # the non-invertible ideal at the conductor of the order of disc -12
    # is <2, 1 + omega>; <2, omega> itself contains omega^2 = -3, hence 1
    o12 = order_from_type(-12, 0)
    assert OrderIdeal.from_generators(o12, [(2, 0), (0, 1)]) \
        == OrderIdeal.whole_order(o12)
    bad = OrderIdeal.from_generators(o12, [(2, 0), (1, 1)])
    assert ideal_norm(bad) == 2
    assert ideal_mul(bad, conjugate(bad)).hnf() == [[4, 2], [0, 2]]
    assert not is_invertible(bad)
    assert is_invertible(I44)
    assert is_invertible(OrderIdeal.whole_order(O44))
    with pytest.raises(NotInvertible):
        ideal_to_form(bad)
    with pytest.raises(NotInvertible):
        is_principal(bad)


def test_is_principal_tests_invertibility_once(monkeypatch):
    calls = []

    def counted(ideal):
        calls.append(ideal)
        return is_invertible(ideal)

    monkeypatch.setattr(picard, "is_invertible", counted)
    assert not is_principal(I44)
    assert calls == [I44]
    bad = OrderIdeal.from_generators(order_from_type(-12, 0), [(2, 0), (1, 1)])
    with pytest.raises(NotInvertible) as err:
        is_principal(bad)
    assert str(err.value) == f"{bad!r} is not invertible"
    assert calls == [I44, bad]


def test_is_principal():
    assert not is_principal(I44)
    assert is_principal(OrderIdeal.whole_order(O44))
    # norm-equation oracle agrees
    assert not principal_by_norm_equation(I44)
    assert principal_by_norm_equation(OrderIdeal.whole_order(O44))


def test_ideal_to_form_round_trips():
    assert equivalent_gl2tw(ideal_to_form(I44), F(3, 2, 4))
    assert equivalent_gl2tw(ideal_to_form(OrderIdeal.whole_order(O44)), F(1, 0, 11))
    assert equivalent_gl2tw(ideal_to_form(ideal_mul(I44, I44)), F(3, -2, 4))


def test_class_group_minus_44():
    group = class_group(-44)
    assert group.h == 3
    assert group.representatives == [F(1, 0, 11), F(3, 2, 4), F(3, -2, 4)]
    assert group.compose(F(3, 2, 4), F(3, 2, 4)) == F(3, -2, 4)
    assert class_group(-4).representatives == [F(1, 0, 1)]
    with pytest.raises(InvalidDiscriminant):
        class_group(-6)


def test_group_axioms_exhaustive():
    for delta in (-23, -44, -47, -71):
        group = class_group(delta)
        reps = group.representatives
        ident = group.identity()
        table = {(q1, q2): group.compose(q1, q2)
                 for q1 in reps for q2 in reps}
        for q1 in reps:
            assert table[(q1, ident)] == reduce_posdef(q1)
            assert table[(q1, group.inverse(q1))] == reduce_posdef(ident)
            for q2 in reps:
                assert table[(q1, q2)] in reps  # closure
                assert table[(q1, q2)] == table[(q2, q1)]  # commutativity
        for q1, q2, q3 in itertools.product(reps, repeat=3):
            assert table[(table[(q1, q2)], q3)] == table[(q1, table[(q2, q3)])]


def test_compose_matches_ideal_path_exhaustive():
    for delta in range(-400, -2):
        if delta % 4 not in (0, 1):
            continue
        group = class_group(delta)
        for q1, q2 in itertools.product(group.representatives, repeat=2):
            assert group.compose(q1, q2) == compose_via_ideals(group.order, q1, q2), (q1, q2)


_cached_group = cache(class_group)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([-1000003, -3000011]), st.integers(0, 10**6), st.integers(0, 10**6),
       st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-3, 3),
                          st.sampled_from([1, -1]), st.sampled_from([1, -1])),
                min_size=2, max_size=2))
def test_compose_matches_ideal_path_unreduced(delta, i, j, moves):
    """Reps moved off the reduced domain by GL2(Z) matrices, with (a, c) of
    random sign, compose the same on the int path and the ideal path."""
    group = _cached_group(delta)
    reps = group.representatives
    forms = []
    for q, (al, ga, t, det, sign) in zip((reps[i % len(reps)], reps[j % len(reps)]), moves):
        g = gcd(al, ga)
        assume(g)
        al, ga = al // g, ga // g
        _, u, v = xgcd(al, ga)  # [[al, be], [ga, de]] with al*de - be*ga = 1
        be, de = -v + t * al, u + t * ga
        a, b, c = act_gl2tw(GL2Matrix(Z, al, det * be, ga, det * de), q).int_coefficients()
        forms.append(F(sign * a, b, sign * c))
    assert compose(group.order, *forms) == compose_via_ideals(group.order, *forms)


def test_compose_errors_match_ideal_path():
    good = F(3, 2, 4)
    bad = [F(6, 4, 8),     # not primitive
           F(0, 2, -11),   # a == 0, checked before the discriminant (4)
           F(0, 1, 3),     # a == 0
           F(1, 0, 1),     # discriminant -4
           F(1, 1, 3)]     # discriminant -11 and odd b: the wrong parity for -44
    cases = [(q, good) for q in bad] + [(good, q) for q in bad]
    cases += [(q1, q2) for q1 in bad for q2 in bad if q1 is not q2]
    for q1, q2 in cases:
        with pytest.raises(Exception) as want:
            compose_via_ideals(O44, q1, q2)
        with pytest.raises(want.type) as got:
            compose(O44, q1, q2)
        assert str(got.value) == str(want.value), (q1, q2)
        assert want.type in (NotPrimitive, ZeroLeadingCoefficient, TypeMismatch)


def test_class_numbers_match_analytic_formula():
    class_numbers = ClassNumbers()
    rng = random.Random(5)
    for _ in range(10):
        delta = -rng.randrange(10**5, 10**6)
        while delta % 4 not in (0, 1):
            delta -= 1
        assert class_group(delta).h == class_numbers(delta), delta


def test_cross_count_small():
    for delta in (-23, -44, -47, -71, -84):
        assert len(reduced_forms(delta)) == ideal_class_count(delta)


def test_round_trip_sample():
    rng = random.Random(17)
    deltas = [d for d in range(-120, -2) if d % 4 in (0, 1)]
    for delta in rng.sample(deltas, 20):
        order = QuadraticOrder(delta, delta % 2)
        for q in reduced_forms(delta):
            assert equivalent_gl2tw(ideal_to_form(form_to_ideal(q, order)), q)


def test_conjugation_matches_opposition():
    for delta in (-23, -44, -47, -71):
        order = QuadraticOrder(delta, delta % 2)
        for q in reduced_forms(delta):
            lhs = ideal_to_form(conjugate(form_to_ideal(q, order)))
            assert equivalent_gl2tw(lhs, q.opposite())


def test_pic_mod_conjugation():
    orbits = pic_mod_conjugation(-44)
    assert orbits == [[F(1, 0, 11)], [F(3, 2, 4), F(3, -2, 4)]]
    assert len(pic_mod_conjugation(-4)) == 1
    assert len(pic_mod_conjugation(-23)) == 2


def test_enumeration_matches_bruteforce():
    deltas = [d for d in range(-3000, -2) if d % 4 in (0, 1)]
    for delta in deltas + [-1000003, -1000000, -3000011]:
        want = reduced_forms_bruteforce(delta)
        assert [q.int_coefficients() for q in reduced_forms(delta)] == want, delta
        # the orbits partition the reps; q is alone when its opposite reduces to
        # it, which for a reduced q with b != 0 means [a,-b,c] is not reduced
        orbits = pic_mod_conjugation(delta)
        assert sorted(q.int_coefficients() for orbit in orbits for q in orbit) == sorted(want)
        reduced = set(want)
        ambiguous = sum(b == 0 or (a, -b, c) not in reduced for a, b, c in want)
        assert len(orbits) == ambiguous + (len(want) - ambiguous) // 2


def _valid_discriminants(lo, hi):
    return [d for d in range(lo, hi + 1) if d % 4 in (0, 1)]


def test_range_sweep_matches_divisor_scan():
    table = reduced_triples_between(-3000, -3)
    assert list(table) == _valid_discriminants(-3000, -3)
    for delta, reps in table.items():
        assert reps == reduced_triples(delta), delta
        # each opposition orbit has exactly one member with b >= 0
        assert sum(b >= 0 for _, b, _ in reps) == len(conjugation_orbits(reps)), delta


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(-2 * 10**5, -3), st.integers(1, 200))
def test_range_sweep_matches_divisor_scan_on_windows(lo, width):
    hi = min(lo + width - 1, -1)
    table = reduced_triples_between(lo, hi)
    assert list(table) == _valid_discriminants(lo, hi)
    for delta, reps in table.items():
        assert reps == reduced_triples(delta), delta


def test_range_sweep_edges():
    assert reduced_triples_between(-4, -3) == {-4: [(1, 0, 1)], -3: [(1, 1, 1)]}
    assert reduced_triples_between(-2, -1) == {}
    for lo, hi in ((-3, -4), (-4, 0), (-4, 4)):
        with pytest.raises(InvalidRange):
            reduced_triples_between(lo, hi)


def test_wood_local_algebra():
    assert wood_local_algebra(F(3, 2, 4)) == FreeQuadraticAlgebra(Z, 2, 12)
    assert wood_local_algebra(F(1, 0, 11)) == FreeQuadraticAlgebra(Z, 0, 11)
    assert wood_local_algebra(F(1, 1, -1)) == FreeQuadraticAlgebra(Z, 1, -1)
    for q in (F(3, 2, 4), F(5, 3, 7), F(2, 1, 9)):
        assert type_of(wood_local_algebra(q)) == natural_type(q)


def test_coherence_with_freeok_iso():
    # freeok on tau^2 + 2tau + 12 with lift 0 gives tau -> omega - 1, so the
    # module generators <3, tau> land on <3, omega - 1> = form_to_ideal([3,2,4])
    q = F(3, 2, 4)
    local = wood_local_algebra(q)
    target, hom = freeok_iso(local, 0)
    assert target == O44.algebra()
    v = int(hom.v)
    assert v == -1
    image = OrderIdeal.from_generators(O44, [(3, 0), (v, 1)])
    assert image == form_to_ideal(q, O44)


def test_ideal_json():
    assert I44.to_json() == {"delta": -44, "pitilde": 0, "hnf": [[3, 2], [0, 1]]}
