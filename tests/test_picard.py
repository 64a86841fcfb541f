import hashlib
import itertools
import json
import random
from collections import Counter
from functools import cache
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadalg import picard
from quadalg.algebras import FreeQuadraticAlgebra, freeok_iso, type_of
from quadalg.cli import builtin_ring, iter_table, parse_form
from quadalg.errors import (
    BadParityLift,
    DiscriminantTooLarge,
    InvalidDiscriminant,
    InvalidRange,
    NotInvertible,
    NotPrimitive,
    OrderMismatch,
    RootStepsTooLarge,
    SweepTooLarge,
    TypeMismatch,
    UnsupportedRing,
    ZeroLeadingCoefficient,
)
from quadalg.forms import (
    GL2Matrix,
    TwistedForm,
    act_gl2tw,
    equivalent_gl2tw,
    natural_type,
    principal_form,
    reduce_posdef,
)
from quadalg.picard import (
    DISCRIMINANT_CAP,
    OrderIdeal,
    QuadraticOrder,
    ROOT_STEPS_CAP,
    class_group,
    compose,
    conjugate,
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
    wood_local_algebra,
)
from quadalg.ring import IntegerRing, QuotientRing, RingElement, xgcd

from oracles import (
    ClassNumbers,
    ambiguous_count,
    class_number,
    closed_by_omega,
    compose_via_ideals,
    conjugation_orbits_gauss,
    ideal_class_count,
    ideal_of_form,
    invertible_by_definition,
    principal_by_norm_equation,
    reduced_forms_bruteforce,
    reduced_triples_divisor_scan,
    rows_between,
    triples,
    triples_between,
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


def test_norm_form_matches_the_definitions():
    # every canonical (a, b, c) with a <= 24 and c <= 8 in every order of
    # discriminant -3 >= delta > -200, non-maximal ones such as -12, -16, -27
    # and -28 too: the constructor's closure test, is_invertible and
    # ideal_to_form against their definitions, and form_to_ideal against the
    # ideal its generators close, on every primitive form with |a| <= 20
    for delta in range(-3, -200, -1):
        if delta % 4 not in (0, 1):
            continue
        order = order_from_type(delta, delta % 2)
        norm, mul, conj = order.norm, order.mul, order.conj
        for a, c in itertools.product(range(1, 25), range(1, 9)):
            for b in range(a):
                try:
                    ideal = OrderIdeal(order, a, b, c)
                except ValueError:
                    assert not closed_by_omega(order, a, b, c), (delta, a, b, c)
                    continue
                assert closed_by_omega(order, a, b, c), (delta, a, b, c)
                if not invertible_by_definition(ideal):
                    assert not is_invertible(ideal), ideal
                    continue
                # N(x*u - y*v) = N(u) x^2 - Tr(u*conj(v)) xy + N(v) y^2
                u, v, n = (a, 0), (b, c), a * c
                w = mul(u, conj(v))
                coefficients = (norm(u), -(w[0] + conj(w)[0]), norm(v))
                assert all(k % n == 0 for k in coefficients), ideal
                assert ideal_to_form(ideal).int_coefficients() \
                    == tuple(k // n for k in coefficients), ideal
        for a in [*range(-20, 0), *range(1, 21)]:
            for b in range(-2 * abs(a), 2 * abs(a) + 1):
                c, r = divmod(b * b - delta, 4 * a)
                if not r and gcd(a, b, c) == 1:
                    q = F(a, b, c)
                    assert form_to_ideal(q, order) == ideal_of_form(q, order), (delta, q)


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


def test_compose_output_digest():
    # every ordered pair of the 105 reduced representatives of -1000003;
    # recorded while compose still read its operands through int()
    group = class_group(-1000003)
    digest = hashlib.sha256()
    for q1, q2 in itertools.product(group.representatives, repeat=2):
        digest.update(repr(group.compose(q1, q2).int_coefficients()).encode())
    assert group.h == 105 and digest.hexdigest() == \
        "4d99759e662e2a8a2a142aed3e99eeac5091f30025e9030f1ae6ae7bf828c168"


def test_compose_builds_no_ring_element(monkeypatch):
    # a form over Z is made and read as its kernel tuples: compose, identity
    # and inverse build no RingElement, and reading a coefficient builds one
    group = class_group(-1000003)
    reps = group.representatives
    built = []
    init = RingElement.__init__

    def counting(self, ring, coords):
        built.append(coords)
        init(self, ring, coords)

    monkeypatch.setattr(RingElement, "__init__", counting)
    for q1, q2 in itertools.product(reps[:20], repeat=2):  # coprime a and not
        group.compose(q1, q2)
        group.inverse(q1)
    group.identity()
    assert built == []
    assert reps[0].a.coords == (1,) and built == [(1,)]


def test_compose_matches_ideal_path_at_scale():
    # seeded delta in [-10^12, -10^9]: the principal form (a = 1), prime forms
    # (p, +-b, c) for the three least odd primes p with delta a square mod 4p,
    # one form with a = p1 * p2, and (-p1, b, -c), negative definite; every
    # ordered pair composes as on the HNF ideal path, and each branch of
    # compose is taken: gcd(a1, a2) = 1, and g = gcd(a1, a2) > 1 with
    # (b1 + b2)/2 divisible by g or not
    rng = random.Random(42)
    branches = Counter()

    def form(a, delta):  # the primitive [a, b, c] of least b >= 0, if any
        for b in range(a + 1):
            c, r = divmod(b * b - delta, 4 * a)
            if not r and gcd(a, b, c) == 1:
                return F(a, b, c)

    for _ in range(10):
        delta = -rng.randrange(10**9, 10**12)
        while delta % 4 not in (0, 1):
            delta -= 1
        order = QuadraticOrder(delta, delta % 2)
        primes = [p for p in range(3, 200, 2) if all(p % d for d in range(3, isqrt(p) + 1, 2))
                  and form(p, delta)][:3]
        forms = [principal_form(delta)]
        for q in map(form, primes + [primes[0] * primes[1]], [delta] * 4):
            a, b, c = q.int_coefficients()
            forms += [q, F(a, -b, c)] if b else [q]
        a, b, c = forms[1].int_coefficients()
        forms.append(F(-a, b, -c))
        for q1, q2 in itertools.product(forms, repeat=2):
            (a1, b1, _), (a2, b2, _) = q1.int_coefficients(), q2.int_coefficients()
            g = gcd(a1, a2)
            branches["coprime" if g == 1 else "divisible" if (b1 + b2) // 2 % g == 0
                     else "not divisible"] += 1
            assert compose(order, q1, q2) == compose_via_ideals(order, q1, q2), (delta, q1, q2)
    assert min(branches["coprime"], branches["divisible"], branches["not divisible"]) >= 20, \
        branches


def test_compose_on_generic_operands():
    # forms on a separately built IntegerRing(), as the CLI parses them
    for delta in (-44, -3, -1000003):
        group = class_group(delta)
        reps = group.representatives[:12]
        for q1, q2 in itertools.product(reps, repeat=2):
            p1, p2 = (parse_form(IntegerRing(), json.dumps(q.int_coefficients()))
                      for q in (q1, q2))
            assert repr(group.compose(p1, p2)) == repr(group.compose(q1, q2))
            assert group.compose(p1, p2) == group.compose(q1, q2)
    # integer entries over Z[sqrt 2] pass is_primitive, then compose over Z
    zsqrt2 = builtin_ring("zsqrt2")
    assert repr(compose(O44, TwistedForm(zsqrt2, 3, 2, 4), F(3, 2, 4))) == "[3,-2,4]"
    assert compose(O44, F(3, 2, 4), TwistedForm(zsqrt2, 3, -2, 4)) == F(1, 0, 11)
    w = zsqrt2.element((0, 1))
    cases = [((zsqrt2, 6, 4, 8), NotPrimitive, "[6,4,8] is not primitive"),
             ((zsqrt2, 0, 2, -11), ZeroLeadingCoefficient,
              "move to an equivalent form with a != 0 first"),
             ((zsqrt2, 1, 1, 3), TypeMismatch,
              "natural type of [1,1,3] does not match QuadraticOrder(delta=-44, pitilde=0)"),
             ((zsqrt2, w, 2, 1), ValueError, "w is not a rational integer"),
             ((builtin_ring("zmod8"), 3, 2, 4), UnsupportedRing,
              "primitivity is not decided over Z/8"),
             ((builtin_ring("zmod8"), 6, 4, 8), UnsupportedRing,
              "primitivity is not decided over Z/8"),
             ((builtin_ring("f4"), 3, 2, 4), UnsupportedRing,
              "primitivity is not decided over TableRing(rank=2)/2"),
             ((QuotientRing(builtin_ring("zsqrt8"), 9), 3, 2, 4), UnsupportedRing,
              "primitivity is not decided over Z[sqrt(8)]/9")]
    for args, error, message in cases:
        q = TwistedForm(*args)
        for call in (lambda: compose(O44, q, F(3, 2, 4)), lambda: compose(O44, F(3, 2, 4), q),
                     lambda: form_to_ideal(q, O44)):
            with pytest.raises(error) as got:
                call()
            assert type(got.value) is error and str(got.value) == message, args


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
    table = triples_between(-3000, -3)
    assert list(table) == _valid_discriminants(-3000, -3)
    for delta, reps in table.items():
        assert reps == reduced_triples_divisor_scan(delta), delta


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(-2 * 10**5, -3), st.integers(1, 200))
def test_range_sweep_matches_divisor_scan_on_windows(lo, width):
    hi = min(lo + width - 1, -1)
    table = triples_between(lo, hi)
    assert list(table) == _valid_discriminants(lo, hi)
    for delta, reps in table.items():
        assert reps == reduced_triples_divisor_scan(delta), delta


def test_range_rows_are_flat_coefficient_lists():
    # a range's row is one flat list a1, b1, c1, a2, ... of 3h ints, on the
    # root path (3 valid discriminants at 10^6) and on seeded sweep windows,
    # and it regroups to reduced_triples; a > 0 and c > 0 on every form, so b
    # is the only coefficient whose sign cli.iter_table's '-' count reads
    rng = random.Random(40)
    windows = [(-10**6, -10**6 + 4), (-300, -3)]
    for _ in range(6):
        lo = -rng.randrange(400, 2 * 10**5)
        windows.append((lo, lo + rng.randrange(1, 300)))
    for lo, hi in windows:
        table = rows_between(lo, hi)
        assert list(table) == _valid_discriminants(lo, hi)
        want = {delta: triples(reduced_triples(delta)) for delta in table}
        assert triples_between(lo, hi) == want
        for delta, flat in table.items():
            assert len(flat) == 3 * len(want[delta]), delta
            assert min(flat[::3]) > 0 and min(flat[2::3]) > 0, delta


def test_single_discriminants_match_divisor_scan():
    # |delta| log-uniform in [10^5, 10^8]: every a takes the one-remainder path
    rng = random.Random(12)
    for _ in range(10):
        delta = -int(10 ** rng.uniform(5, 8))
        while delta % 4 not in (0, 1):
            delta -= 1
        assert triples(reduced_triples(delta)) == reduced_triples_divisor_scan(delta), delta


def test_root_path_matches_divisor_scan():
    for delta in _valid_discriminants(-3000, -3):
        assert triples(reduced_triples(delta)) == reduced_triples_divisor_scan(delta), delta


def test_root_path_lifts_through_square_factors():
    # 16 | delta and p^2 | delta: roots mod p^e with p | 2r lift for every t or none
    deltas = [-16 * k for k in range(1, 200)]
    for p in (3, 5, 7):
        deltas += [d for d in range(-p * p * 300, 0, p * p) if d % 4 in (0, 1)]
    deltas += [-2**14, -3 * 2**16, -4 * 3**10, -3 * 5**8, -4 * 7**6, -4 * 3**5 * 5**4 * 7**2]
    for delta in deltas:
        assert triples(reduced_triples(delta)) == reduced_triples_divisor_scan(delta), delta


def test_root_path_class_numbers():
    # delta = dk f^2 with |delta| in [10^6, 10^9] and a small fundamental dk,
    # so that the analytic formula stays cheap
    rng = random.Random(22)
    class_numbers = ClassNumbers()
    fundamental = [d for d in range(-2000, -2) if d % 4 == 1 and _squarefree(-d)]
    fundamental += [4 * m for m in range(-500, 0) if m % 4 in (2, 3) and _squarefree(-m)]
    for _ in range(20):
        dk = rng.choice(fundamental)
        f = rng.randrange(isqrt(10**6 // -dk) + 1, isqrt(10**9 // -dk) + 1)
        delta = dk * f * f
        assert len(triples(reduced_triples(delta))) == class_numbers(delta), delta


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 10**7 // 4), st.booleans())
def test_ambiguous_forms_match_genus_theory(k, odd):
    # the reduced forms with b = 0, b = a or a = c are the classes of order
    # at most 2: 2^(mu - 1) of them, mu from the odd primes dividing delta
    delta = 1 - 4 * k if odd else -4 * k
    reps = triples(reduced_triples(delta))
    assert sum(b == 0 or b == a or a == c for a, b, c in reps) == ambiguous_count(delta)


def test_ambiguous_forms_at_10_to_the_12():
    delta = -10**12 - 3
    reps = triples(reduced_triples(delta))
    assert sum(b == 0 or b == a or a == c for a, b, c in reps) == ambiguous_count(delta) == 4
    assert class_number(delta) == len(reps) == 124568


def test_class_number_oracle_at_scale():
    # the corpus-scale h, pinned in tests/golden by sha256 alone, and seeded
    # delta in [-10^11, -10^9] against the row's length; None fails too
    for delta, h in [(-10**8 - 3, 1702), (-3 * 10**12, 600000), (-2999999999999, 2032274)]:
        assert class_number(delta) == h, delta
    rng = random.Random(41)
    for _ in range(5):
        delta = -rng.randrange(10**9, 10**11)
        while delta % 4 not in (0, 1):
            delta -= 1
        assert class_number(delta) == len(reduced_triples(delta)) // 3, delta


@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.integers(10**9 // 4, 10**11 // 4), st.sampled_from([0, 3]))
def test_class_number_oracle_on_drawn_discriminants(k, r):
    # delta = -(4k + r) in [-10^11, -10^9], 0 or 1 mod 4: the oracle's h,
    # composed at coefficients near 10^6, against the row's length
    delta = -(4 * k + r)
    assert class_number(delta) == len(reduced_triples(delta)) // 3, delta


def test_class_number_oracle_on_table_windows():
    # three seeded 32-wide windows in [-10^7, -10^6], each swept rather than
    # run per discriminant: the h of every row against the oracle
    rng = random.Random(43)
    for _ in range(3):
        lo = -rng.randrange(10**6, 10**7)
        assert picard._window_cost(lo, lo + 31)[0] > 0
        rows = "".join(iter_table(lo, lo + 31)).split("\n")[1:]
        assert len(rows) == 16
        for row in rows:
            delta, _, h = map(int, row.split(",")[:3])
            assert class_number(delta) == h, delta


def _squarefree(n):
    return all(n % (p * p) for p in range(2, isqrt(n) + 1))


def test_single_discriminant_outside_0_1_mod_4_is_empty():
    for delta in (-1, -2, -5, -6, -101, -102, -10**12 - 1, -10**12 - 2):
        assert rows_between(delta, delta) == {}


def test_single_discriminants_are_capped():
    # refused before any work; so is a range of any width with |min| past the cap
    for delta in (-DISCRIMINANT_CAP - 3, -DISCRIMINANT_CAP - 4, -10**20):
        for call in (reduced_triples, class_group, pic_mod_conjugation):
            with pytest.raises(DiscriminantTooLarge, match="cap of 3000000000000"):
                call(delta)
        with pytest.raises(DiscriminantTooLarge):
            rows_between(delta, delta)
    with pytest.raises(DiscriminantTooLarge):
        rows_between(-10**20 - 1, -10**20 - 1)
    with pytest.raises(DiscriminantTooLarge):
        rows_between(-10**20 - 2, -10**20 - 1)  # no discriminant in it


def test_narrow_windows_take_the_root_path_with_the_sweeps_result(monkeypatch):
    # |lo| log-uniform in [10^5, 10^8], windows of 1 to 4 valid discriminants,
    # and at |lo| = 10^6 one window at the bound of 3 and one past it: a range
    # of at most max(1, sqrt(|lo|) // 300) runs reduced_triples once per
    # discriminant, a wider one none, and the result is the sweep's, keys and
    # triples in the same order
    rng = random.Random(23)
    calls = []
    monkeypatch.setattr(picard, "reduced_triples", lambda d: calls.append(d) or reduced_triples(d))
    windows = [(-10**8, -10**8 + 3), (-10**6, -10**6 + 4), (-10**6, -10**6 + 5)]
    for _ in range(6):
        lo = -int(10 ** rng.uniform(5, 8))
        windows.append((lo, lo + rng.randrange(1, 8)))
    narrow = []
    for lo, hi in windows:
        deltas = _valid_discriminants(lo, hi)
        narrow.append(len(deltas) <= max(1, isqrt(-lo) // 300))
        calls.clear()
        table = rows_between(lo, hi)
        assert calls == (deltas if narrow[-1] else [])
        swept = picard._sweep(lo, hi, deltas)
        assert list(table.items()) == list(swept.items()), (lo, hi)
    assert narrow[1:3] == [True, False]  # the two sides of the bound


def test_narrow_windows_past_the_cap_are_refused(monkeypatch):
    # past the cap a range of two or more is refused like a single
    # discriminant, before any root or sweep work, and iter_table raises
    # before it yields its header
    monkeypatch.setattr(picard, "DISCRIMINANT_CAP", 10**5)
    monkeypatch.setattr(picard, "reduced_triples", None)
    monkeypatch.setattr(picard, "_sweep", None)
    for lo, hi, message in [
        (-100007, -100004, "min = -100007 puts |delta| past the cap of 100000"),
        (-100004, -100004, "|delta| = 100004 is past the cap of 100000 on a single discriminant"),
    ]:
        with pytest.raises(DiscriminantTooLarge) as err:
            rows_between(lo, hi)
        assert str(err.value) == message
        chunks = iter_table(lo, hi)
        with pytest.raises(DiscriminantTooLarge):
            next(chunks)


def test_sweep_pairs_follow_the_path_of_the_range():
    # from (lo, hi) alone: when the range takes the root path, by the rule of
    # test_narrow_windows_take_the_root_path_with_the_sweeps_result, no pairs
    # and a_max a-steps per valid discriminant, else a_max^2 / 2 pairs, about
    # |lo| / 6, and no a-steps
    rng = random.Random(29)
    windows = [(-10**6, -10**6 + 4), (-10**6, -10**6 + 5), (-10**6 + 1, -10**6 + 5), (-5, -3)]
    for _ in range(200):
        lo = -int(10 ** rng.uniform(1, 12))
        windows.append((lo, min(-1, lo + rng.randrange(0, 5000))))
    for lo, hi in windows:
        count, a_max = len(_valid_discriminants(lo, hi)), isqrt(-lo // 3)
        narrow = count <= max(1, isqrt(-lo) // 300)
        assert picard._window_cost(lo, hi) == ((0, count * a_max) if narrow
                                               else (a_max ** 2 // 2, 0)), (lo, hi)


def test_tables_past_the_sweep_cap_are_refused(monkeypatch):
    # the windows' (a, b) pairs are summed before the header: at the cap the
    # table runs, past it iter_table raises before any sweep
    pairs = sum(picard._window_cost(lo, min(lo + 1023, -3))[0] for lo in range(-10000, -2, 1024))
    assert pairs == 8780
    monkeypatch.setattr(picard, "SWEEP_PAIRS_CAP", pairs)
    assert next(iter_table(-10000, -3)) == "delta,pitilde,h,picmod,reps"
    monkeypatch.undo()
    # the first window of [-3 * 10^12, -3] alone would ask for 4.69 * 10^10
    # buckets, and each of its 64 windows sweeps about |lo| / 6 pairs
    with pytest.raises(SweepTooLarge) as err:
        next(iter_table(-DISCRIMINANT_CAP, -3))
    assert str(err.value) == ("[-3000000000000, -3] would sweep about 16249977762252 (a, b) "
                              "pairs; a table is capped at 4000000")
    monkeypatch.setattr(picard, "SWEEP_PAIRS_CAP", pairs - 1)
    with pytest.raises(SweepTooLarge, match="8780 .* capped at 8779"):
        next(iter_table(-10000, -3))


def test_tables_past_the_root_step_cap_are_refused(monkeypatch):
    # a range that takes reduced_triples per discriminant counts isqrt(|lo| // 3)
    # a-steps for each before the header: at the cap the table runs, past it
    # iter_table raises before any enumeration
    lo, hi = -400000004, -400000003
    steps = 2 * isqrt(400000004 // 3)
    assert picard._window_cost(lo, hi) == (0, steps)
    monkeypatch.setattr(picard, "ROOT_STEPS_CAP", steps)
    assert "".join(iter_table(lo, hi)).count("\n") == 2
    monkeypatch.setattr(picard, "ROOT_STEPS_CAP", steps - 1)
    monkeypatch.setattr(picard, "reduced_triples", None)
    with pytest.raises(RootStepsTooLarge, match=f"about {steps} .* capped at {steps - 1}"):
        next(iter_table(lo, hi))
    monkeypatch.undo()
    # the real cap lets one discriminant at DISCRIMINANT_CAP run, and two where
    # isqrt(|lo| // 3) is 500000; it refuses two where it is 500001, and the
    # 5773 discriminants of the widest range near the cap that is not swept
    header = "delta,pitilde,h,picmod,reps"
    assert picard._window_cost(-DISCRIMINANT_CAP, -DISCRIMINANT_CAP) == (0, ROOT_STEPS_CAP)
    assert ROOT_STEPS_CAP == 10**6
    assert next(iter_table(-DISCRIMINANT_CAP, -DISCRIMINANT_CAP)) == header
    assert picard._window_cost(-750003000000, -750002999999) == (0, 10**6)
    assert next(iter_table(-750003000000, -750002999999)) == header
    with pytest.raises(RootStepsTooLarge) as err:
        next(iter_table(-750003000003, -750003000000))
    assert str(err.value) == ("[-750003000003, -750003000000] would take about 1000002 a-steps "
                              "of per-discriminant enumeration; a table is capped at 1000000")
    assert picard._window_cost(-DISCRIMINANT_CAP, -DISCRIMINANT_CAP + 11544) == (0, 5773 * 10**6)
    with pytest.raises(RootStepsTooLarge):
        next(iter_table(-DISCRIMINANT_CAP, -DISCRIMINANT_CAP + 11544))


def test_orbit_rule_matches_gauss_reduction():
    for delta in _valid_discriminants(-3000, -3):
        orbits = [[q.int_coefficients() for q in orbit] for orbit in pic_mod_conjugation(delta)]
        assert orbits == conjugation_orbits_gauss(reduced_triples_divisor_scan(delta)), delta


def test_range_sweep_edges():
    assert triples_between(-4, -3) == {-4: [(1, 0, 1)], -3: [(1, 1, 1)]}
    assert rows_between(-2, -1) == {}
    # no discriminant in range: returns before sweeping about 10^11 pairs
    assert rows_between(-10**12 - 6, -10**12 - 5) == {}
    for lo, hi in ((-3, -4), (-4, 0), (-4, 4)):
        with pytest.raises(InvalidRange):
            rows_between(lo, hi)


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
