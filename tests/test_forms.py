import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadalg.cli import parse_form, render_form
from quadalg.errors import (
    DiscriminantMismatch,
    InvalidDiscriminant,
    NotAUnit,
    NotDefinite,
    SingularMatrix,
    UnsupportedRing,
)
from quadalg.forms import (
    GL2Matrix,
    TwistedForm,
    act_gl2gl1,
    act_gl2tw,
    equivalent_gl2gl1,
    equivalent_gl2tw,
    is_primitive,
    is_reduced,
    natural_type,
    principal_form,
    reduce_posdef,
    reduce_posdef_with_witness,
)
from quadalg.ring import IntegerRing, LocalizationRing, Ring, TableRing, quadratic_table_ring

from oracles import lattice_index_minors

Z = IntegerRing()
ZSQRT8 = quadratic_table_ring(8)


def F(a, b, c):
    return TwistedForm.over_z(a, b, c)


def _random_unimodular(rng, ring, units):
    m = GL2Matrix.identity(ring)
    for _ in range(rng.randrange(1, 5)):
        kind = rng.randrange(3)
        if kind == 0:
            m = m * GL2Matrix(ring, 1, _rand(rng, ring), 0, 1)
        elif kind == 1:
            m = m * GL2Matrix(ring, 1, 0, _rand(rng, ring), 1)
        else:
            m = m * GL2Matrix(ring, rng.choice(units), 0, 0, 1)
    return m


def _rand(rng, ring):
    return ring.element(tuple(rng.randrange(-5, 6) for _ in range(ring.rank)))


def _random_form(rng, ring):
    return TwistedForm(ring, _rand(rng, ring), _rand(rng, ring), _rand(rng, ring))


def _units(ring):
    if ring is Z:
        return [Z.from_int(1), Z.from_int(-1)]
    w = ring.element((3, 1))
    winv = ring.element((3, -1))
    return [ring.one, -ring.one, w, -w, winv, -winv]


def test_act_gl2gl1_examples():
    q = F(3, 2, 4)
    ident = GL2Matrix.identity(Z)
    assert act_gl2gl1(ident, 1, q) == q
    swap = GL2Matrix(Z, 0, -1, 1, 0)
    assert act_gl2gl1(swap, 1, F(3, 2, 4)) == F(4, -2, 3)  # [a,b,c] -> [c,-b,a]
    shear = GL2Matrix(Z, 1, 0, 1, 1)
    assert act_gl2gl1(shear, 1, F(3, 2, 4)) == F(3 + 2 + 4, 2 + 2 * 4, 4)


def test_act_gl2gl1_requires_unit_scale():
    with pytest.raises(NotAUnit):
        act_gl2gl1(GL2Matrix.identity(Z), 2, F(1, 0, 1))


def test_act_gl2tw_examples():
    assert act_gl2tw(GL2Matrix.identity(Z), F(3, 2, 4)) == F(3, 2, 4)
    shear = GL2Matrix(Z, 1, 0, 1, 1)
    assert act_gl2tw(shear, F(3, 2, 4)) == F(9, 10, 4)
    flip = GL2Matrix(Z, 1, 0, 0, -1)
    assert act_gl2tw(flip, F(1, 0, 11)) == F(-1, 0, -11)


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrix):
        GL2Matrix(Z, 2, 0, 0, 1)
    w = ZSQRT8.element((0, 1))
    for ring, entries, shown in ((Z, (2, 0, 0, 1), "2"), (Z, (1, 2, 2, 4), "0"),
                                 (ZSQRT8, (w, 0, 0, 1), "w"), (ZSQRT8, (3, w, w, 2), "-2")):
        with pytest.raises(SingularMatrix) as err:
            GL2Matrix(ring, *entries)
        assert str(err.value) == f"determinant {shown} is not a unit"
    with pytest.raises(NotAUnit) as err:
        act_gl2gl1(GL2Matrix.identity(ZSQRT8), w, TwistedForm(ZSQRT8, 1, 0, 1))
    assert str(err.value) == "scale factor w is not a unit"


def test_twisted_action_reads_the_kept_inverse(monkeypatch):
    # the matrix divides once, in its constructor; act_gl2tw reads det_inv
    w = ZSQRT8.element((0, 1))
    mu = GL2Matrix(ZSQRT8, 3, w, 1, 1)  # det = 3 - w, inverse 3 + w
    q = TwistedForm(ZSQRT8, 1, w, -2)
    expected = act_gl2gl1(mu, 3 + w, q)
    calls = []

    def try_inverse(self, x):
        calls.append(x)
        return Ring.try_inverse(self, x)

    monkeypatch.setattr(TableRing, "try_inverse", try_inverse)
    assert act_gl2tw(mu, q) == expected
    assert natural_type(act_gl2tw(mu, q)) == natural_type(q)
    assert calls == []
    assert mu.det_inv == 3 + w


def test_natural_type_examples():
    assert int(natural_type(F(3, 2, 4)).delta) == -44
    assert natural_type(F(3, 2, 4)).parity.is_zero()
    assert int(natural_type(F(1, 0, 11)).delta) == -44
    t = natural_type(F(1, 1, -1))
    assert int(t.delta) == 5 and t.parity.residue == (1,)


def test_is_primitive():
    assert is_primitive(F(3, 2, 4))
    assert not is_primitive(F(2, 2, 4))
    w = ZSQRT8.element((0, 1))
    q = TwistedForm(ZSQRT8, w, ZSQRT8.from_int(2), w)
    assert not is_primitive(q)
    # oracle: index of the <2, w> lattice from gcd of 2x2 minors
    rows = [[0, 1], [8, 0], [2, 0], [0, 2]]
    assert lattice_index_minors(rows) == 2
    one_plus_w = ZSQRT8.element((1, 1))
    assert is_primitive(TwistedForm(ZSQRT8, one_plus_w, ZSQRT8.from_int(2), w))
    with pytest.raises(UnsupportedRing):
        from quadalg.ring import QuotientRing
        is_primitive(TwistedForm(QuotientRing(Z, 8), 1, 0, 1))


def test_reduce_posdef_examples():
    assert reduce_posdef(F(9, 10, 4)) == F(3, 2, 4)
    assert reduce_posdef(F(1, 0, 11)) == F(1, 0, 11)
    assert reduce_posdef(F(-3, 2, -4)) == F(3, 2, 4)
    with pytest.raises(NotDefinite):
        reduce_posdef(F(1, 1, -1))


def test_reduce_posdef_witness_and_reducedness():
    rng = random.Random(424242)
    checked = 0
    while checked < 400:
        a = rng.randrange(-30, 31)
        b = rng.randrange(-30, 31)
        c = rng.randrange(-30, 31)
        if b * b - 4 * a * c >= 0:
            continue
        q = F(a, b, c)
        reduced, witness = reduce_posdef_with_witness(q)
        assert is_reduced(reduced)
        assert act_gl2tw(witness, q) == reduced
        assert reduce_posdef(q) == reduced
        checked += 1


_BIG = 10**12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, _BIG), st.integers(-_BIG, _BIG), st.integers(1, _BIG),
       st.sampled_from([1, -1]))
def test_reduce_posdef_large_coefficients(a, b, c, sign):
    assume(b * b < 4 * a * c)
    q = F(sign * a, sign * b, sign * c)  # sign -1: negative definite
    reduced, witness = reduce_posdef_with_witness(q)
    assert is_reduced(reduced)
    assert act_gl2tw(witness, q) == reduced
    assert reduce_posdef(q) == reduced


def test_equivalences():
    assert equivalent_gl2tw(F(9, 10, 4), F(3, 2, 4))
    assert not equivalent_gl2tw(F(3, 2, 4), F(3, -2, 4))
    assert equivalent_gl2tw(F(3, 2, 4), F(3, 2, 4))
    assert equivalent_gl2gl1(F(3, 2, 4), F(3, -2, 4))
    assert not equivalent_gl2gl1(F(1, 0, 11), F(3, 2, 4))
    assert equivalent_gl2gl1(F(3, 2, 4), F(3, 2, 4))
    with pytest.raises(DiscriminantMismatch):
        equivalent_gl2tw(F(1, 0, 1), F(1, 0, 2))
    with pytest.raises(NotDefinite):
        equivalent_gl2tw(F(1, 1, -1), F(1, 1, -1))


def test_principal_form():
    assert principal_form(-44) == F(1, 0, 11)
    assert principal_form(-3) == F(1, 1, 1)
    assert principal_form(-4) == F(1, 0, 1)
    with pytest.raises(InvalidDiscriminant):
        principal_form(-5)
    with pytest.raises(InvalidDiscriminant):
        principal_form(4)


def test_action_composition_fuzz():
    # The substitution q(alpha x + beta y, gamma x + delta y) composes as a
    # right action: acting by m2 then m1 equals acting by the product m2*m1.
    rng = random.Random(1)
    for ring in (Z, ZSQRT8):
        units = _units(ring)
        for _ in range(500):
            q = _random_form(rng, ring)
            m1 = _random_unimodular(rng, ring, units)
            m2 = _random_unimodular(rng, ring, units)
            assert act_gl2tw(m1, act_gl2tw(m2, q)) == act_gl2tw(m2 * m1, q)


def test_natural_type_tw_invariance_fuzz():
    rng = random.Random(2)
    for ring in (Z, ZSQRT8):
        units = _units(ring)
        for _ in range(500):
            q = _random_form(rng, ring)
            m = _random_unimodular(rng, ring, units)
            assert natural_type(act_gl2tw(m, q)) == natural_type(q)


def test_gl2gl1_scaling_law_fuzz():
    # scaling by a unit e sends the type (delta, pi) to (e^2 delta, e pi)
    rng = random.Random(3)
    for ring in (Z, ZSQRT8):
        for e in _units(ring):
            for _ in range(50):
                q = _random_form(rng, ring)
                t = natural_type(q)
                scaled = natural_type(act_gl2gl1(GL2Matrix.identity(ring), e, q))
                assert scaled.delta == e * e * t.delta
                assert scaled.parity == t.parity.times(e)


def test_primitivity_preserved_by_actions():
    rng = random.Random(4)
    for ring in (Z, ZSQRT8):
        units = _units(ring)
        seen = 0
        while seen < 200:
            q = _random_form(rng, ring)
            if not is_primitive(q):
                continue
            m = _random_unimodular(rng, ring, units)
            assert is_primitive(act_gl2tw(m, q))
            assert is_primitive(act_gl2gl1(m, rng.choice(units), q))
            seen += 1


def test_over_z_matches_the_coercing_constructor():
    class Int(int):
        pass

    triples = [(3, 2, 4), (1, 0, 11), (0, -1, 0), (-7, 5, 2**80), (True, False, True),
               (Int(3), Int(-2), Int(4)), (True, Int(5), -3)]
    for a, b, c in triples:
        direct, coerced = F(a, b, c), TwistedForm(IntegerRing(), a, b, c)
        assert direct == coerced and hash(direct) == hash(coerced)
        assert repr(direct) == repr(coerced) and render_form(direct) == render_form(coerced)
        assert direct.int_coefficients() == coerced.int_coefficients()
        assert direct.opposite() == coerced.opposite()
        for x, y in zip(direct.coefficients(), coerced.coefficients()):
            # exact ints, as IntegerRing.element stores them
            assert x.coords == y.coords and type(x.coords[0]) is int and len(x.coords) == 1
        assert all(type(n) is int for n in direct.int_coefficients())
    for bad in (1.5, Fraction(1), "1"):
        with pytest.raises(TypeError):
            TwistedForm(IntegerRing(), bad, 0, 1)
        with pytest.raises(TypeError):
            F(bad, 0, 1)


def test_opposite_negates_b_alone():
    # against [a,-b,c] from the coercing constructor, in three ring layouts;
    # two opposites give the form back
    zinv6 = LocalizationRing(6)
    cases = [(Z, 3, 2, 4), (Z, -7, 5, 2**80), (Z, 1, 0, 11),
             (ZSQRT8, ZSQRT8.element((1, 2)), ZSQRT8.element((0, -3)), 5),
             (zinv6, zinv6.element((5,), 3), zinv6.element((7,), 1), 0)]
    for ring, a, b, c in cases:
        q = TwistedForm(ring, a, b, c)
        assert q.opposite() == TwistedForm(ring, a, -ring.coerce(b), c)
        assert q.opposite().coords[1] == (-ring.coerce(b)).coords
        assert q.opposite().opposite() == q
    assert F(3, 2, 4).opposite() == F(3, -2, 4) != F(3, 2, 4)


def test_form_json_round_trip():
    # the CLI prints a form in its ring's element JSON and reads that back
    zinv6 = LocalizationRing(6)
    q6 = TwistedForm(zinv6, zinv6.element((5,), 3), 7, 0)
    assert render_form(F(3, -2, 4)) == [3, -2, 4]
    assert render_form(q6)[0] == {"coords": [5], "k": 3}
    for q in (F(3, -2, 4), TwistedForm(ZSQRT8, ZSQRT8.element((1, 2)), 0, -3), q6):
        assert parse_form(q.ring, json.dumps(render_form(q))) == q
