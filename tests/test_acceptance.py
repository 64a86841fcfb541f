"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time
from fractions import Fraction

from quadalg.algebras import (
    FreeQuadraticAlgebra,
    Orientation,
    algebras_isomorphic,
    automorphisms_bruteforce,
    change_basis,
    find_parities,
    identity_hom,
    isomorphic_bruteforce,
    oriented_automorphisms_bruteforce,
    oriented_isomorphic,
    oriented_type,
    type_of,
    types_isomorphic,
)
from quadalg.cli import builtin_ring
from quadalg.forms import (
    GL2Matrix,
    TwistedForm,
    act_gl2tw,
    equivalent_gl2tw,
    natural_type,
    principal_form,
    reduce_posdef,
)
from quadalg.glue import (
    GluedTypeData,
    LineBundleCocycle,
    PrincipalCover,
    build_glued,
    check_cocycle_transitions,
    check_transition_hom,
    verification_report,
)
from quadalg.picard import (
    OrderIdeal,
    QuadraticOrder,
    class_group,
    form_to_ideal,
    ideal_to_form,
    pic_mod_conjugation,
    reduced_forms,
    wood_local_algebra,
)
from quadalg.ring import IntegerRing, quadratic_table_ring

from oracles import as_fraction, ideal_class_count, with_shift
from test_glue import random_valid_dataset

Z = IntegerRing()
ZSQRT2 = quadratic_table_ring(2)
ZSQRT8 = quadratic_table_ring(8)


def F(a, b, c):
    return TwistedForm.over_z(a, b, c)


class _timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.label} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"{self.label}: {elapsed:.2f}s over the {self.budget}s budget"
        return False


def test_criterion_01_class_group_of_z_sqrt_minus_11():
    with _timer("criterion 1: class group of Z[sqrt(-11)]", 1.0):
        group = class_group(-44)
        assert group.h == 3
        assert group.representatives == [F(1, 0, 11), F(3, 2, 4), F(3, -2, 4)]
        order = group.order
        ideal = form_to_ideal(F(3, 2, 4), order)
        assert ideal == OrderIdeal.from_generators(order, [(3, 0), (-1, 1)])
        assert ideal.hnf() == [[3, 2], [0, 1]]
        assert form_to_ideal(F(1, 0, 11), order) == OrderIdeal.whole_order(order)


def test_criterion_02_pic_mod_conjugation():
    with _timer("criterion 2: Pic mod conjugation for -44", 1.0):
        orbits = pic_mod_conjugation(-44)
        assert len(orbits) == 2
        assert orbits == [[F(1, 0, 11)], [F(3, 2, 4), F(3, -2, 4)]]


def test_criterion_03_bijection_sweep():
    with _timer("criterion 3: bijection sweep over [-400, -3]", 30.0):
        for delta in range(-400, -2):
            if delta % 4 not in (0, 1):
                continue
            order = QuadraticOrder(delta, delta % 2)
            group = class_group(delta)
            reps = group.representatives
            # (a) form count equals the independent HNF ideal-class count
            assert group.h == ideal_class_count(delta)
            # (b) round trip is the identity on classes
            for q in reps:
                assert equivalent_gl2tw(ideal_to_form(form_to_ideal(q, order)), q)
            # (c) abelian group axioms via the composition table
            table = {(q1, q2): group.compose(q1, q2)
                     for q1 in reps for q2 in reps}
            ident = reduce_posdef(principal_form(delta))
            for q1 in reps:
                assert table[(q1, ident)] == q1
                assert table[(q1, reduce_posdef(q1.opposite()))] == ident
                for q2 in reps:
                    assert table[(q1, q2)] in reps
                    assert table[(q1, q2)] == table[(q2, q1)]
            for q1, q2, q3 in itertools.product(reps, repeat=3):
                assert table[(table[(q1, q2)], q3)] == table[(q1, table[(q2, q3)])]


def test_criterion_04_same_discriminant_distinct_parity():
    with _timer("criterion 4: Z[sqrt(8)] same-discriminant counterexample", 1.0):
        w = ZSQRT8.element((0, 1))
        c1 = FreeQuadraticAlgebra(ZSQRT8, 0, -6)
        c2 = FreeQuadraticAlgebra(ZSQRT8, w, -4)
        t1, t2 = type_of(c1), type_of(c2)
        assert t1.delta == 24 and t1.parity.is_zero()
        assert t2.delta == 24 and t2.parity == ZSQRT8.mod2(w)
        assert types_isomorphic(t1, t2) is None
        assert algebras_isomorphic(c1, c2) is None


def test_criterion_05_hypothesis_necessity_suite():
    with _timer("criterion 5: counterexamples when 2 divides zero", 1.0):
        f4 = builtin_ring("f4")
        x = f4.element((0, 1))
        c1 = FreeQuadraticAlgebra(f4, 1, 1)
        c2 = FreeQuadraticAlgebra(f4, 1, x)
        assert type_of(c1) == type_of(c2)
        assert type_of(c1).delta == f4.one and type_of(c1).parity == f4.mod2(f4.one)
        assert isomorphic_bruteforce(c1, c2) is None

        z4 = builtin_ring("zmod4")
        algs = [FreeQuadraticAlgebra(z4, 0, -s) for s in range(4)]
        for alg in algs:
            t = type_of(alg)
            assert t.delta.is_zero() and t.parity.is_zero()
        for i in range(4):
            for j in range(i + 1, 4):
                assert isomorphic_bruteforce(algs[i], algs[j]) is None

        z8 = builtin_ring("zmod8")
        c = FreeQuadraticAlgebra(z8, 0, -2)
        assert len(automorphisms_bruteforce(c)) == 8
        assert len(oriented_automorphisms_bruteforce(c, Orientation(z8.one))) == 2


def test_criterion_06_oriented_parity_obstruction():
    with _timer("criterion 6: oriented counterexample over Z[X,Y]/(X^2-8,Y^2-8)", 1.0):
        bq = builtin_ring("biquad8")
        x = bq.element((0, 1, 0, 0))
        y = bq.element((0, 0, 1, 0))
        c = FreeQuadraticAlgebra(bq, x, 2)
        theta1, theta2 = Orientation(bq.one), Orientation(3 - y)
        t1 = oriented_type(c, theta1)
        t2 = oriented_type(c, theta2)
        assert t1.delta.is_zero() and t2.delta.is_zero()
        assert t1.parity == bq.mod2(x)
        assert t2.parity == bq.mod2(x + x * y)
        assert t1.parity != t2.parity
        assert oriented_isomorphic(c, theta1, c, theta2) is None


def test_criterion_07_oriented_automorphisms_trivial():
    with _timer("criterion 7: oriented automorphism groups are trivial", 5.0):
        rng = random.Random(7)
        rings = [Z, ZSQRT2, ZSQRT8]
        units = {id(Z): [Z.one, -Z.one],
                 id(ZSQRT2): [ZSQRT2.one, -ZSQRT2.one, ZSQRT2.element((1, 1))],
                 id(ZSQRT8): [ZSQRT8.one, -ZSQRT8.one, ZSQRT8.element((3, 1))]}
        for i in range(1000):
            ring = rings[i % 3]
            r = ring.element(tuple(rng.randrange(-50, 51) for _ in range(ring.rank)))
            s = ring.element(tuple(rng.randrange(-50, 51) for _ in range(ring.rank)))
            theta = Orientation(rng.choice(units[id(ring)]))
            homs = oriented_automorphisms_bruteforce(
                FreeQuadraticAlgebra(ring, r, s), theta)
            assert homs == [identity_hom(ring)]


def test_criterion_08_parity_determined_by_discriminant():
    with _timer("criterion 8: parities determined by the discriminant", 5.0):
        hits = 0
        for d in range(-200, 201):
            parities = find_parities(Z, Z.from_int(d))
            assert len(parities) <= 1
            if d % 4 in (0, 1):
                assert len(parities) == 1
                hits += 1
        assert hits > 0
        for d in range(-200, 201):
            assert len(find_parities(ZSQRT2, ZSQRT2.from_int(d))) <= 1
        for a in range(-20, 21):
            for b in range(-20, 21):
                delta = ZSQRT2.element((a, b))
                assert len(find_parities(ZSQRT2, delta)) <= 1
        parities = find_parities(ZSQRT8, ZSQRT8.from_int(24))
        assert [p.residue for p in parities] == [(0, 0), (0, 1)]


def test_criterion_09_uniqueness_property():
    with _timer("criterion 9: isomorphic types <=> explicit isomorphism", 10.0):
        rng = random.Random(9)
        units = {id(Z): [Z.one, -Z.one],
                 id(ZSQRT2): [ZSQRT2.one, -ZSQRT2.one, ZSQRT2.element((1, 1)),
                              ZSQRT2.element((-1, 1)), ZSQRT2.element((3, 2)),
                              ZSQRT2.element((3, -2))]}
        done = 0
        for ring in (Z, ZSQRT2):
            for _ in range(520):
                r = ring.element(tuple(rng.randrange(-30, 31)
                                       for _ in range(ring.rank)))
                s = ring.element(tuple(rng.randrange(-30, 31)
                                       for _ in range(ring.rank)))
                c = FreeQuadraticAlgebra(ring, r, s)
                eps = rng.choice(units[id(ring)])
                alpha = ring.element(tuple(rng.randrange(-10, 11)
                                           for _ in range(ring.rank)))
                c2 = change_basis(c, eps, alpha)
                hom = algebras_isomorphic(c, c2)
                assert hom is not None and hom.verifies(c, c2)
                r3 = ring.element(tuple(rng.randrange(-30, 31)
                                        for _ in range(ring.rank)))
                s3 = ring.element(tuple(rng.randrange(-30, 31)
                                        for _ in range(ring.rank)))
                c3 = FreeQuadraticAlgebra(ring, r3, s3)
                if types_isomorphic(type_of(c), type_of(c3)) is None:
                    assert algebras_isomorphic(c, c3) is None
                done += 1
        assert done >= 1000


def test_criterion_10_glue_verification():
    with _timer("criterion 10: glueing over the {2,3} cover plus fuzz", 5.0):
        cover = PrincipalCover([2, 3])
        cocycle = LineBundleCocycle(cover, {(0, 1): Fraction(3, 2)})
        data = GluedTypeData([-99, -44], [1, 0])
        glued = build_glued(cover, cocycle, data)
        assert glued.charts[0].r == 1 and glued.charts[0].s == 25
        assert glued.charts[1].r == 0 and glued.charts[1].s == 11
        assert check_transition_hom(glued, 0, 1)
        assert check_transition_hom(glued, 1, 0)
        bad = with_shift(glued, 0, 1, as_fraction(glued.transitions[(0, 1)][1]) + 1)
        assert not check_transition_hom(bad, 0, 1)
        rng = random.Random(10)
        for _ in range(100):
            cov, coc, dat = random_valid_dataset(rng)
            assert all(ok for _, _, ok in verification_report(cov, coc, dat))
            g = build_glued(cov, coc, dat)
            k = cov.size
            for i in range(k):
                for j in range(k):
                    if i != j:
                        assert check_transition_hom(g, i, j)
                    for t in range(k):
                        if len({i, j, t}) == 3:
                            assert check_cocycle_transitions(g, i, j, t)


def test_criterion_11_type_preservation():
    with _timer("criterion 11: the form-to-algebra map preserves the type", 10.0):
        rng = random.Random(11)
        for delta in range(-400, -2):
            if delta % 4 not in (0, 1):
                continue
            for q in reduced_forms(delta):
                t = natural_type(q)
                assert type_of(wood_local_algebra(q)) == t
                for _ in range(10):
                    m = GL2Matrix.identity(Z)
                    for _ in range(rng.randrange(1, 4)):
                        kind = rng.randrange(3)
                        v = rng.randrange(-5, 6)
                        if kind == 0:
                            m = m * GL2Matrix(Z, 1, v, 0, 1)
                        elif kind == 1:
                            m = m * GL2Matrix(Z, 1, 0, v, 1)
                        else:
                            m = m * GL2Matrix(Z, -1, 0, 0, 1)
                    assert natural_type(act_gl2tw(m, q)) == t
