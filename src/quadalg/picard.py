"""Imaginary quadratic orders over Z, HNF ideal arithmetic, and the explicit
correspondence between twisted-form classes of a fixed natural type and the
Picard group of the order.

Reduced forms are enumerated on plain ints (Cohen, A Course in
Computational Algebraic Number Theory, 5.3).  A single discriminant
(``classgroup``, ``picmodconj``, ``ClassGroup``) uses a divisor scan,
``reduced_triples``: for each admissible b, the divisors a <= sqrt(n) of
n = (b^2 - delta)/4 give the forms [a, +-b, n/a].  A discriminant range
(``table``) uses one sweep over (a, b), ``reduced_triples_between``: the c
that put b^2 - 4ac in the range form an interval, so every form of every
discriminant in the range is visited once.

Composition (``compose``, ``ClassGroup.compose``) also runs on plain ints, by
Dirichlet composition followed by Gauss reduction (Cohen, 5.4).  The HNF
ideal path form_to_ideal -> ideal_mul -> ideal_to_form is the paper's
bijection with the Picard group; it serves form2ideal, ideal2form and
is_principal, and the tests use it as the oracle for ``compose``.
"""

from __future__ import annotations

from math import gcd, isqrt

from .algebras import FreeQuadraticAlgebra
from .errors import (
    BadParityLift,
    InvalidDiscriminant,
    InvalidRange,
    NotInvertible,
    NotPrimitive,
    OrderMismatch,
    TypeMismatch,
    ZeroLeadingCoefficient,
)
from .forms import TwistedForm, _gauss_reduce, is_primitive, principal_form, reduce_posdef
from .ring import IntegerRing, hnf, xgcd

_Z = IntegerRing()

Pair = tuple[int, int]  # coordinates (x0, x1) meaning x0 + x1*omega


class QuadraticOrder:
    """Z[omega] with omega^2 + pitilde*omega - (delta - pitilde^2)/4 = 0."""

    __slots__ = ("delta", "pitilde", "omega_sq_const")

    def __init__(self, delta: int, pitilde: int):
        if delta >= 0 or delta % 4 not in (0, 1):
            raise InvalidDiscriminant(f"{delta} is not a negative discriminant")
        if pitilde not in (0, 1) or pitilde % 2 != delta % 2:
            raise BadParityLift(f"{pitilde} does not lift the parity of {delta}")
        self.delta = delta
        self.pitilde = pitilde
        self.omega_sq_const = (delta - pitilde * pitilde) // 4  # omega^2 = c - pt*omega

    def mul(self, x: Pair, y: Pair) -> Pair:
        x0, x1 = x
        y0, y1 = y
        cross = x1 * y1
        return (x0 * y0 + cross * self.omega_sq_const,
                x0 * y1 + x1 * y0 - cross * self.pitilde)

    def conj(self, x: Pair) -> Pair:
        # omega -> -pitilde - omega
        x0, x1 = x
        return (x0 - self.pitilde * x1, -x1)

    def norm(self, x: Pair) -> int:
        x0, x1 = x
        return (x0 * x0 - self.pitilde * x0 * x1
                + ((self.pitilde * self.pitilde - self.delta) // 4) * x1 * x1)

    def trace(self, x: Pair) -> int:
        return 2 * x[0] - self.pitilde * x[1]

    def omega_times(self, x: Pair) -> Pair:
        return self.mul((0, 1), x)

    def algebra(self) -> FreeQuadraticAlgebra:
        return FreeQuadraticAlgebra(_Z, self.pitilde, -self.omega_sq_const)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadraticOrder):
            return NotImplemented
        return self.delta == other.delta and self.pitilde == other.pitilde

    def __hash__(self):
        return hash(("order", self.delta, self.pitilde))

    def __repr__(self):
        return f"QuadraticOrder(delta={self.delta}, pitilde={self.pitilde})"

    def to_json(self):
        return {"delta": self.delta, "pitilde": self.pitilde}


def order_from_type(delta: int, pitilde: int) -> QuadraticOrder:
    return QuadraticOrder(delta, pitilde)


class OrderIdeal:
    """Full ideal with Z-basis (a, b + c*omega): hnf = [[a, b], [0, c]].

    Canonical: a, c > 0 and 0 <= b < a; the lattice must be closed under
    multiplication by omega.
    """

    __slots__ = ("order", "a", "b", "c")

    def __init__(self, order: QuadraticOrder, a: int, b: int, c: int):
        if a <= 0 or c <= 0 or not 0 <= b < a:
            raise ValueError(f"({a},{b},{c}) is not in canonical HNF")
        self.order = order
        self.a = a
        self.b = b
        self.c = c
        for gen in ((a, 0), (b, c)):
            if not self.contains(order.omega_times(gen)):
                raise ValueError("lattice is not closed under omega")

    def contains(self, x: Pair) -> bool:
        x0, x1 = x
        if x1 % self.c:
            return False
        return (x0 - (x1 // self.c) * self.b) % self.a == 0

    @classmethod
    def from_lattice(cls, order: QuadraticOrder, pairs: list[Pair]) -> OrderIdeal:
        # rows (x1, x0) have HNF [[c, b], [0, a]]: basis b + c*omega and a
        rows = hnf([(x1, x0) for x0, x1 in pairs])
        if len(rows) != 2:
            raise ValueError("generators do not span a full lattice")
        (c, b), (_, a) = rows
        return cls(order, a, b, c)

    @classmethod
    def from_generators(cls, order: QuadraticOrder, gens: list[Pair]) -> OrderIdeal:
        """Ideal generated by gens: closes the lattice under omega."""
        pairs = list(gens) + [order.omega_times(g) for g in gens]
        return cls.from_lattice(order, pairs)

    @classmethod
    def whole_order(cls, order: QuadraticOrder) -> OrderIdeal:
        return cls(order, 1, 0, 1)

    def basis(self) -> tuple[Pair, Pair]:
        return (self.a, 0), (self.b, self.c)

    def hnf(self) -> list[list[int]]:
        return [[self.a, self.b], [0, self.c]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrderIdeal):
            return NotImplemented
        return (self.order == other.order and (self.a, self.b, self.c)
                == (other.a, other.b, other.c))

    def __hash__(self):
        return hash(("ideal", self.order, self.a, self.b, self.c))

    def __repr__(self):
        return f"<ideal ({self.a}, {self.b}+{self.c}w) of {self.order!r}>"

    def to_json(self):
        return {"delta": self.order.delta, "pitilde": self.order.pitilde,
                "hnf": self.hnf()}


def ideal_mul(i1: OrderIdeal, i2: OrderIdeal) -> OrderIdeal:
    if i1.order != i2.order:
        raise OrderMismatch("ideals of different orders")
    order = i1.order
    prods = [order.mul(u, v) for u in i1.basis() for v in i2.basis()]
    return OrderIdeal.from_lattice(order, prods)


def ideal_norm(ideal: OrderIdeal) -> int:
    return ideal.a * ideal.c


def conjugate(ideal: OrderIdeal) -> OrderIdeal:
    order = ideal.order
    return OrderIdeal.from_lattice(order, [order.conj(u) for u in ideal.basis()])


def scale_ideal(ideal: OrderIdeal, n: int) -> OrderIdeal:
    if n <= 0:
        raise ValueError("scale must be positive")
    return OrderIdeal(ideal.order, n * ideal.a, n * ideal.b, n * ideal.c)


def is_invertible(ideal: OrderIdeal) -> bool:
    """I * conj(I) = N(I) * O, the defining property of invertibility."""
    product = ideal_mul(ideal, conjugate(ideal))
    return product == scale_ideal(OrderIdeal.whole_order(ideal.order), ideal_norm(ideal))


def _checked_coefficients(q: TwistedForm, order: QuadraticOrder) -> tuple[int, int, int]:
    """(a, b, c) of a primitive q with a != 0 whose natural type is order's."""
    if not is_primitive(q):
        raise NotPrimitive(f"{q!r} is not primitive")
    a, b, c = q.int_coefficients()
    if a == 0:
        raise ZeroLeadingCoefficient("move to an equivalent form with a != 0 first")
    if b * b - 4 * a * c != order.delta or (b - order.pitilde) % 2 != 0:
        raise TypeMismatch(f"natural type of {q!r} does not match {order!r}")
    return a, b, c


def form_to_ideal(q: TwistedForm, order: QuadraticOrder) -> OrderIdeal:
    """[a,b,c] -> <a, omega + (pitilde - b)/2>, an invertible ideal of norm |a|."""
    a, b, _ = _checked_coefficients(q, order)
    g = ((order.pitilde - b) // 2, 1)
    return OrderIdeal.from_generators(order, [(a, 0), g])


def ideal_to_form(ideal: OrderIdeal) -> TwistedForm:
    """Norm form N(x*u - y*v)/N(I) on the canonical basis (u, v).

    The sign on the second basis vector pins the class-level inverse of
    form_to_ideal: <3, omega-1> in the order of discriminant -44 must map
    back to the class of [3,2,4].
    """
    if not is_invertible(ideal):
        raise NotInvertible(f"{ideal!r} is not invertible")
    order = ideal.order
    u, v = ideal.basis()
    n = ideal_norm(ideal)
    a = order.norm(u) // n
    b = -order.trace(order.mul(u, order.conj(v))) // n
    c = order.norm(v) // n
    return TwistedForm.over_z(a, b, c)


def compose(order: QuadraticOrder, q1: TwistedForm, q2: TwistedForm) -> TwistedForm:
    """Reduced form of the class of q1 * q2, by Dirichlet composition on ints.

    Runs the checks of form_to_ideal on q1, then q2, and agrees with
    reduce_posdef(ideal_to_form(ideal_mul(form_to_ideal(q1), form_to_ideal(q2)))).
    A negative-definite [a,b,c] enters as [-a,b,-c]: <a, g> = <-a, g>.
    """
    a1, b1, _ = _checked_coefficients(q1, order)
    a2, b2, _ = _checked_coefficients(q2, order)
    a1, a2 = abs(a1), abs(a2)
    delta = order.delta
    g, x, y = xgcd(a1, a2)
    e, z, w = xgcd(g, (b1 + b2) // 2)
    a3 = a1 * a2 // (e * e)
    b3 = (z * (x * a1 * b2 + y * a2 * b1) + w * ((b1 * b2 + delta) // 2)) // e % (2 * a3)
    c3 = (b3 * b3 - delta) // (4 * a3)
    return TwistedForm.over_z(*_gauss_reduce(a3, b3, c3)[0])


def wood_local_algebra(q: TwistedForm) -> FreeQuadraticAlgebra:
    """The algebra R[tau]/(tau^2 + b*tau + ac) attached to [a,b,c]."""
    return FreeQuadraticAlgebra(q.ring, q.b, q.a * q.c)


def is_principal(ideal: OrderIdeal) -> bool:
    """Raises NotInvertible, through ideal_to_form, for a non-invertible ideal."""
    return reduce_posdef(ideal_to_form(ideal)) == principal_form(ideal.order.delta)


Triple = tuple[int, int, int]  # coefficients (a, b, c) of a form over Z


def _form_sort_key(t: Triple):
    a, b, c = t
    return (a, c, abs(b), 0 if b >= 0 else 1)


def reduced_triples(delta: int) -> list[Triple]:
    """Coefficients of all reduced primitive positive-definite forms of
    discriminant delta, in table order.

    A reduced form has |b| <= a <= c, so 3b^2 <= -delta.  For each such b >= 0
    the pairs (a, c) are the divisor pairs a <= c of n = (b^2 - delta)/4 with
    a >= b; (a, -b, c) is reduced too unless b = 0, a = b or a = c.
    """
    if delta >= 0 or delta % 4 not in (0, 1):
        raise InvalidDiscriminant(f"{delta} is not a negative discriminant")
    out = []
    for b in range(delta % 2, isqrt(-delta // 3) + 1, 2):
        n = (b * b - delta) // 4
        for a in [d for d in range(max(b, 1), isqrt(n) + 1) if not n % d]:
            c = n // a
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append((a, b, c))
            if b and a != b and a != c:
                out.append((a, -b, c))
    out.sort(key=_form_sort_key)
    return out


def reduced_triples_between(lo: int, hi: int) -> dict[int, list[Triple]]:
    """``reduced_triples(delta)`` for every valid delta in [lo, hi], keyed in
    ascending order, by one sweep over the pairs 0 <= b <= a.

    For fixed (a, b) the c >= a with lo <= b^2 - 4ac <= hi form an interval.
    Scanning a, then b, in ascending order fills each bucket in table order:
    for fixed a and delta, c grows with |b|.
    """
    if lo > hi or hi >= 0:
        raise InvalidRange(f"need min <= max < 0, got [{lo}, {hi}]")
    out = {delta: [] for delta in range(lo, hi + 1) if delta % 4 in (0, 1)}
    for a in range(1, isqrt(-lo // 3) + 1):
        four_a = 4 * a
        # c >= a needs b^2 >= 4a^2 + lo
        for b in range(isqrt(max(0, four_a * a + lo)), a + 1):
            bb = b * b
            c_min = (bb - hi - 1) // four_a + 1
            if c_min < a:
                c_min = a
            c_max = (bb - lo) // four_a
            if c_min > c_max:
                continue
            g = gcd(a, b)
            signed = b and b != a
            for c in range(c_min, c_max + 1):
                if g == 1 or gcd(g, c) == 1:
                    bucket = out[bb - four_a * c]
                    bucket.append((a, b, c))
                    if signed and a != c:
                        bucket.append((a, -b, c))
    return out


def reduced_forms(delta: int) -> list[TwistedForm]:
    """All reduced primitive positive-definite forms of discriminant delta."""
    return [TwistedForm.over_z(*t) for t in reduced_triples(delta)]


class ClassGroup:
    """Reduced representatives of the form class group of a discriminant,
    composed on ints by ``compose``."""

    __slots__ = ("delta", "order", "representatives", "h")

    def __init__(self, delta: int):
        self.delta = delta
        self.order = QuadraticOrder(delta, delta % 2)
        self.representatives = reduced_forms(delta)
        self.h = len(self.representatives)

    def compose(self, q1: TwistedForm, q2: TwistedForm) -> TwistedForm:
        return compose(self.order, q1, q2)

    def identity(self) -> TwistedForm:
        return principal_form(self.delta)

    def inverse(self, q: TwistedForm) -> TwistedForm:
        return reduce_posdef(q.opposite())


def class_group(delta: int) -> ClassGroup:
    return ClassGroup(delta)


def conjugation_orbits(triples: list[Triple]) -> list[list[Triple]]:
    """Orbits of reduced triples under opposition [a,b,c] -> [a,-b,c]."""
    seen = set()
    orbits = []
    for t in triples:
        if t in seen:
            continue
        a, b, c = t
        orbit = sorted({t, _gauss_reduce(a, -b, c)[0]}, key=_form_sort_key)
        seen.update(orbit)
        orbits.append(orbit)
    orbits.sort(key=lambda orb: _form_sort_key(orb[0]))
    return orbits


def pic_mod_conjugation(delta: int) -> list[list[TwistedForm]]:
    """Orbits of the class set under form opposition (conjugation of ideals)."""
    return [[TwistedForm.over_z(*t) for t in orbit]
            for orbit in conjugation_orbits(reduced_triples(delta))]
