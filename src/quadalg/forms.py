"""Twisted binary quadratic forms [a,b,c] with the GL2xGL1 and twisted GL2
actions, the natural (discriminant, parity) invariant, primitivity, and
reduction/equivalence over Z for negative discriminants.

Primitivity is the lattice ring's one unit-ideal test: a, b and c are
primitive when they generate the whole ring, which ``TableRing`` decides by
the HNF of their ideal rows, as it decides that a tuple is a unit of a
quotient.  A quotient and Z[1/f] are refused.

Reduction runs Gauss's algorithm on plain ints (``_gauss_reduce``), which
returns the reduced triple alone; only ``reduce_posdef_with_witness``, the one
caller that reads a witness, runs the same steps tracking the matrix as four
ints.  Forms and matrices are built only for the result.

A form holds what its ring computes on: ``TwistedForm.coords`` is the three
kernel tuples of a, b and c, ``((a,), (b,), (c,))`` over Z, as
``RingElement.coords`` is one.  ``a``, ``b``, ``c`` and ``coefficients()``
build RingElements only when read.  Ints over Z skip ``coerce`` and
``int()``: ``TwistedForm.over_z`` stores them as the tuples, and
``int_coefficients`` unpacks them, so a form over Z is made and read without
a RingElement.
"""

from __future__ import annotations

from operator import attrgetter, index

from .algebras import AlgebraType
from .errors import (
    DiscriminantMismatch,
    InvalidDiscriminant,
    NotAUnit,
    NotDefinite,
    SingularMatrix,
    UnsupportedRing,
    brief,
)
from .ring import IntegerRing, Ring, RingElement, TableRing, Value

NaturalType = AlgebraType  # same (discriminant, parity) shape, shared class

_Z = IntegerRing()


class TwistedForm(Value):
    """q = a x^2 z + b xy z + c y^2 z in a trivialized basis, held as
    ``coords``, the kernel tuples of a, b and c in ``ring``; the coefficients
    are RingElements built when read."""

    __slots__ = ("ring", "coords")
    _identity = attrgetter("ring", "coords")

    def __init__(self, ring: Ring, a, b, c):
        self.ring = ring
        self.coords = (ring.coerce(a).coords, ring.coerce(b).coords, ring.coerce(c).coords)

    @classmethod
    def over_z(cls, a: int, b: int, c: int) -> TwistedForm:
        """[a,b,c] over Z, each coefficient n held as the tuple (index(n),): an
        exact int, with no ``__init__``, ``coerce``, ``int()`` or RingElement."""
        q = object.__new__(cls)
        q.ring, q.coords = _Z, ((index(a),), (index(b),), (index(c),))
        return q

    @property
    def a(self) -> RingElement:
        return RingElement(self.ring, self.coords[0])

    @property
    def b(self) -> RingElement:
        return RingElement(self.ring, self.coords[1])

    @property
    def c(self) -> RingElement:
        return RingElement(self.ring, self.coords[2])

    def coefficients(self) -> tuple[RingElement, RingElement, RingElement]:
        return self.a, self.b, self.c

    def int_coefficients(self) -> tuple[int, int, int]:
        """(a, b, c): the coordinates over Z, else ``int()``, which refuses non-integers."""
        if isinstance(self.ring, IntegerRing):
            (a,), (b,), (c,) = self.coords
            return a, b, c
        return int(self.a), int(self.b), int(self.c)

    def opposite(self) -> TwistedForm:
        q = object.__new__(TwistedForm)  # a, -b and c are kernel tuples of self.ring
        a, b, c = self.coords
        q.ring, q.coords = self.ring, (a, self.ring._neg_coords(b), c)
        return q

    def discriminant(self) -> RingElement:
        return self.b * self.b - 4 * self.a * self.c

    def evaluate(self, x, y) -> RingElement:
        x = self.ring.coerce(x)
        y = self.ring.coerce(y)
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __repr__(self):
        return f"[{self.a!r},{self.b!r},{self.c!r}]"


class GL2Matrix(Value):
    """[[alpha, beta], [gamma, delta]] with unit determinant; keeps det_inv."""

    __slots__ = ("ring", "alpha", "beta", "gamma", "delta", "det_inv")
    _identity = attrgetter("alpha", "beta", "gamma", "delta")

    def __init__(self, ring: Ring, alpha, beta, gamma, delta):
        self.ring = ring
        self.alpha = ring.coerce(alpha)
        self.beta = ring.coerce(beta)
        self.gamma = ring.coerce(gamma)
        self.delta = ring.coerce(delta)
        self.det_inv = ring.try_inverse(self.det())
        if self.det_inv is None:
            raise SingularMatrix(f"determinant {self.det()!r} is not a unit")

    def det(self) -> RingElement:
        return self.alpha * self.delta - self.beta * self.gamma

    @classmethod
    def identity(cls, ring: Ring) -> GL2Matrix:
        return cls(ring, 1, 0, 0, 1)

    def __mul__(self, other: GL2Matrix) -> GL2Matrix:
        if self.ring != other.ring:
            raise ValueError("matrices over different rings")
        a1, b1, c1, d1 = self.alpha, self.beta, self.gamma, self.delta
        a2, b2, c2, d2 = other.alpha, other.beta, other.gamma, other.delta
        return GL2Matrix(self.ring, a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
                         c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)

    def __repr__(self):
        return f"[[{self.alpha!r},{self.beta!r}],[{self.gamma!r},{self.delta!r}]]"


def act_gl2gl1(mu: GL2Matrix, e, q: TwistedForm) -> TwistedForm:
    """Substitute (x, y) -> (alpha x + beta y, gamma x + delta y), scale by e."""
    e = q.ring.coerce(e)
    if not q.ring.is_unit(e):
        raise NotAUnit(f"scale factor {e!r} is not a unit")
    return _substitute(mu, e, q)


def act_gl2tw(mu: GL2Matrix, q: TwistedForm) -> TwistedForm:
    """Twisted action: the substitution followed by division by det(mu)."""
    return _substitute(mu, q.ring.coerce(mu.det_inv), q)


def _substitute(mu: GL2Matrix, e: RingElement, q: TwistedForm) -> TwistedForm:
    al, be, ga, de = mu.alpha, mu.beta, mu.gamma, mu.delta
    a2 = q.evaluate(al, ga)
    b2 = 2 * q.a * al * be + q.b * (al * de + be * ga) + 2 * q.c * ga * de
    c2 = q.evaluate(be, de)
    return TwistedForm(q.ring, e * a2, e * b2, e * c2)


def natural_type(q: TwistedForm) -> NaturalType:
    return NaturalType(q.discriminant(), q.ring.mod2(q.b))


def is_primitive(q: TwistedForm) -> bool:
    """Whether a, b, c generate the unit ideal, over Z or a table ring."""
    ring = q.ring
    if not isinstance(ring, TableRing) or ring.m is not None:
        raise UnsupportedRing(f"primitivity is not decided over {ring!r}")
    return ring._generates_unit_ideal(q.coords)


def check_discriminant(delta: int) -> None:
    """Raise InvalidDiscriminant unless delta < 0 and delta = 0, 1 mod 4."""
    if delta >= 0 or delta % 4 not in (0, 1):
        raise InvalidDiscriminant(f"{delta} is not a negative discriminant")


def principal_form(delta: int) -> TwistedForm:
    """[1, pt, (pt^2 - delta)/4] over Z with pt = delta mod 2."""
    check_discriminant(delta)
    pt = delta % 2
    return TwistedForm.over_z(1, pt, (pt * pt - delta) // 4)


def _gauss_reduce(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The reduced triple of a definite [a,b,c], by Gauss reduction on plain ints:
    a flip to a > 0, then translations and swaps (``reduce_posdef_with_witness``
    takes the same steps and records them)."""
    if a < 0:  # flip: [a,b,c] -> [-a,b,-c]
        a, c = -a, -c
    while True:
        t = (a - b) // (2 * a)  # brings b into (-a, a]
        if t:
            b, c = b + 2 * a * t, (a * t + b) * t + c
        if a < c or (a == c and b >= 0):
            return a, b, c
        a, b, c = c, -b, a  # swap: [a,b,c] -> [c,-b,a]


def _definite_coefficients(q: TwistedForm) -> tuple[int, int, int]:
    if not isinstance(q.ring, IntegerRing):
        raise UnsupportedRing("reduction is implemented over Z only")
    a, b, c = q.int_coefficients()
    if b * b - 4 * a * c >= 0:
        raise NotDefinite(f"discriminant {brief(b * b - 4 * a * c)} is not negative")
    return a, b, c


def reduce_posdef_with_witness(q: TwistedForm) -> tuple[TwistedForm, GL2Matrix]:
    """Reduced representative plus a matrix W with act_gl2tw(W, q) equal to it.

    The steps of ``_gauss_reduce``, each multiplying W on the right: the flip
    [[1,0],[0,-1]], a translation [[1,t],[0,1]] or the swap [[0,-1],[1,0]].
    """
    a, b, c = _definite_coefficients(q)
    al, be, ga, de = 1, 0, 0, 1
    if a < 0:
        a, c = -a, -c
        be, de = -be, -de
    while True:
        t = (a - b) // (2 * a)
        if t:
            b, c = b + 2 * a * t, (a * t + b) * t + c
            be, de = al * t + be, ga * t + de
        if a < c or (a == c and b >= 0):
            return TwistedForm.over_z(a, b, c), GL2Matrix(_Z, al, be, ga, de)
        a, b, c = c, -b, a
        al, be, ga, de = be, -al, de, -ga


def reduce_posdef(q: TwistedForm) -> TwistedForm:
    return TwistedForm.over_z(*_gauss_reduce(*_definite_coefficients(q)))


def is_reduced(q: TwistedForm) -> bool:
    a, b, c = q.int_coefficients()
    if not (-a < b <= a <= c):
        return False
    return b >= 0 if a == c else True


def _reduced_pair(q1: TwistedForm, q2: TwistedForm) -> tuple[tuple[int, int, int], ...]:
    """The reduced triples of two definite forms over Z of one discriminant."""
    t1, t2 = _definite_coefficients(q1), _definite_coefficients(q2)
    d1, d2 = (b * b - 4 * a * c for a, b, c in (t1, t2))
    if d1 != d2:
        raise DiscriminantMismatch(f"{brief(d1)} != {brief(d2)}")
    return _gauss_reduce(*t1), _gauss_reduce(*t2)


def equivalent_gl2tw(q1: TwistedForm, q2: TwistedForm) -> bool:
    r1, r2 = _reduced_pair(q1, q2)
    return r1 == r2


def equivalent_gl2gl1(q1: TwistedForm, q2: TwistedForm) -> bool:
    """Twisted-equivalent to q1 or to its opposite (the det=-1, e=1 orbit), whose
    reduction is that of (a, -b, c) for q1's reduced triple (a, b, c)."""
    (a, b, c), r2 = _reduced_pair(q1, q2)
    return r2 in ((a, b, c), _gauss_reduce(a, -b, c))
