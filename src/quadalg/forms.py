"""Twisted binary quadratic forms [a,b,c] with the GL2xGL1 and twisted GL2
actions, the natural (discriminant, parity) invariant, primitivity, and
reduction/equivalence over Z for negative discriminants.

Reduction runs Gauss's algorithm on plain ints (``_gauss_reduce``), tracking
the witness matrix as four ints; forms and matrices are built only for the
result.
"""

from __future__ import annotations

from math import gcd

from .algebras import AlgebraType
from .errors import (
    DiscriminantMismatch,
    InvalidDiscriminant,
    NotAUnit,
    NotDefinite,
    SingularMatrix,
    UnsupportedRing,
)
from .ring import IntegerRing, Ring, RingElement, TableRing, hnf, standard_basis

NaturalType = AlgebraType  # same (discriminant, parity) shape, shared class

_Z = IntegerRing()


class TwistedForm:
    """q = a x^2 z + b xy z + c y^2 z in a trivialized basis."""

    __slots__ = ("ring", "a", "b", "c")

    def __init__(self, ring: Ring, a, b, c):
        self.ring = ring
        self.a = ring.coerce(a)
        self.b = ring.coerce(b)
        self.c = ring.coerce(c)

    @classmethod
    def over_z(cls, a: int, b: int, c: int) -> TwistedForm:
        return cls(_Z, a, b, c)

    def coefficients(self) -> tuple[RingElement, RingElement, RingElement]:
        return self.a, self.b, self.c

    def int_coefficients(self) -> tuple[int, int, int]:
        return int(self.a), int(self.b), int(self.c)

    def opposite(self) -> TwistedForm:
        return TwistedForm(self.ring, self.a, -self.b, self.c)

    def discriminant(self) -> RingElement:
        return self.b * self.b - 4 * self.a * self.c

    def evaluate(self, x, y) -> RingElement:
        x = self.ring.coerce(x)
        y = self.ring.coerce(y)
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwistedForm):
            return NotImplemented
        return (self.ring == other.ring and self.a == other.a
                and self.b == other.b and self.c == other.c)

    def __hash__(self):
        return hash(("form", self.a, self.b, self.c))

    def __repr__(self):
        return f"[{self.a!r},{self.b!r},{self.c!r}]"

    def to_json(self):
        ring = self.ring
        return {"ring": ring.descriptor(), "a": ring.element_to_json(self.a),
                "b": ring.element_to_json(self.b), "c": ring.element_to_json(self.c)}


class GL2Matrix:
    """[[alpha, beta], [gamma, delta]] with unit determinant; keeps det_inv."""

    __slots__ = ("ring", "alpha", "beta", "gamma", "delta", "det_inv")

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, GL2Matrix):
            return NotImplemented
        return (self.alpha, self.beta, self.gamma, self.delta) == \
               (other.alpha, other.beta, other.gamma, other.delta)

    def __hash__(self):
        return hash(("mat", self.alpha, self.beta, self.gamma, self.delta))

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
    """Whether a, b, c generate the unit ideal."""
    ring = q.ring
    if isinstance(ring, IntegerRing):
        a, b, c = q.int_coefficients()
        return gcd(gcd(a, b), c) == 1
    if isinstance(ring, TableRing):
        # aR + bR + cR = R exactly when the products g*e_i span Z^n
        basis = standard_basis(ring.rank)
        rows = [ring._mul_coords(g.coords, e) for g in (q.a, q.b, q.c) for e in basis]
        return hnf(rows) == [list(e) for e in basis]
    raise UnsupportedRing(f"primitivity is not decided over {ring!r}")


def principal_form(delta: int) -> TwistedForm:
    """[1, pt, (pt^2 - delta)/4] over Z with pt = delta mod 2."""
    if delta >= 0 or delta % 4 not in (0, 1):
        raise InvalidDiscriminant(f"{delta} is not a negative discriminant")
    pt = delta % 2
    return TwistedForm.over_z(1, pt, (pt * pt - delta) // 4)


def _gauss_reduce(a: int, b: int, c: int) -> tuple[tuple[int, int, int],
                                                   tuple[int, int, int, int]]:
    """Gauss reduction of a definite [a,b,c] on plain ints.

    Returns the reduced triple and the entries (alpha, beta, gamma, delta) of
    a witness W with act_gl2tw(W, [a,b,c]) equal to it.  Each step multiplies
    W on the right: the flip [[1,0],[0,-1]], a translation [[1,t],[0,1]] or
    the swap [[0,-1],[1,0]].
    """
    al, be, ga, de = 1, 0, 0, 1
    if a < 0:  # flip: [a,b,c] -> [-a,b,-c]
        a, c = -a, -c
        be, de = -be, -de
    while True:
        t = (a - b) // (2 * a)  # brings b into (-a, a]
        if t:
            b, c = b + 2 * a * t, (a * t + b) * t + c
            be, de = al * t + be, ga * t + de
        if a < c or (a == c and b >= 0):
            return (a, b, c), (al, be, ga, de)
        a, b, c = c, -b, a  # swap: [a,b,c] -> [c,-b,a]
        al, be, ga, de = be, -al, de, -ga


def _definite_coefficients(q: TwistedForm) -> tuple[int, int, int]:
    if not isinstance(q.ring, IntegerRing):
        raise UnsupportedRing("reduction is implemented over Z only")
    a, b, c = q.int_coefficients()
    if b * b - 4 * a * c >= 0:
        raise NotDefinite(f"discriminant {b * b - 4 * a * c} is not negative")
    return a, b, c


def reduce_posdef_with_witness(q: TwistedForm) -> tuple[TwistedForm, GL2Matrix]:
    """Reduced representative plus a matrix W with act_gl2tw(W, q) equal to it."""
    reduced, witness = _gauss_reduce(*_definite_coefficients(q))
    return TwistedForm.over_z(*reduced), GL2Matrix(_Z, *witness)


def reduce_posdef(q: TwistedForm) -> TwistedForm:
    return TwistedForm.over_z(*_gauss_reduce(*_definite_coefficients(q))[0])


def is_reduced(q: TwistedForm) -> bool:
    a, b, c = q.int_coefficients()
    if not (-a < b <= a <= c):
        return False
    return b >= 0 if a == c else True


def _check_definite_pair(q1: TwistedForm, q2: TwistedForm) -> None:
    if not isinstance(q1.ring, IntegerRing) or not isinstance(q2.ring, IntegerRing):
        raise UnsupportedRing("equivalence testing is implemented over Z only")
    d1 = int(q1.discriminant())
    d2 = int(q2.discriminant())
    if d1 >= 0 or d2 >= 0:
        raise NotDefinite("both forms must have negative discriminant")
    if d1 != d2:
        raise DiscriminantMismatch(f"{d1} != {d2}")


def equivalent_gl2tw(q1: TwistedForm, q2: TwistedForm) -> bool:
    _check_definite_pair(q1, q2)
    return reduce_posdef(q1) == reduce_posdef(q2)


def equivalent_gl2gl1(q1: TwistedForm, q2: TwistedForm) -> bool:
    """Twisted-equivalent to q1 or to its opposite (the det=-1, e=1 orbit)."""
    _check_definite_pair(q1, q2)
    r2 = reduce_posdef(q2)
    return r2 == reduce_posdef(q1) or r2 == reduce_posdef(q1.opposite())
