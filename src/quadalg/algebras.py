"""Free quadratic algebras R[tau]/(tau^2 + r*tau + s) and their classification
by (discriminant, parity), with explicit isomorphisms and brute-force oracles
over finite rings.

The brute-force oracles (``isomorphic_bruteforce``, ``automorphisms_bruteforce``
and ``oriented_automorphisms_bruteforce``) run on the ring's index tables
(``ring.FiniteTables``): every candidate is tested on plain ints, and only the
homs found are verified in ring arithmetic.  The tables are capped at
``ring.FINITE_TABLE_CAP`` = 512 elements; a larger finite ring raises
``RingTooLarge`` before anything is enumerated.  The classification by
(discriminant, parity) needs no tables and has no cap; over a finite ring it
reads ``QuotientRing.units``.  An ``Orientation`` keeps the inverse ``u_inv``
of its unit test, as ``forms.GL2Matrix`` keeps ``det_inv``.
"""

from __future__ import annotations

from math import isqrt

from .errors import (
    BadLift,
    InfiniteRing,
    InvalidTriple,
    NotAUnit,
    NotTwoRegular,
    ParityMismatch,
    UnitSearchCapExceeded,
    UnsupportedRing,
)
from .ring import (
    IntegerRing,
    Mod2Element,
    Ring,
    RingElement,
    TableRing,
    is_square,
)

UNIT_IMAGE_CAP = 2**16


class FreeQuadraticAlgebra:
    """C = R[tau]/(tau^2 + r*tau + s)."""

    __slots__ = ("ring", "r", "s")

    def __init__(self, ring: Ring, r, s):
        self.ring = ring
        self.r = ring.coerce(r)
        self.s = ring.coerce(s)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeQuadraticAlgebra):
            return NotImplemented
        return self.ring == other.ring and self.r == other.r and self.s == other.s

    def __hash__(self):
        return hash(("alg", self.r, self.s))

    def __repr__(self):
        return f"<tau^2 + ({self.r!r})tau + ({self.s!r}) over {self.ring!r}>"

    def to_json(self):
        return {"ring": self.ring.descriptor(),
                "r": self.ring.element_to_json(self.r),
                "s": self.ring.element_to_json(self.s)}


class AlgebraType:
    """The pair (discriminant, parity) classifying an algebra or a form."""

    __slots__ = ("delta", "parity")

    def __init__(self, delta: RingElement, parity: Mod2Element):
        if delta.ring != parity.ring:
            raise ValueError("discriminant and parity live over different rings")
        self.delta = delta
        self.parity = parity

    @property
    def ring(self) -> Ring:
        return self.delta.ring

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraType):
            return NotImplemented
        return self.delta == other.delta and self.parity == other.parity

    def __hash__(self):
        return hash(("type", self.delta, self.parity))

    def __repr__(self):
        return f"({self.delta!r}, {self.parity!r})"

    def to_json(self):
        ring = self.ring
        return {"delta": ring.element_to_json(self.delta),
                "parity": list(self.parity.residue)}


class Orientation:
    """Trivializing unit u, sending the class of tau to u; keeps u_inv."""

    __slots__ = ("u", "u_inv")

    def __init__(self, u: RingElement):
        self.u_inv = u.ring.try_inverse(u)
        if self.u_inv is None:
            raise NotAUnit(f"orientation value {u!r} is not a unit")
        self.u = u

    def __eq__(self, other) -> bool:
        if not isinstance(other, Orientation):
            return NotImplemented
        return self.u == other.u

    def __hash__(self):
        return hash(("ori", self.u))

    def __repr__(self):
        return f"Orientation({self.u!r})"


class AlgebraHom:
    """The map tau -> u*tau' + v into a target algebra's generator tau'."""

    __slots__ = ("u", "v")

    def __init__(self, u: RingElement, v: RingElement):
        self.u = u
        self.v = v

    def verifies(self, source: FreeQuadraticAlgebra, target: FreeQuadraticAlgebra) -> bool:
        """Check that (u*tau' + v)^2 + r*(u*tau' + v) + s = 0 in the target."""
        u, v = self.u, self.v
        r, s = source.r, source.s
        rp, sp = target.r, target.s
        lin = 2 * u * v + r * u - u * u * rp
        const = v * v + r * v + s - u * u * sp
        return lin.is_zero() and const.is_zero()

    def is_identity(self) -> bool:
        return self.u == 1 and self.v.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraHom):
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash(("hom", self.u, self.v))

    def __repr__(self):
        return f"(tau -> ({self.u!r})tau' + ({self.v!r}))"

    def to_json(self):
        ring = self.u.ring
        return {"u": ring.element_to_json(self.u), "v": ring.element_to_json(self.v)}


def identity_hom(ring: Ring) -> AlgebraHom:
    return AlgebraHom(ring.one, ring.zero)


def type_of(alg: FreeQuadraticAlgebra) -> AlgebraType:
    r, s = alg.r, alg.s
    return AlgebraType(r * r - 4 * s, alg.ring.mod2(r))


def change_basis(alg: FreeQuadraticAlgebra, eps, alpha) -> FreeQuadraticAlgebra:
    """Re-present the algebra in the basis tau' = eps*tau + alpha."""
    ring = alg.ring
    eps = ring.coerce(eps)
    alpha = ring.coerce(alpha)
    if not ring.is_unit(eps):
        raise NotAUnit(f"{eps!r} is not a unit")
    r, s = alg.r, alg.s
    return FreeQuadraticAlgebra(ring, r * eps - 2 * alpha,
                                alpha * alpha - r * alpha * eps + s * eps * eps)


def is_valid_triple(ring: Ring, t: AlgebraType) -> bool:
    """True when delta is a square of a parity lift modulo 4R."""
    if not ring.two_regular:
        raise NotTwoRegular("validity is defined over rings where 2 is regular")
    lift = t.parity.lift()
    return ring.in_4R(t.delta - lift * lift)


def build_from_type(ring: Ring, t: AlgebraType, lift: RingElement) -> FreeQuadraticAlgebra:
    lift = ring.coerce(lift)
    if ring.mod2(lift) != t.parity:
        raise BadLift(f"{lift!r} does not lift the parity {t.parity!r}")
    if not is_valid_triple(ring, t):
        raise InvalidTriple(f"{t!r} is not the type of any quadratic algebra")
    quarter = ring.try_halve(ring.try_halve(t.delta - lift * lift))
    return FreeQuadraticAlgebra(ring, lift, -quarter)


def freeok_iso(alg: FreeQuadraticAlgebra, ptilde) -> tuple[FreeQuadraticAlgebra, AlgebraHom]:
    """Re-present with middle coefficient ptilde: tau -> omega + (ptilde - r)/2."""
    ring = alg.ring
    if not ring.two_regular:
        raise NotTwoRegular("the halving step needs 2 regular")
    ptilde = ring.coerce(ptilde)
    if ring.mod2(ptilde) != ring.mod2(alg.r):
        raise ParityMismatch(f"{ptilde!r} is not congruent to {alg.r!r} mod 2")
    d = alg.r * alg.r - 4 * alg.s
    quarter = ring.try_halve(ring.try_halve(d - ptilde * ptilde))
    target = FreeQuadraticAlgebra(ring, ptilde, -quarter)
    hom = AlgebraHom(ring.one, ring.try_halve(ptilde - alg.r))
    assert hom.verifies(alg, target)
    return target, hom


def _sqrt_in_ring(ring: Ring, x: RingElement) -> RingElement | None:
    """A square root of x in Z or Z[sqrt(N)], sign-normalized; None if absent."""
    if isinstance(ring, IntegerRing):
        n = x.coords[0]
        if n < 0:
            return None
        root = isqrt(n)
        return ring.from_int(root) if root * root == n else None
    if isinstance(ring, TableRing) and ring.quadratic_param is not None:
        n = ring.quadratic_param
        t0, t1 = x.coords
        candidates = []
        if t1 == 0:
            if is_square(t0):
                candidates.append((isqrt(t0), 0))
            if n != 0 and t0 % n == 0 and is_square(t0 // n):
                candidates.append((0, isqrt(t0 // n)))
        else:
            # a^2 + N b^2 = t0 and 2ab = t1 force b^2 = (t0 +- sqrt(t0^2 - N t1^2))/(2N)
            disc = t0 * t0 - n * t1 * t1
            if disc >= 0 and is_square(disc) and n != 0:
                sd = isqrt(disc)
                for num in (t0 + sd, t0 - sd):
                    den = 2 * n
                    if num % den:
                        continue
                    b2 = num // den
                    if b2 <= 0 or not is_square(b2):
                        continue
                    b = isqrt(b2)
                    if t1 % (2 * b):
                        continue
                    a = t1 // (2 * b)
                    if a * a + n * b * b == t0:
                        candidates.append((a, b))
        for a, b in candidates:
            root = ring.element((a, b))
            if root * root == x:
                if a < 0 or (a == 0 and b < 0):
                    root = -root
                return root
        return None
    raise UnsupportedRing(f"no square-root routine for {ring!r}")


def _unit_image_reps(ring: Ring) -> list[RingElement]:
    """Units representing every class in the image of R* inside (R/2R)*."""
    gens = ring.unit_group_generators()
    seen = {ring.mod2(ring.one): ring.one}
    frontier = [ring.one]
    while frontier:
        nxt = []
        for rep in frontier:
            for g in gens:
                cand = rep * g
                key = ring.mod2(cand)
                if key not in seen:
                    seen[key] = cand
                    nxt.append(cand)
                    if len(seen) > UNIT_IMAGE_CAP:
                        raise UnitSearchCapExceeded("unit image group too large")
        frontier = nxt
    return list(seen.values())


def types_isomorphic(t1: AlgebraType, t2: AlgebraType) -> RingElement | None:
    """A unit eps with t2 = (eps^2 * delta1, eps * parity1), if one exists."""
    ring = t1.ring
    if ring != t2.ring:
        raise ValueError("types live over different rings")
    if ring.is_finite():
        return next((u for u in ring.units
                     if t2.delta == u * u * t1.delta and t2.parity == t1.parity.times(u)), None)
    z1, z2 = t1.delta.is_zero(), t2.delta.is_zero()
    if z1 != z2:
        return None
    if z1:
        for u in _unit_image_reps(ring):
            if t1.parity.times(u) == t2.parity:
                return u
        return None
    ratio = ring.try_divide(t2.delta, t1.delta)
    if ratio is None:
        return None
    eps = _sqrt_in_ring(ring, ratio)
    if eps is None or not ring.is_unit(eps):
        return None
    # -eps has the same image mod 2, so one parity test covers both roots
    if t1.parity.times(eps) != t2.parity:
        return None
    return eps


def algebras_isomorphic(a: FreeQuadraticAlgebra,
                        b: FreeQuadraticAlgebra) -> AlgebraHom | None:
    """An explicit isomorphism a -> b, present iff the types are isomorphic."""
    ring = a.ring
    if ring != b.ring:
        raise ValueError("algebras live over different rings")
    if not ring.two_regular:
        raise NotTwoRegular("use isomorphic_bruteforce when 2 is a zero divisor")
    eps = types_isomorphic(type_of(a), type_of(b))
    if eps is None:
        return None
    u = ring.try_inverse(eps)
    v = ring.try_halve(u * b.r - a.r)
    assert v is not None, "parity agreement must make u*r' - r halvable"
    hom = AlgebraHom(u, v)
    assert hom.verifies(a, b), "constructed hom failed verification"
    return hom


def oriented_type(alg: FreeQuadraticAlgebra, theta: Orientation) -> AlgebraType:
    """((r^2 - 4s) / u^2, (r / u) mod 2) for the orientation unit u."""
    uinv = theta.u_inv
    d = alg.r * alg.r - 4 * alg.s
    return AlgebraType(d * uinv * uinv, alg.ring.mod2(alg.r * uinv))


def oriented_isomorphic(a: FreeQuadraticAlgebra, theta_a: Orientation,
                        b: FreeQuadraticAlgebra, theta_b: Orientation) -> AlgebraHom | None:
    """The unique orientation-compatible isomorphism, or None.

    Compatibility forces u = theta_a.u / theta_b.u; the map exists exactly
    when the oriented types are equal.
    """
    ring = a.ring
    if ring != b.ring:
        raise ValueError("algebras live over different rings")
    if not ring.two_regular:
        raise NotTwoRegular("oriented uniqueness needs 2 regular")
    u = theta_a.u * ring.coerce(theta_b.u_inv)
    v = ring.try_halve(u * b.r - a.r)
    if v is None:
        return None
    hom = AlgebraHom(u, v)
    return hom if hom.verifies(a, b) else None


def _search_homs(a: FreeQuadraticAlgebra, b: FreeQuadraticAlgebra, units=None):
    """Every hom tau -> u*tau' + v from a to b over a finite ring, u running
    over ``units`` (default: every unit) and v over every element, in
    enumeration order.

    The search runs on the ring's multiplication table.  The hom equations
    read 2u*v = u^2*r' - r*u and v^2 + r*v = u^2*s' - s; u is a unit, so the
    first is 2v = u*r' - r.  For each u both right-hand sides are fixed, and
    v is scanned by comparing indices against the table row of 2 and
    against v*(v + r).  The few sums this needs come from the ring's own
    kernels.  Each hom found is verified once in ring arithmetic.
    """
    ring = a.ring
    t = ring.tables
    index, mul, elements = t.index, t.mul, t.elements
    rp, sp = index[b.r.coords], index[b.s.coords]
    neg_r, neg_s = ring._neg(a.r), ring._neg(a.s)
    us = t.units if units is None else [index[u.coords] for u in units]
    double = mul[index[ring.from_int(2).coords]]
    quad = [mul[v][index[ring._add(x, a.r).coords]] for v, x in enumerate(elements)]
    for u in us:
        lin = index[ring._add(elements[mul[u][rp]], neg_r).coords]
        const = index[ring._add(elements[mul[mul[u][u]][sp]], neg_s).coords]
        for v, (twov, q) in enumerate(zip(double, quad)):
            if twov == lin and q == const:
                hom = AlgebraHom(elements[u], elements[v])
                assert hom.verifies(a, b), "index tables disagree with ring arithmetic"
                yield hom


def automorphisms_bruteforce(alg: FreeQuadraticAlgebra) -> list[AlgebraHom]:
    """All ring automorphisms tau -> u*tau + v of a finite-ring algebra."""
    if not alg.ring.is_finite():
        raise InfiniteRing("brute-force automorphisms need a finite ring")
    return list(_search_homs(alg, alg))


def oriented_automorphisms_bruteforce(alg: FreeQuadraticAlgebra,
                                      theta: Orientation) -> list[AlgebraHom]:
    """Orientation-preserving automorphisms (u = 1); symbolic over 2-regular rings."""
    ring = alg.ring
    if ring.two_regular:
        # 2v = 0 forces v = 0
        return [identity_hom(ring)]
    if not ring.is_finite():
        raise InfiniteRing("need a finite ring when 2 is a zero divisor")
    # with u = 1 the hom equations reduce to 2v = 0 and v(v + r) = 0
    return list(_search_homs(alg, alg, [ring.one]))


def isomorphic_bruteforce(a: FreeQuadraticAlgebra,
                          b: FreeQuadraticAlgebra) -> AlgebraHom | None:
    """First isomorphism a -> b found by exhaustive search over (u, v)."""
    if a.ring != b.ring:
        raise ValueError("algebras live over different rings")
    if not a.ring.is_finite():
        raise InfiniteRing("brute-force isomorphism needs a finite ring")
    return next(_search_homs(a, b), None)


def find_parities(ring: Ring, delta: RingElement) -> list[Mod2Element]:
    """All parities making (delta, parity) a valid triple over this ring."""
    delta = ring.coerce(delta)
    out = []
    for parity in ring.mod2_residues():
        if is_valid_triple(ring, AlgebraType(delta, parity)):
            out.append(parity)
    return out
