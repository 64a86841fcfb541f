"""Free quadratic algebras R[tau]/(tau^2 + r*tau + s) and their classification
by (discriminant, parity), with explicit isomorphisms and brute-force oracles
over finite rings.

The brute-force oracles (``isomorphic_bruteforce``, ``automorphisms_bruteforce``
and ``oriented_automorphisms_bruteforce``) run on rows of the ring's index
tables (``ring.FiniteTables``), each built on first read and kept: every
candidate is tested on plain ints against the row of 2 and the row of
v*(v + r), whose targets u*r' - r and u^2*s' - s are differences of
coordinate tuples (``_sub_coords``), looked up in the index with no element
built; only the homs found are verified in ring arithmetic.  That
verification, like every other (``AlgebraHom.verifies``), takes five
products: tau -> u*tau' + v is a hom exactly when u*(2v + r - u*r') = 0 and
v*(v + r) + s - u^2 s' = 0.  The tables are capped at
``ring.FINITE_TABLE_CAP`` = 512 elements; a larger
finite ring raises ``RingTooLarge`` before anything is enumerated.  The
classification by (discriminant, parity) needs no tables, has no cap and
names no ring kind: with finitely many ``ring.units`` each is tested;
otherwise the unit is ``ring.sqrt`` of delta2 / delta1 (Z[sqrt(N)] and Z[1/f]
have one), or, when both are 0, is 1 exactly when the parities are equal.
That rule needs R/2R to be 0 or F_2 (so Z[1/f]) or the ring to be Z[sqrt(N)]
(``ring.quadratic_param``); any other ring with infinitely many units raises
UnsupportedRing there.
An ``Orientation`` keeps the inverse ``u_inv`` of its unit test, as
``forms.GL2Matrix`` keeps ``det_inv``.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import (
    BadLift,
    InfiniteRing,
    InvalidTriple,
    NotAUnit,
    NotTwoRegular,
    ParityMismatch,
    UnsupportedRing,
)
from .ring import Mod2Element, Ring, RingElement, Value


class FreeQuadraticAlgebra(Value):
    """C = R[tau]/(tau^2 + r*tau + s)."""

    __slots__ = ("ring", "r", "s")
    _identity = attrgetter("ring", "r", "s")

    def __init__(self, ring: Ring, r, s):
        self.ring = ring
        self.r = ring.coerce(r)
        self.s = ring.coerce(s)

    def __repr__(self):
        return f"<tau^2 + ({self.r!r})tau + ({self.s!r}) over {self.ring!r}>"


class AlgebraType(Value):
    """The pair (discriminant, parity) classifying an algebra or a form."""

    __slots__ = ("delta", "parity")
    _identity = attrgetter("delta", "parity")

    def __init__(self, delta: RingElement, parity: Mod2Element):
        if delta.ring != parity.ring:
            raise ValueError("discriminant and parity live over different rings")
        self.delta = delta
        self.parity = parity

    @property
    def ring(self) -> Ring:
        return self.delta.ring

    def __repr__(self):
        return f"({self.delta!r}, {self.parity!r})"


class Orientation(Value):
    """Trivializing unit u, sending the class of tau to u; keeps u_inv."""

    __slots__ = ("u", "u_inv")
    _identity = attrgetter("u")

    def __init__(self, u: RingElement):
        self.u_inv = u.ring.try_inverse(u)
        if self.u_inv is None:
            raise NotAUnit(f"orientation value {u!r} is not a unit")
        self.u = u

    def __repr__(self):
        return f"Orientation({self.u!r})"


class AlgebraHom(Value):
    """The map tau -> u*tau' + v into a target algebra's generator tau'."""

    __slots__ = ("u", "v")
    _identity = attrgetter("u", "v")

    def __init__(self, u: RingElement, v: RingElement):
        self.u = u
        self.v = v

    def verifies(self, source: FreeQuadraticAlgebra, target: FreeQuadraticAlgebra) -> bool:
        """Check that (u*tau' + v)^2 + r*(u*tau' + v) + s = 0 in the target.

        With tau'^2 = -r'*tau' - s' the left side is lin*tau' + const, where
        lin = 2uv + ru - u^2 r' = u*(2v + r - u*r') and
        const = v^2 + rv + s - u^2 s' = v*(v + r) + s - u^2 s',
        five products and six sums or differences in all on the source ring's
        kernels.  u, v, r' and s' are coerced into that ring once, so another
        ring raises RingMismatch.
        """
        ring = source.ring
        coerce, add, sub, mul = ring.coerce, ring._add, ring._sub, ring._mul
        u, v = coerce(self.u), coerce(self.v)
        rp, sp = coerce(target.r), coerce(target.s)
        r = source.r
        lin = mul(u, sub(add(add(v, v), r), mul(u, rp)))
        if not lin.is_zero():
            return False
        const = sub(add(mul(v, add(v, r)), source.s), mul(mul(u, u), sp))
        return const.is_zero()

    def __repr__(self):
        return f"(tau -> ({self.u!r})tau' + ({self.v!r}))"


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
    if not hom.verifies(alg, target):
        raise AssertionError
    return target, hom


def types_isomorphic(t1: AlgebraType, t2: AlgebraType) -> RingElement | None:
    """A unit eps with t2 = (eps^2 * delta1, eps * parity1), if one exists."""
    found = _unit_and_inverse(t1, t2)
    return None if found is None else found[0]


def _unit_and_inverse(t1: AlgebraType, t2: AlgebraType) -> tuple[RingElement, RingElement] | None:
    """(eps, 1/eps) for the eps of ``types_isomorphic``, or None.

    With finitely many units (``ring.units``; in Z[sqrt(n^2)] delta may be a
    zero divisor) each unit is tested; otherwise eps is ``ring.sqrt`` of
    delta2 / delta1, and the unit test is the division that finds 1/eps.

    When both deltas are 0 only the parities can differ, and every unit fixes
    every parity that delta = 0 allows, so eps = 1 when they are equal and
    there is none otherwise.  When R/2R is 0 or F_2 its unit group is trivial.
    In Z[sqrt(N)], r = a + b*w with r^2 in 4R: for odd N or N = 2 mod 4, a
    and b are even, so the parity is 0; for 4 | N (N = 0 too) it is 0 or w,
    and a unit x + y*w has x odd (x^2 - N y^2 = +-1, and the units of
    Z[sqrt(0)] are +-(1 + y*w)), so it maps w to x*w + y*N = w mod 2."""
    ring = t1.ring
    if ring != t2.ring:
        raise ValueError("types live over different rings")
    z1, z2 = t1.delta.is_zero(), t2.delta.is_zero()
    units = ring.units
    if units is not None:
        eps = next((u for u in units
                    if t2.delta == u * u * t1.delta and t2.parity == t1.parity.times(u)), None)
    elif z1 != z2:
        return None
    elif z1:
        if len(ring.mod2_residues()) > 2 and ring.quadratic_param is None:
            raise UnsupportedRing(f"no unit-group algorithm for {ring!r}")
        eps = ring.one if t1.parity == t2.parity else None
    else:
        ratio = ring.try_divide(t2.delta, t1.delta)
        eps = None if ratio is None else ring.sqrt(ratio)
        eps_inv = None if eps is None else ring.try_inverse(eps)
        # -eps has the same image mod 2, so one parity test covers both roots
        if eps_inv is None or t1.parity.times(eps) != t2.parity:
            return None
        return eps, eps_inv
    return None if eps is None else (eps, ring.try_inverse(eps))


def algebras_isomorphic(a: FreeQuadraticAlgebra,
                        b: FreeQuadraticAlgebra) -> AlgebraHom | None:
    """An explicit isomorphism a -> b, present iff the types are isomorphic."""
    ring = a.ring
    if ring != b.ring:
        raise ValueError("algebras live over different rings")
    if not ring.two_regular:
        raise NotTwoRegular("use isomorphic_bruteforce when 2 is a zero divisor")
    found = _unit_and_inverse(type_of(a), type_of(b))
    if found is None:
        return None
    u = found[1]
    v = ring.try_halve(u * b.r - a.r)
    if v is None:
        raise AssertionError("parity agreement must make u*r' - r halvable")
    hom = AlgebraHom(u, v)
    if not hom.verifies(a, b):
        raise AssertionError("constructed hom failed verification")
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

    The search runs on rows of the ring's index tables.  The hom equations
    read 2u*v = u^2*r' - r*u and v^2 + r*v = u^2*s' - s; u is a unit, so the
    first is 2v = u*r' - r.  For each u both right-hand sides are fixed.  In
    the scan over every unit u*r' is read from the row of r' and u^2*s' from
    the row of s' at u^2; a given list of units (u = 1 for ``--oriented``)
    takes the three products from ``_mul_coords`` and builds neither row.
    The two differences come from ``_sub_coords`` on coordinate tuples, which
    are looked up in the index with no element built.  v is scanned by
    comparing indices against the row of 2 and the row of v*(v + r).  Each
    row is built once per ring and kept.  Each hom found is verified once in
    ring arithmetic.
    """
    ring = a.ring
    t = ring.tables
    index, elements, double, square = t.index, t.elements, t.double, t.square
    r, s, rp, sp = a.r.coords, a.s.coords, b.r.coords, b.s.coords
    quad = t.row(index[r], quad=True)
    sub, mul = ring._sub_coords, ring._mul_coords
    if units is None:
        times_rp, times_sp = t.row(index[rp]), t.row(index[sp])
        rhs = ((u, elements[times_rp[u]].coords, elements[times_sp[square[u]]].coords)
               for u in t.units)
    else:
        rhs = ((index[u], mul(u, rp), mul(mul(u, u), sp)) for u in (x.coords for x in units))
    for u, ur, uus in rhs:
        lin, const = index[sub(ur, r)], index[sub(uus, s)]
        for v, (twov, q) in enumerate(zip(double, quad)):
            if twov == lin and q == const:
                hom = AlgebraHom(elements[u], elements[v])
                if not hom.verifies(a, b):
                    raise AssertionError("index tables disagree with ring arithmetic")
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
