"""Free quadratic algebras R[tau]/(tau^2 + r*tau + s) and their classification
by (discriminant, parity), with explicit isomorphisms and brute-force oracles
over finite rings.

Every decision runs on the ring's tuple kernels (``ring.Ring``), reading
each operand's ``coords`` after coercing it into the ring once, and an
element is built only for a value that a call returns.  tau -> u*tau' + v
is a hom exactly when u*(2v + r - u*r') = 0 and v*(v + r) + s - u^2 s' = 0,
five products; ``AlgebraHom.verifies`` checks that once for every hom
returned, and ``algebras_isomorphic`` and ``oriented_isomorphic`` take
v = (u*r' - r)/2.  The classification by (discriminant, parity) needs no
tables and names no ring kind: with finitely many ``ring.units`` (a
quotient keeps the tuples that pass the ring's unit-ideal test, with no
division, scanning at most ``ring.UNIT_SCAN_CAP`` elements) each is tested;
otherwise the unit is ``ring.sqrt`` of delta2 / delta1 (Z[sqrt(N)] and Z[1/f]
have one), or, when both are 0, is 1 exactly when the parities are equal.
That rule needs R/2R to be 0 or F_2 (so Z[1/f]) or the ring to be Z[sqrt(N)]
(``ring.quadratic_param``); any other ring with infinitely many units raises
UnsupportedRing there.  An ``Orientation`` keeps the inverse ``u_inv`` of
its unit test, as ``forms.GL2Matrix`` keeps ``det_inv``.

The brute-force oracles (``isomorphic_bruteforce``, ``automorphisms_bruteforce``
and ``oriented_automorphisms_bruteforce``) share one search, ``_search_homs``:
for each unit u it computes u*r' - r and u^2*s' - s on the tuple kernels, and
scans v over two rows of the ring's index tables (``ring.FiniteTables``),
capped at ``ring.FINITE_TABLE_CAP`` = 512 elements; a larger finite ring
raises ``RingTooLarge`` before anything is enumerated.
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
        tuple kernels, with no element built.  u, v, r' and s' are coerced
        into that ring once, so another ring raises RingMismatch.
        """
        ring, coerce = source.ring, source.ring.coerce
        add, sub, mul = ring._add_coords, ring._sub_coords, ring._mul_coords
        u, v, r = coerce(self.u).coords, coerce(self.v).coords, source.r.coords
        rp, sp = coerce(target.r).coords, coerce(target.s).coords
        if any(mul(u, sub(add(add(v, v), r), mul(u, rp)))):
            return False
        return not any(sub(add(mul(v, add(v, r)), source.s.coords), mul(mul(u, u), sp)))

    def __repr__(self):
        return f"(tau -> ({self.u!r})tau' + ({self.v!r}))"


def identity_hom(ring: Ring) -> AlgebraHom:
    return AlgebraHom(ring.one, ring.zero)


def type_of(alg: FreeQuadraticAlgebra) -> AlgebraType:
    ring = alg.ring
    return AlgebraType(RingElement(ring, _discriminant(alg)), ring.mod2(alg.r))


def _discriminant(alg: FreeQuadraticAlgebra) -> tuple[int, ...]:
    """The kernel tuple of r^2 - 4s."""
    ring, r = alg.ring, alg.r.coords
    return ring._sub_coords(ring._mul_coords(r, r), ring._scale_coords(4, alg.s.coords))


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


def _quarter_coords(ring: Ring, t: AlgebraType, x: tuple) -> tuple | None:
    """(delta - x^2)/4 on kernel tuples for a lift x of t's parity, by two
    halvings, or None when t is not valid: since 2 is regular, delta - x^2 is
    in 4R exactly when both halvings exist, and lift^2 mod 4R does not depend
    on the lift."""
    if not ring.two_regular:
        raise NotTwoRegular("validity is defined over rings where 2 is regular")
    half = ring._halve_coords(ring._sub_coords(ring.coerce(t.delta).coords, ring._mul_coords(x, x)))
    return None if half is None else ring._halve_coords(half)


def is_valid_triple(ring: Ring, t: AlgebraType) -> bool:
    """True when delta is a square of a parity lift modulo 4R."""
    return _quarter_coords(ring, t, t.parity.lift().coords) is not None


def build_from_type(ring: Ring, t: AlgebraType, lift: RingElement) -> FreeQuadraticAlgebra:
    """tau^2 + lift*tau - (delta - lift^2)/4, when the type is valid."""
    lift = ring.coerce(lift)
    if ring.mod2(lift) != t.parity:
        raise BadLift(f"{lift!r} does not lift the parity {t.parity!r}")
    quarter = _quarter_coords(ring, t, lift.coords)
    if quarter is None:
        raise InvalidTriple(f"{t!r} is not the type of any quadratic algebra")
    return FreeQuadraticAlgebra(ring, lift, RingElement(ring, ring._neg_coords(quarter)))


def freeok_iso(alg: FreeQuadraticAlgebra, ptilde) -> tuple[FreeQuadraticAlgebra, AlgebraHom]:
    """Re-present with middle coefficient ptilde: tau -> omega + (ptilde - r)/2."""
    ring = alg.ring
    if not ring.two_regular:
        raise NotTwoRegular("the halving step needs 2 regular")
    ptilde = ring.coerce(ptilde)
    if ring.mod2(ptilde) != ring.mod2(alg.r):
        raise ParityMismatch(f"{ptilde!r} is not congruent to {alg.r!r} mod 2")
    target = build_from_type(ring, type_of(alg), ptilde)
    hom = AlgebraHom(ring.one, ring.try_halve(ptilde - alg.r))
    if not hom.verifies(alg, target):
        raise AssertionError
    return target, hom


def types_isomorphic(t1: AlgebraType, t2: AlgebraType) -> RingElement | None:
    """A unit eps with t2 = (eps^2 * delta1, eps * parity1), if one exists."""
    ring = t1.ring
    if ring != t2.ring:
        raise ValueError("types live over different rings")
    found = _unit_and_inverse(ring, t1.delta.coords, t1.parity.residue,
                              t2.delta.coords, t2.parity.residue)
    return None if found is None else RingElement(ring, found[0])


def _unit_and_inverse(ring: Ring, d1, p1, d2, p2) -> tuple[tuple, tuple] | None:
    """The kernel tuples of (eps, 1/eps) for the eps of ``types_isomorphic``,
    or None, from the kernel tuples of the deltas and the parities' residues.

    With finitely many units (``ring.units``; in Z[sqrt(n^2)] delta may be a
    zero divisor) each unit is tested; otherwise eps is the square root of
    delta2 / delta1, and the unit test is the division that finds 1/eps.

    When both deltas are 0 only the parities can differ, and every unit fixes
    every parity that delta = 0 allows, so eps = 1 when they are equal and
    there is none otherwise.  When R/2R is 0 or F_2 its unit group is trivial.
    In Z[sqrt(N)], r = a + b*w with r^2 in 4R: for odd N or N = 2 mod 4, a
    and b are even, so the parity is 0; for 4 | N (N = 0 too) it is 0 or w,
    and a unit x + y*w has x odd (x^2 - N y^2 = +-1, and the units of
    Z[sqrt(0)] are +-(1 + y*w)), so it maps w to x*w + y*N = w mod 2."""
    mul, divide, one = ring._mul_coords, ring._divide_coords, ring.one_coords
    units = ring.units
    if units is not None:
        eps = next((e for e in map(attrgetter("coords"), units) if mul(mul(e, e), d1) == d2
                    and ring._residue_times(p1, e) == p2), None)
    elif any(d1) != any(d2):
        return None
    elif not any(d1):
        if len(ring.mod2_residues()) > 2 and ring.quadratic_param is None:
            raise UnsupportedRing(f"no unit-group algorithm for {ring!r}")
        eps = one if p1 == p2 else None
    else:
        ratio = divide(d2, d1)
        eps = None if ratio is None else ring._sqrt_coords(ratio)
        eps_inv = None if eps is None else divide(one, eps)
        # -eps has the same image mod 2, so one parity test covers both roots
        if eps_inv is None or ring._residue_times(p1, eps) != p2:
            return None
        return eps, eps_inv
    return None if eps is None else (eps, divide(one, eps))


def algebras_isomorphic(a: FreeQuadraticAlgebra,
                        b: FreeQuadraticAlgebra) -> AlgebraHom | None:
    """An explicit isomorphism a -> b, present iff the types are isomorphic."""
    ring = a.ring
    if ring != b.ring:
        raise ValueError("algebras live over different rings")
    if not ring.two_regular:
        raise NotTwoRegular("use isomorphic_bruteforce when 2 is a zero divisor")
    r, rp, residue = a.r.coords, b.r.coords, ring._mod2_coords
    found = _unit_and_inverse(ring, _discriminant(a), residue(r), _discriminant(b), residue(rp))
    if found is None:
        return None
    u = found[1]
    v = ring._halve_coords(ring._sub_coords(ring._mul_coords(u, rp), r))
    if v is None:
        raise AssertionError("parity agreement must make u*r' - r halvable")
    hom = AlgebraHom(RingElement(ring, u), RingElement(ring, v))
    if not hom.verifies(a, b):
        raise AssertionError("constructed hom failed verification")
    return hom


def oriented_type(alg: FreeQuadraticAlgebra, theta: Orientation) -> AlgebraType:
    """((r^2 - 4s) / u^2, (r / u) mod 2) for the orientation unit u."""
    ring, mul = alg.ring, alg.ring._mul_coords
    uinv = ring.coerce(theta.u_inv).coords
    return AlgebraType(RingElement(ring, mul(mul(_discriminant(alg), uinv), uinv)),
                       Mod2Element(ring, ring._mod2_coords(mul(alg.r.coords, uinv))))


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
    u = ring._mul_coords(ring.coerce(theta_a.u).coords, ring.coerce(theta_b.u_inv).coords)
    v = ring._halve_coords(ring._sub_coords(ring._mul_coords(u, b.r.coords), a.r.coords))
    if v is None:
        return None
    hom = AlgebraHom(RingElement(ring, u), RingElement(ring, v))
    return hom if hom.verifies(a, b) else None


def _search_homs(a: FreeQuadraticAlgebra, b: FreeQuadraticAlgebra, units=None):
    """Every hom tau -> u*tau' + v from a to b over a finite ring, u running
    over the elements ``units`` (default: ``ring.units``) and v over every
    element, in enumeration order.

    The hom equations read 2u*v = u^2*r' - r*u and v^2 + r*v = u^2*s' - s;
    u is a unit, so the first is 2v = u*r' - r.  For each u both right-hand
    sides come from the tuple kernels, three products and two differences,
    and are looked up in the index with no element built.  v is scanned by
    comparing indices against ``double`` and the kept row of v*(v + r) of the
    ring's ``FiniteTables``, read before the units are listed, so a ring past
    the table cap is refused before any division.  Only the u and v of a hom
    found are made elements, and the hom is verified once, by
    ``AlgebraHom.verifies``.
    """
    ring = a.ring
    t = ring.tables
    r, s, rp, sp = a.r.coords, a.s.coords, b.r.coords, b.s.coords
    index, elements, double, quad = t.index, t.elements, t.double, t.row(r)
    sub, mul = ring._sub_coords, ring._mul_coords
    for u in map(attrgetter("coords"), units or ring.units):
        lin, const = index[sub(mul(u, rp), r)], index[sub(mul(mul(u, u), sp), s)]
        for v, (twov, q) in enumerate(zip(double, quad)):
            if twov == lin and q == const:
                hom = AlgebraHom(RingElement(ring, u), RingElement(ring, elements[v]))
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
