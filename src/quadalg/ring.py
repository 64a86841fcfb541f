"""Exact arithmetic over the supported base rings.

Four kinds of ring are available: the integers, integer table rings (free
Z-modules with a structure-constant multiplication), finite quotients of
those, and localizations Z[1/f].  All elements are kept in canonical form
so that equality doubles as the test oracle.  The library's other values
(algebras, types, homs, forms, orders, ideals, residues mod 2) subclass
``Value``, which compares and hashes the fields a class names once as its
``_identity``; ``RingElement`` (equal to ints) and ``Ring`` keep their own.

Every integer-lattice question (identity, quotients and the unit ideal in
table and quotient rings, HNF ideals of quadratic orders) goes through one
routine: the Hermite normal form kernel ``hnf`` and the integer solver
``solve_int`` built on it.  A 2 x 2 system with a nonzero determinant
has one rational solution, which ``solve_int`` finds by the adjugate; it is
integral or there is none.  The Bezout step ``xgcd``, shared with Dirichlet
composition, is ``math.gcd`` plus ``pow(x, -1, m)`` on plain ints.

Square roots modulo m come in two parts: every root of x^2 = n mod p^e
(``sqrt_mod_prime_power``: Tonelli-Shanks mod p, then one lifting rule up to
p^e), and their combination over the p^e || m by CRT (``crt_roots``).
``picard.reduced_triples`` calls both, since it factors 4a from a sieve and
keeps the roots mod each prime power for the whole call.

Each backend has one arithmetic, its tuple kernels, and one element layout:
``RingElement.coords`` is the kernel tuple (``Ring`` states the contract).
``RingElement``'s operators run the kernels on ``coords`` after
``Ring.coerce`` (an element of the same ring object passes at once, an int
is mapped in, and an element of a different ring raises RingMismatch) and
wrap the tuple they return.  An int factor (``4 * s``; a bool is coerced)
goes to ``_scale_coords`` and is never made an element.  A caller that chains many
operations (``algebras``, ``FiniteTables``) coerces its operands once, runs
the kernels and builds an element only for a value it returns.
``compile_kernels`` writes the lattice ring's eight kernels out (Z is the
1 x 1 table, compiled once and kept): the five above, the rows q*e_i of a
tuple q, halving and the residue mod 2, such as
``(x[0]*(y[0]) + x[1]*(c0*y[1]), x[0]*(y[1]) + x[1]*(y[0]))`` for the
product of Z[sqrt(c0)].  Every quotient in Z[1/f], halving too, goes
through ``LocalizationRing._divide``, which asks ``in_localization`` ("n/d
lies in Z[1/f]", shared with glue).  ``Ring.one``, ``Ring.zero``,
``TableRing.quadratic_param`` and ``standard_basis(n)`` are computed once.

Z, table rings and their quotients are one lattice ring, ``TableRing``: a
free Z-module with compiled structure constants, free (m None) or reduced
mod m, its rank capped at ``TABLE_RANK_CAP`` (RingTooLarge above), since
its construction checks associativity on every basis triple.
``IntegerRing`` and ``QuotientRing`` subclass it only to present it
(``kind``, ``descriptor``, ``describe``, Z's bare-int JSON and rationals, a
quotient's finite-ring members).  A backend (it, or Z[1/f]) writes the
kernels, ``descriptor`` and ``describe``; ``Ring`` derives the rest:
``try_divide``, ``try_halve`` and ``sqrt`` coerce and wrap their kernels,
``try_inverse`` and ``is_unit`` divide 1, and ``mod2`` and
``mod2_residues`` give R/2R from the backend's ``_mod2_coords``: 0 mod an
odd m and in Z[1/f] for an even f, else the coordinates mod 2 (num mod 2
of num/f^k in Z[1/f]).  The lattice ring builds the rows of an ideal in
one place, ``_ideal_rows``: the rows g*e_i of each generator g (the
``_rows`` kernel) and, mod m, the rows m*e_k.  It divides by ``solve_int``
on the rows of q and the rows m*e_k.  Its one unit-ideal test,
``_generates_unit_ideal``, asks whether some tuples generate the whole ring
(x is a unit; a, b, c are primitive, ``forms.is_primitive``): exactly when
the HNF of their rows is the identity.  It branches on m only where the
maths does, and the kernels at compile time: 2 is regular when free or m is
odd, a free ring halves each coordinate and an odd m scales by (m + 1)/2,
R/2R is 0 mod an odd m, and a quotient has no N.  ``Ring.element``,
``from_rational`` and the m of Z/m and f of Z[1/f] read exact ints
(``operator.index``: a float or a string raises TypeError).

The classification of quadratic algebras asks a ring three more questions:
``Ring.units``, every unit when there are finitely many and None otherwise;
``Ring.sqrt``, from the norm in Z[sqrt(N)] and the non-negative rational
root in Z[1/f]; and ``Ring.quadratic_param``, the N of Z[sqrt(N)] (else
None).  A quotient ring finds its units by the unit-ideal test on each
coordinate tuple, with no division, capped at ``UNIT_SCAN_CAP`` elements,
and keeps ``FiniteTables``, its coordinate tuples and, for each r, the map
from the indices of (2v, v*(v + r)) to v in which the brute-force searches
find v, one lookup per unit, capped at ``FINITE_TABLE_CAP`` elements
(RingTooLarge above either cap).
Any other unit test is a division, whose inverse is kept where it is read:
``Orientation`` and ``GL2Matrix`` keep theirs (``u_inv``, ``det_inv``).
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, lru_cache
from math import gcd, isqrt
from operator import attrgetter, index

from .errors import (
    ExponentTooLarge,
    InfiniteRing,
    NoIdentity,
    NonAssociative,
    NonCommutative,
    RingMismatch,
    RingTooLarge,
    NotTwoRegular,
    UnsupportedRing,
    brief,
)

FINITE_TABLE_CAP = 512
UNIT_SCAN_CAP = 2**18  # QuotientRing.units makes one HNF unit-ideal test per element
TABLE_RANK_CAP = 16  # construction checks associativity in 3n^3 products
EXPONENT_CAP = 10**5
POWER_BITS_CAP = 4 * EXPONENT_CAP  # f < 16 may take the whole exponent range


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0, on plain ints:
    g by ``math.gcd``, u = (a/g)^-1 mod |b|/g by ``pow`` (0 when |b|/g = 1) and
    v = (g - u*a)/b, exact; b = 0 gives (|a|, sign of a, 0)."""
    g = gcd(a, b)
    if not b:
        return g, -1 if a < 0 else 1, 0
    u = pow(a // g, -1, abs(b) // g)
    return g, u, (g - u * a) // b


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def sqrt_mod_prime_power(n: int, p: int, e: int) -> list[int]:
    """Every root of x^2 = n mod p^e for a prime p and e >= 1, ascending.

    The roots mod p are n mod 2, or Tonelli-Shanks for odd p.  A root r mod
    q = p^(k-1) lifts to the r + t*q mod p*q with (r^2 - n)/q + 2*r*t = 0
    mod p (k >= 2, so (t*q)^2 vanishes): one t when p does not divide 2r,
    and otherwise every t or none.  The second case covers p = 2 and p | n.
    """
    roots = [n % 2] if p == 2 else _sqrt_mod_prime(n % p, p)
    q = p
    for _ in range(e - 1):
        lifted = []
        for r in roots:
            k = (r * r - n) // q % p
            if 2 * r % p:
                lifted.append(r + q * (-k * pow(2 * r, -1, p) % p))
            elif not k:
                lifted.extend(range(r, q * p, q))
        roots, q = lifted, q * p
    return sorted(roots)


def _sqrt_mod_prime(n: int, p: int) -> list[int]:
    """The roots of x^2 = n mod an odd prime p, 0 <= n < p, by Tonelli-Shanks."""
    if not n:
        return [0]
    if pow(n, (p - 1) // 2, p) != 1:
        return []
    s, q = 0, p - 1  # p - 1 = q * 2^s with q odd
    while not q % 2:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:  # a non-residue
        z += 1
    c, t, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:  # the least i with t^(2^i) = 1
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return sorted((r, p - r))


def crt_roots(parts: list[tuple[int, list[int]]]) -> list[int]:
    """Every x mod the product of the pairwise coprime moduli q with x mod q
    in its list, for the (q, residues) pairs of parts, unsorted."""
    m, roots = 1, [0]
    for q, residues in parts:
        inv = pow(m, -1, q)
        roots = [x + m * ((r - x) * inv % q) for x in roots for r in residues]
        m *= q
    return roots


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the integer row span of rows.

    Returns the nonzero rows, one per pivot: pivot columns strictly increase,
    each pivot is positive, and the entries above it lie in [0, pivot).  The
    rows form the canonical Z-basis of the lattice the input rows span
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4.2).
    """
    mat = [list(row) for row in rows]
    ncols = len(mat[0]) if mat else 0
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            x = mat[i][col]
            if not x:
                continue
            if piv is None:
                piv = i
                continue
            # unimodular combination: gcd into the pivot row, zero into row i
            p, q = mat[piv], mat[i]
            g, u, v = xgcd(p[col], x)
            a, b = p[col] // g, x // g
            mat[piv] = [u * s + v * t for s, t in zip(p, q)]
            mat[i] = [a * t - b * s for s, t in zip(p, q)]
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        row = mat[r]
        if row[col] < 0:
            row = mat[r] = [-t for t in row]
        for i in range(r):
            f = mat[i][col] // row[col]
            if f:
                mat[i] = [s - f * t for s, t in zip(mat[i], row)]
        r += 1
    return mat[:r]


def solve_int(gens: list[tuple[int, ...]], target: tuple[int, ...]) -> list[int] | None:
    """Integer x with sum(x_i * gens_i) == target, or None when none exists.

    Two independent generators in rank 2 fix x = target * adj(G) / det(G),
    so x exists exactly when both divisions are exact; every other system
    goes through ``solve_hnf``.
    """
    if len(gens) == 2 == len(target):
        (a, b), (c, d) = gens
        det = a * d - b * c
        if det:
            t0, t1 = target
            x0, r0 = divmod(t0 * d - t1 * c, det)
            x1, r1 = divmod(t1 * a - t0 * b, det)
            return None if r0 or r1 else [x0, x1]
    return solve_hnf(gens, target)


def solve_hnf(gens: list[tuple[int, ...]], target: tuple[int, ...]) -> list[int] | None:
    """``solve_int`` by the HNF kernel, for any shape.

    Each generator row carries an identity block, so every HNF row records
    its combination of the generators.
    """
    n, k = len(target), len(gens)
    basis = hnf([list(g) + list(e) for g, e in zip(gens, standard_basis(k))])
    rest = list(target)
    x = [0] * k
    for row in basis:
        col = next(c for c, e in enumerate(row) if e)
        if col >= n:
            break  # kernel rows: nothing left to match in the target
        f = rest[col] // row[col]  # a remainder survives into the final test
        if f:
            rest = [t - f * e for t, e in zip(rest, row)]
            x = [t + f * e for t, e in zip(x, row[n:])]
    return None if any(rest) else x


def divides_power(n: int, f: int) -> bool:
    """Does n divide some power of f >= 1?  g holds every prime of n that divides
    f, and squaring it doubles the exponents it clears: O(log k) gcds for f^k."""
    n, g = abs(n), f
    while n > 1 and (g := gcd(n, g)) > 1:
        n //= g
        g *= g
    return n == 1


def in_localization(x: tuple[int, int], f: int) -> bool:
    """Does x = (n, d), the rational n/d, lie in Z[1/f] (Z[1/1] is Z)?  Never
    for d = 0 != n; n/d is a unit there when (d, n) lies in Z[1/f] too."""
    n, d = x
    return divides_power(d // gcd(n, d), f)


@cache
def standard_basis(n: int) -> tuple[tuple[int, ...], ...]:
    """Coordinates of e_0, ..., e_{n-1}."""
    return tuple(tuple(int(t == i) for t in range(n)) for i in range(n))


@lru_cache(maxsize=64)
def compile_kernels(table, m: int | None = None):
    """(add, neg, sub, scale, mul, rows, halve, mod2) on the coordinate tuples
    of the ring with structure constants table, each coordinate reduced mod m
    unless m is None: one generated lambda each, scale(t, x) being t*x for an
    int t and coordinate k of x*y the sum over i of x[i]*(sum_j
    table[i][j][k]*y[j]).  rows(q) is the list of the tuples q*e_i, whose
    coordinate k is sum_j q[j]*table[j][i][k].  halve(x) is x/2 or None: in a
    free ring None when a coordinate is odd, else each coordinate >> 1; mod an
    odd m, h*x with h = (m + 1)/2, the inverse of 2; mod an even m, None.
    mod2(x) is each coordinate & 1, or the zero tuple when 2 is a unit (m odd).
    The source holds only indices and names: m, h and each constant other
    than +-1 (c0, c1, ...) are parameters of an outer lambda, so every value
    is a closure cell, never decimal text.  The last 64 (table, m), as nested
    tuples, keep theirs: every Z and every rebuilt ring share one compile."""
    n, names = len(table), {}
    odd = m is not None and m % 2 == 1  # 2 is a unit mod an odd m

    def scaled(c: int, y: str) -> str:
        return (y if c == 1 else "-" + y if c == -1
                else f"{names.setdefault(c, f'c{len(names)}')}*{y}")

    def product(k: int) -> str:
        sums = [[scaled(e[k], f"y[{j}]") for j, e in enumerate(row) if e[k]] for row in table]
        return " + ".join(f"x[{i}]*({' + '.join(s)})" for i, s in enumerate(sums) if s) or "0"

    def row(i: int) -> str:
        # q*e_i, coordinate k being sum_j q[j]*table[j][i][k]
        return as_tuple(" + ".join(scaled(table[j][i][k], f"q[{j}]") for j in ks
                                   if table[j][i][k]) or "0" for k in ks)

    def plain(parts) -> str:
        return "(" + "".join(f"{p}, " for p in parts) + ")"

    def as_tuple(parts) -> str:
        return plain(parts if m is None else (f"({p}) % m" for p in parts))

    ks = range(n)
    if m is None:
        halve = (f"lambda x: None if ({' | '.join(f'x[{k}]' for k in ks)}) & 1 "
                 f"else {plain(f'x[{k}] >> 1' for k in ks)}")
    else:
        halve = f"lambda x: {as_tuple(f'h*x[{k}]' for k in ks) if odd else None}"
    kernels = (f"lambda x, y: {as_tuple(f'x[{k}] + y[{k}]' for k in ks)}",
               f"lambda x: {as_tuple(f'-x[{k}]' for k in ks)}",
               f"lambda x, y: {as_tuple(f'x[{k}] - y[{k}]' for k in ks)}",
               f"lambda t, x: {as_tuple(f't*x[{k}]' for k in ks)}",
               f"lambda x, y: {as_tuple(product(k) for k in ks)}",
               f"lambda q: [{', '.join(row(i) for i in ks)}]",
               halve,
               f"lambda x: {plain('0' if odd else f'x[{k}] & 1' for k in ks)}")
    # names are complete once the products and rows are written
    src = f"lambda {''.join(c + ', ' for c in names.values())}m, h: ({', '.join(kernels)})"
    return eval(src, {"__builtins__": {}})(*names, m, (m + 1) // 2 if odd else None)


class RingElement:
    """An element of a Ring, held as the ring's canonical kernel tuple ``coords``."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: Ring, coords: tuple[int, ...]):
        self.ring = ring
        self.coords = coords

    def __add__(self, other):
        ring = self.ring
        return RingElement(ring, ring._add_coords(self.coords, ring.coerce(other).coords))

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, self.ring._neg_coords(self.coords))

    def __sub__(self, other):
        ring = self.ring
        return RingElement(ring, ring._sub_coords(self.coords, ring.coerce(other).coords))

    def __rsub__(self, other):
        ring = self.ring
        return RingElement(ring, ring._sub_coords(ring.coerce(other).coords, self.coords))

    def __mul__(self, other):
        ring = self.ring
        if type(other) is int:  # a bool goes through coerce
            return RingElement(ring, ring._scale_coords(other, self.coords))
        return RingElement(ring, ring._mul_coords(self.coords, ring.coerce(other).coords))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers: use Ring.try_inverse")
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.coords == other.coords

    def __hash__(self):
        return hash((self.ring, self.coords))

    def __int__(self) -> int:
        if any(self.coords[1:]):  # another coordinate, or k > 0 in Z[1/f]
            raise ValueError(f"{brief(self)} is not a rational integer")
        return self.coords[0]

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __repr__(self):
        return self.ring.format_element(self)


class Value:
    """An immutable object compared by its data: equal to an object of exactly
    its type whose identity fields are equal, and hashed on those fields.  A
    subclass names them once, as ``_identity = operator.attrgetter(...)``."""

    __slots__ = ()
    _identity: attrgetter

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._identity(self) == self._identity(other)

    def __hash__(self):
        return hash(self._identity(self))


class Mod2Element(Value):
    """Residue class of a ring element modulo 2R, in canonical coordinates."""

    __slots__ = ("ring", "residue")
    _identity = attrgetter("ring", "residue")

    def __init__(self, ring: Ring, residue: tuple[int, ...]):
        self.ring = ring
        self.residue = residue

    def lift(self) -> RingElement:
        # the 0/1 coordinates, then the identity's other entries (k = 0 in Z[1/f])
        ring = self.ring
        return RingElement(ring, self.residue + ring.one_coords[ring.rank:])

    def times(self, e: RingElement) -> Mod2Element:
        ring = self.ring
        return Mod2Element(ring, ring._residue_times(self.residue, ring.coerce(e).coords))

    def is_zero(self) -> bool:
        return not any(self.residue)

    def __repr__(self):
        return f"({self.ring.format_element(self.lift())} mod 2)"


class Ring:
    """Common interface of the lattice ring (Z, table rings, quotients) and Z[1/f].

    A backend's arithmetic is its tuple kernels, from canonical kernel tuples
    to canonical kernel tuples on plain ints: ``_add_coords``, ``_neg_coords``,
    ``_sub_coords``, ``_scale_coords`` (t*x for an int t) and ``_mul_coords``;
    ``_divide_coords`` (some y with q*y = p), ``_halve_coords`` (the unique x/2
    when 2 is regular) and ``_sqrt_coords`` give None when there is none.
    An element's ``coords`` is its kernel tuple: the coordinates in the
    lattice ring, and in Z[1/f] the pair (num, k) of num/f^k, f not dividing
    num unless k = 0, so zero is the all-zero tuple.  ``_from_coords`` makes
    the element of a tuple (None for None).  ``_mod2_coords``, the residue
    mod 2 of a kernel tuple, is the backend's too, and ``_residue_times``,
    ``mod2`` and ``mod2_residues`` work in R/2R from it.

    Rings are immutable once built, so equality and hashing use a frozen
    copy of the descriptor, taken once on first use.
    """

    kind = "abstract"
    rank: int
    two_regular: bool
    symbols: tuple[str, ...]

    # -- element plumbing ----------------------------------------------------

    def element(self, coords) -> RingElement:
        """The element of this kernel tuple of ints, so that ``element(x.coords) == x``:
        the coordinates, reduced mod m in a quotient; (num, k) in Z[1/f]."""
        coords = tuple(map(index, coords))
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates")
        return RingElement(self, self._scale_coords(1, coords))

    def from_int(self, n: int) -> RingElement:
        return RingElement(self, self._scale_coords(index(n), self.one_coords))

    @cached_property
    def zero(self) -> RingElement:
        return self.from_int(0)

    @cached_property
    def one(self) -> RingElement:
        return self.from_int(1)

    def coerce(self, x) -> RingElement:
        if isinstance(x, RingElement) and x.ring is self:
            return x
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, RingElement):
            if x.ring != self:
                raise RingMismatch(f"element of {brief(x.ring)} used in {brief(self)}")
            return x
        raise TypeError(f"cannot coerce {brief(x)} into {brief(self)}")

    def _from_coords(self, t: tuple[int, ...] | None) -> RingElement | None:
        return None if t is None else RingElement(self, t)

    # -- unit and divisibility structure --------------------------------------

    def try_inverse(self, x: RingElement) -> RingElement | None:
        return self.try_divide(self.one, x)

    def is_unit(self, x: RingElement) -> bool:
        return self.try_inverse(x) is not None

    def try_divide(self, p: RingElement, q: RingElement) -> RingElement | None:
        """Some y with q*y = p; None only when no such y exists."""
        return self._from_coords(self._divide_coords(self.coerce(p).coords,
                                                     self.coerce(q).coords))

    def from_rational(self, n: int, d: int = 1) -> RingElement:
        """n/d as an element, for the rings with ``try_from_rational`` (Z, Z[1/f])."""
        x = self.try_from_rational(n, d)
        if x is None:
            raise ValueError(f"{brief(n)}/{brief(d)} does not lie in {brief(self)}")
        return x

    def try_halve(self, x: RingElement) -> RingElement | None:
        """The unique y with 2y = x, when it exists; requires 2 regular."""
        if not self.two_regular:
            raise NotTwoRegular(f"halving is not unique in {brief(self)}")
        return self._from_coords(self._halve_coords(self.coerce(x).coords))

    # -- R/2R, from the backend's _mod2_coords -------------------------------

    def mod2(self, x: RingElement) -> Mod2Element:
        """The class of x in R/2R: 0 when 2 is a unit, else the coordinates mod 2
        (then m is even in R/m, and f odd in Z[1/f], where num/f^k = num mod 2)."""
        return Mod2Element(self, self._mod2_coords(self.coerce(x).coords))

    def _residue_times(self, residue: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
        # well-defined: (x + 2y)*t = x*t + 2*y*t; the residue lifts to its 0/1
        # coordinates, then the identity's other entries (k = 0 in Z[1/f])
        return self._mod2_coords(self._mul_coords(t, residue + self.one_coords[self.rank:]))

    def mod2_residues(self) -> list[Mod2Element]:
        """Canonical representatives of R/2R: the distinct ``mod2`` classes of
        the 0/1 coordinate vectors, each with the identity's tail (k = 0 in
        Z[1/f]), in ``itertools.product`` order."""
        tail = self.one_coords[self.rank:]
        residues = dict.fromkeys(self._mod2_coords(v + tail)
                                 for v in itertools.product((0, 1), repeat=self.rank))
        return [Mod2Element(self, r) for r in residues]

    # -- global structure ------------------------------------------------------

    def is_finite(self) -> bool:
        return False

    def enumerate_elements(self) -> list[RingElement]:
        raise InfiniteRing(f"{brief(self)} is infinite")

    @property
    def units(self) -> list[RingElement] | None:
        """Every unit when there are finitely many; None otherwise."""
        return None

    @property
    def quadratic_param(self) -> int | None:
        """N when this ring is Z[sqrt(N)] on the basis (1, w); else None."""
        return None

    def sqrt(self, x: RingElement) -> RingElement | None:
        """The sign-normalized square root of x; None when x is not a square."""
        return self._from_coords(self._sqrt_coords(self.coerce(x).coords))

    def _sqrt_coords(self, t: tuple[int, ...]) -> tuple[int, ...] | None:
        raise UnsupportedRing(f"no square-root routine for {brief(self)}")

    # -- serialization ----------------------------------------------------------

    def descriptor(self) -> dict:
        raise NotImplementedError

    def element_to_json(self, x: RingElement):
        """x as JSON: its coordinate list here; Z and Z[1/f] override."""
        return list(x.coords)

    def element_from_json(self, data) -> RingElement:
        """Read an int, a coordinate list or {"coords": [...], "k": n}, with
        k at most EXPONENT_CAP and k * f.bit_length() at most POWER_BITS_CAP
        (ExponentTooLarge above): the one reader of this layout, which
        ``element`` does not take."""
        if isinstance(data, dict):
            _refuse_unknown_keys(data, ("coords", "k"), "a ring element object")
            if "coords" not in data:
                raise ValueError(f"a ring element object is missing 'coords', got {brief(data)}")
            k = json_int(data.get("k", 0), "'k'")
            if k > EXPONENT_CAP:
                raise ExponentTooLarge(f"'k' is {brief(k)}; input exponents are capped at "
                                       f"{EXPONENT_CAP}")
            if self.kind == "localization" and k * self.f.bit_length() > POWER_BITS_CAP:
                raise ExponentTooLarge(f"'k' is {k}, so f^k may have {k * self.f.bit_length()} bits;"
                                       f" input powers of f are capped at {POWER_BITS_CAP} bits")
            coords = _json_coords(data["coords"])
        elif isinstance(data, list):
            coords, k = _json_coords(data), 0
        else:
            return self.from_int(json_int(data, "a ring element coordinate"))
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates")
        if self.kind == "localization":
            return self.element(coords + (k,))
        if k:
            raise ValueError(f"{brief(self)} carries no denominator exponent")
        return self.element(coords)

    def format_element(self, x: RingElement) -> str:
        terms = []
        for c, sym in zip(x.coords, self.symbols):
            if c == 0:
                continue
            if sym == "1":
                terms.append(f"{c}")
            elif c == 1:
                terms.append(sym)
            elif c == -1:
                terms.append(f"-{sym}")
            else:
                terms.append(f"{c}{sym}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ring):
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self):
        return hash(self._key)

    @cached_property
    def _key(self) -> tuple:
        return _freeze(self.descriptor())

    def __repr__(self):
        return self.describe()

    def describe(self) -> str:
        raise NotImplementedError


def _freeze(obj):
    if isinstance(obj, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in obj.items()))
    if isinstance(obj, list):
        return tuple(_freeze(v) for v in obj)
    return obj


class TableRing(Ring):
    """The one lattice ring, presented as a table ring: a free Z-module of
    finite rank with a structure-constant multiplication, reduced mod m or
    free (m None); IntegerRing and QuotientRing are its other presentations.

    table[i][j] holds the coordinates of e_i * e_j, from which the kernels
    are compiled.  Built from a table, the ring checks commutativity,
    associativity and the identity exhaustively on basis triples.
    """

    kind = "table"

    def __init__(self, table, one=None, symbols=None):
        try:
            tbl = tuple(tuple(tuple(json_int(c, "a structure constant") for c in entry)
                              for entry in row) for row in table)
            one = None if one is None else tuple(json_int(c, "a structure constant") for c in one)
            symbols = tuple(symbols) if symbols else None
        except (TypeError, ValueError):
            raise ValueError("the tensor and the identity must be nested lists of "
                             "integers, the symbols a list") from None
        if symbols and not all(isinstance(sym, str) for sym in symbols):
            raise ValueError(f"the symbols must be a list of strings, got {brief(list(symbols))}")
        n = len(tbl)
        if n < 1:
            raise ValueError("rank must be at least 1")
        if n > TABLE_RANK_CAP:
            raise RingTooLarge(f"the table ring has rank {n}; table rings are capped at "
                               f"rank {TABLE_RANK_CAP}")
        if any(len(row) != n or any(len(entry) != n for entry in row) for row in tbl):
            raise ValueError("structure-constant tensor must be n x n x n")
        for i in range(n):
            for j in range(i + 1, n):
                if tbl[i][j] != tbl[j][i]:
                    raise NonCommutative(f"e{i}*e{j} != e{j}*e{i}")
        self._compile(tbl)
        self.one_coords = self._resolve_identity(one)
        if not symbols:
            # e_0 is called "1" only when it is the identity
            symbols = tuple(f"e{i}" for i in range(n))
            if self.one_coords == standard_basis(n)[0]:
                symbols = ("1",) + symbols[1:]
        self.symbols = symbols
        if len(self.symbols) != n:
            raise ValueError("need one symbol per basis element")
        self._check_associativity()

    def _compile(self, table, m: int | None = None):
        """Hold the table, m (None when free) and the table's eight kernels mod m."""
        self.rank, self.table, self.m = len(table), table, m
        self.two_regular = m is None or m % 2 == 1  # free, or 2 a unit mod an odd m
        (self._add_coords, self._neg_coords, self._sub_coords, self._scale_coords,
         self._mul_coords, self._rows, self._halve_coords,
         self._mod2_coords) = compile_kernels(table, m)
        # the rows m*e_k, which division mod m also meets (none when free)
        self._modulus_rows = [tuple(m * c for c in e) for e in standard_basis(self.rank) if m]

    def _resolve_identity(self, e: tuple[int, ...] | None) -> tuple[int, ...]:
        n = self.rank
        if e is None:
            # solve sum_i e_i (e_i * e_j) = e_j for all j over Z
            gens = [tuple(c for row in self.table[i] for c in row) for i in range(n)]
            target = tuple(int(j == kk) for j in range(n) for kk in range(n))
            sol = solve_int(gens, target)
            if sol is None:
                raise NoIdentity("structure constants admit no identity")
            e = tuple(sol)
        if len(e) != n:
            raise ValueError(f"identity needs {n} coordinates")
        for j, ej in enumerate(standard_basis(n)):
            if self._mul_coords(e, ej) != ej:
                raise NoIdentity(f"claimed identity fails on e{j}")
        return e

    def _check_associativity(self):
        n = self.rank
        basis = standard_basis(n)
        for i in range(n):
            for j in range(n):
                ij = self._mul_coords(basis[i], basis[j])
                for kk in range(n):
                    left = self._mul_coords(ij, basis[kk])
                    right = self._mul_coords(basis[i], self._mul_coords(basis[j], basis[kk]))
                    if left != right:
                        raise NonAssociative(f"(e{i}e{j})e{kk} != e{i}(e{j}e{kk})")

    def _ideal_rows(self, gens) -> list[tuple[int, ...]]:
        """The rows that span the ideal the tuples gens generate, as a lattice:
        the rows g*e_i of each g (``_rows``), then the modulus rows m*e_k
        (none when free)."""
        return [row for g in gens for row in self._rows(g)] + self._modulus_rows

    def _generates_unit_ideal(self, gens) -> bool:
        """Do the tuples gens generate the whole ring?  Exactly when the HNF of
        their ideal rows is the identity (Cohen, GTM 138, 2.4.2)."""
        return hnf(self._ideal_rows(gens)) == [list(e) for e in standard_basis(self.rank)]

    def _divide_coords(self, p, q):
        """y with q*y = p (mod m): the first rank entries of an integer combination
        of the rows q*e_i and m*e_k that meets p, read by ``_scale_coords``."""
        # solve_int's x meets the target exactly, so q*y = p needs no recheck
        sol = solve_int(self._rows(q) + self._modulus_rows, p)
        return None if sol is None else self._scale_coords(1, sol)

    try_divide = Ring.try_divide  # bound here too, where perfbench/spans.py traces it

    @cached_property
    def quadratic_param(self) -> int | None:
        """N when this ring is Z[sqrt(N)] on the basis (1, w), not a quotient; else None."""
        if self.m is not None or self.rank != 2 or self.one_coords != (1, 0):
            return None
        t = self.table
        if t[0][0] == (1, 0) and t[0][1] == (0, 1) and t[1][1][1] == 0:
            return t[1][1][0]
        return None

    @cached_property
    def units(self):
        """+-1 at rank 1, where an identity forces e0^2 = +-e0; in Z[sqrt(N)]
        with N < 0 or N = n^2 >= 1, +-1, and +-w when N = +-1; else None."""
        n = self.quadratic_param
        if self.rank == 1 or n is not None and (n < 0 or n > 0 and is_square(n)):
            units = [self.one, self.from_int(-1)]
            return units + [self.element((0, 1)), self.element((0, -1))] if n in (1, -1) else units
        return None

    def _sqrt_coords(self, t):
        """The root a + b*w of t0 + t1*w in Z[sqrt(N)] with a > 0, or a = 0 and b >= 0.

        A root has a^2 + N b^2 = t0 and 2ab = t1 for x = t0 + t1*w, and norm
        (a^2 - N b^2)^2 = t0^2 - N t1^2, so 2a^2 = t0 -+ sqrt(that norm) and
        b = t1 / 2a; when a = 0, t0 = N b^2.  Each candidate is checked by
        squaring it.  When N = n^2 gives two roots up to sign, one with a > 0
        comes first, the smaller a first."""
        n = self.quadratic_param
        if n is None:
            return super()._sqrt_coords(t)
        t0, t1 = t
        norm = t0 * t0 - n * t1 * t1
        if not is_square(norm):
            return None
        root = isqrt(norm)
        candidates = [(a, t1 // (2 * a)) for twice_a2 in (t0 - root, t0 + root)
                      if (a := isqrt(max(twice_a2, 0) // 2))]
        candidates.append((0, isqrt(max(t0 // n, 0)) if n else 0))
        for a, b in candidates:
            if a * a + n * b * b == t0 and 2 * a * b == t1:
                return a, b
        return None

    def descriptor(self):
        # symbols are presentation only and stay out of the identity
        return {"kind": "table", "rank": self.rank,
                "mul": [[list(self.table[i][j]) for j in range(self.rank)]
                        for i in range(self.rank)],
                "one": list(self.one_coords)}

    def describe(self):
        n = self.quadratic_param
        if n is not None:
            return f"Z[sqrt({n})]"
        return f"TableRing(rank={self.rank})"


class IntegerRing(TableRing):
    """The lattice ring of the 1 x 1 table, free, presented as the integers."""

    kind = "integers"
    symbols = ("1",)
    one_coords = (1,)

    def __init__(self):
        self._compile((((1,),),))

    def element_to_json(self, x):
        return x.coords[0]

    def try_from_rational(self, n: int, d: int = 1) -> RingElement | None:
        q, r = divmod(index(n), index(d))  # d = 0 raises ZeroDivisionError
        return None if r else self.from_int(q)

    def descriptor(self):
        return {"kind": "integers"}

    def describe(self):
        return "Z"


class QuotientRing(TableRing):
    """The lattice ring of the table of Z or of a table ring, reduced mod an
    integer m >= 2, presented as a quotient of that base; a finite ring."""

    kind = "quotient"

    def __init__(self, base: Ring, m: int):
        if not isinstance(base, TableRing) or base.m is not None:  # a quotient is a TableRing
            raise ValueError("quotient base must be Z or a table ring")
        m = index(m)
        if m < 2:
            raise ValueError("modulus must be at least 2")
        self.base = base
        self.symbols = base.symbols
        self.one_coords = base.one_coords
        self._compile(base.table, m)

    def is_finite(self):
        return True

    def enumerate_elements(self):
        return [RingElement(self, coords)
                for coords in itertools.product(range(self.m), repeat=self.rank)]

    @cached_property
    def units(self) -> list[RingElement]:
        """Every unit, in enumeration order: the tuples that generate the unit
        ideal on their own, with no table and no division, scanned up to
        UNIT_SCAN_CAP elements (RingTooLarge above)."""
        size = self.m ** self.rank
        if size > UNIT_SCAN_CAP:
            raise RingTooLarge(f"{brief(self)} has {brief(size)} elements; unit scans are "
                               f"capped at {UNIT_SCAN_CAP}")
        return [RingElement(self, t) for t in itertools.product(range(self.m), repeat=self.rank)
                if self._generates_unit_ideal([t])]

    @cached_property
    def tables(self) -> FiniteTables:
        return FiniteTables(self)

    def descriptor(self):
        return {"kind": "quotient", "base": self.base.descriptor(), "m": self.m}

    def describe(self):
        return f"{self.base.describe()}/{self.m}"


class FiniteTables:
    """A finite ring on indices into its list of coordinate tuples, holding
    what the v-lookup of ``algebras._search_homs`` reads.

    ``elements`` holds the tuples in ``enumerate_elements`` order, and
    ``index`` maps each tuple back to its position.  ``double`` is y -> index
    of 2y, built with the index from ``_scale_coords``.  ``solutions(r)``
    maps each pair (index of 2y, index of y*(y + r)) to the tuples y that give
    it, in element order; it is built on first use from the tuple kernels
    ``_mul_coords`` and ``_add_coords``, with no element, and kept under the
    tuple r, so a search pays n products for its map, never the n x n table,
    and finds the v of each unit in one lookup.
    """

    def __init__(self, ring: QuotientRing):
        size = ring.m ** ring.rank
        if size > FINITE_TABLE_CAP:
            raise RingTooLarge(f"{brief(ring)} has {brief(size)} elements; finite-ring tables "
                               f"are capped at {FINITE_TABLE_CAP}")
        self.ring = ring
        self.elements = list(itertools.product(range(ring.m), repeat=ring.rank))
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.double = [self.index[ring._scale_coords(2, y)] for y in self.elements]
        self.maps: dict[tuple[int, ...], dict[tuple[int, int], list[tuple[int, ...]]]] = {}

    def solutions(self, r: tuple[int, ...]) -> dict[tuple[int, int], list[tuple[int, ...]]]:
        """The tuples y, in element order, under (index of 2y, index of y*(y + r))."""
        found = self.maps.get(r)
        if found is None:
            add, mul, index = self.ring._add_coords, self.ring._mul_coords, self.index
            found = self.maps[r] = {}
            for y, twice in zip(self.elements, self.double):
                found.setdefault((twice, index[mul(y, add(y, r))]), []).append(y)
        return found


class LocalizationRing(Ring):
    """Z[1/f]: each element's coords, and each kernel's tuples, are the pairs (num, k)
    of num/f^k, f not dividing num unless k = 0."""

    kind = "localization"
    rank = 1
    two_regular = True
    symbols = ("1",)
    one_coords = (1, 0)

    def __init__(self, f: int):
        f = index(f)
        if f < 2:
            raise ValueError("inverted integer must be at least 2")
        self.f = f

    def element(self, coords) -> RingElement:
        coords = tuple(map(index, coords))
        if len(coords) != 2:
            raise ValueError(f"an element of {brief(self)} is the pair (num, k) of num/f^k, "
                             f"got {brief(coords)}")
        num, k = coords
        if k < 0:
            raise ValueError(f"the denominator exponent 'k' must be non-negative, got {brief(k)}")
        return RingElement(self, self._normal(num, k))

    def _normal(self, num: int, k: int) -> tuple[int, int]:
        f = self.f
        while k and num % f == 0:  # strip f^e, e the largest power of 2 <= k with f^e | num
            e, p = 1, f
            while 2 * e <= k and num % (p * p) == 0:
                e, p = 2 * e, p * p
            num, k = num // p, k - e
        return num, k

    def try_from_rational(self, n: int, d: int = 1) -> RingElement | None:
        n, d = index(n), index(d)
        if not d:
            raise ZeroDivisionError(f"{brief(n)}/0 is not a rational number")
        return self._from_coords(self._divide(n, d))

    def _divide(self, n: int, d: int, e: int = 0) -> tuple[int, int] | None:
        """The pair of n / (d * f^e) for d != 0, or None outside Z[1/f]; all division ends here."""
        if not in_localization((n, d), self.f):
            return None
        g = gcd(n, d)
        n, d = n // g, d // g
        j = abs(d).bit_length()  # d divides f^j: no prime exponent of d exceeds j
        return self._normal(n * self.f ** max(j, -e) // d, max(j + e, 0))

    def _sqrt_coords(self, t):
        """The non-negative rational root of t = num / f^k, or None when it has none.

        With k made even, t is a rational square exactly when num is a
        square, and its root isqrt(num) / f^(k/2) lies in Z[1/f]."""
        num, k = t
        if k % 2:
            num, k = num * self.f, k + 1
        return self._divide(isqrt(num), 1, k // 2) if is_square(num) else None

    def _add_coords(self, x, y):
        if x[1] < y[1]:
            x, y = y, x
        return self._normal(x[0] + y[0] * self.f ** (x[1] - y[1]), x[1])

    def _neg_coords(self, x):
        return -x[0], x[1]

    def _sub_coords(self, x, y):
        return self._add_coords(x, self._neg_coords(y))

    def _scale_coords(self, t, x):
        return self._normal(t * x[0], x[1])

    def _mul_coords(self, x, y):
        return self._normal(x[0] * y[0], x[1] + y[1])

    def _halve_coords(self, x):
        return self._divide(x[0], 2, x[1])

    def _mod2_coords(self, x):
        # 2 is a unit for an even f; for an odd f, num/f^k = num mod 2
        return (0,) if self.f % 2 == 0 else (x[0] & 1,)

    def _divide_coords(self, p, q):
        return self._divide(p[0], q[0], p[1] - q[1]) if q[0] else None

    def element_to_json(self, x):
        num, k = x.coords
        return {"coords": [num], "k": k}

    def format_element(self, x):
        num, k = x.coords
        return f"{num}/{self.f ** k}" if k else str(num)

    def descriptor(self):
        return {"kind": "localization", "f": self.f}

    def describe(self):
        return f"Z[1/{self.f}]"


def _field(descriptor: dict, key: str):
    if key not in descriptor:
        raise ValueError(f"{descriptor['kind']} ring descriptor is missing {key!r}")
    return descriptor[key]


def json_int(value, name: str) -> int:
    """An int read from JSON; booleans, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {brief(value)}")
    return value


def _json_coords(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValueError(f"ring element coordinates must be a list, got {brief(value)}")
    return tuple(json_int(c, "a ring element coordinate") for c in value)


def int_value(value, name: str) -> int:
    """An int given as a JSON int or an integer string; booleans, floats and
    other strings are refused."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{name} must be an integer, got {brief(value)}")


def _refuse_unknown_keys(obj: dict, keys: tuple[str, ...], what: str) -> None:
    """Raise ValueError naming the first key of the JSON object obj, called
    what, that is not among the keys its reader reads."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"{what} has an unknown key {brief(key)}")


def _int_field(descriptor: dict, key: str) -> int:
    return int_value(_field(descriptor, key), f"{descriptor['kind']} ring descriptor: {key!r}")


# the keys that construct_ring reads, by kind
_DESCRIPTOR_KEYS = {"integers": ("kind",), "table": ("kind", "mul", "one", "symbols", "rank"),
                    "quotient": ("kind", "base", "m"), "localization": ("kind", "f")}


def construct_ring(descriptor: dict) -> Ring:
    """Build a ring handle from its JSON descriptor, verifying the axioms; a
    key that the descriptor's kind does not read is refused."""
    if not isinstance(descriptor, dict):
        raise ValueError(f"ring descriptor must be a JSON object, got {brief(descriptor)}")
    kind = descriptor.get("kind")
    if not isinstance(kind, str) or kind not in _DESCRIPTOR_KEYS:
        raise ValueError(f"unknown ring kind {brief(kind)}")
    _refuse_unknown_keys(descriptor, _DESCRIPTOR_KEYS[kind], f"{kind} ring descriptor")
    if kind == "integers":
        return IntegerRing()
    if kind == "table":
        ring = TableRing(_field(descriptor, "mul"), one=descriptor.get("one"),
                         symbols=descriptor.get("symbols"))
        if "rank" in descriptor and _int_field(descriptor, "rank") != ring.rank:
            raise ValueError("descriptor rank disagrees with the tensor shape")
        return ring
    if kind == "quotient":
        return QuotientRing(construct_ring(_field(descriptor, "base")),
                            _int_field(descriptor, "m"))
    return LocalizationRing(_int_field(descriptor, "f"))


def quadratic_table_ring(n: int) -> TableRing:
    """Z[sqrt(N)] on the basis (1, w) with w^2 = N."""
    table = [[(1, 0), (0, 1)], [(0, 1), (n, 0)]]
    return TableRing(table, one=(1, 0), symbols=("1", "w"))
