"""Exact arithmetic over the supported base rings.

Four kinds of ring are available: the integers, integer table rings (free
Z-modules with a structure-constant multiplication), finite quotients of
those, and localizations Z[1/f].  All elements are kept in canonical form
so that equality doubles as the test oracle.

Every integer-lattice question (identity and quotients in table and quotient
rings, unit index in primitivity tests, HNF ideals of quadratic orders) goes
through one routine: the Hermite normal form kernel ``hnf`` and the integer
solver ``solve_int`` built on it.

A finite ring (a quotient ring) has one unit list, ``QuotientRing.units``,
found by HNF division and not capped, and ``FiniteTables``: its elements with
multiplication as a table of indices, so that exhaustive searches run on plain
ints, capped at ``FINITE_TABLE_CAP`` elements (RingTooLarge above).  Both are
built on first use.  A unit test is a division: ``Orientation`` and
``GL2Matrix`` keep the inverse theirs returns (``u_inv``, ``det_inv``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt

from .errors import (
    InfiniteRing,
    NoIdentity,
    NonAssociative,
    NonCommutative,
    RingMismatch,
    RingTooLarge,
    NotTwoRegular,
    UnitSearchCapExceeded,
    UnsupportedRing,
)

PELL_CAP = 10**6
FINITE_TABLE_CAP = 512


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


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
    """Does n divide some power of f >= 1?  So n/d lies in Z[1/f] exactly when
    d does, and is a unit there when n and d both do (Z[1/1] is Z)."""
    n = abs(n)
    while n > 1 and (g := gcd(n, f)) > 1:
        n //= g
    return n == 1


def standard_basis(n: int) -> list[tuple[int, ...]]:
    """Coordinates of e_0, ..., e_{n-1}."""
    return [tuple(int(t == i) for t in range(n)) for i in range(n)]


def _pell_fundamental(n: int) -> tuple[int, int]:
    """Smallest (x, y), y >= 1, with x^2 - n*y^2 = +-1, by continued fractions."""
    a0 = isqrt(n)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    for _ in range(PELL_CAP):
        if h * h - n * k * k in (1, -1):
            return h, k
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    raise UnitSearchCapExceeded(f"no fundamental unit within {PELL_CAP} steps for N={n}")


class RingElement:
    """An element of a Ring, always held in canonical form."""

    __slots__ = ("ring", "coords", "k")

    def __init__(self, ring: Ring, coords: tuple[int, ...], k: int = 0):
        self.ring = ring
        self.coords = coords
        self.k = k

    def __add__(self, other):
        return self.ring._add(self, self.ring.coerce(other))

    __radd__ = __add__

    def __neg__(self):
        return self.ring._neg(self)

    def __sub__(self, other):
        return self + (-self.ring.coerce(other))

    def __rsub__(self, other):
        return self.ring.coerce(other) - self

    def __mul__(self, other):
        return self.ring._mul(self, self.ring.coerce(other))

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
        return (self.ring == other.ring and self.coords == other.coords
                and self.k == other.k)

    def __hash__(self):
        return hash((self.ring, self.coords, self.k))

    def __int__(self) -> int:
        if self.k:
            raise ValueError(f"{self!r} is not a rational integer")
        if any(self.coords[1:]):
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coords[0]

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __repr__(self):
        return self.ring.format_element(self)


class Mod2Element:
    """Residue class of a ring element modulo 2R, in canonical coordinates."""

    __slots__ = ("ring", "residue")

    def __init__(self, ring: Ring, residue: tuple[int, ...]):
        self.ring = ring
        self.residue = residue

    def lift(self) -> RingElement:
        return self.ring.element(self.residue)

    def times(self, e: RingElement) -> Mod2Element:
        # well-defined: e*(x + 2t) = e*x + 2*e*t
        return self.ring.mod2(e * self.lift())

    def is_zero(self) -> bool:
        return not any(self.residue)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mod2Element):
            return NotImplemented
        return self.ring == other.ring and self.residue == other.residue

    def __hash__(self):
        return hash(("mod2", self.ring, self.residue))

    def __repr__(self):
        return f"({self.ring.format_element(self.lift())} mod 2)"


class Ring:
    """Common interface of the four ring backends.

    Rings are immutable once built, so equality and hashing use a frozen
    copy of the descriptor, taken once on first use.
    """

    kind = "abstract"
    rank: int
    two_regular: bool
    symbols: tuple[str, ...]

    # -- element plumbing ----------------------------------------------------

    def element(self, coords, k: int = 0) -> RingElement:
        raise NotImplementedError

    def from_int(self, n: int) -> RingElement:
        coords = (n,) + (0,) * (self.rank - 1)
        return self.element(coords)

    @property
    def zero(self) -> RingElement:
        return self.from_int(0)

    @property
    def one(self) -> RingElement:
        return self.from_int(1)

    def coerce(self, x) -> RingElement:
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, RingElement):
            if x.ring != self:
                raise RingMismatch(f"element of {x.ring!r} used in {self!r}")
            return x
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    # -- arithmetic kernels (canonical in, canonical out) ---------------------

    def _add(self, x: RingElement, y: RingElement) -> RingElement:
        raise NotImplementedError

    def _neg(self, x: RingElement) -> RingElement:
        raise NotImplementedError

    def _mul(self, x: RingElement, y: RingElement) -> RingElement:
        raise NotImplementedError

    # -- unit and divisibility structure --------------------------------------

    def try_inverse(self, x: RingElement) -> RingElement | None:
        return self.try_divide(self.one, self.coerce(x))

    def is_unit(self, x: RingElement) -> bool:
        return self.try_inverse(self.coerce(x)) is not None

    def try_divide(self, p: RingElement, q: RingElement) -> RingElement | None:
        """Some y with q*y = p; None only when no such y exists."""
        raise NotImplementedError

    def try_halve(self, x: RingElement) -> RingElement | None:
        """The unique y with 2y = x, when it exists; requires 2 regular."""
        if not self.two_regular:
            raise NotTwoRegular(f"halving is not unique in {self!r}")
        return self._try_halve(x)

    def _try_halve(self, x: RingElement) -> RingElement | None:
        raise NotImplementedError

    def mod2(self, x: RingElement) -> Mod2Element:
        raise NotImplementedError

    def mod2_residues(self) -> list[Mod2Element]:
        """Canonical representatives of R/2R (finite for every supported kind)."""
        raise NotImplementedError

    def in_4R(self, x: RingElement) -> bool:
        raise NotImplementedError

    # -- global structure ------------------------------------------------------

    def is_finite(self) -> bool:
        return False

    def enumerate_elements(self) -> list[RingElement]:
        raise InfiniteRing(f"{self!r} is infinite")

    def unit_group_generators(self) -> list[RingElement]:
        raise UnsupportedRing(f"no unit-group algorithm for {self!r}")

    # -- serialization ----------------------------------------------------------

    def descriptor(self) -> dict:
        raise NotImplementedError

    def element_to_json(self, x: RingElement):
        if self.kind == "localization":
            return {"coords": list(x.coords), "k": x.k}
        return list(x.coords)

    def element_from_json(self, data) -> RingElement:
        """Read an int, a coordinate list or {"coords": [...], "k": n}."""
        if isinstance(data, dict):
            if "coords" not in data:
                raise ValueError(f"a ring element object is missing 'coords', got {data!r}")
            return self.element(_json_coords(data["coords"]), json_int(data.get("k", 0), "'k'"))
        if isinstance(data, list):
            return self.element(_json_coords(data))
        return self.from_int(json_int(data, "a ring element coordinate"))

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


class IntegerRing(Ring):
    """The rational integers."""

    kind = "integers"
    rank = 1
    two_regular = True
    symbols = ("1",)

    def element(self, coords, k: int = 0) -> RingElement:
        if k:
            raise ValueError("integers carry no denominator exponent")
        (n,) = coords
        return RingElement(self, (int(n),))

    def _add(self, x, y):
        return RingElement(self, (x.coords[0] + y.coords[0],))

    def _neg(self, x):
        return RingElement(self, (-x.coords[0],))

    def _mul(self, x, y):
        return RingElement(self, (x.coords[0] * y.coords[0],))

    def try_inverse(self, x):
        x = self.coerce(x)
        return x if x.coords[0] in (1, -1) else None

    def try_divide(self, p, q):
        a, b = p.coords[0], q.coords[0]
        if b == 0 or a % b:
            return None
        return self.from_int(a // b)

    def _try_halve(self, x):
        n = x.coords[0]
        return self.from_int(n // 2) if n % 2 == 0 else None

    def mod2(self, x):
        return Mod2Element(self, (x.coords[0] % 2,))

    def mod2_residues(self):
        return [Mod2Element(self, (0,)), Mod2Element(self, (1,))]

    def in_4R(self, x):
        return x.coords[0] % 4 == 0

    def unit_group_generators(self):
        return [self.from_int(-1)]

    def rational_value(self, x: RingElement) -> Fraction:
        return Fraction(x.coords[0])

    def try_from_rational(self, q) -> RingElement | None:
        q = Fraction(q)
        return self.from_int(q.numerator) if q.denominator == 1 else None

    def from_rational(self, q) -> RingElement:
        x = self.try_from_rational(q)
        if x is None:
            raise ValueError(f"{q} is not an integer")
        return x

    def descriptor(self):
        return {"kind": "integers"}

    def describe(self):
        return "Z"


class TableRing(Ring):
    """Free Z-module of finite rank with a structure-constant multiplication.

    table[i][j] holds the coordinates of e_i * e_j.  Commutativity,
    associativity and the identity are checked exhaustively on basis
    triples at construction.
    """

    kind = "table"
    two_regular = True  # free Z-module: 2x = 0 forces x = 0

    def __init__(self, table, one=None, symbols=None):
        try:
            tbl = tuple(tuple(tuple(int(c) for c in entry) for entry in row)
                        for row in table)
            one = None if one is None else tuple(int(c) for c in one)
            symbols = tuple(symbols) if symbols else None
        except TypeError:
            raise ValueError("the tensor and the identity must be nested lists of "
                             "integers, the symbols a list") from None
        n = len(tbl)
        if n < 1:
            raise ValueError("rank must be at least 1")
        if any(len(row) != n or any(len(entry) != n for entry in row) for row in tbl):
            raise ValueError("structure-constant tensor must be n x n x n")
        self.rank = n
        self.table = tbl
        for i in range(n):
            for j in range(i + 1, n):
                if tbl[i][j] != tbl[j][i]:
                    raise NonCommutative(f"e{i}*e{j} != e{j}*e{i}")
        self.one_coords = self._resolve_identity(one)
        self.symbols = symbols or ("1",) + tuple(f"e{i}" for i in range(1, n))
        if len(self.symbols) != n:
            raise ValueError("need one symbol per basis element")
        self._check_associativity()

    def _mul_coords(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        n = self.rank
        out = [0] * n
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                t = self.table[i][j]
                f = xi * yj
                for kk in range(n):
                    out[kk] += f * t[kk]
        return tuple(out)

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

    def element(self, coords, k: int = 0) -> RingElement:
        if k:
            raise ValueError("table rings carry no denominator exponent")
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates")
        return RingElement(self, coords)

    def from_int(self, n: int) -> RingElement:
        return RingElement(self, tuple(n * c for c in self.one_coords))

    def _add(self, x, y):
        return RingElement(self, tuple(a + b for a, b in zip(x.coords, y.coords)))

    def _neg(self, x):
        return RingElement(self, tuple(-a for a in x.coords))

    def _mul(self, x, y):
        return RingElement(self, self._mul_coords(x.coords, y.coords))

    def try_divide(self, p, q):
        # q*y = sum_i y_i (q*e_i)
        gens = [self._mul_coords(q.coords, e) for e in standard_basis(self.rank)]
        # solve_int's x meets the target exactly, so q*y = p needs no recheck
        sol = solve_int(gens, p.coords)
        return None if sol is None else self.element(sol)

    def _try_halve(self, x):
        if any(c % 2 for c in x.coords):
            return None
        return self.element(tuple(c // 2 for c in x.coords))

    def mod2(self, x):
        return Mod2Element(self, tuple(c % 2 for c in x.coords))

    def mod2_residues(self):
        return [Mod2Element(self, r)
                for r in itertools.product((0, 1), repeat=self.rank)]

    def in_4R(self, x):
        return all(c % 4 == 0 for c in x.coords)

    @property
    def quadratic_param(self) -> int | None:
        """N when this ring is Z[sqrt(N)] on the basis (1, w); else None."""
        if self.rank != 2 or self.one_coords != (1, 0):
            return None
        t = self.table
        if t[0][0] == (1, 0) and t[0][1] == (0, 1) and t[1][1][1] == 0:
            return t[1][1][0]
        return None

    def unit_group_generators(self):
        n = self.quadratic_param
        if n is None or n == 0 or is_square(n):
            raise UnsupportedRing(f"no unit-group algorithm for {self!r}")
        if n < 0:
            gens = [self.from_int(-1)]
            if n == -1:
                gens += [self.element((0, 1)), self.element((0, -1))]
            return gens
        x, y = _pell_fundamental(n)
        return [self.from_int(-1), self.element((x, y))]

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


class QuotientRing(Ring):
    """Quotient of the integers or a table ring by an integer m >= 2."""

    kind = "quotient"

    def __init__(self, base: Ring, m: int):
        if not isinstance(base, (IntegerRing, TableRing)):
            raise ValueError("quotient base must be Z or a table ring")
        if m < 2:
            raise ValueError("modulus must be at least 2")
        self.base = base
        self.m = m
        self.rank = base.rank
        self.two_regular = m % 2 == 1  # then 2 is a unit mod m
        self.symbols = base.symbols

    def element(self, coords, k: int = 0) -> RingElement:
        if k:
            raise ValueError("quotient rings carry no denominator exponent")
        coords = tuple(int(c) % self.m for c in coords)
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates")
        return RingElement(self, coords)

    # coords are canonical, so sums and negatives need only the reduction
    def _add(self, x, y):
        m = self.m
        return RingElement(self, tuple((a + b) % m for a, b in zip(x.coords, y.coords)))

    def _neg(self, x):
        m = self.m
        return RingElement(self, tuple(-a % m for a in x.coords))

    def _mul(self, x, y):
        if isinstance(self.base, TableRing):
            return self.element(self.base._mul_coords(x.coords, y.coords))
        return self.element((x.coords[0] * y.coords[0],))

    def try_divide(self, p, q):
        # q*y = p mod m: solve over the lattice spanned by q*e_i and m*e_k
        basis = standard_basis(self.rank)
        gens = [self._mul(q, RingElement(self, e)).coords for e in basis]
        gens += [tuple(self.m * c for c in e) for e in basis]
        sol = solve_int(gens, p.coords)
        return None if sol is None else self.element(sol[:self.rank])

    def _try_halve(self, x):
        # m odd, so 2 is a unit
        two_inv = self.try_inverse(self.from_int(2))
        return self._mul(x, two_inv)

    def mod2(self, x):
        if self.m % 2 == 0:
            return Mod2Element(self, tuple(c % 2 for c in x.coords))
        return Mod2Element(self, (0,) * self.rank)

    def mod2_residues(self):
        if self.m % 2 == 1:
            return [Mod2Element(self, (0,) * self.rank)]
        return [Mod2Element(self, r)
                for r in itertools.product((0, 1), repeat=self.rank)]

    def in_4R(self, x):
        g = gcd(4, self.m)
        return all(c % g == 0 for c in x.coords)

    def is_finite(self):
        return True

    def enumerate_elements(self):
        return [RingElement(self, coords)
                for coords in itertools.product(range(self.m), repeat=self.rank)]

    @cached_property
    def units(self) -> list[RingElement]:
        """Every unit, in enumeration order, by HNF division (so not capped)."""
        return [u for u in self.enumerate_elements() if self.is_unit(u)]

    @cached_property
    def tables(self) -> FiniteTables:
        return FiniteTables(self)

    def unit_group_generators(self):
        return [u for u in self.units if u != self.one]

    def descriptor(self):
        return {"kind": "quotient", "base": self.base.descriptor(), "m": self.m}

    def describe(self):
        return f"{self.base.describe()}/{self.m}"


class FiniteTables:
    """A finite ring on indices into its element list.

    ``elements`` is in ``enumerate_elements`` order and ``index`` maps
    coordinates back to positions.  ``mul[i][j]`` is the index of the
    product, filled from the ring's own kernel; ``units`` holds the indices
    of ``QuotientRing.units``.
    """

    __slots__ = ("elements", "index", "mul", "units")

    def __init__(self, ring: QuotientRing):
        size = ring.m ** ring.rank
        if size > FINITE_TABLE_CAP:
            raise RingTooLarge(f"{ring!r} has {size} elements; finite-ring tables "
                               f"are capped at {FINITE_TABLE_CAP}")
        elements = ring.enumerate_elements()
        index = {x.coords: i for i, x in enumerate(elements)}
        n = len(elements)
        mul = [[0] * n for _ in range(n)]
        # the rings are commutative, so each unordered pair is computed once
        for i, x in enumerate(elements):
            for j in range(i, n):
                mul[i][j] = mul[j][i] = index[ring._mul(x, elements[j]).coords]
        self.elements = elements
        self.index = index
        self.mul = mul
        self.units = [index[u.coords] for u in ring.units]


class LocalizationRing(Ring):
    """Z[1/f]: values num/f^k with f not dividing num unless k = 0."""

    kind = "localization"
    rank = 1
    two_regular = True
    symbols = ("1",)

    def __init__(self, f: int):
        if f < 2:
            raise ValueError("inverted integer must be at least 2")
        self.f = f

    def element(self, coords, k: int = 0) -> RingElement:
        (num,) = coords
        num = int(num)
        if k < 0:
            raise ValueError(f"the denominator exponent 'k' must be non-negative, got {k}")
        if num == 0:
            k = 0
        while k > 0 and num % self.f == 0:
            num //= self.f
            k -= 1
        return RingElement(self, (num,), k)

    def rational_value(self, x: RingElement) -> Fraction:
        return Fraction(x.coords[0], self.f ** x.k)

    def try_from_rational(self, q) -> RingElement | None:
        q = Fraction(q)
        if not divides_power(q.denominator, self.f):
            return None
        j, pw = 0, 1
        while pw % q.denominator:
            j += 1
            pw *= self.f
        return self.element((q.numerator * (pw // q.denominator),), j)

    def from_rational(self, q) -> RingElement:
        x = self.try_from_rational(q)
        if x is None:
            raise ValueError(f"{q} does not lie in {self!r}")
        return x

    def _add(self, x, y):
        return self.from_rational(self.rational_value(x) + self.rational_value(y))

    def _neg(self, x):
        return RingElement(self, (-x.coords[0],), x.k)

    def _mul(self, x, y):
        return self.element((x.coords[0] * y.coords[0],), x.k + y.k)

    def try_inverse(self, x):
        x = self.coerce(x)
        if not divides_power(x.coords[0], self.f):
            return None  # zero, or the numerator has a prime away from f
        return self.from_rational(Fraction(1) / self.rational_value(x))

    def try_divide(self, p, q):
        if q.is_zero():
            return None
        return self.try_from_rational(self.rational_value(p) / self.rational_value(q))

    def _try_halve(self, x):
        return self.try_from_rational(self.rational_value(x) / 2)

    def mod2(self, x):
        if self.f % 2 == 0:
            return Mod2Element(self, (0,))
        return Mod2Element(self, (x.coords[0] % 2,))

    def mod2_residues(self):
        if self.f % 2 == 0:
            return [Mod2Element(self, (0,))]
        return [Mod2Element(self, (0,)), Mod2Element(self, (1,))]

    def in_4R(self, x):
        return self.try_from_rational(self.rational_value(x) / 4) is not None

    def format_element(self, x):
        if x.k == 0:
            return str(x.coords[0])
        return f"{x.coords[0]}/{self.f ** x.k}"

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
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _json_coords(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValueError(f"ring element coordinates must be a list, got {value!r}")
    return tuple(json_int(c, "a ring element coordinate") for c in value)


def int_value(value, name: str) -> int:
    """An int given as a JSON int or an integer string; booleans, floats and
    other strings are refused."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _int_field(descriptor: dict, key: str) -> int:
    return int_value(_field(descriptor, key), f"{descriptor['kind']} ring descriptor: {key!r}")


def construct_ring(descriptor: dict) -> Ring:
    """Build a ring handle from its JSON descriptor, verifying the axioms."""
    if not isinstance(descriptor, dict):
        raise ValueError(f"ring descriptor must be a JSON object, got {descriptor!r}")
    kind = descriptor.get("kind")
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
    if kind == "localization":
        return LocalizationRing(_int_field(descriptor, "f"))
    raise ValueError(f"unknown ring kind {kind!r}")


def quadratic_table_ring(n: int, symbol: str = "w") -> TableRing:
    """Z[sqrt(N)] on the basis (1, w) with w^2 = N."""
    table = [[(1, 0), (0, 1)], [(0, 1), (n, 0)]]
    return TableRing(table, one=(1, 0), symbols=("1", symbol))
