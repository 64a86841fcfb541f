"""Cech-style glueing of quadratic-algebra charts over finite principal
covers of Spec Z.

A cover D(f_1), ..., D(f_k) carries per-chart discriminants and parity lifts
(d_i, p_i) and a unit cocycle eps_ij.  ``verification_report``, the one
verification pass, is a generator of (check, indices, ok) rows, each computed
when it is read; ``build_glued`` stops at its first failing row and builds
charts only from data that passes it.  The rows, with 0-based index tuples:

- ``cover``: gcd(f_1, ..., f_k) = 1;
- ``cocycle_unit`` (eps_ij is a unit of Z[1/(f_i f_j)]) for each i < j, then
  ``cocycle_triple`` (eps_it = eps_ij * eps_jt) for each i < j < t;
- ``data_shape``, only when there is not one (d, p) pair per open; the report
  ends there;
- per chart, ``chart_membership`` (d_i, p_i in Z[1/f_i]) and, when it holds,
  ``chart_validity`` (d_i - p_i^2 in 4*Z[1/f_i]);
- per i < j, ``overlap_discriminant`` (d_i = eps_ij^2 * d_j) and
  ``overlap_parity`` ((p_i - eps_ij * p_j)/2 in Z[1/(f_i f_j)]).

Only when all of these have passed do ``transition_hom`` for each ordered pair
i != j and ``cocycle_transitions`` for each i < j < t follow; the other
orders of a triple follow from these, as t_ji = -t_ij / eps_ij.

Every check runs on plain ints.  ``_as_pair`` parses each rational of the
input once into an (n, d) pair of ints, d > 0 and not necessarily in lowest
terms, which the cocycle, the type data, the report and the glued algebra
keep; no ``fractions`` rational is built.  Strings follow one grammar on every
interpreter: Python 3.13's ``fractions`` grammar without the exponent.  Each
check is one integer expression with the denominators cleared (an identity
times the product of its positive denominators) or a membership, tested by
``ring.in_localization``, the one test of "n/d lies in Z[1/f]".  The report
runs the identities of the last two checks, ``_transition_ok`` and
``_triple_ok``, alone, since the rows before imply their memberships;
``check_transition_hom`` and ``check_cocycle_transitions`` test those first.
"""

from __future__ import annotations

import re
from itertools import combinations, permutations
from math import gcd
from operator import index

from .algebras import FreeQuadraticAlgebra
from .errors import ValidationFailed, brief
from .ring import IntegerRing, LocalizationRing, Ring, divides_power, in_localization

# Python 3.13's fractions._RATIONAL_FORMAT without its exponent group (\d and
# \s match Unicode digits and spaces, as int() reads them)
_RATIONAL = re.compile(r"""
    \s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)
    (?:\s*/\s*(?P<denom>\d+(_\d+)*)|(?:\.(?P<decimal>\d*|\d+(_\d+)*))?)\s*\Z
""", re.VERBOSE).match


def _as_pair(x, name: str) -> tuple[int, int]:
    """(n, d), d > 0, from a string of the grammar above ("1.50" gives
    (150, 100)), an int, an (n, d) pair with d != 0, or an object with int
    ``numerator`` and ``denominator``; booleans, floats and exponent strings
    (an exponent of 20000000 would build 10**20000000) are refused, with
    ``name`` naming the field in the error."""
    kind, pair = type(x), x
    if kind is int:
        return x, 1
    if kind is str:
        m, pair = _RATIONAL(x), None
        if m:
            sign, num, denom, decimal = m.group("sign", "num", "denom", "decimal")
            try:  # int() refuses a string past the int-to-string digit limit
                if decimal:
                    decimal = decimal.replace("_", "")
                    denom = 10 ** len(decimal)
                    n = int(num or "0") * denom + int(decimal)
                else:
                    n, denom = int(num or "0"), int(denom or "1")
                pair = (-n if sign == "-" else n), denom
            except ValueError:
                pass
    elif kind is not tuple and kind is not bool:
        pair = getattr(x, "numerator", None), getattr(x, "denominator", None)
    if type(pair) is tuple and len(pair) == 2 and type(pair[0]) is int and type(pair[1]) is int:
        n, d = pair
        if d:
            return pair if d > 0 else (-n, -d)
        raise ValueError(f"{name} has a zero denominator: {brief(x)}")
    raise ValueError(f"{name} must be a rational number, got {brief(x)}")


class PrincipalCover:
    """Opens D(f_1), ..., D(f_k) of Spec Z with section rings Z[1/f_i]."""

    __slots__ = ("opens",)

    def __init__(self, opens):
        self.opens = tuple(map(index, opens))  # exact ints: a float raises TypeError
        if not self.opens or any(f < 1 for f in self.opens):
            raise ValueError("cover needs positive integers")

    @property
    def size(self) -> int:
        return len(self.opens)

    def chart_ring(self, i: int) -> Ring:
        f = self.opens[i]
        return IntegerRing() if f == 1 else LocalizationRing(f)  # Z[1/1] is Z

    def covers(self) -> bool:
        return gcd(*self.opens) == 1

    def __repr__(self):
        return f"PrincipalCover({list(self.opens)})"


class LineBundleCocycle:
    """Units eps_ij of the overlap rings, stored for i < j as (n, d) pairs.

    Conventions eps_ii = 1 and eps_ji = 1/eps_ij are built in.
    """

    __slots__ = ("cover", "_eps")

    def __init__(self, cover: PrincipalCover, eps: dict):
        self.cover, self._eps, k = cover, {}, cover.size
        for (i, j), value in eps.items():
            if not 0 <= i < j < k:
                raise ValueError(f"cocycle index ({i},{j}) out of range")
            self._eps[(i, j)] = _as_pair(value, f"cocycle entry ({i},{j})")
        for i, j in combinations(range(k), 2):
            if (i, j) not in self._eps:  # named as the 1-based key of glue-check
                raise ValueError(f"missing cocycle entry '{i + 1},{j + 1}'")

    def eps(self, i: int, j: int) -> tuple[int, int]:
        if i == j:
            return 1, 1
        return self._eps[(i, j)] if i < j else _inv(self._eps[(j, i)])


class GluedTypeData:
    """Per-chart discriminants d_i and parity lifts p_i as (n, d) pairs."""

    __slots__ = ("d", "p")

    def __init__(self, d, p):
        self.d = tuple(_as_pair(x, "a 'd' entry") for x in d)
        self.p = tuple(_as_pair(x, "a 'p' entry") for x in p)
        if len(self.d) != len(self.p):
            raise ValueError("need one (d, p) pair per chart")


class GluedAlgebra:
    """Charts omega_i^2 + p_i*omega_i - (d_i - p_i^2)/4 = 0 with transitions
    omega_i -> scale_ij * omega_j + shift_ij over the overlaps."""

    __slots__ = ("cover", "charts", "ptilde", "disc", "transitions")

    def __init__(self, cover: PrincipalCover, charts: list[FreeQuadraticAlgebra],
                 ptilde: tuple, disc: tuple, transitions: dict):
        self.cover, self.charts, self.ptilde, self.disc = cover, charts, ptilde, disc
        self.transitions = transitions  # (i, j) -> (scale, shift)


# Rationals are int pairs (n, d), d > 0 (see the module docstring).

def _inv(x):
    """1/x; ZeroDivisionError for x = 0."""
    n, d = x
    if not n:
        raise ZeroDivisionError(f"{n}/{d} has no inverse")
    return (d, n) if n > 0 else (-d, -n)


def _is_unit(x, f: int) -> bool:
    """Is x a unit of Z[1/f]?  Zero is not; n/d in lowest terms is one when
    n*d divides a power of f."""
    n, d = x
    g = gcd(n, d)
    return divides_power(n // g * (d // g), f)


def _transitions(cocycle: LineBundleCocycle, p: list) -> dict:
    """(i, j) -> (eps_ij, (eps_ij*p_j - p_i)/2) for every ordered pair i != j,
    from the cocycle's eps_ij and p_i."""
    transitions = {}
    for i, j in permutations(range(len(p)), 2):
        en, ed = e = cocycle.eps(i, j)
        (a, b), (x, y) = p[i], p[j]
        transitions[(i, j)] = (e, (en * x * b - a * ed * y, 2 * ed * y * b))
    return transitions


def verification_report(cover: PrincipalCover, cocycle: LineBundleCocycle,
                        data: GluedTypeData):
    """Every check of the glue data as a (check, indices, ok) row, in the order
    of the module docstring, each row computed when it is read."""
    f, k, eps, d, p = cover.opens, cover.size, cocycle._eps, data.d, data.p

    def data_rows():
        yield "cover", (), cover.covers()
        for i, j in combinations(range(k), 2):
            yield "cocycle_unit", (i, j), _is_unit(eps[(i, j)], f[i] * f[j])
        for i, j, t in combinations(range(k), 3):
            (a, b), (c, g), (x, y) = eps[(i, j)], eps[(j, t)], eps[(i, t)]
            yield "cocycle_triple", (i, j, t), x * b * g == a * c * y
        if len(d) != k:
            yield "data_shape", (), False
            return
        for i in range(k):
            (c, g), (a, b) = d[i], p[i]
            member = in_localization(d[i], f[i]) and in_localization(p[i], f[i])
            yield "chart_membership", (i,), member
            if member:  # (c/g - a^2/b^2) / 4
                yield "chart_validity", (i,), \
                    in_localization((c * b * b - a * a * g, 4 * g * b * b), f[i])
        for i, j in combinations(range(k), 2):
            (en, ed), (c, g), (z, h), (a, b), (x, y) = eps[(i, j)], d[i], d[j], p[i], p[j]
            yield "overlap_discriminant", (i, j), c * h * ed * ed == z * en * en * g
            yield "overlap_parity", (i, j), \
                in_localization((a * y * ed - x * en * b, 2 * b * y * ed),  # (a/b - x/y*e)/2
                                f[i] * f[j])

    passed = True
    for row in data_rows():
        passed = passed and row[2]
        yield row
    if not passed:
        return
    # every e_ij and t_ij lies in its overlap ring once these rows have passed:
    # e_ij is a unit there, and t_ij is -(p_i - e_ij*p_j)/2 (overlap_parity),
    # times the unit e_ij when i > j; so only the identities are left
    tr = _transitions(cocycle, p)
    for i, j in permutations(range(k), 2):
        yield "transition_hom", (i, j), _transition_ok(p[i], d[i], p[j], d[j], *tr[(i, j)])
    for i, j, t in combinations(range(k), 3):
        yield "cocycle_transitions", (i, j, t), _triple_ok(tr[(i, j)], tr[(j, t)], tr[(i, t)])


def build_glued(cover: PrincipalCover, cocycle: LineBundleCocycle,
                data: GluedTypeData) -> GluedAlgebra:
    """Assemble charts and transition maps; raises ValidationFailed at the
    first failing row of the verification report."""
    for check, indices, ok in verification_report(cover, cocycle, data):
        if not ok:
            raise ValidationFailed(f"{check} failed at {list(indices)}")
    charts = []
    for i, ((c, g), (a, b)) in enumerate(zip(data.d, data.p)):
        ring = cover.chart_ring(i)  # s = -(d - p^2)/4 with d = c/g and p = a/b
        charts.append(FreeQuadraticAlgebra(ring, ring.from_rational(a, b),
                                           ring.from_rational(a * a * g - c * b * b, 4 * g * b * b)))
    return GluedAlgebra(cover, charts, data.p, data.d, _transitions(cocycle, data.p))


def check_transition_hom(glued: GluedAlgebra, i: int, j: int) -> bool:
    """Does the image of omega_i satisfy chart i's equation inside chart j,
    over the overlap ring?"""
    f, p, d = glued.cover.opens, glued.ptilde, glued.disc
    e, t = glued.transitions[(i, j)]
    return in_localization(e, f[i] * f[j]) and in_localization(t, f[i] * f[j]) \
        and _transition_ok(p[i], d[i], p[j], d[j], e, t)


def check_cocycle_transitions(glued: GluedAlgebra, i: int, j: int, k: int) -> bool:
    """psi_ik = psi_jk o psi_ij on the triple overlap."""
    if len({i, j, k}) < 3:
        return True  # repeated indices are trivial by the eps conventions
    f, tr = glued.cover.opens, glued.transitions
    ij, jk, ik = tr[(i, j)], tr[(j, k)], tr[(i, k)]
    return all(in_localization(x, f[i] * f[j] * f[k]) for x in (*ij, *jk, *ik)) \
        and _triple_ok(ij, jk, ik)


def _transition_ok(p_i, d_i, p_j, d_j, e, t) -> bool:
    """The identity of ``check_transition_hom`` on int pairs; the caller
    tests that e and t lie in the overlap ring."""
    (a, b), (c, g), (x, y), (z, h), (en, ed), (tn, td) = p_i, d_i, p_j, d_j, e, t
    # (e*w + t)^2 + p_i*(e*w + t) + s_i with w^2 = -p_j*w - s_j, s = (p^2 - d)/4,
    # is lin*w + const; p_i = a/b, d_i = c/g, p_j = x/y and d_j = z/h, and both
    # vanish times their denominators, ed^2*y*td*b and 4*ed^2*y^2*h*td^2*b^2*g
    lin = en * (ed * y * (2 * tn * b + a * td) - en * x * td * b)
    const = ed * ed * y * y * h * (4 * tn * b * g * (tn * b + a * td)
                                   + (a * a * g - c * b * b) * td * td) \
        - en * en * (x * x * h - z * y * y) * td * td * b * b * g
    return lin == 0 and const == 0


def _triple_ok(ij, jk, ik) -> bool:
    """The identities of ``check_cocycle_transitions`` on (scale, shift)
    pairs, e_ik = e_ij * e_jk and t_ik = e_ij * t_jk + t_ij, cross-multiplied;
    the caller tests membership."""
    ((a, b), (p, q)), ((c, d), (r, s)), ((x, y), (u, v)) = ij, jk, ik
    return x * b * d == a * c * y and u * b * s * q == (a * r * q + p * b * s) * v
