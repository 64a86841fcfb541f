"""Cech-style glueing of quadratic-algebra charts over finite principal
covers of Spec Z.

A cover D(f_1), ..., D(f_k) carries per-chart discriminants and parity lifts
(d_i, p_i) and a unit cocycle eps_ij.  ``verification_report`` is the one
verification pass, and ``build_glued`` builds charts only from data that
passes it.  The report lists, with 0-based indices and in this order:

- ``cover``: gcd(f_1, ..., f_k) = 1;
- ``cocycle_unit`` (eps_ij is a unit of Z[1/(f_i f_j)]) for each i < j, then
  ``cocycle_triple`` (eps_it = eps_ij * eps_jt) for each i < j < t;
- ``data_shape``, only when there is not one (d, p) pair per open; the report
  ends there;
- per chart, ``chart_membership`` (d_i, p_i in Z[1/f_i]) and, when it holds,
  ``chart_validity`` (d_i - p_i^2 in 4*Z[1/f_i]);
- per i < j, ``overlap_discriminant`` (d_i = eps_ij^2 * d_j) and
  ``overlap_parity`` ((p_i - eps_ij * p_j)/2 in Z[1/(f_i f_j)]).

Only when all of these pass do ``transition_hom`` for each ordered pair
i != j and ``cocycle_transitions`` for each i < j < t follow; the other
orders of a triple follow from these, as t_ji = -t_ij / eps_ij.

Every check runs on plain ints.  The report turns each ``Fraction`` of the
input into an (n, d) pair once, d > 0 and not necessarily in lowest terms,
and the checks use only products, sums, cross-multiplied equality and
membership by ``ring.in_localization``, the one test of "n/d lies in
Z[1/f]", which ``LocalizationRing`` runs too.  ``check_transition_hom`` and
``check_cocycle_transitions`` turn only the ``Fraction`` fields they read into
pairs and call the report's kernels, ``_transition_ok`` and ``_triple_ok``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .algebras import FreeQuadraticAlgebra
from .errors import ValidationFailed, brief
from .ring import IntegerRing, LocalizationRing, Ring, in_localization


def _as_fraction(x, name: str) -> Fraction:
    """A rational from an int, a string such as '3/2' or '1.5', or a Fraction, kept
    as it is; booleans, floats and exponent strings are refused, and ``name`` names
    the field in the error.  (Fraction('1e20000000') would build 10**20000000.)"""
    if isinstance(x, Fraction):
        return x
    exponent = isinstance(x, str) and ("e" in x or "E" in x)
    if isinstance(x, (int, str)) and not isinstance(x, bool) and not exponent:
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{name} has a zero denominator: {brief(x)}") from None
        except ValueError:
            pass
    raise ValueError(f"{name} must be a rational number, got {brief(x)}")


class PrincipalCover:
    """Opens D(f_1), ..., D(f_k) of Spec Z with section rings Z[1/f_i]."""

    __slots__ = ("opens",)

    def __init__(self, opens):
        self.opens = tuple(int(f) for f in opens)
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
    """Units eps_ij of the overlap rings, stored for i < j.

    Conventions eps_ii = 1 and eps_ji = 1/eps_ij are built in.
    """

    __slots__ = ("cover", "_eps")

    def __init__(self, cover: PrincipalCover, eps: dict):
        self.cover = cover
        self._eps = {}
        for (i, j), value in eps.items():
            if not 0 <= i < j < cover.size:
                raise ValueError(f"cocycle index ({i},{j}) out of range")
            self._eps[(i, j)] = _as_fraction(value, f"cocycle entry ({i},{j})")
        for i in range(cover.size):
            for j in range(i + 1, cover.size):
                if (i, j) not in self._eps:
                    raise ValueError(f"missing cocycle entry ({i},{j})")

    def eps(self, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(1)
        if i < j:
            return self._eps[(i, j)]
        return 1 / self._eps[(j, i)]


class GluedTypeData:
    """Per-chart discriminants d_i and parity lifts p_i."""

    __slots__ = ("d", "p")

    def __init__(self, d, p):
        self.d = tuple(_as_fraction(x, "a 'd' entry") for x in d)
        self.p = tuple(_as_fraction(x, "a 'p' entry") for x in p)
        if len(self.d) != len(self.p):
            raise ValueError("need one (d, p) pair per chart")


class GluedAlgebra:
    """Charts omega_i^2 + p_i*omega_i - (d_i - p_i^2)/4 = 0 with transitions
    omega_i -> scale_ij * omega_j + shift_ij over the overlaps."""

    __slots__ = ("cover", "charts", "ptilde", "disc", "transitions")

    def __init__(self, cover: PrincipalCover, charts: list[FreeQuadraticAlgebra],
                 ptilde: tuple[Fraction, ...], disc: tuple[Fraction, ...],
                 transitions: dict):
        self.cover = cover
        self.charts = charts
        self.ptilde = ptilde
        self.disc = disc
        self.transitions = transitions  # (i, j) -> (scale, shift) as Fractions

    def with_shift(self, i: int, j: int, shift: Fraction) -> GluedAlgebra:
        """Copy with one transition shift replaced (for perturbation tests)."""
        transitions = dict(self.transitions)
        scale, _ = transitions[(i, j)]
        transitions[(i, j)] = (scale, _as_fraction(shift, "shift"))
        return GluedAlgebra(self.cover, self.charts, self.ptilde, self.disc,
                            transitions)


def validate_cover(cover: PrincipalCover) -> bool:
    return cover.covers()


def validate_cocycle(cover: PrincipalCover, cocycle: LineBundleCocycle) -> bool:
    return all(item["ok"] for item in _cocycle_checks(cover.opens, _eps_pairs(cocycle)))


def validate_type_data(cover: PrincipalCover, cocycle: LineBundleCocycle,
                       data: GluedTypeData) -> bool:
    checks = _data_checks(cover.opens, _eps_pairs(cocycle), *_data_pairs(data))
    return all(item["ok"] for item in checks)


# Rationals in the checks are int pairs (n, d), d > 0 (see the module docstring).

def _pair(x: Fraction) -> tuple[int, int]:
    return x.numerator, x.denominator


def _eps_pairs(cocycle: LineBundleCocycle) -> dict:
    return {key: _pair(e) for key, e in cocycle._eps.items()}


def _data_pairs(data: GluedTypeData) -> tuple[list, list]:
    return [_pair(x) for x in data.d], [_pair(x) for x in data.p]


def _mul(x, y):
    return x[0] * y[0], x[1] * y[1]


def _add(*xs):
    n, d = 0, 1
    for a, b in xs:
        n, d = n * b + a * d, d * b
    return n, d


def _neg(x):
    return -x[0], x[1]


def _eq(x, y) -> bool:
    return x[0] * y[1] == y[0] * x[1]


def _inv(x):
    """1/x for x != 0."""
    n, d = x
    return (d, n) if n > 0 else (-d, -n)


def _over(x, m: int):
    """x / m for an int m > 0."""
    return x[0], x[1] * m


def _is_unit(x, f: int) -> bool:
    """Is x a unit of Z[1/f]?  Zero is not."""
    return in_localization(x, f) and in_localization((x[1], x[0]), f)


def _cocycle_checks(f: tuple[int, ...], eps: dict) -> list[dict]:
    out = []
    k = len(f)
    for i in range(k):
        for j in range(i + 1, k):
            out.append({"check": "cocycle_unit", "indices": [i, j],
                        "ok": _is_unit(eps[(i, j)], f[i] * f[j])})
    for i in range(k):
        for j in range(i + 1, k):
            for t in range(j + 1, k):
                ok = _eq(eps[(i, t)], _mul(eps[(i, j)], eps[(j, t)]))
                out.append({"check": "cocycle_triple", "indices": [i, j, t], "ok": ok})
    return out


def _data_checks(f: tuple[int, ...], eps: dict, d: list, p: list) -> list[dict]:
    out = []
    k = len(f)
    if len(d) != k:
        return [{"check": "data_shape", "indices": [], "ok": False}]
    for i in range(k):
        member = in_localization(d[i], f[i]) and in_localization(p[i], f[i])
        out.append({"check": "chart_membership", "indices": [i], "ok": member})
        if member:
            out.append({"check": "chart_validity", "indices": [i],
                        "ok": in_localization(_over(_add(d[i], _neg(_mul(p[i], p[i]))), 4), f[i])})
    for i in range(k):
        for j in range(i + 1, k):
            e = eps[(i, j)]
            ok_d = _eq(d[i], _mul(d[j], _mul(e, e)))
            out.append({"check": "overlap_discriminant", "indices": [i, j], "ok": ok_d})
            half = _over(_add(p[i], _neg(_mul(p[j], e))), 2)
            out.append({"check": "overlap_parity", "indices": [i, j],
                        "ok": in_localization(half, f[i] * f[j])})
    return out


def _transitions(eps: dict, p: list) -> dict:
    """(i, j) -> (eps_ij, (eps_ij*p_j - p_i)/2) for every ordered pair i != j,
    from eps_ij (i < j) and p_i."""
    transitions = {}
    k = len(p)
    for i in range(k):
        for j in range(k):
            if i != j:
                e = eps[(i, j)] if i < j else _inv(eps[(j, i)])
                t = _over(_add(_mul(e, p[j]), _neg(p[i])), 2)
                transitions[(i, j)] = (e, t)
    return transitions


def verification_report(cover: PrincipalCover, cocycle: LineBundleCocycle,
                        data: GluedTypeData) -> list[dict]:
    """Every check of the glue data, in the order of the module docstring."""
    eps = _eps_pairs(cocycle)
    d, p = _data_pairs(data)
    report = [{"check": "cover", "indices": [], "ok": validate_cover(cover)}]
    report += _cocycle_checks(cover.opens, eps)
    report += _data_checks(cover.opens, eps, d, p)
    if not all(item["ok"] for item in report):
        return report
    f, tr = cover.opens, _transitions(eps, p)
    k = cover.size
    for i in range(k):
        for j in range(k):
            if i != j:
                ok = _transition_ok(f[i] * f[j], p[i], d[i], p[j], d[j], *tr[(i, j)])
                report.append({"check": "transition_hom", "indices": [i, j], "ok": ok})
    for i in range(k):
        for j in range(i + 1, k):
            for t in range(j + 1, k):
                ok = _triple_ok(f[i] * f[j] * f[t], tr[(i, j)], tr[(j, t)], tr[(i, t)])
                report.append({"check": "cocycle_transitions", "indices": [i, j, t], "ok": ok})
    return report


def build_glued(cover: PrincipalCover, cocycle: LineBundleCocycle,
                data: GluedTypeData) -> GluedAlgebra:
    """Assemble charts and transition maps; raises ValidationFailed at the
    first failing check of the verification report."""
    for item in verification_report(cover, cocycle, data):
        if not item["ok"]:
            raise ValidationFailed(f"{item['check']} failed at {item['indices']}")
    charts = []
    for i in range(cover.size):
        ring = cover.chart_ring(i)
        r = ring.from_rational(data.p[i])
        s = ring.from_rational(-(data.d[i] - data.p[i] ** 2) / 4)
        charts.append(FreeQuadraticAlgebra(ring, r, s))
    transitions = _transitions(_eps_pairs(cocycle), _data_pairs(data)[1])
    return GluedAlgebra(cover, charts, data.p, data.d,
                        {key: (Fraction(*e), Fraction(*t)) for key, (e, t) in transitions.items()})


def check_transition_hom(glued: GluedAlgebra, i: int, j: int) -> bool:
    """Does the image of omega_i satisfy chart i's equation inside chart j,
    over the overlap ring?"""
    f, p, d = glued.cover.opens, glued.ptilde, glued.disc
    e, t = glued.transitions[(i, j)]
    return _transition_ok(f[i] * f[j], _pair(p[i]), _pair(d[i]), _pair(p[j]), _pair(d[j]),
                          _pair(e), _pair(t))


def check_cocycle_transitions(glued: GluedAlgebra, i: int, j: int, k: int) -> bool:
    """psi_ik = psi_jk o psi_ij on the triple overlap."""
    if len({i, j, k}) < 3:
        return True  # repeated indices are trivial by the eps conventions
    f, tr = glued.cover.opens, glued.transitions
    ij, jk, ik = (tuple(map(_pair, tr[key])) for key in ((i, j), (j, k), (i, k)))
    return _triple_ok(f[i] * f[j] * f[k], ij, jk, ik)


def _transition_ok(f: int, p_i, d_i, p_j, d_j, e, t) -> bool:
    """``check_transition_hom`` on int pairs, over Z[1/f]."""
    if not (in_localization(e, f) and in_localization(t, f)):
        return False
    s_i = _over(_add(_mul(p_i, p_i), _neg(d_i)), 4)
    s_j = _over(_add(_mul(p_j, p_j), _neg(d_j)), 4)
    ee = _mul(e, e)
    # (e*w + t)^2 + p_i*(e*w + t) + s_i with w^2 = -p_j*w - s_j
    lin = _add(_neg(_mul(ee, p_j)), _mul((2, 1), _mul(e, t)), _mul(p_i, e))
    const = _add(_neg(_mul(ee, s_j)), _mul(t, t), _mul(p_i, t), s_i)
    return lin[0] == 0 and const[0] == 0


def _triple_ok(f: int, ij, jk, ik) -> bool:
    """``check_cocycle_transitions`` on (scale, shift) pairs, over Z[1/f]."""
    (e_ij, t_ij), (e_jk, t_jk), (e_ik, t_ik) = ij, jk, ik
    if not all(in_localization(v, f) for v in (e_ij, t_ij, e_jk, t_jk, e_ik, t_ik)):
        return False
    return _eq(e_ik, _mul(e_ij, e_jk)) and _eq(t_ik, _add(_mul(e_ij, t_jk), t_ij))
