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
orders of a triple follow from these, as t_ji = -t_ij / eps_ij.  Membership
is tested on plain ints (``ring.divides_power``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .algebras import FreeQuadraticAlgebra
from .errors import ValidationFailed
from .ring import IntegerRing, LocalizationRing, Ring, divides_power


def _as_fraction(x, name: str) -> Fraction:
    """A rational from an int, a Fraction or a string such as '3/2'; booleans
    and floats are refused, and ``name`` names the field in the error."""
    if isinstance(x, (Fraction, int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{name} has a zero denominator: {x!r}") from None
        except ValueError:
            pass
    raise ValueError(f"{name} must be a rational number, got {x!r}")


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
    omega_i -> scale_ij * omega_j + shift_ij over the overlaps.  The checks
    read no charts, so the report runs them on an instance without any."""

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
    return all(item["ok"] for item in _cocycle_checks(cover, cocycle))


def validate_type_data(cover: PrincipalCover, cocycle: LineBundleCocycle,
                       data: GluedTypeData) -> bool:
    return all(item["ok"] for item in _data_checks(cover, cocycle, data))


def _cocycle_checks(cover, cocycle):
    out = []
    f, k = cover.opens, cover.size
    for i in range(k):
        for j in range(i + 1, k):
            e = cocycle.eps(i, j)
            ok = divides_power(e.numerator, f[i] * f[j]) \
                and divides_power(e.denominator, f[i] * f[j])
            out.append({"check": "cocycle_unit", "indices": [i, j], "ok": ok})
    for i in range(k):
        for j in range(i + 1, k):
            for t in range(j + 1, k):
                ok = cocycle.eps(i, t) == cocycle.eps(i, j) * cocycle.eps(j, t)
                out.append({"check": "cocycle_triple", "indices": [i, j, t], "ok": ok})
    return out


def _data_checks(cover, cocycle, data):
    out = []
    f, k = cover.opens, cover.size
    if len(data.d) != k:
        return [{"check": "data_shape", "indices": [], "ok": False}]
    for i in range(k):
        d, p = data.d[i], data.p[i]
        member = divides_power(d.denominator, f[i]) and divides_power(p.denominator, f[i])
        out.append({"check": "chart_membership", "indices": [i], "ok": member})
        if member:
            out.append({"check": "chart_validity", "indices": [i],
                        "ok": divides_power(((d - p * p) / 4).denominator, f[i])})
    for i in range(k):
        for j in range(i + 1, k):
            e = cocycle.eps(i, j)
            ok_d = data.d[i] == data.d[j] * e * e
            out.append({"check": "overlap_discriminant", "indices": [i, j], "ok": ok_d})
            half = (data.p[i] - data.p[j] * e) / 2
            out.append({"check": "overlap_parity", "indices": [i, j],
                        "ok": divides_power(half.denominator, f[i] * f[j])})
    return out


def _transitions(cocycle: LineBundleCocycle, data: GluedTypeData) -> dict:
    """(i, j) -> (eps_ij, (eps_ij*p_j - p_i)/2) for every ordered pair i != j."""
    transitions = {}
    k = len(data.p)
    for i in range(k):
        for j in range(k):
            if i != j:
                e = cocycle.eps(i, j)
                transitions[(i, j)] = (e, (e * data.p[j] - data.p[i]) / 2)
    return transitions


def verification_report(cover: PrincipalCover, cocycle: LineBundleCocycle,
                        data: GluedTypeData) -> list[dict]:
    """Every check of the glue data, in the order of the module docstring."""
    report = [{"check": "cover", "indices": [], "ok": validate_cover(cover)}]
    report += _cocycle_checks(cover, cocycle)
    report += _data_checks(cover, cocycle, data)
    if not all(item["ok"] for item in report):
        return report
    glued = GluedAlgebra(cover, [], data.p, data.d, _transitions(cocycle, data))
    k = cover.size
    for i in range(k):
        for j in range(k):
            if i != j:
                report.append({"check": "transition_hom", "indices": [i, j],
                               "ok": check_transition_hom(glued, i, j)})
    for i in range(k):
        for j in range(i + 1, k):
            for t in range(j + 1, k):
                report.append({"check": "cocycle_transitions", "indices": [i, j, t],
                               "ok": check_cocycle_transitions(glued, i, j, t)})
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
    return GluedAlgebra(cover, charts, data.p, data.d, _transitions(cocycle, data))


def check_transition_hom(glued: GluedAlgebra, i: int, j: int) -> bool:
    """Does the image of omega_i satisfy chart i's equation inside chart j,
    over the overlap ring?"""
    f = glued.cover.opens[i] * glued.cover.opens[j]
    e, t = glued.transitions[(i, j)]
    p_i, p_j = glued.ptilde[i], glued.ptilde[j]
    d_i, d_j = glued.disc[i], glued.disc[j]
    s_i = -(d_i - p_i ** 2) / 4
    s_j = -(d_j - p_j ** 2) / 4
    # (e*w + t)^2 + p_i*(e*w + t) + s_i with w^2 = -p_j*w - s_j
    lin = -e * e * p_j + 2 * e * t + p_i * e
    const = -e * e * s_j + t * t + p_i * t + s_i
    if not (divides_power(e.denominator, f) and divides_power(t.denominator, f)):
        return False
    return lin == 0 and const == 0


def check_cocycle_transitions(glued: GluedAlgebra, i: int, j: int, k: int) -> bool:
    """psi_ik = psi_jk o psi_ij on the triple overlap."""
    if len({i, j, k}) < 3:
        return True  # repeated indices are trivial by the eps conventions
    e_ij, t_ij = glued.transitions[(i, j)]
    e_jk, t_jk = glued.transitions[(j, k)]
    e_ik, t_ik = glued.transitions[(i, k)]
    opens = glued.cover.opens
    f = opens[i] * opens[j] * opens[k]
    values = (e_ij, t_ij, e_jk, t_jk, e_ik, t_ik)
    if not all(divides_power(v.denominator, f) for v in values):
        return False
    return e_ik == e_ij * e_jk and t_ik == e_ij * t_jk + t_ij
