"""Cech-style glueing of quadratic-algebra charts over finite principal
covers of Spec Z: validation of (discriminant, parity) cover data, chart and
transition construction, and hom/cocycle verification.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .algebras import FreeQuadraticAlgebra
from .errors import ValidationFailed
from .ring import IntegerRing, LocalizationRing, Ring


def _ring_for(m: int) -> Ring:
    # Z[1/1] is Z itself
    return IntegerRing() if m == 1 else LocalizationRing(m)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise ValueError(f"cannot read {x!r} as a rational number")


def _in_ring(ring: Ring, value: Fraction) -> bool:
    return ring.try_from_rational(value) is not None


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
        return _ring_for(self.opens[i])

    def overlap_ring(self, i: int, j: int) -> Ring:
        return _ring_for(self.opens[i] * self.opens[j])

    def triple_ring(self, i: int, j: int, k: int) -> Ring:
        return _ring_for(self.opens[i] * self.opens[j] * self.opens[k])

    def covers(self) -> bool:
        g = 0
        for f in self.opens:
            g = gcd(g, f)
        return g == 1

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
            self._eps[(i, j)] = _as_fraction(value)
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
        self.d = tuple(_as_fraction(x) for x in d)
        self.p = tuple(_as_fraction(x) for x in p)
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
        transitions[(i, j)] = (scale, _as_fraction(shift))
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
    k = cover.size
    for i in range(k):
        for j in range(i + 1, k):
            ring = cover.overlap_ring(i, j)
            e = cocycle.eps(i, j)
            ok = _in_ring(ring, e) and e != 0 \
                and ring.is_unit(ring.try_from_rational(e))
            out.append({"check": "cocycle_unit", "indices": [i, j], "ok": ok})
    for i in range(k):
        for j in range(i + 1, k):
            for t in range(j + 1, k):
                ok = cocycle.eps(i, t) == cocycle.eps(i, j) * cocycle.eps(j, t)
                out.append({"check": "cocycle_triple", "indices": [i, j, t], "ok": ok})
    return out


def _data_checks(cover, cocycle, data):
    out = []
    k = cover.size
    if len(data.d) != k:
        return [{"check": "data_shape", "indices": [], "ok": False}]
    for i in range(k):
        ring = cover.chart_ring(i)
        member = _in_ring(ring, data.d[i]) and _in_ring(ring, data.p[i])
        out.append({"check": "chart_membership", "indices": [i], "ok": member})
        if member:
            diff = ring.from_rational(data.d[i] - data.p[i] ** 2)
            out.append({"check": "chart_validity", "indices": [i],
                        "ok": ring.in_4R(diff)})
    for i in range(k):
        for j in range(i + 1, k):
            ring = cover.overlap_ring(i, j)
            e = cocycle.eps(i, j)
            ok_d = data.d[i] == data.d[j] * e * e
            out.append({"check": "overlap_discriminant", "indices": [i, j], "ok": ok_d})
            diff = ring.try_from_rational(data.p[i] - data.p[j] * e)
            ok_p = diff is not None and ring.try_halve(diff) is not None
            out.append({"check": "overlap_parity", "indices": [i, j], "ok": ok_p})
    return out


def verification_report(cover: PrincipalCover, cocycle: LineBundleCocycle,
                        data: GluedTypeData) -> list[dict]:
    report = [{"check": "cover", "indices": [], "ok": validate_cover(cover)}]
    report += _cocycle_checks(cover, cocycle)
    report += _data_checks(cover, cocycle, data)
    return report


def build_glued(cover: PrincipalCover, cocycle: LineBundleCocycle,
                data: GluedTypeData) -> GluedAlgebra:
    """Assemble charts and transition maps after validating everything."""
    report = verification_report(cover, cocycle, data)
    for item in report:
        if not item["ok"]:
            raise ValidationFailed(f"{item['check']} failed at {item['indices']}")
    charts = []
    for i in range(cover.size):
        ring = cover.chart_ring(i)
        r = ring.from_rational(data.p[i])
        s = ring.from_rational(-(data.d[i] - data.p[i] ** 2) / 4)
        charts.append(FreeQuadraticAlgebra(ring, r, s))
    transitions = {}
    for i in range(cover.size):
        for j in range(cover.size):
            if i == j:
                continue
            e = cocycle.eps(i, j)
            shift = (e * data.p[j] - data.p[i]) / 2
            ring = cover.overlap_ring(i, j)
            assert _in_ring(ring, shift), "validated data must give in-ring shifts"
            transitions[(i, j)] = (e, shift)
    glued = GluedAlgebra(cover, charts, data.p, data.d, transitions)
    for i in range(cover.size):
        for j in range(cover.size):
            if i != j:
                assert check_transition_hom(glued, i, j)
            for k in range(cover.size):
                if i != j and j != k and i != k:
                    assert check_cocycle_transitions(glued, i, j, k)
    return glued


def check_transition_hom(glued: GluedAlgebra, i: int, j: int) -> bool:
    """Does the image of omega_i satisfy chart i's equation inside chart j,
    over the overlap ring?"""
    ring = glued.cover.overlap_ring(i, j)
    e, t = glued.transitions[(i, j)]
    p_i, p_j = glued.ptilde[i], glued.ptilde[j]
    d_i, d_j = glued.disc[i], glued.disc[j]
    s_i = -(d_i - p_i ** 2) / 4
    s_j = -(d_j - p_j ** 2) / 4
    # (e*w + t)^2 + p_i*(e*w + t) + s_i with w^2 = -p_j*w - s_j
    lin = -e * e * p_j + 2 * e * t + p_i * e
    const = -e * e * s_j + t * t + p_i * t + s_i
    for value in (e, t, lin, const):
        if not _in_ring(ring, value):
            return False
    return lin == 0 and const == 0


def check_cocycle_transitions(glued: GluedAlgebra, i: int, j: int, k: int) -> bool:
    """psi_ik = psi_jk o psi_ij on the triple overlap."""
    if len({i, j, k}) < 3:
        return True  # repeated indices are trivial by the eps conventions
    e_ij, t_ij = glued.transitions[(i, j)]
    e_jk, t_jk = glued.transitions[(j, k)]
    e_ik, t_ik = glued.transitions[(i, k)]
    ring = glued.cover.triple_ring(i, j, k)
    values = (e_ij, t_ij, e_jk, t_jk, e_ik, t_ik)
    if not all(_in_ring(ring, v) for v in values):
        return False
    return e_ik == e_ij * e_jk and t_ik == e_ij * t_jk + t_ij
