"""Independent oracles used by the tests.

These deliberately avoid the library code paths they are checking: lattice
indices come from gcds of maximal minors, principality from a norm-equation
search, automorphism counts from a full map-level search, reduced forms from
a scan over every (a, b) and from a divisor scan, the ambiguous forms from
genus theory, opposition orbits from Gauss reduction, the streamed ``table``
text from one sweep and one render, composition from the HNF ideal product
of ideals built from the coefficients here, closure under omega from the
omega-products, invertibility from I * conj(I) = N(I) * O,
homs of algebras from the hom equations expanded term by term in ring
arithmetic (over finite rings on every (u, v)), class numbers from
Dirichlet's analytic formula (the benchmark's ``perfbench/oracles.py``,
loaded by path), the glue report and the ``Z[1/f]`` ring operations and
square roots from ``Fraction`` arithmetic, square roots in Z[sqrt(N)] from
per-case candidates and from a scan, and table-ring products from a dense
loop over the whole structure-constant tensor, R/2R and 4R from each ring
kind's own rule, and the units of Z[sqrt(N)] modulo 2 from the fundamental
unit (continued fractions) and a search over products of unit-group
generators.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import json
import math
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

from quadalg.algebras import AlgebraHom, FreeQuadraticAlgebra
from quadalg.errors import NotPrimitive, TypeMismatch, ZeroLeadingCoefficient, brief
from quadalg.forms import TwistedForm, principal_form, reduce_posdef
from quadalg.glue import GluedAlgebra
from quadalg.picard import (
    OrderIdeal,
    QuadraticOrder,
    compose,
    conjugate,
    ideal_mul,
    ideal_norm,
    ideal_to_form,
    _sweep,
    reduced_forms,
    table_rows,
)
from quadalg.ring import Mod2Element, RingElement


def pell_scan(n: int, bound: int) -> tuple[int, int] | None:
    """Minimal (a, b), 1 <= b <= bound, with a^2 - n b^2 = +-1, by direct scan."""
    for b in range(1, bound + 1):
        for target in (1, -1):
            a2 = target + n * b * b
            if a2 >= 0 and isqrt(a2) ** 2 == a2:
                return isqrt(a2), b
    return None


def pell_fundamental(n: int) -> tuple[int, int]:
    """Smallest (x, y), y >= 1, with x^2 - n*y^2 = +-1, for a non-square n > 1,
    from the convergents of the continued fraction of sqrt(n) (Cohen, GTM 138,
    section 5.7).  The unit may have about sqrt(n) digits, so keep n small."""
    a0 = isqrt(n)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while h * h - n * k * k not in (1, -1):
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    return h, k


def unit_group_generators(ring) -> list[RingElement]:
    """Generators of the unit group: -1 and 1 + w in Z[sqrt(0)], whose units are
    +-(1 + Zw); -1 and the fundamental unit in Z[sqrt(N)] for a non-square
    N > 1; every unit but 1 when there are finitely many."""
    n = ring.quadratic_param
    if n == 0:
        return [ring.from_int(-1), ring.element((1, 1))]
    if ring.units is not None:
        return [u for u in ring.units if u != ring.one]
    if n is None or n < 0:
        raise ValueError(f"no unit-group generators for {ring!r}")
    return [ring.from_int(-1), ring.element(pell_fundamental(n))]


def unit_image_reps(ring) -> list[RingElement]:
    """A unit in each class of the image of R* inside (R/2R)*, 1 first, by a
    breadth-first search over products of ``unit_group_generators``."""
    gens = unit_group_generators(ring)
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
        frontier = nxt
    return list(seen.values())


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def sqrt_from_candidates(ring, x: RingElement) -> RingElement | None:
    """A square root of x in Z[sqrt(N)], N != 0, sign-normalized (a > 0, or
    a = 0 and b >= 0); None if absent.  The candidates are a square t0 and a
    square t0/N when t1 = 0, and otherwise b^2 = (t0 +- sqrt(t0^2 - N t1^2))/(2N)
    from a^2 + N b^2 = t0 and 2ab = t1."""
    n = ring.quadratic_param
    t0, t1 = x.coords
    candidates = []
    if t1 == 0:
        if _is_square(t0):
            candidates.append((isqrt(t0), 0))
        if t0 % n == 0 and _is_square(t0 // n):
            candidates.append((0, isqrt(t0 // n)))
    else:
        disc = t0 * t0 - n * t1 * t1
        if _is_square(disc):
            sd = isqrt(disc)
            for num in (t0 + sd, t0 - sd):
                if num % (2 * n):
                    continue
                b2 = num // (2 * n)
                if b2 <= 0 or not _is_square(b2):
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
            return -root if a < 0 or (a == 0 and b < 0) else root
    return None


def mul_coords_dense(table, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """x * y in a table ring, summing x_i * y_j * table[i][j] over every i, j."""
    n = len(table)
    out = [0] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            t = table[i][j]
            f = xi * yj
            for kk in range(n):
                out[kk] += f * t[kk]
    return tuple(out)


def sqrt_scan(n: int, x: tuple[int, int], bound: int) -> tuple[int, int] | None:
    """The first sign-normalized (a, b), a, |b| <= bound, with (a + b*w)^2 = x
    in Z[sqrt(n)], a ascending, then |b| ascending and b >= 0 first."""
    bs = sorted(range(-bound, bound + 1), key=lambda b: (abs(b), b < 0))
    for a in range(bound + 1):
        for b in bs:
            if (a or b >= 0) and (a * a + n * b * b, 2 * a * b) == x:
                return a, b
    return None


def lattice_index_minors(rows: list[list[int]]) -> int:
    """Index of the row span in Z^n: gcd of all n x n minors (0 if rank < n)."""
    n = len(rows[0])
    g = 0
    for combo in itertools.combinations(rows, n):
        g = gcd(g, abs(_det([list(r) for r in combo])))
    return g


def _det(mat: list[list[int]]) -> int:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    return sum((-1) ** j * mat[0][j] * _det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(n))


def principal_by_norm_equation(ideal: OrderIdeal) -> bool:
    """Search xi with N(xi) = N(I) and xi*O = I; no forms involved."""
    order = ideal.order
    n = ideal_norm(ideal)
    bound = isqrt(4 * n // (-order.delta)) + 1
    for x1 in range(0, bound + 1):
        disc = order.delta * x1 * x1 + 4 * n
        if disc < 0:
            continue
        s = isqrt(disc)
        if s * s != disc:
            continue
        for sgn in ((1,) if s == 0 else (1, -1)):
            num = order.pitilde * x1 + sgn * s
            if num % 2:
                continue
            xi = (num // 2, x1)
            if xi == (0, 0):
                continue
            generated = OrderIdeal.from_lattice(
                order, [xi, order.omega_times(xi)])
            if generated == ideal:
                return True
    return False


def reduced_forms_bruteforce(delta: int) -> list[tuple[int, int, int]]:
    """Reduced primitive forms (a, b, c) of discriminant delta, by trying every
    a <= sqrt(-delta/3) and every b in (-a, a]; ordered by (a, c, |b|, sign)."""
    out = []
    amax = isqrt(-delta // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b - delta) % 2:
                continue
            num = b * b - delta
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append((a, b, c))
    out.sort(key=lambda t: (t[0], t[2], abs(t[1]), t[1] < 0))
    return out


def _form_sort_key(t: tuple[int, int, int]):
    a, b, c = t
    return (a, c, abs(b), 0 if b >= 0 else 1)


def reduced_triples_divisor_scan(delta: int) -> list[tuple[int, int, int]]:
    """Reduced primitive forms (a, b, c) of discriminant delta, in table order,
    by a divisor scan.

    A reduced form has |b| <= a <= c, so 3b^2 <= -delta.  For each such b >= 0
    the pairs (a, c) are the divisor pairs a <= c of n = (b^2 - delta)/4 with
    a >= b; (a, -b, c) is reduced too unless b = 0, a = b or a = c.
    """
    out = []
    for b in range(delta % 2, isqrt(-delta // 3) + 1, 2):
        n = (b * b - delta) // 4
        for a in [d for d in range(max(b, 1), isqrt(n) + 1) if not n % d]:
            c = n // a
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append((a, b, c))
            if b and a != b and a != c:
                out.append((a, -b, c))
    out.sort(key=_form_sort_key)
    return out


def ambiguous_count(delta: int) -> int:
    """The number of reduced primitive forms of discriminant delta < 0 with
    b = 0, b = a or a = c, the classes of order at most 2, by genus theory:
    2^(mu - 1) (Cox, Primes of the Form x^2 + ny^2, Prop. 3.11).  With r the
    number of odd primes dividing delta (by trial division), mu = r when
    delta = 1 mod 4; for delta = -4n, mu = r when n = 3 mod 4, r + 1 when
    n = 1 or 2 mod 4 or n = 4 mod 8, and r + 2 when n = 0 mod 8."""
    m, r, p = -delta, 0, 3
    while not m % 2:
        m //= 2
    while p * p <= m:
        if not m % p:
            r += 1
            while not m % p:
                m //= p
        p += 2
    r += m > 1
    n = -delta // 4
    if delta % 4 == 1 or n % 4 == 3:
        mu = r
    elif n % 4 in (1, 2) or n % 8 == 4:
        mu = r + 1
    else:
        mu = r + 2
    return 2 ** (mu - 1)


@functools.cache
def _primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def _kronecker(delta: int, p: int) -> int:
    """(delta/p) for a prime p: Euler's criterion, and delta mod 8 at p = 2."""
    if p == 2:
        return 0 if delta % 2 == 0 else (1 if delta % 8 in (1, 7) else -1)
    e = pow(delta, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


def _exponents_in(order: QuadraticOrder, g: TwistedForm, lo: int, hi: int) -> set[int]:
    """Every n in [lo, hi] with g^n = 1, by baby-step giant-step on
    ``picard.compose``; forms compare by their reduced coefficients."""
    identity = principal_form(order.delta)

    def power(x, n):
        out = identity
        while n:
            if n & 1:
                out = compose(order, out, x)
            x, n = compose(order, x, x), n >> 1
        return out

    m = isqrt(hi - lo) + 1
    key = TwistedForm.int_coefficients
    g_inv = reduce_posdef(g.opposite())
    baby, x = {}, identity  # g^-j -> j, for 0 <= j < m
    for j in range(m):
        if j and key(x) == key(identity):  # g has order j < m
            return set(range(-(-lo // j) * j, hi + 1, j))
        baby[key(x)] = j
        x = compose(order, x, g_inv)
    found, y, step = set(), power(g, lo), power(g, m)
    for k in range(lo, hi + 1, m):  # y = g^k
        j = baby.get(key(y))
        if j is not None and k + j <= hi:
            found.add(k + j)
        y = compose(order, y, step)
    return found


def class_number(delta: int) -> int | None:
    """h(delta) by an analytic estimate narrowed by group structure (Cohen,
    GTM 138, 5.4; Shanks 1971), sharing no code with ``reduced_triples``.

    h = (w / 2pi) sqrt|delta| L(1, (delta/.)) holds for every order; L is
    estimated by its Euler product over the primes up to 2 * 10^5.  Genus
    theory gives |C/C^2| = ``ambiguous_count``, so |C^2| lies near estimate /
    ambiguous_count: the n in a +-2% window around it with g^n = 1 for the
    square g of each prime form (p, b, c), (delta/p) = 1, its b found by a
    scan over [0, p], are kept, over the first 20 such odd p.  h is returned
    once exactly one n is left, and None when none or several are: the
    window is a heuristic, so a miss is no answer, not a guess."""
    primes = _primes_up_to(2 * 10**5)
    estimate = {-3: 6, -4: 4}.get(delta, 2) * math.sqrt(-delta) / (2 * math.pi)
    for p in primes:
        estimate /= 1 - _kronecker(delta, p) / p
    genus = ambiguous_count(delta)
    lo, hi = max(1, math.ceil(estimate / genus * 0.98)), int(estimate / genus * 1.02)
    order = QuadraticOrder(delta, delta % 2)
    candidates = None
    for p in itertools.islice((p for p in primes[1:] if _kronecker(delta, p) == 1), 20):
        b = next(b for b in range(p + 1) if (b * b - delta) % (4 * p) == 0)
        f = TwistedForm.over_z(p, b, (b * b - delta) // (4 * p))
        found = _exponents_in(order, compose(order, f, f), lo, hi)
        candidates = found if candidates is None else candidates & found
        if len(candidates) <= 1:
            break
    return genus * candidates.pop() if candidates and len(candidates) == 1 else None


def triples(row: list[int]) -> list[tuple[int, int, int]]:
    """A row, the flat list a1, b1, c1, a2, ... of ``reduced_triples`` or of
    ``table_rows``, regrouped into (a, b, c) triples."""
    return list(zip(row[::3], row[1::3], row[2::3]))


def rows_between(lo: int, hi: int) -> dict[int, list[int]]:
    """The row of every valid delta in [lo, hi], keyed in ascending order:
    the windows of ``table_rows`` merged into one dict."""
    return {d: r for w in table_rows(lo, hi) for d, r in w.items()}


def triples_between(lo: int, hi: int) -> dict[int, list[tuple[int, int, int]]]:
    """``rows_between`` with each discriminant's row regrouped into (a, b, c)
    triples."""
    return {d: triples(row) for d, row in rows_between(lo, hi).items()}


def table_one_sweep(lo: int, hi: int, fmt: str) -> str:
    """The ``table`` text for [lo, hi], without the final newline, rendered
    from one sweep over the whole range, not windowed, with f-strings and
    ``json.dumps``."""
    deltas = [d for d in range(lo, hi + 1) if d % 4 in (0, 1)]
    table = {d: triples(row) for d, row in _sweep(lo, hi, deltas).items()}
    rows = [(d, reps, sum(b >= 0 for _, b, _ in reps)) for d, reps in table.items()]
    if fmt == "json":
        return json.dumps([{"delta": d, "pitilde": d % 2, "h": len(reps), "picmod": pm,
                            "reps": reps} for d, reps, pm in rows], separators=(",", ":"))
    lines = ["delta,pitilde,h,picmod,reps"]
    for d, reps, pm in rows:
        body = ",".join([f"[{a},{b},{c}]" for a, b, c in reps])
        lines.append(f'{d},{d % 2},{len(reps)},{pm},"[{body}]"')
    return "\n".join(lines)


def conjugation_orbits_gauss(triples):
    """Orbits of reduced triples under opposition, each orbit {q, the reduced
    form of [a,-b,c]} in table order, the orbits ordered by their first member."""
    seen = set()
    orbits = []
    for t in triples:
        if t in seen:
            continue
        a, b, c = t
        opposite = reduce_posdef(TwistedForm.over_z(a, -b, c)).int_coefficients()
        orbit = sorted({t, opposite}, key=_form_sort_key)
        seen.update(orbit)
        orbits.append(orbit)
    orbits.sort(key=lambda orb: _form_sort_key(orb[0]))
    return orbits


def closed_by_omega(order: QuadraticOrder, a: int, b: int, c: int) -> bool:
    """Whether the lattice of a and b + c*omega holds omega times each of
    them, from the two omega-products and a membership test of each (x0 +
    x1*omega lies in it when c | x1 and a | x0 - (x1/c)*b), not from the
    divisibility rule of the ``OrderIdeal`` constructor."""
    for x0, x1 in (order.omega_times((a, 0)), order.omega_times((b, c))):
        if x1 % c or (x0 - x1 // c * b) % a:
            return False
    return True


def invertible_by_definition(ideal: OrderIdeal) -> bool:
    """I * conj(I) = N(I) * O, the defining property of invertibility, from
    the HNF ideal product, not from the norm form that
    ``picard.is_invertible`` reads."""
    n = ideal_norm(ideal)
    return ideal_mul(ideal, conjugate(ideal)) == OrderIdeal(ideal.order, n, 0, n)


def ideal_of_form(q: TwistedForm, order: QuadraticOrder) -> OrderIdeal:
    """<a, omega + (pitilde - b)/2> for [a, b, c], read by ``int_coefficients``
    and closed by ``OrderIdeal.from_generators``, not through
    ``picard.form_to_ideal``; its checks raise what that one raises."""
    a, b, c = q.int_coefficients()
    if gcd(gcd(a, b), c) != 1:
        raise NotPrimitive(f"{brief(q)} is not primitive")
    if not a:
        raise ZeroLeadingCoefficient("move to an equivalent form with a != 0 first")
    if b * b - 4 * a * c != order.delta or (b - order.pitilde) % 2:
        raise TypeMismatch(f"natural type of {brief(q)} does not match {brief(order)}")
    return OrderIdeal.from_generators(order, [(a, 0), ((order.pitilde - b) // 2, 1)])


def compose_via_ideals(order: QuadraticOrder, q1: TwistedForm,
                       q2: TwistedForm) -> TwistedForm:
    """q1 * q2 through the Picard group: form -> ideal, ideal product, norm form."""
    product = ideal_mul(ideal_of_form(q1, order), ideal_of_form(q2, order))
    return reduce_posdef(ideal_to_form(product))


def strip_content(ideal: OrderIdeal) -> OrderIdeal:
    g = gcd(gcd(ideal.a, ideal.b), ideal.c)
    if g == 1:
        return ideal
    return OrderIdeal(ideal.order, ideal.a // g, ideal.b // g, ideal.c // g)


def same_ideal_class(i1: OrderIdeal, i2: OrderIdeal) -> bool:
    return principal_by_norm_equation(strip_content(ideal_mul(i1, conjugate(i2))))


def ideal_class_count(delta: int) -> int:
    """Number of ideal classes: HNF seeds closed under multiplication,
    partitioned by the norm-equation principality test."""
    order = QuadraticOrder(delta, delta % 2)
    seeds = [ideal_of_form(q, order) for q in reduced_forms(delta)]
    blocks: list[OrderIdeal] = []
    for seed in seeds:
        if not any(same_ideal_class(seed, rep) for rep in blocks):
            blocks.append(seed)
    # closure: products of block representatives never leave the partition
    frontier = list(blocks)
    while frontier:
        new: list[OrderIdeal] = []
        for left in frontier:
            for right in blocks:
                product = strip_content(ideal_mul(left, right))
                if not any(same_ideal_class(product, rep) for rep in blocks):
                    blocks.append(product)
                    new.append(product)
        frontier = new
    return len(blocks)


def affine_ring_map_count(m: int, r: int, s: int,
                          require_bijective: bool = True) -> int:
    """Count maps tau -> u*tau + v on (Z/m)[tau]/(tau^2 + r tau + s) that are
    ring homomorphisms (checked on every pair of elements) and bijections."""
    elems = [(p, q) for p in range(m) for q in range(m)]

    def mul(x, y):
        # (p1 + q1 t)(p2 + q2 t) with t^2 = -r t - s
        p1, q1 = x
        p2, q2 = y
        cross = q1 * q2
        return ((p1 * p2 - cross * s) % m, (p1 * q2 + q1 * p2 - cross * r) % m)

    count = 0
    for u in range(m):
        for v in range(m):
            def phi(x):
                return ((x[0] + x[1] * v) % m, (x[1] * u) % m)

            ok = all(phi(mul(x, y)) == mul(phi(x), phi(y))
                     for x in elems for y in elems)
            if ok and require_bijective:
                ok = len({phi(x) for x in elems}) == len(elems)
            if ok:
                count += 1
    return count


def hom_equations_hold(u: RingElement, v: RingElement, a: FreeQuadraticAlgebra,
                       b: FreeQuadraticAlgebra) -> bool:
    """Does tau -> u*tau' + v send tau^2 + r*tau + s to 0 in b?  The square is
    expanded term by term with tau'^2 = -r'*tau' - s', in nine products of
    ``RingElement`` operators: lin = 2uv + ru - u^2 r' and
    const = v^2 + rv + s - u^2 s' must both vanish."""
    r, s, rp, sp = a.r, a.s, b.r, b.s
    lin = 2 * u * v + r * u - u * u * rp
    const = v * v + r * v + s - u * u * sp
    return lin.is_zero() and const.is_zero()


def search_homs_generic(a: FreeQuadraticAlgebra, b: FreeQuadraticAlgebra,
                        units=None) -> list[AlgebraHom]:
    """Every hom tau -> u*tau' + v from a to b over a finite ring, each (u, v)
    tested in ring arithmetic by ``hom_equations_hold``: u over ``units``
    (default: every unit, found by HNF division) and v over every element, in
    enumeration order."""
    ring = a.ring
    elements = ring.enumerate_elements()
    if units is None:
        units = [u for u in elements if ring.is_unit(u)]
    return [AlgebraHom(u, v) for u in units for v in elements
            if hom_equations_hold(u, v, a, b)]


def _load_benchmark_oracles():
    """``perfbench/oracles.py``, loaded by file path: it is named ``oracles``
    too, and it imports no quadalg."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# h(delta) by Dirichlet's analytic formula and the conductor formula (Cox,
# Primes of the Form x^2+ny^2, 7.24): the benchmark's copy
ClassNumbers = _load_benchmark_oracles().ClassNumbers


def _in_localization(n: int, f: int) -> bool:
    """Does |n| divide a power of f?  The exponent bit_length(n) bounds every
    prime exponent of n."""
    n = abs(n)
    return n != 0 and pow(f, n.bit_length(), n) == 0


def as_fraction(x) -> Fraction:
    """An (n, d) pair of the glue objects as a Fraction."""
    return Fraction(*x)


def as_pair(q) -> tuple[int, int]:
    return q.numerator, q.denominator


def _eps(cocycle, i: int, j: int) -> Fraction:
    """eps_ij for i != j from the stored entry of i < j, inverted here."""
    return as_fraction(cocycle.eps(i, j)) if i < j else 1 / as_fraction(cocycle.eps(j, i))


def glue_report_fractions(cover, cocycle, data):
    """The (check, indices, ok) rows of ``glue.verification_report``, every
    check computed in ``Fraction`` arithmetic from the pairs that the public
    objects hold."""
    f, k = cover.opens, cover.size
    eps = functools.partial(_eps, cocycle)
    d_all, p_all = [as_fraction(x) for x in data.d], [as_fraction(x) for x in data.p]
    report = [("cover", (), gcd(*f) == 1)]
    for i, j in itertools.combinations(range(k), 2):
        e = eps(i, j)
        ok = _in_localization(e.numerator, f[i] * f[j]) \
            and _in_localization(e.denominator, f[i] * f[j])
        report.append(("cocycle_unit", (i, j), ok))
    for i, j, t in itertools.combinations(range(k), 3):
        report.append(("cocycle_triple", (i, j, t), eps(i, t) == eps(i, j) * eps(j, t)))
    if len(d_all) != k:
        yield from report
        yield "data_shape", (), False
        return
    for i in range(k):
        d, p = d_all[i], p_all[i]
        member = _in_localization(d.denominator, f[i]) \
            and _in_localization(p.denominator, f[i])
        report.append(("chart_membership", (i,), member))
        if member:
            report.append(("chart_validity", (i,),
                           _in_localization(((d - p * p) / 4).denominator, f[i])))
    for i, j in itertools.combinations(range(k), 2):
        e = eps(i, j)
        report.append(("overlap_discriminant", (i, j), d_all[i] == d_all[j] * e * e))
        half = (p_all[i] - p_all[j] * e) / 2
        report.append(("overlap_parity", (i, j), _in_localization(half.denominator, f[i] * f[j])))
    yield from report
    if not all(ok for _, _, ok in report):
        return
    transitions = {key: (as_pair(e), as_pair(t))
                   for key, (e, t) in glue_transitions_fractions(cocycle, data).items()}
    glued = GluedAlgebra(cover, [], data.p, data.d, transitions)
    for i, j in itertools.permutations(range(k), 2):
        yield "transition_hom", (i, j), transition_hom_fractions(glued, i, j)
    for i, j, t in itertools.combinations(range(k), 3):
        yield "cocycle_transitions", (i, j, t), cocycle_transitions_fractions(glued, i, j, t)


def glue_transitions_fractions(cocycle, data) -> dict:
    """(i, j) -> (eps_ij, (eps_ij*p_j - p_i)/2) for every ordered pair i != j,
    as Fractions."""
    p, eps = [as_fraction(x) for x in data.p], functools.partial(_eps, cocycle)
    return {(i, j): (eps(i, j), (eps(i, j) * p[j] - p[i]) / 2)
            for i, j in itertools.permutations(range(len(p)), 2)}


def with_shift(glued, i: int, j: int, shift: Fraction) -> GluedAlgebra:
    """A copy of ``glued`` with the shift of transition (i, j) replaced."""
    transitions = dict(glued.transitions)
    transitions[(i, j)] = (transitions[(i, j)][0], as_pair(shift))
    return GluedAlgebra(glued.cover, glued.charts, glued.ptilde, glued.disc, transitions)


def transition_hom_fractions(glued, i: int, j: int) -> bool:
    """``glue.check_transition_hom`` in ``Fraction`` arithmetic: with
    w^2 = -p_j*w - s_j, (e*w + t)^2 + p_i*(e*w + t) + s_i vanishes, and e, t
    lie in the overlap ring."""
    f = glued.cover.opens[i] * glued.cover.opens[j]
    e, t = map(as_fraction, glued.transitions[(i, j)])
    p_i, p_j = as_fraction(glued.ptilde[i]), as_fraction(glued.ptilde[j])
    s_i = -(as_fraction(glued.disc[i]) - p_i ** 2) / 4
    s_j = -(as_fraction(glued.disc[j]) - p_j ** 2) / 4
    lin = -e * e * p_j + 2 * e * t + p_i * e
    const = -e * e * s_j + t * t + p_i * t + s_i
    return _in_localization(e.denominator, f) and _in_localization(t.denominator, f) \
        and lin == 0 and const == 0


def cocycle_transitions_fractions(glued, i: int, j: int, k: int) -> bool:
    """``glue.check_cocycle_transitions`` in ``Fraction`` arithmetic."""
    if len({i, j, k}) < 3:
        return True
    e_ij, t_ij = map(as_fraction, glued.transitions[(i, j)])
    e_jk, t_jk = map(as_fraction, glued.transitions[(j, k)])
    e_ik, t_ik = map(as_fraction, glued.transitions[(i, k)])
    opens = glued.cover.opens
    f = opens[i] * opens[j] * opens[k]
    values = (e_ij, t_ij, e_jk, t_jk, e_ik, t_ik)
    return all(_in_localization(v.denominator, f) for v in values) \
        and e_ik == e_ij * e_jk and t_ik == e_ij * t_jk + t_ij


# -- Z[1/f] in Fraction arithmetic ------------------------------------------------

def localization_from_fraction(ring, q):
    """q as a canonical element (num, k) of ring = Z[1/f], or None: for q = n/d
    in lowest terms, k is the least exponent with d | f^k, found by bisection
    on pow(f, k, d), and num = n * f^k / d."""
    q = Fraction(q)
    f, d = ring.f, q.denominator
    if not _in_localization(d, f):
        return None
    lo, hi = 0, d.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if pow(f, mid, d):
            lo = mid + 1
        else:
            hi = mid
    return RingElement(ring, (q.numerator * (f ** lo // d), lo))


def localization_value(x) -> Fraction:
    """The rational num/f^k of an element (num, k) of Z[1/f]."""
    num, k = x.coords
    return Fraction(num, x.ring.f ** k)


def localization_add(x, y):
    return localization_from_fraction(x.ring, localization_value(x) + localization_value(y))


def localization_try_divide(p, q):
    if q.is_zero():
        return None
    return localization_from_fraction(p.ring, localization_value(p) / localization_value(q))


def localization_try_inverse(x):
    return localization_try_divide(x.ring.one, x)


def localization_try_halve(x):
    return localization_from_fraction(x.ring, localization_value(x) / 2)


def localization_in_4R(x) -> bool:
    return localization_from_fraction(x.ring, localization_value(x) / 4) is not None


def localization_sqrt(x):
    """The non-negative root of x in Z[1/f] in ``Fraction`` arithmetic: for
    x = p/q in lowest terms the root, when there is one, is sqrt(p*q)/q."""
    value = localization_value(x)
    if value < 0:
        return None
    root = Fraction(isqrt(value.numerator * value.denominator), value.denominator)
    return localization_from_fraction(x.ring, root) if root * root == value else None


# -- R/2R and 4R by ring kind -----------------------------------------------------
# Each ring kind's own rule, apart from the division ``Ring`` derives R/2R
# from and ``in_4R`` derives 4R from: R/2R is 0 in Z/m for odd m and in Z[1/f]
# for even f, and otherwise the coordinates mod 2; 4R is the coordinates
# divisible by 4, by gcd(4, m) in Z/m, and membership of x/4 in Z[1/f].

def mod2_by_kind(ring, x) -> Mod2Element:
    kind = ring.kind
    if kind == "integers":
        return Mod2Element(ring, (x.coords[0] % 2,))
    if kind == "table":
        return Mod2Element(ring, tuple(c % 2 for c in x.coords))
    if kind == "quotient":
        if ring.m % 2 == 0:
            return Mod2Element(ring, tuple(c % 2 for c in x.coords))
        return Mod2Element(ring, (0,) * ring.rank)
    if ring.f % 2 == 0:
        return Mod2Element(ring, (0,))
    return Mod2Element(ring, (x.coords[0] % 2,))


def mod2_residues_by_kind(ring) -> list[Mod2Element]:
    kind = ring.kind
    if kind == "integers":
        return [Mod2Element(ring, (0,)), Mod2Element(ring, (1,))]
    if kind == "table":
        return [Mod2Element(ring, r) for r in itertools.product((0, 1), repeat=ring.rank)]
    if kind == "quotient":
        if ring.m % 2 == 1:
            return [Mod2Element(ring, (0,) * ring.rank)]
        return [Mod2Element(ring, r) for r in itertools.product((0, 1), repeat=ring.rank)]
    if ring.f % 2 == 0:
        return [Mod2Element(ring, (0,))]
    return [Mod2Element(ring, (0,)), Mod2Element(ring, (1,))]


def in_4R(x) -> bool:
    """x in 4R by the ring's own division, as ``Ring.try_divide`` decides it."""
    ring = x.ring
    return ring.try_divide(x, ring.from_int(4)) is not None


def in_4R_by_kind(x) -> bool:
    ring = x.ring
    kind = ring.kind
    if kind == "integers":
        return x.coords[0] % 4 == 0
    if kind == "table":
        return all(c % 4 == 0 for c in x.coords)
    if kind == "quotient":
        g = gcd(4, ring.m)
        return all(c % g == 0 for c in x.coords)
    return localization_in_4R(x)


def parities_by_kind(ring, delta) -> list[Mod2Element]:
    """``algebras.find_parities`` on the rules above: the classes p of R/2R,
    in their order, with delta - p^2 in 4R for the lift of p by its residue."""
    out = []
    for p in mod2_residues_by_kind(ring):
        lift = ring.element_from_json(list(p.residue))
        if in_4R_by_kind(delta - lift * lift):
            out.append(p)
    return out
