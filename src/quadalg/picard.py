"""Imaginary quadratic orders over Z, HNF ideal arithmetic, and the explicit
correspondence between twisted-form classes of a fixed natural type and the
Picard group of the order.

Reduced forms are enumerated on plain ints (Cohen, A Course in
Computational Algebraic Number Theory, 5.3) by two paths, each giving a
discriminant's forms as one row, the flat int list a1, b1, c1, a2, ... of
their coefficients in table order (rendered by ``cli.render_row``).  A single
discriminant (``classgroup``, ``picmodconj``, ``ClassGroup``) goes through
``reduced_triples``: for each a <= sqrt(|delta|/3) the b are the square roots
of delta mod 4a (``ring.sqrt_mod_prime_power`` and ``ring.crt_roots``), so
the work grows like sqrt(|delta|).  A range (``table``) is one sweep over
(a, b), ``_sweep``: for each (a, b) the c that put b^2 - 4ac in the range
form an interval.  When the range is narrower than 4a the interval holds at
most one c, found by one remainder test per pair, and one divmod gives c and
the row, of delta - lo; otherwise it is walked.  On both paths each form
found costs one gcd and one += of its coefficients, followed by its
opposite's when that is reduced too.  The sweep costs about |lo| whatever the
width, so ``reduced_triples_between`` runs ``reduced_triples`` per
discriminant instead when the range holds at most max(1, sqrt(|lo|) // 300)
of them (min = max among them).  ``check_range`` refuses every range with
|lo| past DISCRIMINANT_CAP, one discriminant or many, before any work.  The
sweep keeps every coefficient of the range, so ``cli.iter_table`` sweeps a
long range in windows of max(1024, |lo| // 64) discriminants and prints each
before sweeping the next; it refuses a range whose windows would sweep more
than SWEEP_PAIRS_CAP pairs in all (``sweep_pairs``), or take more than
ROOT_STEPS_CAP a-steps of ``reduced_triples`` (``root_steps``), before its
header.
Opposition orbits follow from row order alone: each rep with b >= 0 heads an
orbit, and [a,-b,c], right after it, joins it unless b = 0, b = a or a = c.

Composition (``compose``, ``ClassGroup.compose``) also runs on plain ints, by
Dirichlet composition followed by Gauss reduction (Cohen, 5.4): when the
leading coefficients are coprime, the composite's b is one CRT lift, from one
modular inverse; otherwise it comes from two xgcds.  Over Z each operand's
kernel tuples (``TwistedForm.coords``) are read once, no int passes through
``coerce`` or ``int()``, no RingElement is built, primitivity is one
``gcd``, and the reduction tracks no witness.  The
HNF ideal path form_to_ideal -> ideal_mul -> ideal_to_form is the paper's
bijection with the Picard group; it serves form2ideal, ideal2form and
is_principal, and the tests use it as the oracle for ``compose``.
"""

from __future__ import annotations

from array import array
from math import gcd, isqrt
from operator import attrgetter

from .algebras import FreeQuadraticAlgebra
from .errors import (
    BadParityLift,
    DiscriminantTooLarge,
    InvalidRange,
    NotInvertible,
    NotPrimitive,
    OrderMismatch,
    TypeMismatch,
    ZeroLeadingCoefficient,
    brief,
)
from .forms import (TwistedForm, _gauss_reduce, check_discriminant, is_primitive,
                    principal_form, reduce_posdef)
from .ring import IntegerRing, Value, crt_roots, hnf, sqrt_mod_prime_power, xgcd

_Z = IntegerRing()

# |lo| past which check_range refuses a range [lo, hi], one discriminant or many
DISCRIMINANT_CAP = 3 * 10**12
# (a, b) pairs, sweep_pairs summed over its windows, past which cli.iter_table
# refuses a range before any work
SWEEP_PAIRS_CAP = 4 * 10**6
# a-steps of reduced_triples, root_steps summed over its windows, past which
# cli.iter_table refuses a range before any work: one discriminant at
# DISCRIMINANT_CAP takes isqrt(DISCRIMINANT_CAP // 3) = 10^6 and runs
ROOT_STEPS_CAP = isqrt(DISCRIMINANT_CAP // 3)

Pair = tuple[int, int]  # coordinates (x0, x1) meaning x0 + x1*omega


class QuadraticOrder(Value):
    """Z[omega] with omega^2 + pitilde*omega - (delta - pitilde^2)/4 = 0."""

    __slots__ = ("delta", "pitilde", "omega_sq_const")
    _identity = attrgetter("delta", "pitilde")

    def __init__(self, delta: int, pitilde: int):
        check_discriminant(delta)
        if pitilde not in (0, 1) or pitilde % 2 != delta % 2:
            raise BadParityLift(f"{pitilde} does not lift the parity of {delta}")
        self.delta = delta
        self.pitilde = pitilde
        self.omega_sq_const = (delta - pitilde * pitilde) // 4  # omega^2 = c - pt*omega

    def mul(self, x: Pair, y: Pair) -> Pair:
        x0, x1 = x
        y0, y1 = y
        cross = x1 * y1
        return (x0 * y0 + cross * self.omega_sq_const,
                x0 * y1 + x1 * y0 - cross * self.pitilde)

    def conj(self, x: Pair) -> Pair:
        # omega -> -pitilde - omega
        x0, x1 = x
        return (x0 - self.pitilde * x1, -x1)

    def norm(self, x: Pair) -> int:
        x0, x1 = x
        return (x0 * x0 - self.pitilde * x0 * x1
                + ((self.pitilde * self.pitilde - self.delta) // 4) * x1 * x1)

    def trace(self, x: Pair) -> int:
        return 2 * x[0] - self.pitilde * x[1]

    def omega_times(self, x: Pair) -> Pair:
        return self.mul((0, 1), x)

    def algebra(self) -> FreeQuadraticAlgebra:
        return FreeQuadraticAlgebra(_Z, self.pitilde, -self.omega_sq_const)

    def __repr__(self):
        return f"QuadraticOrder(delta={self.delta}, pitilde={self.pitilde})"


def order_from_type(delta: int, pitilde: int) -> QuadraticOrder:
    return QuadraticOrder(delta, pitilde)


class OrderIdeal(Value):
    """Full ideal with Z-basis (a, b + c*omega): hnf = [[a, b], [0, c]].

    Canonical: a, c > 0 and 0 <= b < a; the lattice must be closed under
    multiplication by omega.
    """

    __slots__ = ("order", "a", "b", "c")
    _identity = attrgetter("order", "a", "b", "c")

    def __init__(self, order: QuadraticOrder, a: int, b: int, c: int):
        if a <= 0 or c <= 0 or not 0 <= b < a:
            raise ValueError(f"({a},{b},{c}) is not in canonical HNF")
        self.order = order
        self.a = a
        self.b = b
        self.c = c
        for gen in ((a, 0), (b, c)):
            if not self.contains(order.omega_times(gen)):
                raise ValueError("lattice is not closed under omega")

    def contains(self, x: Pair) -> bool:
        x0, x1 = x
        if x1 % self.c:
            return False
        return (x0 - (x1 // self.c) * self.b) % self.a == 0

    @classmethod
    def from_lattice(cls, order: QuadraticOrder, pairs: list[Pair]) -> OrderIdeal:
        # rows (x1, x0) have HNF [[c, b], [0, a]]: basis b + c*omega and a
        rows = hnf([(x1, x0) for x0, x1 in pairs])
        if len(rows) != 2:
            raise ValueError("generators do not span a full lattice")
        (c, b), (_, a) = rows
        return cls(order, a, b, c)

    @classmethod
    def from_generators(cls, order: QuadraticOrder, gens: list[Pair]) -> OrderIdeal:
        """Ideal generated by gens: closes the lattice under omega."""
        pairs = list(gens) + [order.omega_times(g) for g in gens]
        return cls.from_lattice(order, pairs)

    @classmethod
    def whole_order(cls, order: QuadraticOrder) -> OrderIdeal:
        return cls(order, 1, 0, 1)

    def basis(self) -> tuple[Pair, Pair]:
        return (self.a, 0), (self.b, self.c)

    def hnf(self) -> list[list[int]]:
        return [[self.a, self.b], [0, self.c]]

    def __repr__(self):
        return f"<ideal ({self.a}, {self.b}+{self.c}w) of {self.order!r}>"

    def to_json(self):
        return {"delta": self.order.delta, "pitilde": self.order.pitilde,
                "hnf": self.hnf()}


def ideal_mul(i1: OrderIdeal, i2: OrderIdeal) -> OrderIdeal:
    if i1.order != i2.order:
        raise OrderMismatch("ideals of different orders")
    order = i1.order
    prods = [order.mul(u, v) for u in i1.basis() for v in i2.basis()]
    return OrderIdeal.from_lattice(order, prods)


def ideal_norm(ideal: OrderIdeal) -> int:
    return ideal.a * ideal.c


def conjugate(ideal: OrderIdeal) -> OrderIdeal:
    order = ideal.order
    return OrderIdeal.from_lattice(order, [order.conj(u) for u in ideal.basis()])


def scale_ideal(ideal: OrderIdeal, n: int) -> OrderIdeal:
    if n <= 0:
        raise ValueError("scale must be positive")
    return OrderIdeal(ideal.order, n * ideal.a, n * ideal.b, n * ideal.c)


def is_invertible(ideal: OrderIdeal) -> bool:
    """I * conj(I) = N(I) * O, the defining property of invertibility."""
    product = ideal_mul(ideal, conjugate(ideal))
    return product == scale_ideal(OrderIdeal.whole_order(ideal.order), ideal_norm(ideal))


def _checked_coefficients(q: TwistedForm, order: QuadraticOrder) -> tuple[int, int, int]:
    """(a, b, c) of a primitive q with a != 0 whose natural type is order's."""
    # over Z the coordinates are read once and gcd decides; another ring must
    # first pass is_primitive (which implies gcd 1, or refuses the ring) before int()
    if isinstance(q.ring, IntegerRing):
        (a,), (b,), (c,) = q.coords
    elif is_primitive(q):
        a, b, c = int(q.a), int(q.b), int(q.c)
    else:
        raise NotPrimitive(f"{q!r} is not primitive")
    if gcd(a, b, c) != 1:
        raise NotPrimitive(f"{q!r} is not primitive")
    if a == 0:
        raise ZeroLeadingCoefficient("move to an equivalent form with a != 0 first")
    if b * b - 4 * a * c != order.delta or (b - order.pitilde) % 2 != 0:
        raise TypeMismatch(f"natural type of {q!r} does not match {order!r}")
    return a, b, c


def form_to_ideal(q: TwistedForm, order: QuadraticOrder) -> OrderIdeal:
    """[a,b,c] -> <a, omega + (pitilde - b)/2>, an invertible ideal of norm |a|."""
    a, b, _ = _checked_coefficients(q, order)
    g = ((order.pitilde - b) // 2, 1)
    return OrderIdeal.from_generators(order, [(a, 0), g])


def ideal_to_form(ideal: OrderIdeal) -> TwistedForm:
    """Norm form N(x*u - y*v)/N(I) on the canonical basis (u, v).

    The sign on the second basis vector pins the class-level inverse of
    form_to_ideal: <3, omega-1> in the order of discriminant -44 must map
    back to the class of [3,2,4].
    """
    if not is_invertible(ideal):
        raise NotInvertible(f"{ideal!r} is not invertible")
    order = ideal.order
    u, v = ideal.basis()
    n = ideal_norm(ideal)
    a = order.norm(u) // n
    b = -order.trace(order.mul(u, order.conj(v))) // n
    c = order.norm(v) // n
    return TwistedForm.over_z(a, b, c)


def compose(order: QuadraticOrder, q1: TwistedForm, q2: TwistedForm) -> TwistedForm:
    """Reduced form of the class of q1 * q2, by Dirichlet composition on ints.

    Runs the checks of form_to_ideal on q1, then q2, and agrees with
    reduce_posdef(ideal_to_form(ideal_mul(form_to_ideal(q1), form_to_ideal(q2)))).
    A negative-definite [a,b,c] enters as [-a,b,-c]: <a, g> = <-a, g>.  When
    gcd(a1, a2) = 1 the composite is [a1*a2, b3, c3] with b3 the CRT lift of
    b1 mod 2*a1 and b2 mod 2*a2, from one inverse of a1 mod a2 (Cox, Primes of
    the Form x^2 + ny^2, Lemma 3.2); otherwise b3 comes from two xgcds (Cohen,
    5.4.7), which give the same b3 mod 2*a1*a2 in the coprime case.  Over Z
    no int passes through ``coerce`` or ``int()``, in or out, and no
    RingElement is built: operands and result are read and made as their
    kernel tuples.
    """
    a1, b1, _ = _checked_coefficients(q1, order)
    a2, b2, _ = _checked_coefficients(q2, order)
    a1, a2 = abs(a1), abs(a2)
    delta = order.delta
    if gcd(a1, a2) == 1:  # b2 - b1 is even, so b3 = b1 mod 2*a1 and b2 mod 2*a2
        a3 = a1 * a2
        b3 = (b1 + a1 * pow(a1, -1, a2) * (b2 - b1)) % (2 * a3)
    else:
        g, x, y = xgcd(a1, a2)
        e, z, w = xgcd(g, (b1 + b2) // 2)
        a3 = a1 * a2 // (e * e)
        b3 = (z * (x * a1 * b2 + y * a2 * b1) + w * ((b1 * b2 + delta) // 2)) // e % (2 * a3)
    c3 = (b3 * b3 - delta) // (4 * a3)
    return TwistedForm.over_z(*_gauss_reduce(a3, b3, c3))


def wood_local_algebra(q: TwistedForm) -> FreeQuadraticAlgebra:
    """The algebra R[tau]/(tau^2 + b*tau + ac) attached to [a,b,c]."""
    return FreeQuadraticAlgebra(q.ring, q.b, q.a * q.c)


def is_principal(ideal: OrderIdeal) -> bool:
    """Raises NotInvertible, through ideal_to_form, for a non-invertible ideal."""
    return reduce_posdef(ideal_to_form(ideal)) == principal_form(ideal.order.delta)


def reduced_triples(delta: int) -> list[int]:
    """The row of delta: the flat list a1, b1, c1, a2, ... of the 3h
    coefficients of all reduced primitive positive-definite forms of
    discriminant delta, in table order, from the square roots of delta.

    A reduced [a,b,c] has 3a^2 <= |delta| and b^2 = delta mod 4a, so for each
    a the b >= 0 are the roots mod 4a reduced mod 2a (x and x + 2a have one
    square mod 4a) that lie in [0, a], ascending; c = (b^2 - delta)/4a must
    be at least a, and gcd(a, b, c) = 1.  4a is factored from a sieve of
    least prime factors up to a_max, and the roots mod each p^e || 4a are
    kept for the call, since delta is fixed (``ring.sqrt_mod_prime_power``,
    ``ring.crt_roots``).  (a, -b, c) follows (a, b, c) unless b = 0, b = a or
    a = c.  Raises DiscriminantTooLarge past DISCRIMINANT_CAP first.
    """
    check_discriminant(delta)
    check_range(delta, delta)
    a_max = isqrt(-delta // 3)
    # least prime factors, as C ints (a_max <= 10^6): the least p's slice lands last
    spf = array("i", range(a_max + 1))
    for p in range(isqrt(a_max), 1, -1):
        spf[p * p::p] = array("i", [p]) * ((a_max - p * p) // p + 1)
    memo: dict[int, list[int]] = {}
    out = []
    for a in range(1, a_max + 1):
        parts, m, p, e = [], a, 2, 2  # 4a = 2^2 * a
        while True:
            while not m % p:
                m //= p
                e += 1
            q = p**e
            roots = memo.get(q)
            if roots is None:
                roots = memo[q] = sqrt_mod_prime_power(delta, p, e)
            if not roots:
                break
            parts.append((q, roots))
            if m == 1:
                two_a, four_a = 2 * a, 4 * a
                for b in sorted({r % two_a for r in crt_roots(parts)}):
                    if b > a:
                        break
                    c = (b * b - delta) // four_a
                    if c >= a and gcd(a, b, c) == 1:
                        out += (a, b, c, a, -b, c) if b and b != a and a != c else (a, b, c)
                break
            p, e = spf[m], 0
    return out


def check_range(lo: int, hi: int) -> None:
    if lo > hi or hi >= 0:
        raise InvalidRange(f"need min <= max < 0, got [{lo}, {hi}]")
    if -lo > DISCRIMINANT_CAP:
        raise DiscriminantTooLarge(
            f"|delta| = {brief(-lo)} is past the cap of {DISCRIMINANT_CAP} on a single discriminant"
            if lo == hi else f"min = {brief(lo)} puts |delta| past the cap of {DISCRIMINANT_CAP}")


def reduced_triples_between(lo: int, hi: int) -> dict[int, list[int]]:
    """The row of every valid delta in [lo, hi], keyed in ascending order: the
    flat list a1, b1, c1, a2, ... of its 3h coefficients (``reduced_triples``).

    ``reduced_triples`` costs about sqrt(|delta|) per discriminant and the
    sweep (``_sweep``) about |lo| for the whole range, so a range of at most
    max(1, sqrt(|lo|) // 300) valid discriminants, one of them included,
    takes ``reduced_triples`` for each and a wider one the sweep.
    """
    check_range(lo, hi)
    deltas = [delta for delta in range(lo, hi + 1) if delta % 4 in (0, 1)]
    if _per_discriminant(lo, len(deltas)):
        return {delta: reduced_triples(delta) for delta in deltas}
    return _sweep(lo, hi, deltas)


def _per_discriminant(lo: int, count: int) -> bool:
    """Whether a range from lo holding count valid discriminants takes
    ``reduced_triples`` for each rather than the sweep."""
    return count <= max(1, isqrt(-lo) // 300)


def _valid_count(lo: int, hi: int) -> int:
    """The number of deltas = 0, 1 mod 4 in [lo, hi]."""
    return hi // 4 - (lo - 1) // 4 + (hi - 1) // 4 - (lo - 2) // 4


def sweep_pairs(lo: int, hi: int) -> int:
    """The (a, b) pairs ``reduced_triples_between(lo, hi)`` sweeps, about
    a_max^2 / 2 = |lo| / 6, from (lo, hi) alone: 0 when the range takes
    ``reduced_triples`` per discriminant instead."""
    count = _valid_count(lo, hi)
    return 0 if _per_discriminant(lo, count) else isqrt(-lo // 3) ** 2 // 2


def root_steps(lo: int, hi: int) -> int:
    """The a-steps of ``reduced_triples`` that ``reduced_triples_between(lo,
    hi)`` takes, at most isqrt(|lo| // 3) per valid discriminant, from (lo,
    hi) alone: 0 when the range is swept instead."""
    count = _valid_count(lo, hi)
    return count * isqrt(-lo // 3) if _per_discriminant(lo, count) else 0


def _sweep(lo: int, hi: int, deltas: list[int]) -> dict[int, list[int]]:
    """``reduced_triples_between`` for the valid deltas of [lo, hi] by one
    sweep over the pairs 0 <= b <= a.

    A reduced form has |b| <= a <= c, so 3a^2 <= -lo, and c >= a needs
    n = b^2 - lo >= 4a^2.  For fixed (a, b) the c with lo <= b^2 - 4ac <= hi
    form an interval, and each hit lands in the bucket of index
    delta - lo = n - 4ac.  When hi - lo < 4a the interval holds at most
    c = n // 4a, present exactly when n mod 4a <= hi - lo, so one remainder
    test per pair finds it and divmod(n, 4a) gives c and the bucket;
    otherwise the interval is walked.  Each hit costs one gcd(a, b, c) and
    extends its bucket by a, b, c, and by a, -b, c too unless b = 0, a = b or
    a = c.  Scanning a, then b, in ascending order fills each bucket in table
    order: for fixed a and delta, c grows with |b|.  The result holds every
    coefficient of the range, 3h ints per discriminant, so ``cli.iter_table``
    sweeps a long range in windows.
    """
    if not deltas:  # no discriminant in range: nothing to sweep for
        return {}
    width = hi - lo
    buckets = [[] for _ in range(width + 1)]  # by delta - lo
    a_max = isqrt(-lo // 3)
    shifted = [b * b - lo for b in range(a_max + 1)]  # b^2 - lo
    for a in range(1, a_max + 1):
        four_a = 4 * a
        t = four_a * a + lo
        b_min = isqrt(t - 1) + 1 if t > 0 else 0  # least b with b^2 - lo >= 4a^2
        if width < four_a:
            for b in [b for b in range(b_min, a + 1) if shifted[b] % four_a <= width]:
                c, i = divmod(shifted[b], four_a)
                if gcd(a, b, c) == 1:
                    buckets[i] += (a, b, c, a, -b, c) if b and b != a and a != c else (a, b, c)
        else:
            for b, n in zip(range(b_min, a + 1), shifted[b_min:a + 1]):
                signed = b and b != a
                for c in range(max(a, (n - width - 1) // four_a + 1), n // four_a + 1):
                    if gcd(a, b, c) == 1:
                        bucket = buckets[n - four_a * c]
                        if signed and a != c:
                            bucket += (a, b, c, a, -b, c)
                        else:
                            bucket += (a, b, c)
    return {delta: buckets[delta - lo] for delta in deltas}


def reduced_forms(delta: int) -> list[TwistedForm]:
    """All reduced primitive positive-definite forms of discriminant delta."""
    return [TwistedForm.over_z(*t) for t in zip(*[iter(reduced_triples(delta))] * 3)]


class ClassGroup:
    """Reduced representatives of the form class group of a discriminant,
    composed on ints by ``compose``."""

    __slots__ = ("delta", "order", "representatives", "h")

    def __init__(self, delta: int):
        self.delta = delta
        self.order = QuadraticOrder(delta, delta % 2)
        self.representatives = reduced_forms(delta)
        self.h = len(self.representatives)

    def compose(self, q1: TwistedForm, q2: TwistedForm) -> TwistedForm:
        return compose(self.order, q1, q2)

    def identity(self) -> TwistedForm:
        return principal_form(self.delta)

    def inverse(self, q: TwistedForm) -> TwistedForm:
        return reduce_posdef(q.opposite())


def class_group(delta: int) -> ClassGroup:
    return ClassGroup(delta)


def pic_mod_conjugation(delta: int) -> list[list[TwistedForm]]:
    """Orbits of the class set under form opposition (conjugation of ideals),
    regrouped from the row of ``reduced_triples``: each rep with b >= 0 heads
    an orbit, and its opposite, when distinct, comes right after it."""
    orbits = []
    for a, b, c in zip(*[iter(reduced_triples(delta))] * 3):
        q = TwistedForm.over_z(a, b, c)
        if b < 0:
            orbits[-1].append(q)
        else:
            orbits.append([q])
    return orbits
