"""Independent oracles owned by the benchmark.

Nothing here imports quadalg.  Forms are plain int triples, class numbers
come from Dirichlet's analytic formula, composition from the classical
Dirichlet formula plus Gauss reduction, and algebra isomorphisms are
re-verified with a small coordinate arithmetic of the benchmark's own.
"""

from __future__ import annotations

from math import gcd, isqrt

Form = tuple[int, int, int]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    u0, u1, v0, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if a < 0:
        return -a, -u0, -v0
    return a, u0, v0


# -- binary quadratic forms -------------------------------------------------

def gauss_reduce(a: int, b: int, c: int) -> Form:
    """Reduced form (-a < b <= a <= c, b >= 0 when a == c) of a positive
    definite form."""
    while True:
        if not -a < b <= a:
            t = (a - b) // (2 * a)
            c = a * t * t + b * t + c
            b = b + 2 * a * t
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return a, b, c


def is_reduced(a: int, b: int, c: int) -> bool:
    return -a < b <= a <= c and (b >= 0 or a != c)


def dirichlet_compose(f1: Form, f2: Form) -> Form:
    """Reduced Dirichlet composite of two forms of one discriminant."""
    a1, b1, _ = f1
    a2, b2, c2 = f2
    disc = b2 * b2 - 4 * a2 * c2
    s = (b1 + b2) // 2
    g, x, y = xgcd(a1, a2)
    e, z, w = xgcd(g, s)
    u, v = z * x, z * y  # u*a1 + v*a2 + w*s = e
    a3 = a1 * a2 // (e * e)
    b3 = (u * a1 * b2 + v * a2 * b1 + w * (b1 * b2 + disc) // 2) // e
    b3 %= 2 * a3
    c3 = (b3 * b3 - disc) // (4 * a3)
    return gauss_reduce(a3, b3, c3)


# -- class numbers -------------------------------------------------------------

class ClassNumbers:
    """h(delta) for negative discriminants by the analytic class number
    formula, with the conductor formula for non-maximal orders."""

    def __init__(self):
        self._spf = [0, 1]
        self._fundamental: dict[int, int] = {-3: 1, -4: 1}

    def _smallest_prime_factors(self, limit: int) -> list[int]:
        if len(self._spf) <= limit:
            spf = list(range(2 * limit + 1))
            for p in range(2, isqrt(len(spf) - 1) + 1):
                if spf[p] == p:
                    for m in range(p * p, len(spf), p):
                        if spf[m] == m:
                            spf[m] = p
            self._spf = spf
        return self._spf

    @staticmethod
    def kronecker_prime(dk: int, p: int) -> int:
        """(dk / p) for a fundamental discriminant dk and a prime p."""
        if p == 2:
            if dk % 2 == 0:
                return 0
            return 1 if dk % 8 in (1, 7) else -1
        if dk % p == 0:
            return 0
        return 1 if pow(dk % p, (p - 1) // 2, p) == 1 else -1

    def fundamental(self, dk: int) -> int:
        """h(dk) = sum_{0 < a < |dk|/2} chi(a) / (2 - chi(2)) for dk < -4."""
        h = self._fundamental.get(dk)
        if h is not None:
            return h
        half = -dk // 2
        spf = self._smallest_prime_factors(half)
        chi = [0, 1] + [0] * (half - 1)
        chi_p: dict[int, int] = {}
        total = 1
        for a in range(2, half + 1):
            p = spf[a]
            cp = chi_p.get(p)
            if cp is None:
                cp = chi_p[p] = self.kronecker_prime(dk, p)
            chi[a] = cp * chi[a // p]
            total += chi[a]
        h, rem = divmod(total, 2 - self.kronecker_prime(dk, 2))
        if rem or h <= 0:
            raise ArithmeticError(f"class number formula failed for {dk}")
        self._fundamental[dk] = h
        return h

    def __call__(self, delta: int) -> int:
        n = -delta
        square, core = 1, 1
        p = 2
        while p * p <= n:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            square *= p ** (e // 2)
            core *= p ** (e % 2)
            p += 1
        core *= n  # delta = -core * square^2, core squarefree
        if -core % 4 == 1:
            dk, f = -core, square
        else:
            dk, f = -4 * core, square // 2
        h = self.fundamental(dk)
        if f == 1:
            return h
        num = h
        m = f
        p = 2
        while m > 1:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                num *= p ** (e - 1) * (p - self.kronecker_prime(dk, p))
            p += 1
        units = {-3: 3, -4: 2}.get(dk, 1)  # [O_K* : O*]
        return num // units


# -- quadratic-algebra coordinates ---------------------------------------------

class Coords:
    """Z[w]/(w^2 - n - t*w), optionally modulo m, on pairs (x0, x1).

    Z[sqrt N] is (n=N, t=0); Z/8 is (0, 0, m=8) with x1 kept 0; F_4 is
    (n=-1, t=-1, m=2).
    """

    def __init__(self, n: int, t: int, m: int | None = None):
        self.n, self.t, self.m = n, t, m

    def reduce(self, x):
        if self.m is None:
            return x
        return (x[0] % self.m, x[1] % self.m)

    def add(self, x, y):
        return self.reduce((x[0] + y[0], x[1] + y[1]))

    def sub(self, x, y):
        return self.reduce((x[0] - y[0], x[1] - y[1]))

    def mul(self, x, y):
        a0, a1 = x
        b0, b1 = y
        return self.reduce((a0 * b0 + self.n * a1 * b1,
                            a0 * b1 + a1 * b0 + self.t * a1 * b1))

    def scale(self, k: int, x):
        return self.reduce((k * x[0], k * x[1]))

    def is_zero(self, x) -> bool:
        return self.reduce(x) == (0, 0)

    def disc(self, r, s):
        return self.sub(self.mul(r, r), self.scale(4, s))

    def change_basis(self, r, s, eps, alpha):
        """(r', s') of the same algebra in the basis tau' = eps*tau + alpha."""
        r2 = self.sub(self.mul(r, eps), self.scale(2, alpha))
        s2 = self.add(self.sub(self.mul(alpha, alpha), self.mul(self.mul(r, alpha), eps)),
                      self.mul(s, self.mul(eps, eps)))
        return r2, s2

    def is_hom(self, u, v, source, target) -> bool:
        """(u*tau' + v)^2 + r*(u*tau' + v) + s vanishes in the target."""
        r, s = source
        rp, sp = target
        uu = self.mul(u, u)
        lin = self.sub(self.add(self.scale(2, self.mul(u, v)), self.mul(r, u)),
                       self.mul(uu, rp))
        const = self.sub(self.add(self.add(self.mul(v, v), self.mul(r, v)), s),
                         self.mul(uu, sp))
        return self.is_zero(lin) and self.is_zero(const)
