"""The benchmark's four workloads.

Each workload has four steps, kept apart so that only the program's own work
is timed:

* ``generate(rng, count)`` makes the seeded inputs as plain Python data and
  never touches quadalg;
* ``prepare(qa)`` lists the steps of the program's preparation (ring
  construction, class groups), timed as set-up; the list of their results is
  the workload's state;
* ``bind(qa, state, inputs)`` turns inputs into program objects and returns
  one zero-argument callable per operation (untimed);
* ``check_one(state, input, result)`` compares one result with an
  independent oracle and returns the reason it is wrong, or None.

``qa`` holds the quadalg modules.  Operations look up library functions on
their module at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from functools import partial
from math import comb, gcd, prod

import oracles


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """cli.run in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


# -- table ------------------------------------------------------------------------

class Table:
    """cli table over a 64-wide discriminant window near -1e4."""

    name = "table"
    rate = 15.0  # operations per second of --seconds
    warmup = 2
    ops_per_slice, slice_steps = 1, 15_000  # calibration between operations
    LO, HI, WIDTH = -12000, -8000, 64

    def generate(self, rng, count):
        # one window start per equal slice of [LO, HI]: the op cost grows with
        # |delta|, so stratifying keeps the latency distribution the same
        # from seed to seed
        span = self.HI - self.LO
        starts = [self.LO + (span * i + rng.randrange(span)) // count for i in range(count)]
        rng.shuffle(starts)
        return starts

    def __init__(self):
        self._class_numbers = oracles.ClassNumbers()

    def prepare(self, qa):
        return []

    def bind(self, qa, state, inputs):
        cli = qa.cli
        return [partial(run_cli, cli, ["table", "--min", str(lo),
                                       "--max", str(lo + self.WIDTH - 1)])
                for lo in inputs]

    def check_one(self, state, lo, res):
        rc, out, err = res
        if rc != 0:
            return f"exit {rc}: {err.strip()}"
        lines = out.rstrip("\n").split("\n")
        if lines[0] != "delta,pitilde,h,picmod,reps":
            return "bad header"
        want = [d for d in range(lo, lo + self.WIDTH) if d % 4 in (0, 1)]
        if len(lines) - 1 != len(want):
            return f"{len(lines) - 1} rows for {len(want)} discriminants"
        for delta, line in zip(want, lines[1:]):
            head = line.split(",", 4)
            reps = [tuple(q) for q in json.loads(head[4].strip('"'))]
            if [int(x) for x in head[:2]] != [delta, delta % 2]:
                return f"row {line[:20]} for {delta}"
            h = self._class_numbers(delta)
            if int(head[2]) != h or len(reps) != h or len(set(reps)) != h:
                return f"h({delta}) is {h}, row says {head[2]}"
            for a, b, c in reps:
                if (b * b - 4 * a * c != delta or not oracles.is_reduced(a, b, c)
                        or gcd(gcd(a, b), c) != 1):
                    return f"bad representative {[a, b, c]} for {delta}"
            # each conjugation orbit holds q and its opposite [a, -b, c]
            ambiguous = sum(oracles.gauss_reduce(a, -b, c) == (a, b, c)
                            for a, b, c in reps)
            if int(head[3]) != ambiguous + (h - ambiguous) // 2:
                return f"picmod({delta}) is wrong"
        return None


# -- compose ------------------------------------------------------------------------

class Compose:
    """ClassGroup.compose on seeded pairs of reduced representatives."""

    name = "compose"
    rate = 800.0
    warmup = 200
    ops_per_slice, slice_steps = 4, 1_500
    DISCRIMINANTS = (-1000003, -1500011, -2000003, -3000011)

    def generate(self, rng, count):
        return [(rng.randrange(len(self.DISCRIMINANTS)), rng.getrandbits(30),
                 rng.getrandbits(30)) for _ in range(count)]

    def prepare(self, qa):
        return [partial(qa.picard.class_group, d) for d in self.DISCRIMINANTS]

    def _pair(self, groups, item):
        k, i, j = item
        reps = groups[k].representatives
        return groups[k], reps[i % len(reps)], reps[j % len(reps)]

    def bind(self, qa, groups, inputs):
        ops = []
        for item in inputs:
            group, q1, q2 = self._pair(groups, item)
            ops.append(partial(group.compose, q1, q2))
        return ops

    def check_one(self, groups, item, res):
        _, q1, q2 = self._pair(groups, item)
        want = oracles.dirichlet_compose(q1.int_coefficients(), q2.int_coefficients())
        got = res.int_coefficients()
        return None if got == want else f"{q1}*{q2}: {got} != {want}"


# -- algebra ------------------------------------------------------------------------

_SQRT_UNITS = {2: ((1, 1), (-1, 1)), 8: ((3, 1), (3, -1))}  # fundamental unit, inverse


def _signed(units):
    return [u for x0, x1 in units for u in ((x0, x1), (-x0, -x1))]


class _RingSpec:
    """A ring of the algebra workload: oracle coordinates, units, sampling."""

    def __init__(self, alias, coords, units, residues=None):
        self.alias = alias
        self.c = coords
        self.units = units
        self.residues = residues  # all elements, for finite rings

    def sample(self, rng):
        if self.residues is not None:
            return rng.choice(self.residues)
        return (rng.randint(-6, 6), rng.randint(-6, 6))

    def is_unit(self, x):
        if self.residues is not None:
            return self.c.reduce(x) in self.units
        return self.abs_norm(x) == 1

    def abs_norm(self, x):
        return abs(x[0] * x[0] - self.c.n * x[1] * x[1])


_ALG_RINGS = {
    "zsqrt2": _RingSpec("zsqrt2", oracles.Coords(2, 0),
                        _signed(((1, 0),) + _SQRT_UNITS[2])),
    "zsqrt8": _RingSpec("zsqrt8", oracles.Coords(8, 0),
                        _signed(((1, 0),) + _SQRT_UNITS[8])),
    "zmod8": _RingSpec("zmod8", oracles.Coords(0, 0, 8),
                       [(1, 0), (3, 0), (5, 0), (7, 0)],
                       [(x, 0) for x in range(8)]),
    "f4": _RingSpec("f4", oracles.Coords(-1, -1, 2), [(1, 0), (0, 1), (1, 1)],
                    [(x0, x1) for x0 in (0, 1) for x1 in (0, 1)]),
}


class Algebra:
    """Isomorphism decisions over Z[sqrt 2], Z[sqrt 8], Z/8 and F_4.

    One operation is a round of twelve decisions, one of each
    (call, ring, isomorphic?) kind in seeded order, each on fresh inputs.  A
    single decision costs 0.25 to 2.8 ms depending on its kind; a round costs
    about the same every time, so its latency percentiles stay put.
    """

    name = "algebra"
    rate = 60.0
    warmup = 10
    ops_per_slice, slice_steps = 1, 3_000
    KINDS = [(call, alias, iso)
             for call, alias in (("iso", "zsqrt2"), ("iso", "zsqrt8"),
                                 ("oriented", "zsqrt2"), ("oriented", "zsqrt8"),
                                 ("bruteforce", "zmod8"), ("bruteforce", "f4"))
             for iso in (True, False)]

    def generate(self, rng, count):
        return [[self._instance(rng, *kind) for kind in rng.sample(self.KINDS, len(self.KINDS))]
                for _ in range(count)]

    def _instance(self, rng, call, alias, iso):
        spec = _ALG_RINGS[alias]
        c = spec.c
        while True:
            a, a2 = self._pair(rng, spec, iso)
            if spec.residues is not None or spec.abs_norm(c.disc(*a)):
                break
        eps = rng.choice(spec.units)
        b = c.change_basis(*a2, eps, spec.sample(rng))
        theta_a = rng.choice(spec.units)
        return (call, alias, iso, a, b, theta_a, c.mul(theta_a, eps))

    @staticmethod
    def _pair(rng, spec, iso):
        """An algebra a = (r, s) and one that is isomorphic to it exactly
        when iso holds, by construction."""
        c = spec.c
        r, s = spec.sample(rng), spec.sample(rng)
        if iso:
            return (r, s), (r, s)
        if spec.alias == "zmod8":  # the discriminant mod 8 moves by 4
            return (r, s), (r, c.add(s, (1, 0)))
        if spec.alias == "f4":
            if r == (0, 0):  # discriminant 0 against a unit
                return (r, s), ((1, 0), s)
            # the Artin-Schreier class s/r^2 moves by x, outside {t^2 + t} = {0, 1}
            return (r, s), (r, c.add(s, c.mul(c.mul(r, r), (0, 1))))
        if spec.alias == "zsqrt8" and rng.random() < 0.5:
            # same discriminant, parity w instead of 0: (2m, s) -> (2m + w, s + m*w + 2)
            m, r = r, c.scale(2, r)
            return (r, s), (c.add(r, (0, 1)), c.add(c.add(s, c.mul(m, (0, 1))), (2, 0)))
        # |N(disc)| changes, and units have norm +-1
        n0 = spec.abs_norm(c.disc(r, s))
        for shift in range(1, 64):
            s2 = c.add(s, (shift, 0))
            if spec.abs_norm(c.disc(r, s2)) not in (0, n0):
                return (r, s), (r, s2)
        raise ValueError("no obstructed algebra found")

    def prepare(self, qa):
        return [partial(qa.cli.builtin_ring, alias) for alias in _ALG_RINGS]

    def bind(self, qa, state, inputs):
        rings = dict(zip(_ALG_RINGS, state))
        return [partial(_round, [self._decision(qa.algebras, rings, item) for item in items])
                for items in inputs]

    @staticmethod
    def _decision(alg, rings, item):
        call, alias, _, a, b, theta_a, theta_b = item
        ring = rings[alias]

        def elem(x):
            return ring.element(x[:ring.rank])

        fa = alg.FreeQuadraticAlgebra(ring, elem(a[0]), elem(a[1]))
        fb = alg.FreeQuadraticAlgebra(ring, elem(b[0]), elem(b[1]))
        if call == "iso":
            return partial(_call, alg, "algebras_isomorphic", fa, fb)
        if call == "bruteforce":
            return partial(_call, alg, "isomorphic_bruteforce", fa, fb)
        return partial(_call, alg, "oriented_isomorphic", fa, alg.Orientation(elem(theta_a)),
                       fb, alg.Orientation(elem(theta_b)))

    def check_one(self, state, items, homs):
        for item, hom in zip(items, homs):
            reason = self._check_decision(item, hom)
            if reason:
                return reason
        return None

    @staticmethod
    def _check_decision(item, hom):
        call, alias, iso, a, b, theta_a, theta_b = item
        spec = _ALG_RINGS[alias]
        if hom is None:
            return f"{call} over {alias}: missed an isomorphism" if iso else None
        if not iso:
            return f"{call} over {alias}: isomorphism between non-isomorphic algebras"
        u = (tuple(hom.u.coords) + (0,))[:2]
        v = (tuple(hom.v.coords) + (0,))[:2]
        ok = spec.is_unit(u) and spec.c.is_hom(u, v, a, b)
        if call == "oriented":
            ok = ok and spec.c.mul(u, theta_b) == spec.c.reduce(theta_a)
        return None if ok else f"{call} over {alias}: bad hom {u}, {v}"


def _round(decisions):
    return [decide() for decide in decisions]


def _call(module, name, *args):
    return getattr(module, name)(*args)


# -- glue ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13)
_FOREIGN = (17, 19, 23)  # never in a cover, so never units on an overlap


class Glue:
    """cli glue-check on seeded covers of Spec Z, 1 payload in 5 perturbed."""

    name = "glue"
    rate = 80.0
    warmup = 20
    ops_per_slice, slice_steps = 1, 3_000
    # Cover sizes 3, 4, 4, 4, 5: a valid payload costs about 6, 9 and 12 ms
    # by size and a perturbed one about 4.5 ms.  With equal shares the median
    # fell in the gap between the sizes 3 and 4; this way the median and p90
    # sit inside the size-4 and size-5 groups.
    KINDS = [(k, bad) for k in (3, 4, 4, 4, 5) for bad in
             (None, None, None, None, "cocycle_unit",
              None, None, None, None, "overlap_discriminant")]

    def generate(self, rng, count):
        # every entry of KINDS gets an equal share, in seeded order
        kinds = [self.KINDS[i % len(self.KINDS)] for i in range(count)]
        rng.shuffle(kinds)
        return [self._payload(rng, k, bad) for k, bad in kinds]

    @staticmethod
    def _payload(rng, k, bad):
        while True:
            opens = [prod(rng.sample(_PRIMES, rng.randint(1, 2))) for _ in range(k)]
            if gcd(*opens) == 1:
                break
        # lambda_i is a unit of Z[1/f_i]; the charts are a global algebra
        # (d, p) rescaled by lambda_i, so eps_ij = lambda_i / lambda_j is a
        # coboundary that matches the data.
        lam = []
        for f in opens:
            x = Fraction(rng.choice((1, -1)))
            for p in _PRIMES:
                if f % p == 0:
                    x *= Fraction(p) ** rng.randint(-1, 2)
            lam.append(x)
        p = rng.randint(-3, 3)
        d = 0
        while d == 0:
            d = p * p - 4 * rng.randint(-30, 30)
        data_d = [d * x * x for x in lam]
        data_p = [p * x for x in lam]
        eps = {(i, j): lam[i] / lam[j] for i in range(k) for j in range(i + 1, k)}
        failing = None
        if bad == "cocycle_unit":
            i, j = sorted(rng.sample(range(k), 2))
            eps[(i, j)] *= rng.choice(_FOREIGN)
            failing = [i, j]
        elif bad == "overlap_discriminant":
            i = rng.randrange(k)
            data_d[i] *= rng.choice(_FOREIGN) ** 2
            failing = sorted([i, (i + 1) % k])
        payload = json.dumps({
            "cover": opens,
            "cocycle": {f"{i + 1},{j + 1}": str(e) for (i, j), e in eps.items()},
            "data": {"d": [str(x) for x in data_d], "p": [str(x) for x in data_p]},
        }, separators=(",", ":"))
        return k, bad, failing, payload

    def prepare(self, qa):
        return []

    def bind(self, qa, state, inputs):
        return [partial(run_cli, qa.cli, ["glue-check", payload])
                for _, _, _, payload in inputs]

    def check_one(self, state, item, res):
        k, bad, failing, _ = item
        rc, out, err = res
        if rc != 0:
            return f"exit {rc}: {err.strip()}"
        report = json.loads(out)
        checks = [entry["check"] for entry in report]
        if bad is None:
            if not all(entry["ok"] for entry in report):
                return "valid glue data rejected"
            if (checks.count("transition_hom") != k * (k - 1)
                    or checks.count("cocycle_transitions") != comb(k, 3)):
                return "glued algebra checks missing"
            return None
        if {"check": bad, "indices": failing, "ok": False} not in report:
            return f"perturbed glue data: no failed {bad} at {failing}"
        if "transition_hom" in checks:
            return "perturbed glue data was glued"
        return None


WORKLOADS = {w.name: w for w in (Table(), Compose(), Algebra(), Glue())}
