"""Seeded glue datasets for the glue tests: valid coboundary data over covers
of 1-5 opens of Spec Z, and copies with one entry perturbed."""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, prod

PRIMES = (2, 3, 5, 7, 11)
FOREIGN = (13, 17, 19)  # never in a cover, so never units on an overlap

# None (no perturbation) three times, so that a quarter of the datasets are valid
PERTURBATIONS = (None, None, None, "cover", "cocycle_prime", "cocycle_triple",
                 "zero", "shape", "p_denominator", "p_parity", "d_square", "d_shift")


def glue_dataset(rng, kind, size=None):
    """(opens, eps, d, p): eps is keyed by 0-based (i, j) with i < j and
    every value is a Fraction.  The valid data rescale one global algebra
    (delta, p) by a unit lambda_i of each chart, with eps_ij = lambda_i / lambda_j;
    ``kind``, one of PERTURBATIONS, names the one entry spoiled (None: none).
    The cover has ``size`` opens, or 1-5 drawn from ``rng``."""
    k = rng.randint(1, 5) if size is None else size
    while True:  # a single open must be Spec Z = D(1)
        opens = [prod(rng.sample(PRIMES, rng.randint(k > 1, 2))) for _ in range(k)]
        if gcd(*opens) == 1:
            break
    lam = []
    for f in opens:
        x = Fraction(rng.choice((1, -1)))
        for q in PRIMES:
            if f % q == 0:
                x *= Fraction(q) ** rng.randint(-1, 2)
        lam.append(x)
    p0 = rng.randint(-3, 3)
    d0 = p0 * p0 - 4 * rng.randint(-30, 30)
    d = [d0 * x * x for x in lam]
    p = [p0 * x + 2 * rng.randint(-2, 2) for x in lam]
    eps = {(i, j): lam[i] / lam[j] for i in range(k) for j in range(i + 1, k)}
    i = rng.randrange(k)
    pair = sorted(rng.sample(range(k), 2)) if k > 1 else None
    if kind == "cover":
        q = rng.choice(PRIMES)
        opens = [f * q for f in opens]
    elif kind == "cocycle_prime" and pair:
        eps[tuple(pair)] *= rng.choice(FOREIGN)
    elif kind == "cocycle_triple" and k > 2:
        eps[(0, 2)] *= -1
    elif kind == "zero":
        where = rng.choice(("eps", "d", "p") if pair else ("d", "p"))
        if where == "eps":
            eps[tuple(pair)] = Fraction(0)
        else:
            (d if where == "d" else p)[i] = Fraction(0)
    elif kind == "shape":
        del d[i], p[i]
    elif kind == "p_denominator":
        p[i] += Fraction(1, rng.choice(FOREIGN))
    elif kind == "p_parity":
        p[i] += 1
    elif kind == "d_square":
        d[i] *= rng.choice(FOREIGN) ** 2
    elif kind == "d_shift":
        d[i] += rng.choice((2, 4))  # 2 spoils chart_validity over an odd open
    return opens, eps, d, p


def glue_payload(rng) -> str:
    """A glue-check payload of a seeded dataset of any kind."""
    return as_payload(*glue_dataset(rng, rng.choice(PERTURBATIONS)))


def as_payload(opens, eps, d, p) -> str:
    """A dataset as a glue-check payload: cocycle keys are 1-based and
    rationals are strings."""
    return json.dumps({
        "cover": opens,
        "cocycle": {f"{i + 1},{j + 1}": str(e) for (i, j), e in eps.items()},
        "data": {"d": [str(x) for x in d], "p": [str(x) for x in p]},
    }, separators=(",", ":"))
