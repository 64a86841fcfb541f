"""The glue report and the transition checks against the Fraction oracle."""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from quadalg import glue
from quadalg.glue import (
    GluedAlgebra,
    GluedTypeData,
    LineBundleCocycle,
    PrincipalCover,
    build_glued,
    check_cocycle_transitions,
    check_transition_hom,
    verification_report,
)
from quadalg.ring import in_localization

from glue_data import FOREIGN, PERTURBATIONS, glue_dataset
from oracles import (
    as_fraction,
    as_pair,
    cocycle_transitions_fractions,
    glue_report_fractions,
    glue_transitions_fractions,
    transition_hom_fractions,
    with_shift,
)


def objects(opens, eps, d, p):
    cover = PrincipalCover(opens)
    return cover, LineBundleCocycle(cover, eps), GluedTypeData(d, p)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.sampled_from(PERTURBATIONS))
def test_report_matches_fraction_oracle(seed, kind):
    cover, cocycle, data = objects(*glue_dataset(random.Random(seed), kind))
    report = list(verification_report(cover, cocycle, data))
    assert report == list(glue_report_fractions(cover, cocycle, data))


def perturbed(glued, rng, target, delta):
    """``glued`` with one value moved by delta.  "recentre" moves chart i's
    coordinate, omega_i -> omega_i + delta: p_i loses 2*delta, every t_ij gains
    delta and every t_ji loses e_ji*delta, so every identity still holds and
    only membership in the overlap rings can fail."""
    k = glued.cover.size
    i, j = rng.sample(range(k), 2)
    if target == "shift":
        return with_shift(glued, i, j, as_fraction(glued.transitions[(i, j)][1]) + delta)
    ptilde, disc = [as_fraction(x) for x in glued.ptilde], [as_fraction(x) for x in glued.disc]
    transitions = {key: (as_fraction(e), as_fraction(t)) for key, (e, t) in glued.transitions.items()}
    if target == "ptilde":
        ptilde[i] += delta
    elif target == "disc":
        disc[i] += delta
    elif target == "scale":
        e, t = transitions[(i, j)]
        transitions[(i, j)] = (e + delta, t)
    else:  # "recentre"
        ptilde[i] -= 2 * delta
        for m in range(k):
            if m != i:
                e, t = transitions[(i, m)]
                transitions[(i, m)] = (e, t + delta)
                e, t = transitions[(m, i)]
                transitions[(m, i)] = (e, t - e * delta)
    return GluedAlgebra(glued.cover, glued.charts, tuple(map(as_pair, ptilde)),
                        tuple(map(as_pair, disc)),
                        {key: (as_pair(e), as_pair(t)) for key, (e, t) in transitions.items()})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32),
       st.sampled_from(("shift", "recentre", "ptilde", "disc", "scale")),
       st.integers(-4, 4), st.sampled_from((1, 2, 3, 4) + FOREIGN))
def test_transition_checks_match_fraction_oracle(seed, target, num, den):
    # a valid glued algebra, then one value moved by num/den: a foreign den
    # leaves the overlap ring, num = 0 keeps the data valid
    rng = random.Random(seed)
    cover, cocycle, data = objects(*glue_dataset(rng, None))
    glued = build_glued(cover, cocycle, data)
    assert {key: (as_fraction(e), as_fraction(t)) for key, (e, t) in glued.transitions.items()} \
        == glue_transitions_fractions(cocycle, data)
    k = cover.size
    if k > 1:
        glued = perturbed(glued, rng, target, Fraction(num, den))
    for i, j in itertools.permutations(range(k), 2):
        assert check_transition_hom(glued, i, j) == transition_hom_fractions(glued, i, j)
    for i, j, t in itertools.product(range(k), repeat=3):
        assert check_cocycle_transitions(glued, i, j, t) == \
            cocycle_transitions_fractions(glued, i, j, t)


def scaler(rng, most):
    """(n, d) -> (k*n, k*d) for a fresh k in [1, most]: the glue objects and
    kernels take pairs that need not be in lowest terms."""
    def scaled(x):
        k = rng.randint(1, most)
        return k * x[0], k * x[1]
    return scaled


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.sampled_from(PERTURBATIONS), st.integers(1, 30))
def test_report_on_unreduced_pairs_matches_fraction_oracle(seed, kind, most):
    # the "zero" kind and the zero p and shift entries give zero numerators;
    # the cocycle and the type data keep each pair as they are given it
    rng = random.Random(seed)
    opens, eps, d, p = glue_dataset(rng, kind)
    scaled = scaler(rng, most)
    eps = {key: scaled(as_pair(e)) for key, e in eps.items()}
    d, p = [scaled(as_pair(x)) for x in d], [scaled(as_pair(x)) for x in p]
    cover, cocycle, data = objects(opens, eps, d, p)
    assert cocycle._eps == eps and data.d == tuple(d) and data.p == tuple(p)
    report = list(verification_report(cover, cocycle, data))
    assert report == list(glue_report_fractions(cover, cocycle, data))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32),
       st.sampled_from(("shift", "recentre", "ptilde", "disc", "scale")),
       st.integers(-4, 4), st.sampled_from((1, 2, 3, 4) + FOREIGN), st.integers(1, 30))
def test_transition_kernels_on_unreduced_pairs(seed, target, num, den, most):
    rng = random.Random(seed)
    cover, cocycle, data = objects(*glue_dataset(rng, None))
    glued = build_glued(cover, cocycle, data)
    k, f = cover.size, cover.opens
    if k > 1:
        glued = perturbed(glued, rng, target, Fraction(num, den))
    scaled = scaler(rng, most)
    p, d = [scaled(x) for x in glued.ptilde], [scaled(x) for x in glued.disc]
    tr = {key: (scaled(e), scaled(t)) for key, (e, t) in glued.transitions.items()}
    for i, j in itertools.permutations(range(k), 2):
        member = all(in_localization(x, f[i] * f[j]) for x in tr[(i, j)])
        assert (member and glue._transition_ok(p[i], d[i], p[j], d[j], *tr[(i, j)])) \
            == transition_hom_fractions(glued, i, j)
    for i, j, t in itertools.permutations(range(k), 3):
        ij, jt, it = tr[(i, j)], tr[(j, t)], tr[(i, t)]
        member = all(in_localization(x, f[i] * f[j] * f[t]) for x in (*ij, *jt, *it))
        assert (member and glue._triple_ok(ij, jt, it)) \
            == cocycle_transitions_fractions(glued, i, j, t)
