"""Every subcommand on malformed and well-formed input: the exit code is 0 or
2 (never 1, an internal error), and stdout is the same on a second run.

Each argument is well formed four times in five, so that most runs reach the
library, and malformed otherwise.  Sizes are kept small: quotient rings of at
most 144 elements, |delta| below about 2000 and discriminant ranges at most
50 wide.  Apart from those, Z[1/f] exponents at and past EXPONENT_CAP,
powers of a 60-bit f at and past POWER_BITS_CAP, and Z[sqrt(N)] with N up to
10^30 (whose fundamental unit may have about sqrt(N) digits) must end each run
within a time bound, and forms with coefficients of 2000 to 4300 digits, at
Python's int-to-string digit limit, must exit 0 or with a named error.
"""

import contextlib
import io
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadalg.cli import run
from quadalg.ring import EXPONENT_CAP, POWER_BITS_CAP

from glue_data import glue_payload

SMALL = st.integers(-40, 40)
JUNK = st.sampled_from([
    "", " ", "[", "]", "{", "}", "null", "true", "1.5", '"3"', "[]", "[1]", "[1,2,3,4]",
    "[[1]]", "{}", '{"k":1}', "nan", "1e9", "+", "w", "3+", "2w-1", "x+X", "XY-3Y",
    "r=1", "r=1,s", "s=1,r=2,t=3", "=", ",", "0/0", "1/0", "é", "-5", "-h", "--",
])
# a JSON value nested at most one level: what a field may hold instead
SCALAR = st.one_of(SMALL, st.booleans(), st.none(),
                   st.sampled_from([1.5, -0.0, 2.0, "", "x", "3", "3/2", "1e5", "-1/0"]))
JSON_VALUE = st.one_of(SCALAR, st.lists(SCALAR, max_size=4),
                       st.dictionaries(st.sampled_from(["coords", "k", "kind", "m"]), SCALAR,
                                       max_size=2))
JSON_TEXT = st.one_of(JSON_VALUE.map(json.dumps), JUNK)


def _mostly(valid, malformed):
    return st.integers(0, 4).flatmap(lambda n: malformed if n == 0 else valid)


# -- rings and their elements ----------------------------------------------------------

def _zsqrt(n):
    return {"kind": "table", "mul": [[[1, 0], [0, 1]], [[0, 1], [n, 0]]], "one": [1, 0]}


F4_BASE = {"kind": "table", "mul": [[[1, 0], [0, 1]], [[0, 1], [-1, -1]]], "one": [1, 0]}
# (--ring text, rank, symbols other than 1)
ALIASES = [("z", 1, ""), ("zsqrt2", 2, "w"), ("zsqrt8", 2, "w"), ("zmod4", 1, ""),
           ("zmod8", 1, ""), ("f4", 2, "x"), ("biquad8", 4, "XY")]
QUOTIENT_BASES = [({"kind": "integers"}, 1)] + [(F4_BASE, 2)] \
    + [(_zsqrt(n), 2) for n in range(-3, 9)]
VALID_RING = st.one_of(
    st.sampled_from(ALIASES),
    st.just(({"kind": "integers"}, 1, "")),
    st.integers(-5, 9).map(lambda n: (_zsqrt(n), 2, "e1")),
    st.tuples(st.sampled_from(QUOTIENT_BASES), st.integers(2, 12)).map(
        lambda bm: ({"kind": "quotient", "base": bm[0][0], "m": bm[1]}, bm[0][1], "e1")),
    st.integers(2, 12).map(lambda f: ({"kind": "localization", "f": f}, 1, "")),
).map(lambda r: (r[0] if isinstance(r[0], str) else json.dumps(r[0]), r[1], r[2]))


def _tensor(n):
    return st.lists(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                             min_size=n, max_size=n), min_size=n, max_size=n)


MALFORMED_DESCRIPTOR = st.one_of(
    st.builds(lambda mul, one: {"kind": "table", "mul": mul, **one},
              st.integers(1, 2).flatmap(_tensor),
              st.one_of(st.just({}), st.lists(st.integers(-1, 1), min_size=1, max_size=3)
                        .map(lambda one: {"one": one}))),
    st.builds(lambda base, m: {"kind": "quotient", "base": base, "m": m},
              JSON_VALUE, st.one_of(st.integers(-2, 1), SCALAR)),
    st.builds(lambda f: {"kind": "localization", "f": f}, st.one_of(st.integers(-2, 1), SCALAR)),
    st.dictionaries(st.sampled_from(["kind", "base", "m", "f", "mul", "one", "rank"]),
                    JSON_VALUE, max_size=3),
)
MALFORMED_RING = st.one_of(MALFORMED_DESCRIPTOR.map(json.dumps), JSON_TEXT) \
    .map(lambda text: (text, 2, "w"))
RING = _mostly(VALID_RING, MALFORMED_RING)

COORDS = st.lists(st.integers(-9, 9), max_size=5)
ANY_ELEMENT = st.one_of(
    SMALL.map(str), COORDS.map(json.dumps), JSON_TEXT,
    st.builds(lambda c, k: json.dumps({"coords": c, "k": k}), COORDS, SCALAR))


def _element_of(rank, symbols):
    """Elements written as an int, coordinates, {"coords", "k"} (k may be
    negative) or a sum of terms in the ring's symbols."""
    coords = st.lists(st.integers(-9, 9), min_size=rank, max_size=rank)
    terms = st.tuples(st.sampled_from(["+", "-"]), st.integers(0, 13),
                      st.sampled_from(["", symbols] if symbols else [""]))
    symbolic = st.lists(terms, min_size=1, max_size=3).map(
        lambda ts: "".join(f"{s}{n or ''}{sym}" if sym else f"{s}{n}" for s, n, sym in ts))
    valid = st.one_of(SMALL.map(str), coords.map(json.dumps), symbolic,
                      st.builds(lambda c, k: json.dumps({"coords": c, "k": k}),
                                coords, st.integers(-2, 4)))
    return _mostly(valid, ANY_ELEMENT)


def _algebra(element):
    return _mostly(st.builds("r={},s={}".format, element, element), JUNK)


# -- forms over Z ------------------------------------------------------------------------

TRIPLE = st.tuples(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
DEFINITE = st.tuples(st.integers(1, 15), st.integers(-15, 15), st.integers(1, 15)) \
    .filter(lambda t: t[1] * t[1] < 4 * t[0] * t[2])
FORM_ENTRY = st.one_of(SMALL, SCALAR, COORDS)
MALFORMED_FORM = st.one_of(st.lists(FORM_ENTRY, max_size=4).map(json.dumps), JUNK)


def _form(triples):
    return _mostly(triples.map(lambda t: json.dumps(list(t))), MALFORMED_FORM)


def _disc(t):
    return t[1] * t[1] - 4 * t[0] * t[2]


# -- per-subcommand argv -------------------------------------------------------------------

@st.composite
def ring_argv(draw, name):
    ring, rank, symbols = draw(RING)
    element = _element_of(rank, symbols)
    alg = _algebra(element)
    argv = [name, "--ring", ring]
    if name == "type":
        argv += ["--alg", draw(alg)]
    elif name == "natural-type":
        entry = st.one_of(SMALL, st.lists(st.integers(-9, 9), min_size=rank, max_size=rank))
        argv += [draw(_mostly(st.lists(entry, min_size=3, max_size=3).map(json.dumps),
                              MALFORMED_FORM))]
    elif name in ("iso", "oriented-iso"):
        argv += ["--alg1", draw(alg), "--alg2", draw(alg)]
        if name == "oriented-iso":
            theta = st.one_of(st.sampled_from(["1", "-1", "2", "3+w", "3-w", "1+x"]), element)
            argv += ["--theta1", draw(theta), "--theta2", draw(theta)]
    elif name == "autos":
        argv += ["--alg", draw(alg)]
        if draw(st.booleans()):
            argv += ["--oriented"] + (["--theta", draw(element)] if draw(st.booleans()) else [])
    else:  # validate-triple
        argv += ["--delta", draw(element), "--parity", draw(element)]
    return argv


@st.composite
def forms_argv(draw, name):
    t = draw(DEFINITE)
    delta = draw(_mostly(st.just(str(_disc(t))), st.one_of(st.integers(-300, 20).map(str),
                                                             JUNK)))
    if name == "reduce":
        return [name, draw(_form(st.one_of(st.just(t), TRIPLE)))]
    if name in ("classgroup", "picmodconj"):
        return [name, "--delta", delta]
    if name == "compose":
        a, b, c = t
        other = st.sampled_from([t, (a, -b, c), (c, b, a), (1, b % 2, (b % 2 - _disc(t)) // 4)])
        return [name, "--delta", delta, draw(_form(st.just(t))), draw(_form(other))]
    pitilde = draw(st.one_of(st.just([]), st.integers(-1, 2).map(lambda p: ["--pitilde", str(p)]),
                             JUNK.map(lambda p: ["--pitilde", p])))
    return [name, "--delta", delta] + pitilde + [draw(_form(st.just(t)))]  # form2ideal


@st.composite
def ideal_payload(draw):
    a, b, c = draw(DEFINITE)
    delta = _disc((a, b, c))
    n = draw(st.integers(1, 3))
    ideal = {"delta": delta, "pitilde": delta % 2,
             "hnf": [[n * a, n * ((delta % 2 - b) // 2 % a)], [0, n]]}
    damage, key = draw(st.integers(0, 7)), draw(st.sampled_from(sorted(ideal)))
    if damage == 0:
        del ideal[key]
    elif damage == 1:
        ideal[key] = draw(st.one_of(JSON_VALUE, st.lists(st.lists(
            st.one_of(st.integers(-3, 20), SCALAR), max_size=3), max_size=3)))
    return json.dumps(ideal)


GLUE_ENTRY = st.one_of(SMALL, st.builds("{}/{}".format, st.integers(-50, 50),
                                        st.integers(-3, 12)), SCALAR)
MALFORMED_GLUE = st.one_of(
    st.fixed_dictionaries({}, optional={
        "cover": st.one_of(st.lists(st.one_of(st.integers(-2, 40), SCALAR), max_size=4),
                           JSON_VALUE),
        "cocycle": st.one_of(st.dictionaries(
            st.sampled_from(["1,2", "1,3", "2,3", "0,1", "2,1", "1,1", "a,b", "1,2,3", ""]),
            GLUE_ENTRY, max_size=4), JSON_VALUE),
        "data": st.one_of(st.fixed_dictionaries({}, optional={
            "d": st.one_of(st.lists(GLUE_ENTRY, max_size=4), JSON_VALUE),
            "p": st.one_of(st.lists(GLUE_ENTRY, max_size=4), JSON_VALUE)}), JSON_VALUE),
    }).map(json.dumps),
    JSON_TEXT,
)
GLUE_PAYLOAD = _mostly(st.integers(0, 2**32).map(lambda s: glue_payload(random.Random(s))),
                       MALFORMED_GLUE)


def _payload_argv(name, payload):
    return st.one_of(st.just([name]), payload.map(lambda p: [name, p]))


ARGV = st.one_of(
    *[forms_argv(name) for name in ("reduce", "compose", "classgroup", "picmodconj",
                                    "form2ideal")],
    *[ring_argv(name) for name in ("type", "natural-type", "iso", "oriented-iso", "autos",
                                   "validate-triple")],
    _payload_argv("ideal2form", _mostly(ideal_payload(), JSON_TEXT)),
    _payload_argv("glue-check", GLUE_PAYLOAD),
    st.tuples(st.integers(-2000, 10), st.integers(-3, 50),
              st.sampled_from([[], ["--format", "json"], ["--format", "csv"],
                               ["--format", "xml"]])).map(
        lambda t: ["table", "--min", str(t[0]), "--max", str(t[0] + t[1])] + t[2]),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse: usage errors and -h
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(ARGV)
def test_cli_exits_0_or_2_and_repeats_its_stdout(argv):
    code, out, err = _run(argv)
    assert code in (0, 2), (argv, err)
    assert code == 0 or err, argv
    assert _run(argv)[:2] == (code, out), argv


# -- Z[1/f] exponents at and past the cap ---------------------------------------------------

BIG_K = st.sampled_from([EXPONENT_CAP - 1, EXPONENT_CAP, EXPONENT_CAP + 1, 10**6, 10**100])
RING_COMMANDS = ["type", "natural-type", "iso", "oriented-iso", "autos", "validate-triple"]


def _ring_command(draw, ring, el, alg, names=RING_COMMANDS):
    """A ring subcommand from ``names`` over the --ring text ``ring``; ``el``
    and ``alg`` draw an element and an algebra."""
    name = draw(st.sampled_from(names))
    if name == "type":
        return [name, "--ring", ring, "--alg", alg()]
    if name == "natural-type":
        return [name, "--ring", ring, f"[{el()},{el()},{el()}]"]
    if name == "iso":
        return [name, "--ring", ring, "--alg1", alg(), "--alg2", alg()]
    if name == "oriented-iso":
        return [name, "--ring", ring, "--alg1", alg(), "--alg2", alg(),
                "--theta1", el(), "--theta2", el()]
    if name == "autos":
        return [name, "--ring", ring, "--alg", alg(), "--oriented", "--theta", el()]
    return [name, "--ring", ring, "--delta", el(), "--parity", el()]


@st.composite
def big_exponent_argv(draw, fs=(2, 3, 6, 12, 49), big_k=BIG_K):
    """A ring subcommand over Z[1/f], f drawn from ``fs``, whose elements
    mostly carry an exponent drawn from ``big_k``, near or past a cap."""
    ring = json.dumps({"kind": "localization", "f": draw(st.sampled_from(fs))})

    def el():
        k = draw(st.one_of(big_k, big_k, st.integers(0, 4)))
        return json.dumps({"coords": [draw(st.integers(-9, 9))], "k": k})

    return _ring_command(draw, ring, el, lambda: f"r={el()},s={el()}")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(big_exponent_argv())
def test_large_exponents_exit_0_or_2_within_a_bound(argv):
    start = time.perf_counter()
    code, _, err = _run(argv)
    assert code in (0, 2), (argv, err)
    assert time.perf_counter() - start < 2.0, argv


# f of 60 and 61 bits: k = POWER_BITS_CAP // 60 is the largest exponent the first
# may carry, and it is past the cap for the second
LARGE_F_K = st.sampled_from([POWER_BITS_CAP // 60, POWER_BITS_CAP // 60 + 1, EXPONENT_CAP, 10**6])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(big_exponent_argv(fs=(10**18, 2**61 - 1), big_k=LARGE_F_K))
def test_large_f_exits_0_or_2_within_a_bound(argv):
    start = time.perf_counter()
    code, _, err = _run(argv)
    assert code in (0, 2), (argv, err)
    assert time.perf_counter() - start < 2.0, argv


# -- Z[sqrt(N)] for large N ---------------------------------------------------------------

LARGE_N = [10**9 + 7, 4 * (10**9 + 7), 10**15 + 37, 10**30 + 57]


@st.composite
def large_n_argv(draw):
    """A ring subcommand over Z[sqrt(N)], N drawn from ``LARGE_N``, with small
    coordinates; 3 algebras in 4 have delta = 0 (r = 2m + b*w with N*b^2 in
    4Z, s = r^2/4), and half of the subcommands are ``iso``."""
    n = draw(st.sampled_from(LARGE_N))
    ring = json.dumps({**_zsqrt(n), "symbols": ["1", "w"]})
    element = st.lists(st.integers(-9, 9), min_size=2, max_size=2).map(json.dumps)

    def alg():
        if draw(st.integers(0, 3)) == 0:
            return f"r={draw(element)},s={draw(element)}"
        m, b = draw(st.integers(-3, 3)), draw(st.sampled_from([0, 2] if n % 4 else [0, 1, 2]))
        return f"r=[{2 * m},{b}],s=[{m * m + n * b * b // 4},{m * b}]"

    names = RING_COMMANDS + ["iso"] * (len(RING_COMMANDS) - 1)
    return _ring_command(draw, ring, lambda: draw(element), alg, names)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(large_n_argv())
def test_large_n_exits_0_or_2_within_a_bound(argv):
    start = time.perf_counter()
    code, _, err = _run(argv)
    assert code in (0, 2), (argv, err)
    assert time.perf_counter() - start < 2.0, argv


# -- coefficients at Python's int-to-string digit limit ---------------------------------

# 2000 to 4300 digits: each fits the limit alone, while b^2 - 4ac may not
HUGE = st.builds(lambda digits, lead, sign: sign * (lead + 1) * 10 ** (digits - 1) - sign,
                 st.integers(2000, 4300), st.integers(1, 8), st.sampled_from([1, -1]))
COEFFICIENT = st.one_of(HUGE, HUGE, SMALL)


@st.composite
def digit_limit_argv(draw, name):
    """reduce, natural-type, compose or form2ideal (``name``) on forms with
    coefficients of 2000 to 4300 digits; a --delta is the first form's
    discriminant when that fits the limit, else another huge or small
    negative int."""
    a, b, c = (draw(COEFFICIENT) for _ in range(3))
    form = json.dumps([a, b, c])
    if name in ("reduce", "natural-type"):
        return [name, form]
    disc = b * b - 4 * a * c
    fits = abs(disc) < 10**4300
    delta = draw(st.one_of(*([st.just(disc)] if fits else []), HUGE.map(lambda n: -abs(n)),
                           st.integers(-300, -3)))
    if name == "compose":
        other = draw(st.sampled_from([form, json.dumps([a, -b, c])]))
        return [name, "--delta", str(delta), form, other]
    return [name, "--delta", str(delta), form]


@pytest.mark.parametrize("name", ["reduce", "natural-type", "compose", "form2ideal"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_digit_limit_keeps_the_named_errors(name, data):
    # an int past the limit can raise where a message prints it; every exit 2
    # must still be a named error, never Python's advice on the limit
    argv = data.draw(digit_limit_argv(name))
    code, _, err = _run(argv)
    assert code in (0, 2), err
    assert code == 0 or err.startswith("error: "), err[:300]
    assert "set_int_max_str_digits" not in err, err[:300]
