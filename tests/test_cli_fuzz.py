"""Every subcommand on malformed and well-formed input: the exit code is 0 or
2 (never 1, an internal error), and stdout is the same on a second run.

Each argument is well formed four times in five, so that most runs reach the
library, and malformed otherwise.  Sizes are kept small: quotient rings of at
most 144 elements, |delta| below about 2000 and discriminant ranges at most
50 wide.
"""

import contextlib
import io
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from quadalg.cli import run

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
