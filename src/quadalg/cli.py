"""Batch command-line front end.

Single results are emitted as compact JSON on stdout; discriminant tables as
CSV (or JSON with --format json).  Exit codes: 0 success, 2 validation or
usage error, 1 internal error, 141 stdout closed by the reader (as SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys

from . import algebras, forms, glue, picard
from .errors import QuadalgError, ResultTooLong, RootStepsTooLarge, SweepTooLarge, brief
from .ring import IntegerRing, Ring, construct_ring, int_value, json_int

# the ring aliases of the worked examples, each the descriptor --ring JSON would give
BUILTIN_RINGS = {
    "z": {"kind": "integers"},
    **{f"zsqrt{n}": {"kind": "table", "mul": [[[1, 0], [0, 1]], [[0, 1], [n, 0]]],
                     "one": [1, 0], "symbols": ["1", "w"]} for n in (2, 8)},
    **{f"zmod{m}": {"kind": "quotient", "base": {"kind": "integers"}, "m": m} for m in (4, 8)},
    "f4": {"kind": "quotient", "m": 2,
           "base": {"kind": "table", "mul": [[[1, 0], [0, 1]], [[0, 1], [-1, -1]]],
                    "one": [1, 0], "symbols": ["1", "x"]}},
    "biquad8": {"kind": "table", "one": [1, 0, 0, 0], "symbols": ["1", "X", "Y", "XY"], "mul": [
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        [(0, 1, 0, 0), (8, 0, 0, 0), (0, 0, 0, 1), (0, 0, 8, 0)],
        [(0, 0, 1, 0), (0, 0, 0, 1), (8, 0, 0, 0), (0, 8, 0, 0)],
        [(0, 0, 0, 1), (0, 0, 8, 0), (0, 8, 0, 0), (64, 0, 0, 0)]]},
}


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"a JSON object repeats the key {brief(key)}")
            seen.add(key)
    return obj


def _parse_int(text: str) -> int:
    """A JSON int literal, refused by name past the int-to-string digit limit, if any."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and (digits := len(text.lstrip("-"))) > limit:
        raise ValueError(f"a JSON integer has {digits} digits, more than Python's limit of {limit}")
    return int(text)


# json.loads for str, but a repeated object key (json.loads keeps the last value)
# and an int past the digit limit each raise a ValueError that names it
_loads = json.JSONDecoder(object_pairs_hook=_unique_keys, parse_int=_parse_int).decode


def builtin_ring(name: str) -> Ring:
    """A ring alias of ``BUILTIN_RINGS`` or else a JSON descriptor, read by ``construct_ring``."""
    return construct_ring(BUILTIN_RINGS[name] if name in BUILTIN_RINGS else _loads(name))


_TERM = re.compile(r"([+-]?)(\d*)([A-Za-z]+\d*)?")


def parse_element(ring: Ring, text: str):
    """Read an element from JSON coordinates or a symbolic sum like '3+w'."""
    text = text.strip()
    try:
        data = _loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, bool):
        raise ValueError(f"cannot parse element {brief(text)}")
    if isinstance(data, int):
        return ring.from_int(data)
    if isinstance(data, (list, dict)):
        return ring.element_from_json(data)
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty element")
    index_of = {sym: i for i, sym in enumerate(ring.symbols)}
    coords = [0] * ring.rank
    const = 0  # bare integers count multiples of the identity
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse element {brief(text)}")
        sign = -1 if m.group(1) == "-" else 1
        digits, sym = m.group(2), m.group(3)
        if sym is None:
            if not digits:
                raise ValueError(f"cannot parse element {brief(text)}")
            const += sign * int(digits)
        else:
            if sym not in index_of:
                raise ValueError(f"unknown symbol {brief(sym)} in {brief(text)}")
            coords[index_of[sym]] += sign * (int(digits) if digits else 1)
        pos = m.end()
    return ring.element(coords) + ring.from_int(const)


def _split_commas(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_algebra(ring: Ring, text: str) -> algebras.FreeQuadraticAlgebra:
    """Read 'r=...,s=...' into a free quadratic algebra."""
    fields = {}
    for part in _split_commas(text):
        key, _, value = part.partition("=")
        key = key.strip()
        if key in fields:
            raise ValueError(f"algebra spec repeats the field {brief(key)}")
        fields[key] = value.strip()
    if set(fields) != {"r", "s"}:
        raise ValueError(f"algebra spec must be 'r=...,s=...', got {brief(text)}")
    return algebras.FreeQuadraticAlgebra(ring, parse_element(ring, fields["r"]),
                                         parse_element(ring, fields["s"]))


def parse_form(ring: Ring, text: str) -> forms.TwistedForm:
    data = _loads(text)
    if not isinstance(data, list) or len(data) != 3:
        raise ValueError(f"form must be a JSON triple, got {brief(text)}")
    a, b, c = (ring.element_from_json(entry) for entry in data)
    return forms.TwistedForm(ring, a, b, c)


def render_form(q: forms.TwistedForm) -> list:
    to_json = q.ring.element_to_json
    return [to_json(q.a), to_json(q.b), to_json(q.c)]


def render_type(t: algebras.AlgebraType) -> dict:
    return {"delta": t.ring.element_to_json(t.delta), "parity": list(t.parity.residue)}


def render_hom(hom: algebras.AlgebraHom | None) -> dict:
    if hom is None:
        return {"isomorphic": False}
    to_json = hom.u.ring.element_to_json
    return {"isomorphic": True, "hom": {"u": to_json(hom.u), "v": to_json(hom.v)}}


def _dump(obj) -> str:
    try:
        return json.dumps(obj, separators=(",", ":"))
    except ValueError:  # an int past the interpreter's int-to-string limit
        raise ResultTooLong(f"the result has an integer of more than "
                            f"{sys.get_int_max_str_digits()} digits, Python's limit "
                            f"for printing an integer") from None


# -- subcommand handlers -------------------------------------------------------

def _cmd_reduce(args) -> str:
    q = parse_form(IntegerRing(), args.form)
    return _dump(render_form(forms.reduce_posdef(q)))


def _cmd_compose(args) -> str:
    order = picard.QuadraticOrder(args.delta, args.delta % 2)
    z = IntegerRing()
    q1, q2 = parse_form(z, args.form1), parse_form(z, args.form2)
    return _dump(render_form(picard.compose(order, q1, q2)))


def render_row(row: list[int]) -> tuple[int, int, str]:
    """h, picmod and the text [a1,b1,c1],[a2,b2,c2],... of a row of flat
    coefficients (``picard.reduced_triples``), the text made by one ``%``.  b
    is the only signed coefficient (a >= 1, c >= a), and each opposition orbit
    has one rep with b >= 0, so picmod is h less the '-'s."""
    h = len(row) // 3
    reps = ("[%d,%d,%d]," * h)[:-1] % tuple(row)
    return h, h - reps.count("-"), reps


def _cmd_classgroup(args) -> str:
    h, _, reps = render_row(picard.reduced_triples(args.delta))
    return '{"h":%d,"reps":[%s]}' % (h, reps)


def _cmd_picmodconj(args) -> str:
    _, count, reps = render_row(picard.reduced_triples(args.delta))
    # an orbit starts at each rep with b >= 0, '[a,' then a digit: the ',' before it ends one
    return '{"count":%d,"orbits":[[%s]]}' % (count, re.sub(r",(?=\[\d+,\d)", "],[", reps))


def _cmd_type(args) -> str:
    ring = builtin_ring(args.ring)
    alg = parse_algebra(ring, args.alg)
    return _dump(render_type(algebras.type_of(alg)))


def _cmd_natural_type(args) -> str:
    ring = builtin_ring(args.ring)
    q = parse_form(ring, args.form)
    return _dump(render_type(forms.natural_type(q)))


def _cmd_iso(args) -> str:
    ring = builtin_ring(args.ring)
    a = parse_algebra(ring, args.alg1)
    b = parse_algebra(ring, args.alg2)
    if ring.is_finite() and not ring.two_regular:
        hom = algebras.isomorphic_bruteforce(a, b)
    else:
        hom = algebras.algebras_isomorphic(a, b)
    return _dump(render_hom(hom))


def _cmd_oriented_iso(args) -> str:
    ring = builtin_ring(args.ring)
    a = parse_algebra(ring, args.alg1)
    b = parse_algebra(ring, args.alg2)
    t1 = algebras.Orientation(parse_element(ring, args.theta1))
    t2 = algebras.Orientation(parse_element(ring, args.theta2))
    return _dump(render_hom(algebras.oriented_isomorphic(a, t1, b, t2)))


def _cmd_autos(args) -> str:
    ring = builtin_ring(args.ring)
    alg = parse_algebra(ring, args.alg)
    if args.oriented:
        theta = algebras.Orientation(parse_element(ring, args.theta))
        homs = algebras.oriented_automorphisms_bruteforce(alg, theta)
    else:
        homs = algebras.automorphisms_bruteforce(alg)
    to_json = ring.element_to_json
    return _dump({"count": len(homs),
                  "automorphisms": [{"u": to_json(h.u), "v": to_json(h.v)} for h in homs]})


def _cmd_validate_triple(args) -> str:
    ring = builtin_ring(args.ring)
    delta = parse_element(ring, args.delta)
    parity = ring.mod2(parse_element(ring, args.parity))
    ok = algebras.is_valid_triple(ring, algebras.AlgebraType(delta, parity))
    return _dump({"valid": ok})


def _cmd_form2ideal(args) -> str:
    pitilde = args.pitilde if args.pitilde is not None else args.delta % 2
    order = picard.order_from_type(args.delta, pitilde)
    q = parse_form(IntegerRing(), args.form)
    return _dump(picard.form_to_ideal(q, order).to_json())


def _cmd_ideal2form(args) -> str:
    data = _loads(_read_payload(args))
    if not isinstance(data, dict):
        raise ValueError("ideal payload must be a JSON object")
    for key in ("delta", "pitilde", "hnf"):
        if key not in data:
            raise ValueError(f"ideal payload is missing {key!r}")
    hnf = data["hnf"]
    if not (isinstance(hnf, list) and len(hnf) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in hnf)):
        raise ValueError(f"'hnf' must be a 2x2 integer matrix, got {brief(hnf)}")
    (a, b), (zero, c) = [[json_int(x, "an 'hnf' entry") for x in row] for row in hnf]
    if zero:
        raise ValueError(f"'hnf' must be upper triangular, got {brief(hnf)}")
    order = picard.order_from_type(json_int(data["delta"], "'delta'"),
                                   json_int(data["pitilde"], "'pitilde'"))
    return _dump(render_form(picard.ideal_to_form(picard.OrderIdeal(order, a, b, c))))


def _parse_glue_payload(data):
    """Read {"cover": [...], "cocycle": {"i,j": ...}, "data": {"d": [...], "p": [...]}}."""
    if not isinstance(data, dict):
        raise ValueError("glue payload must be a JSON object")
    opens, entries, payload = data.get("cover"), data.get("cocycle"), data.get("data")
    if not isinstance(opens, list):
        raise ValueError("'cover' must be a list of integers")
    if not isinstance(entries, dict):
        raise ValueError("'cocycle' must be an object keyed by 'i,j'")
    if not (isinstance(payload, dict) and isinstance(payload.get("d"), list)
            and isinstance(payload.get("p"), list)):
        raise ValueError("'data' must be an object with lists 'd' and 'p'")
    cover = glue.PrincipalCover(int_value(f, "a 'cover' entry") for f in opens)
    eps, keys, k = {}, {}, cover.size
    for key, value in entries.items():
        try:
            i, j = map(int, key.split(","))
        except ValueError:
            i = j = 0
        if not 1 <= i < j <= k:
            raise ValueError(f"cocycle key {brief(key)} must be 'i,j' with 1 <= i < j <= {k}")
        if (i, j) in keys:
            raise ValueError(f"cocycle keys {brief(keys[(i, j)])} and {brief(key)} "
                             f"both name entry '{i},{j}'")
        keys[(i, j)] = key
        eps[(i - 1, j - 1)] = glue._as_pair(value, f"cocycle entry {brief(key)}")
    cocycle = glue.LineBundleCocycle(cover, eps)
    return cover, cocycle, glue.GluedTypeData(payload["d"], payload["p"])


def _cmd_glue_check(args):
    """The verification report as the JSON list that ``_dump`` would print.
    The payload is read here, so a bad one fails before the first byte."""
    return _iter_report(glue.verification_report(
        *_parse_glue_payload(_loads(_read_payload(args)))))


def _iter_report(report):
    """The rows of ``report`` in chunks of at most 4096, each row through one
    template: the check names are plain identifiers and the indices small
    ints, so nothing needs escaping.  Memory stays at one chunk of text."""
    rows = ('{"check":"%s","indices":[%s],"ok":%s}'
            % (check, ",".join(["%d"] * len(indices)) % indices, "true" if ok else "false")
            for check, indices, ok in report)
    # the report always has its "cover" row, so the first chunk is not empty
    yield "[" + ",".join(itertools.islice(rows, 4096))
    while chunk := ",".join(itertools.islice(rows, 4096)):
        yield "," + chunk
    yield "]"


def _read_payload(args) -> str:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            return fh.read()
    if args.payload is None:
        raise ValueError("provide inline JSON or --input FILE")
    return args.payload


def emit_table(min_delta: int, max_delta: int, fmt: str = "csv") -> str:
    """The whole table as one string, the chunks of ``iter_table`` joined:
    rows from windows of max(1024, |min| // 64) discriminants.  It holds the
    whole text, which ``run`` avoids by writing the chunks as they come."""
    return "".join(iter_table(min_delta, max_delta, fmt))


# per format: the row template, then what goes before the rows, between them and after
_TABLE_FORMATS = {
    "csv": ('%d,%d,%d,%d,"[%s]"', "delta,pitilde,h,picmod,reps", "\n", ""),
    "json": ('{"delta":%d,"pitilde":%d,"h":%d,"picmod":%d,"reps":[%s]}', "[", ",", "]"),
}


def iter_table(min_delta: int, max_delta: int, fmt: str = "csv"):
    """One row per valid discriminant in [min, max]: delta, pitilde, h,
    pic-mod-conjugation count, reduced representatives (``render_row``); as
    CSV with a header, or as the JSON list that ``_dump`` would print, in
    chunks without a final newline.

    The range is swept in windows of max(1024, |min| // 64) discriminants
    (``picard.reduced_triples_between``), and each window's rows are yielded
    before the next is swept, so memory stays at one window's coefficients and
    text: about 4 MB traced for [-60000, -3], where the whole table takes 151 MB.
    An invalid range raises InvalidRange before the first chunk, and so does
    one whose windows would sweep more than ``picard.SWEEP_PAIRS_CAP`` (a, b)
    pairs in all (``picard.sweep_pairs``), with SweepTooLarge, or take more
    than ``picard.ROOT_STEPS_CAP`` a-steps of ``picard.reduced_triples``
    (``picard.root_steps``), with RootStepsTooLarge.
    """
    picard.check_range(min_delta, max_delta)
    width = max(1024, -min_delta // 64)
    windows = [(lo, min(lo + width - 1, max_delta))
               for lo in range(min_delta, max_delta + 1, width)]
    pairs = sum(picard.sweep_pairs(lo, hi) for lo, hi in windows)
    if pairs > picard.SWEEP_PAIRS_CAP:
        raise SweepTooLarge(f"[{brief(min_delta)}, {brief(max_delta)}] would sweep about {pairs} "
                            f"(a, b) pairs; a table is capped at {picard.SWEEP_PAIRS_CAP}")
    steps = sum(picard.root_steps(lo, hi) for lo, hi in windows)
    if steps > picard.ROOT_STEPS_CAP:
        raise RootStepsTooLarge(f"[{brief(min_delta)}, {brief(max_delta)}] would take about {steps} "
                                f"a-steps of per-discriminant enumeration; a table is capped at "
                                f"{picard.ROOT_STEPS_CAP}")
    row, head, sep, tail = _TABLE_FORMATS[fmt]
    yield head
    lead = "\n" if fmt == "csv" else ""  # ends the header line; '[' needs no end
    for lo, hi in windows:
        rows = []  # frees the last window's rows before the next sweep
        for d, flat in picard.reduced_triples_between(lo, hi).items():
            rows.append(row % (d, d % 2, *render_row(flat)))
        if rows:
            yield lead + sep.join(rows)
            lead = sep
    yield tail


def _cmd_table(args):
    return iter_table(args.min, args.max, args.format)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="quadalg",
        description="classify quadratic algebras and map forms to Picard classes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("reduce", _cmd_reduce, "reduce a positive-definite form over Z")
    p.add_argument("form", help="form as a JSON triple, e.g. [9,10,4]")

    p = add("compose", _cmd_compose, "compose two form classes of one discriminant")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("form1")
    p.add_argument("form2")

    p = add("classgroup", _cmd_classgroup, "class group of a negative discriminant")
    p.add_argument("--delta", type=int, required=True)

    p = add("picmodconj", _cmd_picmodconj, "class set modulo conjugation")
    p.add_argument("--delta", type=int, required=True)

    p = add("type", _cmd_type, "type (discriminant, parity) of an algebra")
    p.add_argument("--ring", required=True)
    p.add_argument("--alg", required=True, help="e.g. 'r=w,s=-4'")

    p = add("natural-type", _cmd_natural_type, "natural type of a twisted form")
    p.add_argument("--ring", default="z")
    p.add_argument("form")

    p = add("iso", _cmd_iso, "decide isomorphism of two quadratic algebras")
    p.add_argument("--ring", required=True)
    p.add_argument("--alg1", required=True)
    p.add_argument("--alg2", required=True)

    p = add("oriented-iso", _cmd_oriented_iso, "decide oriented isomorphism")
    p.add_argument("--ring", required=True)
    p.add_argument("--alg1", required=True)
    p.add_argument("--alg2", required=True)
    p.add_argument("--theta1", required=True, help="orientation unit")
    p.add_argument("--theta2", required=True, help="orientation unit")

    p = add("autos", _cmd_autos, "automorphisms of an algebra (finite ring)")
    p.add_argument("--ring", required=True)
    p.add_argument("--alg", required=True)
    p.add_argument("--oriented", action="store_true")
    p.add_argument("--theta", default="1")

    p = add("validate-triple", _cmd_validate_triple, "is (delta, parity) a type?")
    p.add_argument("--ring", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--parity", required=True)

    p = add("form2ideal", _cmd_form2ideal, "form to HNF ideal (Cor.-style map)")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--pitilde", type=int, default=None)
    p.add_argument("form")

    p = add("ideal2form", _cmd_ideal2form, "HNF ideal to a form in its class")
    p.add_argument("payload", nargs="?", help="ideal JSON")
    p.add_argument("--input", help="read ideal JSON from a file")

    p = add("glue-check", _cmd_glue_check, "verify cover/cocycle/type data")
    p.add_argument("payload", nargs="?", help="glue data JSON")
    p.add_argument("--input", help="read glue data JSON from a file")

    p = add("table", _cmd_table, "class-number table over a discriminant range")
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)  # a string, or the chunks of a streamed table or report
        for chunk in [out] if isinstance(out, str) else out:
            sys.stdout.write(chunk)
        # flushed here, so that a closed pipe is caught below and not at exit
        print(flush=True)
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): send what is left, and the
        # flush at exit, to devnull and exit as a shell reports SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (QuadalgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
