"""The one-pass dispatch of ``cli.run`` against the two-pass parse it replaces.

For each argv, ``run`` must give the exit code, stdout and stderr that
``build_parser().parse_args(argv)`` followed by the handler gives: on fixed
argv (README's examples, help, usage errors, abbreviations, ``--``) and on
argv drawn from the command names, the option names and their values.  A
command whose argv parses cleanly must never reach the top-level parser.
"""

import contextlib
import io
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from quadalg import cli

from test_readme import readme_cli_examples

COMMANDS = ["reduce", "compose", "classgroup", "picmodconj", "type", "natural-type", "iso",
            "oriented-iso", "autos", "validate-triple", "form2ideal", "ideal2form",
            "glue-check", "table"]
GLUE = '{"cover":[2,3],"cocycle":{"1,2":"3/2"},"data":{"d":[-99,-44],"p":[1,0]}}'
TABLE = ["table", "--min", "-4", "--max", "-3"]
# argv that parse cleanly and exit 0
HAPPY = [argv for argv, _ in readme_cli_examples()] + [
    TABLE, TABLE + ["--format", "json"], ["table", "--mi", "-4", "--max", "-3"],
    ["table", "--min=-4", "--max=-3"], ["reduce", "--", "[9,10,4]"], ["glue-check", GLUE],
    ["form2ideal", "--delta", "-44", "--pitilde", "0", "[3,2,4]"],
]
FIXED = HAPPY + [["-h"], ["--help"]] + [[name, "-h"] for name in COMMANDS] + [
    [], ["no-such-command"], ["--bogus-command"], ["--", "reduce", "[9,10,4]"],
    TABLE + ["--"], TABLE + ["--bogus"], ["reduce", "[9,10,4]", "--bogus"],
    ["reduce", "[9,10,4]", "extra"], ["-h", "table"], ["table", "--min", "-4"],
    ["compose", "[1,1,1]", "[1,1,1]"], ["table", "--min", "x", "--max", "-3"],
    ["classgroup", "--delta", "1.5"], TABLE + ["--format", "xml"], ["tab"] + TABLE[1:],
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse: usage errors and -h
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _two_pass(argv):
    with mock.patch.object(cli, "_parse_args",
                           lambda argv: cli.build_parser().parse_args(argv)):
        return _run(argv)


def test_fixed_argv_match_the_two_pass_parse():
    assert sorted(cli.build_parser().commands) == sorted(COMMANDS)
    for argv in FIXED:
        assert _run(argv) == _two_pass(argv), argv
    assert _run(TABLE + ["--bogus"])[2].endswith(
        "\nquadalg: error: unrecognized arguments: --bogus\n")


def test_a_clean_command_is_parsed_once():
    parser = cli.build_parser()
    expected = [vars(parser.parse_args(argv)) for argv in HAPPY]
    with mock.patch.object(parser, "parse_known_args",
                           wraps=parser.parse_known_args) as top_level:
        for argv, namespace in zip(HAPPY, expected):
            assert vars(cli._parse_args(argv)) == namespace, argv
            assert _run(argv)[0] == 0, argv
        assert top_level.call_count == 0
        # an argument left over is named by the top-level parser
        assert _run(TABLE + ["--bogus"])[0] == 2
        assert top_level.call_count == 1


OPTIONS = ["-h", "--help", "--", "--bogus", "--delta", "--de", "--ring", "--alg", "--alg1",
           "--alg2", "--theta", "--theta1", "--theta2", "--oriented", "--parity", "--pitilde",
           "--min", "--mi", "--max", "--format", "--input"]
VALUES = ["-4", "-3", "-23", "-44", "0", "1", "x", "csv", "json", "xml", "z", "zsqrt2",
          "zmod8", "r=0,s=-2", "r=w,s=-4", "[9,10,4]", "[3,2,4]", "[1,1,1]", GLUE,
          "--min=-4", "--max=-3", "--delta=-23", "--format=json"]
ARGV = st.tuples(
    st.sampled_from(COMMANDS + COMMANDS + ["-h", "--", "--bogus", "tab", "--min"]),
    st.lists(st.sampled_from(OPTIONS + VALUES), max_size=7),
).map(lambda t: [t[0], *t[1]])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ARGV)
def test_drawn_argv_match_the_two_pass_parse(argv):
    assert _run(argv) == _two_pass(argv), argv
