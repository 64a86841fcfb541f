"""README's "Library quick tour" block, run verbatim, its table of limits, and
the library names it cites; ``readme_cli_examples`` reads its CLI examples."""

import ast
import importlib
import re
import shlex
import sys
from pathlib import Path

from quadalg import errors, picard, ring

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, the stdout lines shown) of each example of README's CLI block."""
    block = README.read_text().split("## CLI", 1)[1].split("```\n", 2)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("quadalg "):
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith("  "):
            examples[-1][1].append(line[2:])
    return examples


def _quick_tour():
    return README.read_text().split("## Library quick tour", 1)[1].split("```python\n", 1)[1] \
        .split("```", 1)[0]


def test_readme_library_quick_tour():
    # each expression statement's value, in order, beside the final namespace
    namespace, shown = {}, []
    for stmt in ast.parse(_quick_tour()).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            shown.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    types, iso, composed, composed_on_ints, via_picard, ideal = shown
    r8 = namespace["r8"]
    assert [(t.delta, t.parity.residue) for t in types] \
        == [(r8.from_int(24), (0, 0)), (r8.from_int(24), (0, 1))]
    assert iso is None
    g = namespace["g"]
    assert g.h == 3
    assert [q.int_coefficients() for q in g.representatives] \
        == [(1, 0, 11), (3, 2, 4), (3, -2, 4)]
    for form in (composed, composed_on_ints, via_picard):
        assert form.int_coefficients() == (3, -2, 4)
    # <3, omega - 1>: HNF basis 3 and omega + 2
    assert ideal.hnf() == [[3, 2], [0, 1]]
    assert ideal.contains((-1, 1))


def test_readme_limits_match_their_constants():
    # each row of README's table of limits: the constant, its value (the first
    # backticked int), what it bounds, its errors and the module that checks it;
    # every *_CAP of ring and picard has a row
    section = README.read_text().split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    caps = {name for module in (ring, picard) for name in vars(module) if name.endswith("_CAP")}
    assert {row[0] for row in rows} == caps | {"sys.get_int_max_str_digits()"}
    for name, value, _, error, module in rows:
        value = int(value.split("`")[0])
        if name.endswith("_CAP"):
            assert getattr(importlib.import_module(f"quadalg.{module}"), name) == value, name
        else:
            assert module == "cli" and "get_int_max_str_digits" in \
                Path(importlib.import_module("quadalg.cli").__file__).read_text()
            assert getattr(sys.int_info, "default_max_str_digits", 4300) == value
        for raised in error.split("`, `"):
            assert raised == "ValueError" or issubclass(getattr(errors, raised), Exception), raised


def test_readme_names_resolve():
    # each backticked module.name (or module.py) of the library that README
    # cites exists, so a renamed or deleted function cannot stay in the prose
    cited = set(re.findall(r"`((?:ring|picard|cli|forms|algebras|glue)(?:\.\w+)+)`",
                           README.read_text()))
    assert {"ring.sqrt_mod_prime_power", "picard.table_rows"} <= cited
    for name in cited:
        module, *path = name.split(".")
        if path == ["py"]:
            assert Path(importlib.import_module(f"quadalg.{module}").__file__).name == name
            continue
        value = importlib.import_module(f"quadalg.{module}")
        for attr in path:
            assert hasattr(value, attr), name
            value = getattr(value, attr)
