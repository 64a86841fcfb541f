"""Every function and method of ``src/quadalg`` has a caller in ``src/``.

An AST scan collects the names that ``src/quadalg`` reads and fails on a def
whose name is not among them.  A module-level function is read by a ``Name``,
an attribute or an export of ``quadalg/__init__.py``; a method only by an
attribute, since a bare name is a local or a function, never the method (a
local ``eps`` does not call ``LineBundleCocycle.eps``).  A def passes unless
it is uncalled and not listed in ``UNCALLED`` with a one-word
reason: "span" for a target of ``perfbench/spans.py`` (which the benchmark's
tracer and ``tests/test_spans.py`` pin), "api" for a method of an exported
class.  Dunder methods are called by Python itself and are not checked.
Docstrings, comments and tests do not count as callers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quadalg"

UNCALLED = {
    "cli.emit_table": "span",
    "ring.Ring.enumerate_elements": "span",
    "ring.QuotientRing.enumerate_elements": "span",
    "picard.QuadraticOrder.algebra": "api",
    "picard.ClassGroup.identity": "api",
    "picard.ClassGroup.inverse": "api",
    "forms.TwistedForm.coefficients": "api",
    "forms.GL2Matrix.identity": "api",
    "ring.RingElement.is_zero": "api",
    "ring.Mod2Element.is_zero": "api",
    "ring.Mod2Element.times": "api",
    "ring.Ring.sqrt": "api",
}


def uncalled(src: Path = SRC) -> list[str]:
    """The module.name or module.Class.name of every def in src whose name
    nothing in src reads (a method's, as an attribute), in file order."""
    defs, names, attrs = [], set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                prefix, body, readers = f"{path.stem}.{node.name}.", node.body, (attrs,)
            else:
                prefix, body, readers = f"{path.stem}.", [node], (names, attrs)
            defs += [(prefix + f.name, f.name, readers) for f in body
                     if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias) and path.name == "__init__.py":
                names.add(node.name)
    return [qualified for qualified, name, readers in defs
            if not any(name in read for read in readers)
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_function_has_a_caller_in_src():
    found = uncalled()
    assert [name for name in found if name not in UNCALLED] == []
    # no stale entry: each listed def exists and still has no caller
    assert set(found) == set(UNCALLED)
    assert set(UNCALLED.values()) <= {"span", "api"}
