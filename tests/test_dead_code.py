"""Every function and method of ``src/quadalg`` has a caller in ``src/``.

An AST scan collects the names that ``src/quadalg`` reads (each ``Name``, each
attribute, and each name that ``quadalg/__init__.py`` exports) and fails on a
def whose name is not among them, unless ``UNCALLED`` lists it with a one-word
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
    nothing in src reads, in file order."""
    defs, read = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                prefix, body = f"{path.stem}.{node.name}.", node.body
            else:
                prefix, body = f"{path.stem}.", [node]
            defs += [(prefix + f.name, f.name) for f in body if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias) and path.name == "__init__.py":
                read.add(node.name)
    return [qualified for qualified, name in defs
            if name not in read and not (name.startswith("__") and name.endswith("__"))]


def test_every_function_has_a_caller_in_src():
    found = uncalled()
    assert [name for name in found if name not in UNCALLED] == []
    # no stale entry: each listed def exists and still has no caller
    assert set(found) == set(UNCALLED)
    assert set(UNCALLED.values()) <= {"span", "api"}
