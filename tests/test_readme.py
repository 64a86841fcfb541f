"""README's "Library quick tour" block, run verbatim."""

import ast
from pathlib import Path


def _quick_tour():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1] \
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
