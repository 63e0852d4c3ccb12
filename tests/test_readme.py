"""The library quick tour in README.md runs and gives what its comments say."""

import ast
import re
from pathlib import Path

from sl4cube.polyspace import MONOMIAL, PolyVec

README = Path(__file__).resolve().parents[1] / "README.md"


def tour():
    """(namespace, [(comment, value)]) from running the quick-tour block: one
    pair per expression statement, its trailing comment and its value."""
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.splitlines()
    ns, out = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), ns)
            out.append((lines[stmt.lineno - 1].partition("#")[2].strip(), value))
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), ns)
    return ns, out


def test_quick_tour_states_its_results():
    ns, out = tour()
    (act_note, act), (form_note, form), (ideal_note, ideals), (theta_note, image) = out
    assert act_note == "x^2 + y^2"
    assert act == PolyVec(MONOMIAL, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1})
    assert form_note.startswith("1,")
    assert form == 1 and type(form) is int
    assert ideal_note == "ideals of dims 16 and 4"
    assert [len(ideal) for _, _, ideal in ideals] == [16, 4]
    assert "(0, 1, 1)" in theta_note
    assert image == ns["alg"].estar_basis()[(0, 1, 1)]
