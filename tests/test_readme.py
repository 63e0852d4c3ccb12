"""The library quick tour in README.md runs and gives what its comments say."""

import ast
import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import sl4cube
from sl4cube import cli, suites
from sl4cube.cube import Cube, TAlgebra, cube, t_algebra
from sl4cube.polyspace import MONOMIAL, PolyVec
from sl4cube.report import Report

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
    assert ideal_note == "ideals of dims 9 and 1"
    assert [len(ideal) for _, _, ideal in ideals] == [9, 1]
    assert "(0, 1, 1)" in theta_note
    assert image == ns["alg"].estar_basis()[(0, 1, 1)]


MODULES = {m.name: importlib.import_module(f"sl4cube.{m.name}") for m in pkgutil.iter_modules(sl4cube.__path__)}
CLASSES = {
    name: obj for mod in MODULES.values() for name, obj in vars(mod).items() if inspect.isclass(obj) and obj.__module__ == mod.__name__
}
# a built object to read the instance attributes of each class that sets them
INSTANCES = {Cube: lambda: cube(2), TAlgebra: lambda: t_algebra(2, 0), Report: Report}


def dotted_names():
    """Every backticked span of README.md, outside code blocks, that starts
    with a dotted name whose head is a sl4cube module, class or suite."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    heads = {*MODULES, *CLASSES, *suites.SUITES}
    names = (re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span) for span in re.findall(r"`([^`\n]+)`", text))
    return sorted({m.group() for m in names if m and m.group().partition(".")[0] in heads})


def resolves(name):
    head, *path = name.split(".")
    objs = [MODULES[head]] if head in MODULES else []
    if head in CLASSES:
        cls = CLASSES[head]
        objs += [cls] + ([INSTANCES[cls]()] if cls in INSTANCES else [])
    for obj in objs:
        try:
            functools.reduce(getattr, path, obj)
            return True
        except AttributeError:
            pass
    return False


def test_readme_dotted_names_exist():
    # each names a module or class attribute, or else a check id or id prefix
    # of the --n-max 2 report
    report, _ = cli.run(cli.SuiteConfig(n_max=2))
    ids = {c.id for c in report.checks}
    prefixes = {i.rsplit(".", k)[0] for i in ids for k in range(1, i.count(".") + 1)}
    names = dotted_names()
    assert "Cube.a_matrices" in names and "cube.product_oracle" in names
    assert [n for n in names if not resolves(n) and n not in ids | prefixes] == []
