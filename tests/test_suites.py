import random

import pytest

from sl4cube import cube, specialfn, suites


def _raise(*args):
    raise ArithmeticError("corrupted table")


@pytest.mark.parametrize(
    "run", [lambda: suites.suite_poly(1, random.Random(0)), lambda: suites.suite_cube(1, 0, random.Random(0))], ids=["poly", "cube"]
)
def test_krawtchouk_raise_is_a_failing_check(monkeypatch, run):
    # the family is built inside the checks that use it, so a raise there
    # ends in a report with failing checks rather than a traceback
    monkeypatch.setattr(specialfn, "krawtchouk", _raise)
    rep = run()
    assert rep.failures
    assert any(c.witness.startswith("ArithmeticError:") for c in rep.failures)


def test_idempotent_numerators_raise_is_a_failing_check(monkeypatch):
    monkeypatch.setattr(cube.Cube, "idempotent_numerators", _raise)
    rep = suites.suite_cube(1, 0, random.Random(0))
    failed = {c.id: c.witness for c in rep.failures}
    assert failed["cube.idempotents"].startswith("ArithmeticError:")
