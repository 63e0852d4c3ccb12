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


@pytest.mark.parametrize("basepoint", [0, 3])
def test_dual_distance_elem_corruption_fails_pointwise(monkeypatch, basepoint):
    real = cube.TAlgebra.dual_distance_elem

    def corrupted(self, h):
        return real(self, h) + cube.TElem(self, {(0, 1, 1): 1})

    monkeypatch.setattr(cube.TAlgebra, "dual_distance_elem", corrupted)
    rep = suites.suite_cube(2, basepoint, random.Random(0))
    failed = {c.id: c.witness for c in rep.failures}
    assert failed["cube.dual_distance_pointwise"].startswith("grade 0 at vertex ")
