import random
from fractions import Fraction

from sl4cube.linalg import Mat
from sl4cube.sl4core import (
    UPSILON,
    GeneratorId,
    basis15,
    bracket,
    check_presentation,
    elementary_from_generators,
    elementary_targets,
    generator,
    tau,
)


def test_generator_matrices():
    assert generator(GeneratorId("Astar", 1)) == Mat.diag([1, 1, -1, -1])
    a1 = generator(GeneratorId("A", 1))
    assert a1 == Mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert bracket(a1, generator(GeneratorId("Astar", 1))).is_zero()


def test_bracket_properties():
    eye = Mat.identity(4)
    m = generator(GeneratorId("A", 2))
    assert bracket(eye, m).is_zero()
    x = generator(GeneratorId("A", 1))
    y = generator(GeneratorId("Astar", 2))
    assert bracket(x, y) == bracket(y, x).scale(-1)
    assert bracket(x, bracket(x, y)) == y.scale(4)


def test_presentation_all_pass():
    rep = check_presentation()
    assert rep.passed
    ids = {c.id for c in rep.checks}
    assert "presentation.commute.A1A2" in ids
    assert "presentation.serre.A2As3" in ids
    assert "presentation.triple.123" in ids


def test_basis15_rank_and_traces():
    basis = basis15()
    assert len(basis) == 15
    assert all(m.trace() == 0 for m in basis)
    # the nested bracket entries really are recomputed brackets
    b1 = generator(GeneratorId("Astar", 1))
    b2 = generator(GeneratorId("Astar", 2))
    a3 = generator(GeneratorId("A", 3))
    assert basis[12] == bracket(b1, bracket(b2, a3))


def test_elementary_formulas():
    e12 = elementary_from_generators(1, 2)
    assert e12 == Mat([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    e34 = elementary_from_generators(3, 4)
    assert e34 == Mat([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    d1 = elementary_from_generators(1, 1)
    assert d1 == Mat.diag([1, -1, 0, 0])
    assert all(got == want for _, got, want in elementary_targets())
    assert len(elementary_targets()) == 15


def test_tau():
    eye = Mat.identity(4)
    assert UPSILON @ UPSILON == eye
    a1 = generator(GeneratorId("A", 1))
    assert tau(a1) == generator(GeneratorId("Astar", 1))
    assert tau(tau(generator(GeneratorId("A", 2)))) == generator(GeneratorId("A", 2))
    assert tau(eye) == eye


def test_upsilon_intertwines():
    for k in (1, 2, 3):
        a = generator(GeneratorId("A", k))
        b = generator(GeneratorId("Astar", k))
        assert a @ UPSILON == UPSILON @ b
        assert b @ UPSILON == UPSILON @ a


def test_tau_matches_conjugation_by_upsilon():
    rng = random.Random(2)
    ints = [Mat([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]) for _ in range(20)]
    fracs = [Mat([[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)] for _ in range(4)]) for _ in range(20)]
    for m in basis15() + ints + fracs:
        assert tau(m) == UPSILON @ m @ UPSILON
    # integer input whose image is not integral
    assert tau(Mat.diag([1, 0, 0, 0])) == Mat([[Fraction(1, 4)] * 4] * 4)
