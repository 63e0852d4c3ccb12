import random
from fractions import Fraction

import pytest

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
    pair_failures,
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
    assert bracket(x, y) == -1 * bracket(y, x)
    assert bracket(x, bracket(x, y)) == 4 * y


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


# -- pair_failures, the one body of the Gram checks ------------------------------

ROWS, COLS = [(0, 2), (1, 1)], [(3,), (4,), (5,)]  # 2 x 3: rectangular keys
WANT = [[1, 0, Fraction(1, 2)], [0, 6, 0]]


def test_pair_failures_yields_nothing_on_equal_matrices():
    assert list(pair_failures("g", ROWS, COLS, [list(r) for r in WANT], WANT)) == []
    assert list(pair_failures("g", [], COLS, [], [])) == []


def test_pair_failures_names_every_differing_entry_row_by_row():
    got = [[1, 0, 7], [9, 6, 0]]
    # (0, 2),(5,) comes first row by row; (1, 1),(3,) would come first column by column
    assert list(pair_failures("g", ROWS, COLS, got, WANT)) == ["g pair (0, 2),(5,)", "g pair (1, 1),(3,)"]


@pytest.mark.parametrize(
    "got",
    [
        [[1, 0, Fraction(1, 2)]],  # a row short
        [[1, 0, Fraction(1, 2)], [0, 6, 0], [0, 0, 0]],  # a row over
        [[1, 0, Fraction(1, 2)], [0, 6]],  # ragged: the agreeing prefix of a short row
        [[1, 0, Fraction(1, 2)], [0, 6, 0, 0]],  # ragged: a row too long
    ],
    ids=["short", "long", "ragged_short", "ragged_long"],
)
def test_pair_failures_refuses_a_matrix_of_another_shape(got):
    # a shape mismatch raises, from either side, rather than pass on the common block
    with pytest.raises(ValueError):
        list(pair_failures("g", ROWS, COLS, got, WANT))
    with pytest.raises(ValueError):
        list(pair_failures("g", ROWS, COLS, WANT, got))
