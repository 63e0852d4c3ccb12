from fractions import Fraction

import pytest

from sl4cube.cube import t_algebra
from sl4cube.polyspace import MONOMIAL, STARRED, PolyVec
from sl4cube.tensorspace import STAR_TILDE, TILDE, FixVec, TripleTensor


def one_of_each():
    """A nonzero vector of every realization, with a second tag for the same class."""
    return [
        (PolyVec.unit(MONOMIAL, (1, 0, 0, 0)), PolyVec.unit(STARRED, (1, 0, 0, 0))),
        (FixVec.unit(1, TILDE, (1, 0, 0, 0)), FixVec.unit(1, STAR_TILDE, (1, 0, 0, 0))),
        (TripleTensor.basis(1, 0, 1, 0), TripleTensor.basis(2, 0, 1, 0)),
        (t_algebra(1, 0).adjacency_elem(), t_algebra(1, 1).adjacency_elem()),
    ]


def test_mixed_tags_raise():
    for v, w in one_of_each():
        with pytest.raises(ValueError):
            v + w
        with pytest.raises(ValueError):
            v.add_scaled(2, w)


def test_nonrational_scalar_raises():
    for v, _ in one_of_each():
        with pytest.raises(TypeError):
            1.5 * v
        with pytest.raises(TypeError):
            v.add_scaled(0.5, v)
        assert Fraction(1, 2) * v + Fraction(1, 2) * v == v


def test_zero_equals_zero_across_tags():
    for v, w in one_of_each():
        assert 0 * v == 0 * w
        assert (v - v).is_zero() and v - v == w - w
        assert v != w


def test_add_scaled_in_place_and_cancelling():
    v = PolyVec(MONOMIAL, {(1, 0, 0, 0): 2, (0, 1, 0, 0): Fraction(1, 3)})
    acc = PolyVec.zero(MONOMIAL)
    assert acc.add_scaled(3, v) is acc
    assert acc == 3 * v
    acc.add_scaled(-3, v)
    assert acc.is_zero() and not acc.coeffs


def test_inner_weights_each_key():
    alg = t_algebra(2, 0)
    A = alg.adjacency_elem()
    assert A.inner(A) == sum(alg.cell_sizes[t] for t in A.coords)
    t = TripleTensor(1, {1: 2, 3: Fraction(1, 2)})
    assert t.inner(t) == t.norm_sq() == 4 + Fraction(1, 4)
