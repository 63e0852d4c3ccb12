from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from sl4cube.exact import binomial, clear_denominators, factorial, pochhammer, require_rational


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(4) == 24
    assert factorial(10) == 3628800


def test_factorial_large_exact():
    assert factorial(30) == 265252859812191058636308480000000


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(5, -1) == 0
    assert binomial(6, 3) == 20
    assert binomial(3, 7) == 0


def test_pochhammer_values():
    assert pochhammer(-1, 0) == 1
    assert pochhammer(-1, 1) == -1
    assert pochhammer(-3, 2) == 6
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_pochhammer_terminates_past_integer(m, extra):
    n = m + 1 + extra
    assert pochhammer(-m, n) == 0


@given(st.integers(min_value=0, max_value=20))
def test_factorial_is_pochhammer_of_one(n):
    assert factorial(n) == pochhammer(1, n)


@given(st.integers(min_value=0, max_value=20), st.integers(min_value=-3, max_value=23))
def test_binomial_symmetry(n, k):
    assert binomial(n, k) == binomial(n, n - k)


def test_clear_denominators_values():
    assert clear_denominators([]) == ([], 1)
    assert clear_denominators([3, -2]) == ([3, -2], 1)
    assert clear_denominators([Fraction(1, 2), 1, Fraction(-2, 3)]) == ([3, 6, -4], 6)


@given(st.lists(st.fractions(max_denominator=50), max_size=8))
def test_clear_denominators_is_the_smallest_integer_multiple(values):
    ints, den = clear_denominators(iter(values))
    assert all(isinstance(a, int) for a in ints)
    assert [Fraction(a, den) for a in ints] == values
    assert gcd(den, *ints) == 1


def test_require_rational():
    for c in (0, -3, True, Fraction(2, 3)):
        require_rational(c)
    for c in (0.5, 1.0, complex(1, 0), "1"):
        with pytest.raises(TypeError, match="scalars must be rational"):
            require_rational(c)
