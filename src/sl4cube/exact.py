"""Exact scalar arithmetic: rationals and the combinatorial functions used everywhere.

All scalars in this package are Python ints or ``fractions.Fraction``; there is
no floating point anywhere.  ``Fraction`` is arbitrary precision and always
reduced with positive denominator, which is exactly the Rational contract the
rest of the package relies on.  ``factorial`` is ``math.factorial``, which
raises ``ValueError`` on a negative argument.  ``require_rational`` guards scaling.
"""

from fractions import Fraction
from math import comb, factorial, lcm  # factorial is part of this module's API


def require_rational(c):
    """Raise TypeError unless c is an int or a Fraction."""
    if not isinstance(c, (int, Fraction)):
        # every form here is bilinear, which is valid for rational scalars only
        raise TypeError(f"scalars must be rational, got {type(c).__name__}")


def binomial(n, k):
    """C(n, k) for 0 <= k <= n, and 0 outside that range."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def pochhammer(a, n):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1.

    Works for int and Fraction arguments alike; the result is exact.
    """
    if n < 0:
        raise ValueError("pochhammer length must be >= 0")
    out = 1
    for i in range(n):
        out *= a + i
    return out


def clear_denominators(values):
    """(ints, den) with values[k] == ints[k] / den for exact rationals.

    ``den`` is the lcm of the denominators (an int counts as 1), so the ints
    are the smallest integer multiple of the values.
    """
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den
