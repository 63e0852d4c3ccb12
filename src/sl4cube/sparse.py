"""The one sparse exact vector type behind all three module realizations.

A vector is a tag naming the space it lives in plus integer numerators over
one positive denominator: the value at key k is ``nums[k] / den``.
Polynomials are keyed by exponent profile and tagged by their basis,
fixed-space vectors by profile and tagged (N, coordinate tag), algebra
elements by cell and tagged by their algebra, triple tensors by packed vertex
triple and tagged by N.  Arithmetic refuses to mix tags, except that zero
equals zero whatever its tag.

Every vector is kept in lowest terms: each stored numerator is a nonzero int,
``den > 0`` and ``gcd(den, *nums.values()) == 1``, so the zero vector has
``den == 1``.  Equal vectors therefore store equal ``den`` and ``nums``.
"""

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .exact import clear_denominators


def require_rational(c):
    """Raise TypeError unless c is an int or a Fraction."""
    if not isinstance(c, (int, Fraction)):
        # every form here is bilinear, which is valid for rational scalars only
        raise TypeError(f"scalars must be rational, got {type(c).__name__}")


def _lowest(nums, den):
    """(nums, den) in lowest terms: nums itself when gcd(den, *nums) is 1,
    else a reduced copy."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            return {k: a // g for k, a in nums.items()}, den // g
    return nums, den


class SparseVec:
    """Tag ``space``, nonzero integer numerators ``nums`` and denominator ``den``.

    Vectors are immutable by convention: only ``add_scaled`` writes, and only
    to an accumulator its caller created.
    """

    __slots__ = ("space", "nums", "den")

    @classmethod
    def _of(cls, space, nums, den=1):
        """Wrap a dict of nonzero integer numerators over den > 0, in lowest terms."""
        v = object.__new__(cls)
        v.space = space
        v.nums, v.den = _lowest(nums, den)
        return v

    def _set_values(self, space, values):
        """Set the tag and the numerators from a fresh dict of nonzero rational
        values, which is kept as it is when they are all ints."""
        self.space = space
        den = 1
        for c in values.values():
            if type(c) is not int:
                ints, den = clear_denominators(values.values())  # lowest terms already
                values = dict(zip(values, ints))
                break
        self.nums = values
        self.den = den

    @property
    def coeffs(self):
        """Read-only view of the rational values, built on each read."""
        den = self.den
        if den == 1:
            return MappingProxyType(self.nums)
        return MappingProxyType({k: Fraction(a, den) for k, a in self.nums.items()})

    def _require_same_space(self, other):
        if self.space is not other.space and self.space != other.space:
            raise ValueError(f"mixing {type(self).__name__} tags; convert first")

    def is_zero(self):
        return not self.nums

    def items(self):
        return self.coeffs.items()

    def add_scaled(self, c, other):
        """self += c * other, in place; returns self."""
        require_rational(c)
        self._require_same_space(other)
        onums = other.nums
        if not c or not onums:
            return self
        cn, cd = c.numerator, c.denominator * other.den
        den = lcm(self.den, cd)
        out = self.nums
        if onums is out:
            onums = dict(onums)
        if den != self.den:  # rescale the accumulator to the new common denominator
            up = den // self.den
            for k in out:
                out[k] *= up
        cn *= den // cd
        for k, v in onums.items():
            nv = out.get(k, 0) + cn * v
            if nv:
                out[k] = nv
            else:
                del out[k]
        self.nums, self.den = _lowest(out, den)
        return self

    def __add__(self, other):
        return self._of(self.space, dict(self.nums), self.den).add_scaled(1, other)

    def __sub__(self, other):
        return self._of(self.space, dict(self.nums), self.den).add_scaled(-1, other)

    def __rmul__(self, c):
        require_rational(c)
        if not c:
            return self._of(self.space, {})
        cn = c.numerator
        return self._of(self.space, {k: cn * v for k, v in self.nums.items()}, c.denominator * self.den)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if not self.nums and not other.nums:
            return True
        return self.space == other.space and self.den == other.den and self.nums == other.nums

    __hash__ = None

    def inner(self, other, weight=None):
        """Sum over common keys k of self[k] * other[k] * weight(k); weight None means 1.

        The sum runs over the integer numerators; the result is one Fraction
        over the product of the two denominators (an int when that is 1).
        Subclasses whose form weights the basis override this with the form.
        """
        self._require_same_space(other)
        small, big = self.nums, other.nums
        if len(small) > len(big):
            small, big = big, small
        total = 0
        if weight is None:
            for k, v in small.items():
                w = big.get(k)
                if w:
                    total += v * w
        else:
            for k, v in small.items():
                w = big.get(k)
                if w:
                    total += v * w * weight(k)
        den = self.den * other.den
        return total if den == 1 else Fraction(total, den)

    def norm_sq(self):
        return self.inner(self)

    def __repr__(self):
        return f"{type(self).__name__}({self.space!r}, {dict(self.coeffs)!r})"
