"""The one sparse exact vector type behind all three module realizations.

A vector is a tag naming the space it lives in plus integer numerators over
one positive denominator: the value at key k is ``nums[k] / den``.
Polynomials are keyed by exponent profile and tagged by their basis,
fixed-space vectors by profile and tagged (N, coordinate tag), algebra
elements by cell and tagged by their algebra, triple tensors by packed vertex
triple and tagged by N.  Arithmetic refuses to mix tags, except that zero
equals zero whatever its tag.  Each space states its invariant form once, in
its class's ``_form``, which ``inner`` and ``gram`` read.

Every vector is kept in lowest terms: each stored numerator is a nonzero int,
``den > 0`` and ``gcd(den, *nums.values()) == 1``, so the zero vector has
``den == 1``.  Equal vectors therefore store equal ``den`` and ``nums``.
"""

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .exact import clear_denominators, require_rational


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

    def __init__(self, space, coeffs=None):
        """The vector with tag space and the rational values coeffs; zeros are dropped."""
        self._set_values(space, {k: v for k, v in (coeffs or {}).items() if v})

    @classmethod
    def _of(cls, space, nums, den=1):
        """Wrap a dict of nonzero integer numerators over den > 0, in lowest terms."""
        v = object.__new__(cls)
        v.space = space
        v.nums, v.den = _lowest(nums, den)
        return v

    def _set_values(self, space, values):
        """Set the tag and the numerators from a fresh dict of nonzero rational
        values, which is kept as it is when they are all ints; TypeError on a
        value that is not rational."""
        self.space = space
        den = 1
        if others := [c for c in values.values() if type(c) is not int]:
            for c in others:
                require_rational(c)
            ints, den = clear_denominators(values.values())  # lowest terms already
            values = dict(zip(values, ints))
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

    def _form(self):
        """This vector in the basis where its space's form is diagonal, and the
        form's weight on a key there (None means 1): the plain dot product here."""
        return self, None

    def inner(self, other):
        """The space's form, summed over the integer numerators of the common
        keys in ``_form``'s basis: other is converted only when it is not self,
        and the tags are compared after, so two bases of one space pair.  One
        Fraction over the product of the denominators (an int when all are)."""
        a, weight = self._form()
        b = a if other is self else other._form()[0]
        a._require_same_space(b)
        small, big = a.nums, b.nums
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
        den = a.den * b.den
        return total if den == 1 else Fraction(total, den)

    def norm_sq(self):
        return self.inner(self)

    def __repr__(self):
        return f"{type(self).__name__}({self.space!r}, {dict(self.coeffs)!r})"


def gram(left, right=None):
    """The exact matrix G[a][b] = left[a].inner(right[b]), with Fraction cells.

    Each list of vectors is read once, so it may be a generator; right None
    means left.  Every vector must be of the space of left's first, which
    states the form (``_form``); ValueError otherwise.  The numerators in
    the form's basis are multiplied as they are stored, and the weights are
    cleared to integers once (``clear_denominators``), so each cell is an
    integer sum over the product of the denominators.  The right vectors are
    indexed by key, so a left vector meets only those it shares a key with.
    """
    forms = [v._form() for v in left]
    lvecs = [v for v, _ in forms]
    rvecs = lvecs if right is None else [v._form()[0] for v in right]
    if not lvecs:
        return []
    for v in lvecs if right is None else lvecs + rvecs:
        lvecs[0]._require_same_space(v)
    by_key = {}  # key -> [(right vector index, numerator times the weight numerator)]
    for b, v in enumerate(rvecs):
        for k, x in v.nums.items():
            by_key.setdefault(k, []).append((b, x))
    weight, wden = forms[0][1], 1
    if weight is not None:
        ws, wden = clear_denominators(weight(k) for k in by_key)
        for hits, w in zip(by_key.values(), ws):
            hits[:] = [(b, x * w) for b, x in hits]
    rdens = [v.den * wden for v in rvecs]
    out = []
    for v in lvecs:
        acc = [0] * len(rvecs)
        for k, a in v.nums.items():
            for b, x in by_key.get(k, ()):
                acc[b] += a * x
        out.append([Fraction(total, v.den * d) for total, d in zip(acc, rdens)])
    return out
