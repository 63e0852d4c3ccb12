"""The one sparse exact vector type behind all three module realizations.

A vector is a tag naming the space it lives in plus a dict from basis keys to
nonzero exact scalars (int or Fraction).  Polynomials are keyed by exponent
profile and tagged by their basis, fixed-space vectors by profile and tagged
(N, coordinate tag), algebra elements by cell and tagged by their algebra,
triple tensors by packed vertex triple and tagged by N.  Arithmetic refuses to
mix tags, except that zero equals zero whatever its tag.
"""

from fractions import Fraction


def require_rational(c):
    """Raise TypeError unless c is an int or a Fraction."""
    if not isinstance(c, (int, Fraction)):
        # every form here is bilinear, which is valid for rational scalars only
        raise TypeError(f"scalars must be rational, got {type(c).__name__}")


class SparseVec:
    """Tag ``space`` and coefficients ``coeffs`` with no zero values.

    Vectors are immutable by convention: only ``add_scaled`` writes, and only
    to an accumulator its caller created.
    """

    __slots__ = ("space", "coeffs")

    @classmethod
    def _of(cls, space, coeffs):
        """Wrap a dict of nonzero values with the right key type, without copying it."""
        v = object.__new__(cls)
        v.space = space
        v.coeffs = coeffs
        return v

    def _require_same_space(self, other):
        if self.space is not other.space and self.space != other.space:
            raise ValueError(f"mixing {type(self).__name__} tags; convert first")

    def is_zero(self):
        return not self.coeffs

    def items(self):
        return self.coeffs.items()

    def add_scaled(self, c, other):
        """self += c * other, in place; returns self."""
        require_rational(c)
        self._require_same_space(other)
        if not c:
            return self
        out = self.coeffs
        items = other.coeffs.items() if c == 1 else ((k, c * v) for k, v in other.coeffs.items())
        for k, v in items:
            nv = out.get(k, 0) + v
            if nv:
                out[k] = nv
            else:
                del out[k]
        return self

    def __add__(self, other):
        return self._of(self.space, dict(self.coeffs)).add_scaled(1, other)

    def __sub__(self, other):
        return self._of(self.space, dict(self.coeffs)).add_scaled(-1, other)

    def __rmul__(self, c):
        require_rational(c)
        if not c:
            return self._of(self.space, {})
        return self._of(self.space, {k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if not self.coeffs and not other.coeffs:
            return True
        return self.space == other.space and self.coeffs == other.coeffs

    __hash__ = None

    def inner(self, other, weight=None):
        """Sum over common keys k of self[k] * other[k] * weight(k); weight None means 1.

        Subclasses whose form weights the basis override this with the form.
        """
        self._require_same_space(other)
        small, big = self.coeffs, other.coeffs
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
        return total

    def norm_sq(self):
        return self.inner(self)

    def __repr__(self):
        return f"{type(self).__name__}({self.space!r}, {self.coeffs!r})"
