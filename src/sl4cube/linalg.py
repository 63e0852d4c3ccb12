"""Small exact dense linear algebra over the rationals.

Matrices hold int or Fraction entries; nothing is ever rounded.  The sizes in
this package are modest (at most a few hundred rows), so one fraction-free
elimination on rows cleared to integers (``independent_rows``) serves rank,
kernel dimension and span comparison alike.  Multiplication skips
zero entries of the left factor, which makes products with sparse operators
(adjacency maps, idempotent numerators) cheap, and the rows a product,
sum or scalar multiple builds are wrapped as they are (``Mat._of``), not
copied again.  ``horner`` and
``lagrange`` take polynomials in an operator on any carrier with +, - and c * v.
"""

from math import gcd

from .exact import clear_denominators, require_rational


class Mat:
    """Dense matrix with exact entries.  Treated as immutable by convention."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def _of(cls, rows):
        """Wrap a fresh list of equal-length row lists as they are: no copy, no
        check.  Only for rows that nothing else holds."""
        m = object.__new__(cls)
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = len(rows[0]) if rows else 0
        return m

    @classmethod
    def zeros(cls, m, n):
        return cls([[0] * n for _ in range(m)])

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, values):
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    __hash__ = None

    def __add__(self, other):
        return Mat._of([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Mat._of([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __rmul__(self, c):
        require_rational(c)
        return Mat._of([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        n = other.ncols
        brows = other.rows
        out = []
        for arow in self.rows:
            acc = None  # the row's sum, started at its first nonzero term
            for a, brow in zip(arow, brows):
                if a:
                    acc = [a * y for y in brow] if acc is None else [x + a * y for x, y in zip(acc, brow)]
            out.append([0] * n if acc is None else acc)
        return Mat._of(out)

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        return [sum(a * v for a, v in zip(row, vec) if a) for row in self.rows]

    def transpose(self):
        return Mat([list(col) for col in zip(*self.rows)])

    def trace(self):
        return sum(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    def flatten(self):
        return [a for r in self.rows for a in r]

    def rank(self):
        return rank(self.rows)

    def __repr__(self):
        return f"Mat({self.rows!r})"


def horner(coeffs, apply, v):
    """p(X) v for the polynomial p with dense coefficients coeffs, low degree
    first, and the operator X given as the function apply, by Horner's rule."""
    res = coeffs[-1] * v
    for c in reversed(coeffs[:-1]):
        res = apply(res) + c * v
    return res


def lagrange(shifted, v, eigs, l):
    """The numerator and denominator of the Lagrange idempotent of eigs[l]
    at v: the product over m != l, in increasing m, of shifted(eigs[m], .),
    which is (X - eigs[m]) for the operator X, applied to v, and the product
    of the eigs[l] - eigs[m].  One eigenvalue gives (v, 1)."""
    den = 1
    for m, mu in enumerate(eigs):
        if m != l:
            v = shifted(mu, v)
            den *= eigs[l] - mu
    return v, den


def independent_rows(rows):
    """Indices of a maximal linearly independent subset, greedily from the front.

    The one elimination in this module, fraction-free after Bareiss (Math.
    Comp. 22, 1968): each row is cleared to integers and reduced against the
    kept rows by cross-multiplication, p * row - f * kept with p the kept
    row's pivot, so nothing is ever divided inexactly.  A kept row is divided
    by the gcd of its entries, which keeps the integers small.
    """
    echelon = []  # (pivot column, pivot, primitive integer row)
    keep = []
    for idx, raw in enumerate(rows):
        row, _ = clear_denominators(raw)
        for col, p, erow in echelon:
            f = row[col]
            if f:
                row = [p * a - f * b for a, b in zip(row, erow)]
        piv = next((c for c, a in enumerate(row) if a), None)
        if piv is None:
            continue
        g = gcd(*row)
        echelon.append((piv, row[piv] // g, [a // g for a in row]))
        keep.append(idx)
    return keep


def rank(rows):
    """Rank of a list-of-lists matrix with int or Fraction entries."""
    return len(independent_rows(rows))


def kernel_dim(rows):
    ncols = len(rows[0]) if rows else 0
    return ncols - rank(rows)


def spans_match(rows_a, rows_b):
    """True when the row spans of the two lists coincide (exact, both inclusions)."""
    ra = rank(rows_a)
    rb = rank(rows_b)
    if ra != rb:
        return False
    return rank(rows_a + rows_b) == ra
