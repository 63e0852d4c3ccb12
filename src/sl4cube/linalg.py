"""Small exact dense linear algebra over the rationals.

Matrices hold int or Fraction entries; nothing is ever rounded.  The sizes in
this package are modest (at most a few hundred rows), so one fraction-free
elimination on rows cleared to integers (``independent_rows``) serves rank,
kernel dimension and span comparison alike.  Multiplication skips
zero entries of the left factor, which makes products with sparse operators
(adjacency maps, idempotent numerators) cheap.  ``gram`` takes every pairwise
form value of two lists of sparse rows in integers.  ``horner`` and
``lagrange`` take polynomials in an operator on any carrier with +, - and c * v.
"""

from fractions import Fraction
from math import gcd

from .exact import clear_denominators


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
        return Mat([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Mat([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __rmul__(self, c):
        return Mat([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        n = other.ncols
        brows = other.rows
        out = []
        for arow in self.rows:
            acc = [0] * n
            for k, a in enumerate(arow):
                if a:
                    brow = brows[k]
                    acc = [x + a * y for x, y in zip(acc, brow)]
            out.append(acc)
        return Mat(out)

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


def _cleared(rows):
    """(keys, integer values, denominator) of each sparse row, read once."""
    return [(list(row), *clear_denominators(row.values())) for row in rows]


def gram(left, right=None, weight=None):
    """The exact matrix G[a][b] = sum over keys k of left[a][k] * right[b][k] * weight(k).

    Rows are dicts from keys to int or Fraction values, and each list of rows
    is read once, so it may be a generator; ``right`` None means ``left`` and
    ``weight`` None means 1.  Each row is cleared to integers by its own
    denominator and the weights by theirs (``clear_denominators``), so every
    dot product is a sum of integer products, and each cell is one Fraction
    over the product of the three denominators.  The right rows are indexed by
    key, so a left row meets only the right rows it shares a key with.
    """
    lrows = _cleared(left)
    rrows = lrows if right is None else _cleared(right)
    by_key = {}  # key -> ([right row index], [integer value times the weight numerator])
    for b, (keys, ints, _) in enumerate(rrows):
        for k, v in zip(keys, ints):
            hit = by_key.get(k)
            if hit is None:
                by_key[k] = hit = ([], [])
            hit[0].append(b)
            hit[1].append(v)
    wden = 1
    if weight is not None:
        ws, wden = clear_denominators(weight(k) for k in by_key)
        for (_, values), w in zip(by_key.values(), ws):
            values[:] = [v * w for v in values]
    rdens = [den * wden for _, _, den in rrows]
    out = []
    for keys, ints, den in lrows:
        acc = [0] * len(rrows)
        for k, v in zip(keys, ints):
            hit = by_key.get(k)
            if hit:
                for b, x in zip(*hit):
                    acc[b] += v * x
        out.append([Fraction(a, den * d) for a, d in zip(acc, rdens)])
    return out


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
