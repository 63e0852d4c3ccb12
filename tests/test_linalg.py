import random
from fractions import Fraction

import pytest

from sl4cube.linalg import Mat, independent_rows, kernel_dim, rank, spans_match


def test_mat_basics():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    assert a + b == Mat([[1, 3], [4, 4]])
    assert a - b == Mat([[1, 1], [2, 4]])
    assert a @ b == Mat([[2, 1], [4, 3]])
    assert Fraction(1, 2) * a == Mat([[Fraction(1, 2), 1], [Fraction(3, 2), 2]])
    assert a.transpose() == Mat([[1, 3], [2, 4]])
    assert a.trace() == 5
    assert Mat.identity(2) @ a == a
    assert a.apply([1, 0]) == [1, 3]


def test_mat_scales_by_rationals_only():
    a = Mat([[1, 2], [3, 4]])
    assert 3 * a == Mat([[3, 6], [9, 12]]) and all(type(x) is int for x in (3 * a).flatten())
    assert Fraction(1, 2) * a == Mat([[Fraction(1, 2), 1], [Fraction(3, 2), 2]])
    assert 0 * a == Mat.zeros(2, 2)
    for c in (0.5, 2.0, complex(1, 0)):
        with pytest.raises(TypeError, match="scalars must be rational"):
            c * Mat.identity(2)


def _random_rows(rng, m, n, fractions):
    """An m x n list of rows with about a third zero entries and one zero row
    when m > 1, ints or Fractions."""
    def entry():
        if rng.random() < 0.35:
            return 0
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if fractions else rng.randint(-9, 9)
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m > 1:
        rows[rng.randrange(m)] = [0] * n
    return rows


def _product(a, b):  # the plain triple loop
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "Fraction"])
def test_mat_kernel_matches_the_triple_loop(fractions):
    rng = random.Random(7)
    for _ in range(60):
        m, k, n = (rng.randint(1, 5) for _ in range(3))
        a, b, a2 = _random_rows(rng, m, k, fractions), _random_rows(rng, k, n, fractions), _random_rows(rng, m, k, fractions)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if fractions else rng.randint(-4, 4)
        A, B, A2 = Mat(a), Mat(b), Mat(a2)
        want = {
            "@": _product(a, b),
            "+": [[x + y for x, y in zip(r, s)] for r, s in zip(a, a2)],
            "-": [[x - y for x, y in zip(r, s)] for r, s in zip(a, a2)],
            "c *": [[c * x for x in r] for r in a],
        }
        got = {"@": A @ B, "+": A + A2, "-": A - A2, "c *": c * A}
        for op, M in got.items():
            assert M.rows == want[op], op
            assert (M.nrows, M.ncols) == (len(want[op]), len(want[op][0])), op
            if not fractions:
                assert all(type(x) is int for x in M.flatten()), op
        assert (A, B, A2) == (Mat(a), Mat(b), Mat(a2))  # no operand was written to
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat([[1, 2, 3]]) @ Mat([[1, 2, 3]])


@pytest.mark.parametrize("other", [[[1]], [[1, 2]], [[1], [2]], [[1, 2, 0], [3, 4, 0]]], ids=["1x1", "1x2", "2x1", "2x3"])
def test_mat_sum_and_difference_refuse_another_shape(other):
    # zip would truncate to the common block
    a = Mat([[1, 2], [3, 4]])
    for combine in (Mat.__add__, Mat.__sub__):
        with pytest.raises(ValueError, match="shape mismatch"):
            combine(a, Mat(other))
        with pytest.raises(ValueError, match="shape mismatch"):
            combine(Mat(other), a)


def test_mat_copies_and_checks_its_input():
    rows = [[1, 2], [3, 4]]
    a = Mat(rows)
    rows[0][0] = 99
    rows.append([5, 6])
    assert a == Mat([[1, 2], [3, 4]]) and a.nrows == 2
    for ragged in ([[1, 2], [3]], [[1], [2, 3]], [[], [1]]):
        with pytest.raises(ValueError, match="ragged rows"):
            Mat(ragged)
    z = Mat([[0, 0, 0], [0, 0, 0]]) @ Mat.identity(3)  # zero rows on the left
    assert z == Mat.zeros(2, 3) and all(type(x) is int for x in z.flatten())


def test_rank_simple():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert kernel_dim([[1, 1, 0], [0, 1, 1]]) == 1


def _gauss_independent_rows(rows):
    """Reference: greedy Gaussian elimination over Fraction, kept independent of src/."""
    echelon = []  # (pivot column, normalized row)
    keep = []
    for idx, raw in enumerate(rows):
        row = [Fraction(a) for a in raw]
        for col, erow in echelon:
            f = row[col]
            if f:
                row = [a - f * b for a, b in zip(row, erow)]
        piv = next((c for c, a in enumerate(row) if a), None)
        if piv is None:
            continue
        inv = 1 / row[piv]
        echelon.append((piv, [a * inv for a in row]))
        keep.append(idx)
    return keep


def _gauss_spans_match(rows_a, rows_b):
    r = lambda rows: len(_gauss_independent_rows(rows))
    return r(rows_a) == r(rows_b) == r(rows_a + rows_b)


def _random_rows(rng, m, n, fractions):
    if fractions:
        entry = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    else:
        entry = lambda: rng.randint(-5, 5)
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    # force dependencies: some rows become rational combinations of earlier ones
    for k in range(1, m):
        if rng.random() < 0.4:
            a, b = rng.randrange(k), rng.randrange(k)
            ca, cb = Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-3, 3)
            rows[k] = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
            if not fractions:
                rows[k] = [int(6 * x) for x in rows[k]]  # 6 clears every denominator of ca
    return rows


def test_rank_int_and_fraction_paths_agree():
    rng = random.Random(11)
    for trial in range(400):
        fractions = trial % 2 == 1
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        rows = _random_rows(rng, m, n, fractions)
        keep = _gauss_independent_rows(rows)
        assert independent_rows(rows) == keep
        assert rank(rows) == len(keep)
        assert kernel_dim(rows) == n - len(keep)
        # the same rows as Fractions keep the same indices
        assert independent_rows([[Fraction(a) for a in r] for r in rows]) == keep
        # spans against the reference: the kept rows, and the kept rows with
        # the last one replaced by a random row
        kept = [rows[k] for k in keep]
        other = kept[:-1] + [[rng.randint(-3, 3) for _ in range(n)]]
        for rows_b in (kept, other):
            assert spans_match(rows, rows_b) == _gauss_spans_match(rows, rows_b)


def test_independent_rows():
    rows = [[1, 0], [2, 0], [0, 1], [1, 1]]
    assert independent_rows(rows) == [0, 2]
    assert independent_rows([[0, 0]]) == []


def test_spans_match():
    a = [[1, 0, 0], [0, 1, 0]]
    b = [[1, 1, 0], [1, -1, 0]]
    c = [[1, 0, 0], [0, 0, 1]]
    assert spans_match(a, b)
    assert not spans_match(a, c)
