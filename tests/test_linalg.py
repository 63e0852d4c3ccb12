import random
from fractions import Fraction
from math import factorial

from sl4cube.linalg import Mat, gram, independent_rows, kernel_dim, rank, spans_match


def test_mat_basics():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    assert a + b == Mat([[1, 3], [4, 4]])
    assert a - b == Mat([[1, 1], [2, 4]])
    assert a @ b == Mat([[2, 1], [4, 3]])
    assert a.scale(Fraction(1, 2)) == Mat([[Fraction(1, 2), 1], [Fraction(3, 2), 2]])
    assert a.transpose() == Mat([[1, 3], [2, 4]])
    assert a.trace() == 5
    assert Mat.identity(2) @ a == a
    assert a.apply([1, 0]) == [1, 3]


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


def _pairwise_gram(left, right, weight):
    """Reference: each cell a Fraction sum over the common keys, pair by pair."""
    out = []
    for a in left:
        row = []
        for b in right:
            total = Fraction(0)
            for k, v in a.items():
                if k in b:
                    total += v * b[k] * (1 if weight is None else weight(k))
            row.append(total)
        out.append(row)
    return out


def _random_sparse_rows(rng, m, keys):
    rows = []
    for _ in range(m):
        row = {}
        for k in rng.sample(keys, rng.randint(0, len(keys))):  # the empty row included
            if rng.random() < 0.5:
                row[k] = rng.randint(-7, 7)
            else:
                row[k] = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        rows.append(row)
    return rows


def test_gram_matches_pairwise_inner():
    rng = random.Random(5)
    keys = [(r, s, t, u) for r in range(3) for s in range(3) for t in range(2) for u in range(2)]
    weights = (
        None,
        lambda k: sum(k) - 2,  # int, zero and negative for some keys
        lambda k: Fraction(1, factorial(k[0]) * factorial(k[1]) * factorial(k[2]) * factorial(k[3])),
        lambda k: Fraction(k[0] + 1, 3 ** k[1]),
    )
    for trial in range(120):
        left = _random_sparse_rows(rng, rng.randint(0, 6), keys)
        right = _random_sparse_rows(rng, rng.randint(0, 6), keys) if trial % 2 else None
        for weight in weights:
            want = _pairwise_gram(left, left if right is None else right, weight)
            got = gram(left, right, weight)
            assert got == want
            assert all(type(cell) is Fraction for row in got for cell in row)
            # rows given as a generator are read once, to the same matrix
            assert gram(iter(left), None if right is None else iter(right), weight) == want
