import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from sl4cube import suites
from sl4cube.cube import TElem, t_algebra
from sl4cube.polyspace import MONOMIAL, STARRED, PolyVec, Profile, _norm_sq, enumerate_profiles
from sl4cube.sparse import SparseVec, gram
from sl4cube.tensorspace import STAR_TILDE, TILDE, FixVec, TripleTensor, fix_weight


class Weighted(SparseVec):
    """A test space whose form weights key k by the weight its tag carries."""

    __slots__ = ()

    def _form(self):
        return self, self.space[1]


def in_weighted_space(weight, values):
    return Weighted(("weighted", weight), values)


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


def test_a_float_value_is_refused_by_every_constructor():
    # each constructor stores its values through SparseVec._set_values
    builds = [
        lambda c: PolyVec(MONOMIAL, {(1, 0, 0, 0): c}),
        lambda c: FixVec(1, TILDE, {(1, 0, 0, 0): c}),
        lambda c: TripleTensor(1, {0: c}),
        lambda c: TElem(t_algebra(1), {(0, 0, 0): c}),
    ]
    for build in builds:
        for bad in (0.5, 0.0, -0.0):  # a zero float too: the guard runs before zeros are dropped
            with pytest.raises(TypeError, match="scalars must be rational"):
                build(bad)
        assert build(Fraction(1, 2)) == Fraction(1, 2) * build(1)
        assert build(0).is_zero() and build(Fraction(0)).is_zero()
    with pytest.raises(TypeError, match="scalars must be rational"):
        TripleTensor(1, {0: 1, 1: 2.0})  # after an int value too


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
    assert A.inner(A) == sum(alg.cell_sizes[t] for t in A.coeffs)
    t = TripleTensor(1, {1: 2, 3: Fraction(1, 2)})
    assert t.inner(t) == t.norm_sq() == 4 + Fraction(1, 4)


# -- the storage against a plain dict-of-Fraction model ------------------------

KEYS = range(5)
SCALARS = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12)))
VALUES = st.dictionaries(st.sampled_from(KEYS), SCALARS, max_size=5)
POOL = 3
STEPS = st.one_of(
    st.tuples(st.just("add_scaled"), st.integers(0, POOL - 1), SCALARS),
    st.tuples(st.just("add"), st.integers(0, POOL - 1)),
    st.tuples(st.just("sub"), st.integers(0, POOL - 1)),
    st.tuples(st.just("scale"), SCALARS),
    st.tuples(st.just("inner"), st.integers(0, POOL - 1), st.booleans()),
    st.tuples(st.just("eq"), st.integers(0, POOL - 1)),
)


def weight(k):
    return Fraction(k + 1, 3)


def model(values):
    return {k: Fraction(v) for k, v in values.items() if v}


def model_add(a, c, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def assert_canonical(v, want):
    """Nonzero int numerators over den > 0 in lowest terms, with the model's values."""
    assert type(v.den) is int and v.den > 0
    assert all(type(a) is int and a for a in v.nums.values())
    assert gcd(v.den, *v.nums.values()) == 1
    assert v.nums or v.den == 1
    assert {k: Fraction(a, v.den) for k, a in v.nums.items()} == want
    assert dict(v.coeffs) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(VALUES, min_size=POOL, max_size=POOL), st.lists(STEPS, max_size=12))
def test_storage_follows_the_rational_model(inputs, steps):
    pool = [TripleTensor(1, values) for values in inputs]
    models = [model(values) for values in inputs]
    for v, want in zip(pool, models):
        assert_canonical(v, want)
    acc, want = TripleTensor(1), {}
    for op, *args in steps:
        if op == "add_scaled":
            j, c = args
            assert acc.add_scaled(c, pool[j]) is acc
            want = model_add(want, c, models[j])
        elif op == "add":
            acc, want = acc + pool[args[0]], model_add(want, 1, models[args[0]])
        elif op == "sub":
            acc, want = acc - pool[args[0]], model_add(want, -1, models[args[0]])
        elif op == "scale":
            c = args[0]
            acc, want = c * acc, {k: c * v for k, v in want.items() if c * v}
        elif op == "inner":
            j, weighted = args
            w = weight if weighted else (lambda k: 1)
            expect = sum((v * models[j].get(k, 0) * w(k) for k, v in want.items()), Fraction(0))
            if weighted:
                got = in_weighted_space(weight, acc.coeffs).inner(in_weighted_space(weight, pool[j].coeffs))
            else:
                got = acc.inner(pool[j])
            assert got == expect
        else:
            assert (acc == pool[args[0]]) == (want == models[args[0]])
        assert_canonical(acc, want)
        # equal values store equal numerators and denominator, however they were reached
        fresh = TripleTensor(1, want)
        assert acc == fresh and (acc.nums, acc.den) == (fresh.nums, fresh.den)
    for v, values in zip(pool, models):
        assert_canonical(v, values)  # no operation wrote through to its operands


def test_cancellation_returns_the_denominator_to_one():
    v = TripleTensor(1, {0: Fraction(1, 6), 3: Fraction(-5, 4)})
    acc = TripleTensor(1, {1: Fraction(2, 3)})
    acc.add_scaled(Fraction(3, 7), v)
    assert acc.den == 84
    acc.add_scaled(Fraction(-3, 7), v).add_scaled(Fraction(-1, 3), TripleTensor(1, {1: 2}))
    assert acc.is_zero() and acc.nums == {} and acc.den == 1
    assert (v - v).den == 1 and (0 * v).den == 1
    w = Fraction(1, 3) * v
    assert w.add_scaled(-1, w).is_zero() and w.den == 1  # an accumulator may take itself
    half = TripleTensor(1, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert (half + half).nums == {0: 1, 1: 1} and (half + half).den == 1


def test_equal_vectors_from_differently_scaled_inputs():
    v = TripleTensor(1, {0: Fraction(2, 3), 2: Fraction(-4, 9), 5: 2})
    routes = [
        Fraction(1, 3) * (3 * v),
        Fraction(5, 2) * (Fraction(2, 5) * v),
        (v + v) - v,
        TripleTensor(1).add_scaled(Fraction(1, 4), v).add_scaled(Fraction(3, 4), v),
        TripleTensor(1, {0: Fraction(6, 9), 2: Fraction(-8, 18), 5: Fraction(4, 2)}),
    ]
    for w in routes:
        assert w == v and (w.nums, w.den) == (v.nums, v.den) == ({0: 6, 2: -4, 5: 18}, 9)
    p = PolyVec(MONOMIAL, {(1, 0, 0, 0): Fraction(3, 6), (0, 1, 0, 0): Fraction(-2, 4)})
    assert p.nums == {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1} and p.den == 2
    assert p == Fraction(1, 2) * PolyVec(MONOMIAL, {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1})


def test_coeffs_is_a_read_only_rational_view():
    v = TripleTensor(1, {0: Fraction(1, 2), 1: 3})
    assert dict(v.coeffs) == {0: Fraction(1, 2), 1: 3}
    with pytest.raises(TypeError):
        v.coeffs[0] = 1
    assert v.coeffs == {0: Fraction(1, 2), 1: 3}


# -- row: the one dense reader of every space ---------------------------------


def row_cases():
    """(vector, the ordered keys of its space) for PolyVec in both bases, FixVec
    in both tags, TElem and TripleTensor at N = 2: each stores -3 at its
    fifth key, then 1/2 at its second."""
    profiles = enumerate_profiles(2)
    alg = t_algebra(2, 0)
    packed = list(range(8**2))
    pick = lambda keys: {keys[4]: -3, keys[1]: Fraction(1, 2)}
    return (
        [(PolyVec(basis, pick(profiles)), profiles) for basis in (MONOMIAL, STARRED)]
        + [(FixVec(2, tag, pick(profiles)), profiles) for tag in (TILDE, STAR_TILDE)]
        + [(TElem(alg, pick(alg.triples)), alg.triples), (TripleTensor(2, pick(packed)), packed)]
    )


def test_row_reads_the_values_in_the_order_of_the_keys():
    for v, keys in row_cases():
        want = [0] * len(keys)
        want[1], want[4] = Fraction(1, 2), -3
        got = v.row(keys)
        assert got == want
        assert [type(x) for x in got] == [Fraction if x else int for x in want]
        assert v.row(keys[::-1]) == want[::-1]
        assert v.row(keys[4:0:-3]) == [-3, Fraction(1, 2)]
        doubled = (2 * v).row(keys)
        assert doubled == [2 * x for x in want] and all(type(x) is int for x in doubled)
        assert type(v)._of(v.space, {}).row(keys) == [0] * len(keys)
        assert type(v)._of(v.space, {}).row([]) == []


def test_row_refuses_to_drop_a_stored_key():
    for v, keys in row_cases():
        with pytest.raises(KeyError) as err:
            v.row(keys[:4] + keys[5:])
        assert err.value.args == (keys[4],)
        with pytest.raises(KeyError) as err:
            v.row([])  # both stored keys are left out: the first stored is named
        assert err.value.args == (keys[4],)
        with pytest.raises(KeyError) as err:
            (2 * v).row(keys[2:])
        assert err.value.args == (keys[1],)


# -- each space's form, stated once in _form and read by inner and gram ---------


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
            lvecs = [in_weighted_space(weight, row) for row in left]
            rvecs = None if right is None else [in_weighted_space(weight, row) for row in right]
            got = gram(lvecs, rvecs)
            assert got == want
            assert all(type(cell) is Fraction for row in got for cell in row)
            # vectors given as a generator are read once, to the same matrix
            assert gram(iter(lvecs), None if rvecs is None else iter(rvecs)) == want


def _random_values(rng, keys):
    return {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in keys if rng.random() < 0.7}


def _lists_of_each_space():
    """Two lists of vectors of one space, for every vector type."""
    rng = random.Random(3)
    N = 2
    profiles = enumerate_profiles(N)
    draw = lambda make, keys: [make(_random_values(rng, keys)) for _ in range(4)] + [make({})]
    mono = draw(lambda c: PolyVec(MONOMIAL, c), profiles)
    star = draw(lambda c: PolyVec(STARRED, c), profiles)
    yield pytest.param(mono, draw(lambda c: PolyVec(MONOMIAL, c), profiles), id="polyvec_monomial")
    yield pytest.param(star, draw(lambda c: PolyVec(STARRED, c), profiles), id="polyvec_starred")
    yield pytest.param(mono, star, id="polyvec_monomial_vs_starred")
    for tag in (TILDE, STAR_TILDE):
        yield pytest.param(draw(lambda c: FixVec(N, tag, c), profiles), draw(lambda c: FixVec(N, tag, c), profiles), id=f"fixvec_{tag}")
    for basepoint in (0, 3):
        alg = t_algebra(N, basepoint)
        yield pytest.param(draw(lambda c: TElem(alg, c), alg.triples), draw(lambda c: TElem(alg, c), alg.triples), id=f"telem_{basepoint}")
    keys = range(1 << (3 * N))
    yield pytest.param(draw(lambda c: TripleTensor(N, c), keys), draw(lambda c: TripleTensor(N, c), keys), id="triple_tensor")


@pytest.mark.parametrize("left, right", _lists_of_each_space())
def test_gram_is_the_pairwise_inner_of_each_space(left, right):
    assert gram(left, right) == [[a.inner(b) for b in right] for a in left]
    assert gram(left) == [[a.inner(b) for b in left] for a in left]
    assert gram(right, left) == [[b.inner(a) for a in left] for b in right]


def test_inner_and_gram_refuse_another_space():
    alg = t_algebra(1, 0)
    pairs = [
        (FixVec.unit(1, TILDE, (1, 0, 0, 0)), FixVec.unit(1, STAR_TILDE, (1, 0, 0, 0))),
        (FixVec.unit(1, TILDE, (1, 0, 0, 0)), FixVec.unit(2, TILDE, (2, 0, 0, 0))),
        (TripleTensor.basis(1, 0, 1, 0), TripleTensor.basis(2, 0, 1, 0)),
        (alg.adjacency_elem(), t_algebra(1, 1).adjacency_elem()),
        (PolyVec.unit(MONOMIAL, (1, 0, 0, 0)), TripleTensor.basis(1, 0, 1, 0)),
        (alg.identity(), FixVec.unit(1, TILDE, (1, 0, 0, 0))),
    ]
    for v, w in pairs:
        for a, b in ((v, w), (w, v)):
            with pytest.raises(ValueError):
                a.inner(b)
            with pytest.raises(ValueError):
                gram([a], [b])
            with pytest.raises(ValueError):
                gram([a, b])
    # the two bases of P_N are one space: the form converts before it compares tags
    e, f = PolyVec.unit(MONOMIAL, (1, 0, 0, 0)), PolyVec.unit(STARRED, (1, 0, 0, 0))
    assert e.inner(f) == f.inner(e) == gram([e], [f])[0][0] == Fraction(1, 2)


def test_gram_weighs_the_form_only_at_keys_both_sides_hold():
    # as in inner, a key that only one side holds is never weighed: here the
    # weight r!s!t!u! of a negative exponent would raise
    e = PolyVec.unit(MONOMIAL, (0, 0, 1, 1))
    v = PolyVec._of(MONOMIAL, {Profile(0, 0, 1, 1): 1, Profile(-1, 0, 2, 1): 1})
    assert gram([e], [v]) == gram([v], [e]) == [[e.inner(v)]] == [[1]]


FORM_MUTANTS = {
    # each space's form, corrupted in its one statement, and checks that must fail
    "telem_weight_doubled": (
        TElem,
        lambda self: (self, lambda t: 2 * self.space.cell_sizes[t]),
        ("cube.product_oracle", "correspond.eps.form", "correspond.theta.form"),
    ),
    "fixvec_weight_doubled": (
        FixVec,
        lambda self: (self, lambda p: 2 * fix_weight(self.N)(p)),
        ("correspond.ddag.form", "correspond.eps.form"),
    ),
    "polyvec_unconverted": (PolyVec, lambda self: (self, _norm_sq), ("poly.pairing_constant", "special.pairing")),
}


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("mutant", FORM_MUTANTS)
def test_a_wrong_form_fails_the_checks_that_read_it(monkeypatch, mutant, N):
    cls, form, ids = FORM_MUTANTS[mutant]
    monkeypatch.setattr(cls, "_form", form)
    failed = {}
    for name in dict.fromkeys(i.split(".")[0] for i in ids):
        rep = suites.SUITES[name](N, random.Random(0), 0, 3)
        failed.update((c.id, c.witness) for c in rep.failures)
    for i in ids:
        assert failed.get(i), f"{mutant} passes {i} at N = {N}"
