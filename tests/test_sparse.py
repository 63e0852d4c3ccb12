from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from sl4cube.cube import t_algebra
from sl4cube.polyspace import MONOMIAL, STARRED, PolyVec
from sl4cube.tensorspace import STAR_TILDE, TILDE, FixVec, TripleTensor


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
            assert acc.inner(pool[j], weight if weighted else None) == expect
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
