"""The dense-row basis change, the Hermitian form and the integer-list
E-combinations against references written out here.

convert_basis is compared with the profile-keyed dict accumulation of the
integer expansions, hermitian with a Fraction sum over the substituted
linear forms, and the starred theta, the antiautomorphism and the three
A-kind operators with Fraction combinations of the E-basis elements; each
result must also be stored in lowest terms.
"""

import random
from fractions import Fraction
from math import factorial, gcd

import pytest

from sl4cube import polyspace as ps
from sl4cube.correspond import theta_scaled
from sl4cube.cube import TElem, t_algebra, triple_of_profile
from sl4cube.polyspace import MONOMIAL, STARRED, PolyVec

BASES = [(MONOMIAL, STARRED), (STARRED, MONOMIAL)]
# every N the default run checks, at the first, last and a middle vertex
ALG_CASES = sorted({(N, b % 2**N) for N in range(6) for b in (0, 5, 2**N - 1)})


def dict_convert(v, target):
    """The change of basis accumulated in a dict keyed by profile."""
    top = max((p.degree for p in v.nums), default=0)
    acc = {}
    for p, m in v.nums.items():
        m <<= top - p.degree
        for q, c in ps._product_expansion(*p).items():
            acc[q] = acc.get(q, 0) + m * c
    return PolyVec._of(target, {q: a for q, a in acc.items() if a}, v.den << top)


def substituted(profile):
    """The basis vector of the profile written in the other basis: each
    variable replaced by half its signed sum, multiplied out in Fractions."""
    rows = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))
    poly = {(0, 0, 0, 0): Fraction(1)}
    for signs, power in zip(rows, profile):
        for _ in range(power):
            out = {}
            for q, c in poly.items():
                for k, sign in enumerate(signs):
                    key = tuple(e + (k == m) for m, e in enumerate(q))
                    out[key] = out.get(key, 0) + c * Fraction(sign, 2)
            poly = out
    return poly


def monomial_coeffs(v):
    if v.basis == MONOMIAL:
        return dict(v.coeffs)
    out = {}
    for p, c in v.coeffs.items():
        for q, e in substituted(p).items():
            out[q] = out.get(q, 0) + c * e
    return out


def norm(p):
    r, s, t, u = p
    return factorial(r) * factorial(s) * factorial(t) * factorial(u)


def fraction_hermitian(v, w):
    a, b = monomial_coeffs(v), monomial_coeffs(w)
    return sum(c * b.get(q, 0) * norm(q) for q, c in a.items())


def random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 8)))


def vectors(basis, N, rng):
    """The zero vector, sparse and full degree-N vectors with Fraction
    coefficients, and vectors mixing degree N with the degrees below."""
    profiles = ps.enumerate_profiles(N)
    out = [PolyVec.zero(basis), PolyVec(basis, {p: random_fraction(rng) for p in profiles})]
    out += [PolyVec(basis, {p: random_fraction(rng) for p in rng.sample(profiles, min(3, len(profiles)))}) for _ in range(3)]
    for low in range(N):
        mixed = {p: random_fraction(rng) for p in rng.sample(profiles, min(2, len(profiles)))}
        mixed.update({p: random_fraction(rng) for p in rng.sample(ps.enumerate_profiles(low), 2 if low else 1)})
        out.append(PolyVec(basis, mixed))
    return out


def assert_lowest(x):
    assert x.den > 0
    assert all(type(a) is int and a for a in x.nums.values())
    assert gcd(x.den, *x.nums.values()) == 1
    if not x.nums:
        assert x.den == 1


@pytest.mark.parametrize("source, target", BASES)
@pytest.mark.parametrize("N", range(6))
def test_convert_basis_matches_dict_accumulation(source, target, N):
    rng = random.Random(100 * N + (source == STARRED))
    for v in vectors(source, N, rng):
        got = ps.convert_basis(v, target)
        want = dict_convert(v, target)
        assert got.basis == target and got == want
        assert_lowest(got)
        assert ps.convert_basis(got, source) == v


@pytest.mark.parametrize("N", range(6))
def test_hermitian_matches_fraction_sum(N):
    rng = random.Random(200 + N)
    vecs = vectors(MONOMIAL, N, rng) + vectors(STARRED, N, rng)
    pairs = [(v, w) for v in vecs for w in rng.sample(vecs, 3)]
    for v, w in pairs:
        assert ps.hermitian(v, w) == fraction_hermitian(v, w)
    for v in vecs:
        copy = PolyVec(v.basis, dict(v.coeffs))
        assert copy is not v
        want = fraction_hermitian(v, v)
        assert ps.hermitian(v, v) == ps.hermitian(v, copy) == ps.hermitian(copy, v) == ps.norm_sq(v) == want


def random_telem(alg, rng):
    return TElem(alg, {t: random_fraction(rng) for t in alg.triples if rng.random() < 0.7})


@pytest.mark.parametrize("N, b", ALG_CASES)
def test_starred_theta_in_lowest_terms(N, b):
    alg = t_algebra(N, b)
    ebas = alg.e_basis()
    rng = random.Random(300 + 40 * N + b)
    for v in vectors(STARRED, N, rng)[:5]:  # the homogeneous ones
        got = theta_scaled(alg, v)
        want = alg.zero()
        for p, c in v.coeffs.items():
            want.add_scaled(c * norm(p), ebas[triple_of_profile(p)])
        assert got == want
        assert_lowest(got)


@pytest.mark.parametrize("N, b", ALG_CASES)
def test_e_combinations_in_lowest_terms(N, b):
    alg = t_algebra(N, b)
    ebas = alg.e_basis()
    rng = random.Random(400 + 40 * N + b)
    elems = [alg.zero()] + [random_telem(alg, rng) for _ in range(3)]
    for B in elems:
        got = alg.s_antiautomorphism(B)
        want = alg.zero()
        for (h, i, j), c in B.coeffs.items():
            want.add_scaled(c, ebas[(h, j, i)])
        assert got == want
        assert_lowest(got)
    for k, slot in ((1, 0), (2, 1), (3, 2)):  # theta_h, theta_i, theta_j
        op = alg.module_op("A", k)
        for B in elems:
            got = op(B)
            want = alg.zero()
            for t, c in alg.e_coords(B).items():
                want.add_scaled(c * (N - 2 * t[slot]), ebas[t])
            assert got == want
            assert_lowest(got)
