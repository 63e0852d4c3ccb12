"""The integer E-basis kernel against the defining Fraction formulas.

Each E-basis element e_t = E_i A*_h E_j is taken here from the dense matrix
product (not from TAlgebra.e_basis, whose integers the kernel shares), and
every sum below is written out over plain dicts of Fractions.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from sl4cube.correspond import theta_scaled
from sl4cube.cube import TElem, t_algebra
from sl4cube.polyspace import STARRED, PolyVec, enumerate_profiles

CASES = [(N, b) for N in (2, 3) for b in (0, 3)]


def dense_e_basis(alg):
    return {t: alg.from_matrix(alg.e_basis_product_matrix(t)).coeffs for t in alg.triples}


def inner(alg, x, y):
    return sum(v * y.get(s, 0) * alg.cell_sizes[s] for s, v in x.items())


def combination(coeffs, basis):
    """sum over t of coeffs[t] * basis[t], as a dict of its nonzero cells."""
    out = {}
    for t, c in coeffs.items():
        for s, v in basis[t].items():
            out[s] = out.get(s, 0) + c * v
    return {s: v for s, v in out.items() if v}


def random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def random_telem(alg, rng):
    return TElem(alg, {t: random_fraction(rng) for t in alg.triples if rng.random() < 0.7})


@pytest.mark.parametrize("N,b", CASES)
def test_e_coords_match_inner_over_norm(N, b):
    alg = t_algebra(N, b)
    ebas = dense_e_basis(alg)
    rng = random.Random(10 * N + b)
    for _ in range(3):
        B = random_telem(alg, rng)
        want = {t: inner(alg, B.coeffs, e) / inner(alg, e, e) for t, e in ebas.items()}
        assert alg.e_coords(B) == want


@pytest.mark.parametrize("N,b", CASES)
def test_a_module_ops_match_spectral_sum(N, b):
    alg = t_algebra(N, b)
    ebas = dense_e_basis(alg)
    rng = random.Random(20 * N + b)
    for k, slot in ((1, 0), (2, 1), (3, 2)):  # theta_h, theta_i, theta_j
        op = alg.module_op("A", k)
        for _ in range(3):
            B = random_telem(alg, rng)
            coeffs = {t: inner(alg, B.coeffs, e) / inner(alg, e, e) * (N - 2 * t[slot]) for t, e in ebas.items()}
            assert op(B).coeffs == combination(coeffs, ebas)


@pytest.mark.parametrize("N,b", CASES)
def test_theta_starred_matches_weighted_e_sum(N, b):
    alg = t_algebra(N, b)
    ebas = dense_e_basis(alg)
    rng = random.Random(30 * N + b)
    profiles = enumerate_profiles(N)
    for _ in range(3):
        terms = {tuple(p): random_fraction(rng) for p in rng.sample(profiles, 4)}
        coeffs = {}
        for (r, s, t, u), c in terms.items():
            coeffs[(t + u, u + s, s + t)] = c * factorial(r) * factorial(s) * factorial(t) * factorial(u)
        assert theta_scaled(alg, PolyVec(STARRED, terms)).coeffs == combination(coeffs, ebas)


@pytest.mark.parametrize("N,b", CASES)
def test_s_antiautomorphism_matches_swapped_e_sum(N, b):
    alg = t_algebra(N, b)
    ebas = dense_e_basis(alg)
    rng = random.Random(40 * N + b)
    for _ in range(3):
        B = random_telem(alg, rng)
        coeffs = {(h, j, i): v for (h, i, j), v in B.coeffs.items()}
        assert alg.s_antiautomorphism(B).coeffs == combination(coeffs, ebas)
