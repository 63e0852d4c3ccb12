"""The integer E-basis kernel against the defining Fraction formulas.

Each E-basis element e_t = E_i A*_h E_j is taken here from the dense matrix
product (not from TAlgebra.e_basis, whose integers the kernel shares), and
every sum below is written out over plain dicts of Fractions.  The cached
A-kind operator matrices are also compared with the per-call route they are
built from, and the tables shared across basepoints are checked by identity.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from sl4cube.correspond import theta_scaled
from sl4cube.cube import Cube, TAlgebra, TElem, t_algebra
from sl4cube.linalg import Mat
from sl4cube.polyspace import STARRED, PolyVec, enumerate_profiles

CASES = [(N, b) for N in (2, 3) for b in (0, 3)]
# every N the default run checks, at the first, last and a middle vertex
OP_CASES = sorted({(N, b % 2**N) for N in range(6) for b in (0, 5, 2**N - 1)})


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


@pytest.mark.parametrize("N,b", OP_CASES)
def test_cached_a_ops_match_the_e_basis_route(N, b):
    # the cached matrices give what _e_combination(e_coords(B), theta) gives,
    # down to the order of the stored cells
    alg = t_algebra(N, b)
    rng = random.Random(50 * N + b)
    elems = [alg.zero()] + [random_telem(alg, rng) for _ in range(3)]
    for k, slot in ((1, 0), (2, 1), (3, 2)):  # theta_h, theta_i, theta_j
        theta = {t: N - 2 * t[slot] for t in alg.triples}
        op = alg.module_op("A", k)
        for B in elems:
            got, want = op(B), alg._e_combination(alg.e_coords(B), theta)
            assert got == want and list(got.nums.items()) == list(want.nums.items())
        with pytest.raises(ValueError, match="mixing TElem tags"):
            op(random_telem(TAlgebra(N, b), rng))


def test_basepoints_share_e_basis_storage_by_value():
    a, b = t_algebra(3, 0), t_algebra(3, 5)
    ea, eb = a.e_basis(), b.e_basis()
    sa, sb = a.estar_basis(), b.estar_basis()
    for t in a.triples:
        assert ea[t].nums is eb[t].nums and ea[t].den == eb[t].den
        assert a._e_rows[t] is b._e_rows[t]
        assert ea[t] != eb[t]  # elements of different algebras
        assert sa[t].nums is sb[t].nums == {t: 1} and sa[t] != sb[t]
    assert all(ma is mb for ma, mb in zip(a._a_matrices(), b._a_matrices()))


def test_patched_numerators_get_their_own_storage(monkeypatch):
    # the stores are keyed by the computed tables, not by the numerators
    # they came from: corrupted numerators give tables of their own and
    # leave the stored ones as they were
    real_alg = t_algebra(2, 0)
    real_basis = real_alg.e_basis()
    before = {t: (dict(e.nums), e.den) for t, e in real_basis.items()}
    real_mats = real_alg._a_matrices()
    real = Cube.idempotent_numerators

    def corrupted(self):
        Ks = real(self)
        K1 = Mat([list(r) for r in Ks[1].rows])
        K1.rows[0][1] += 1
        return [Ks[0], K1] + Ks[2:]

    monkeypatch.setattr(Cube, "idempotent_numerators", corrupted)
    bad = TAlgebra(2, 0)
    bad_basis = bad.e_basis()
    changed = [t for t in bad.triples if (dict(bad_basis[t].nums), bad_basis[t].den) != before[t]]
    assert changed
    for t in changed:
        assert bad_basis[t].nums is not real_basis[t].nums
        assert bad._e_rows[t] is not real_alg._e_rows[t]
    bad_mats = bad._a_matrices()
    assert any(m != r for m, r in zip(bad_mats, real_mats))
    assert all(m is not r for m, r in zip(bad_mats, real_mats) if m != r)
    monkeypatch.undo()
    assert {t: (dict(e.nums), e.den) for t, e in real_basis.items()} == before
    fresh = TAlgebra(2, 0)
    assert [(dict(e.nums), e.den) for e in fresh.e_basis().values()] == list(before.values())
    assert fresh._a_matrices() == real_mats
