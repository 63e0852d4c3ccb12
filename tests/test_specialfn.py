import random
from fractions import Fraction
from math import comb, factorial

import pytest

from sl4cube import polyspace as ps, specialfn as sf
from sl4cube.polyspace import MONOMIAL, STARRED, PolyVec
from sl4cube.sl4core import GeneratorId


def test_sum_form_values():
    assert sf.calP_sum(1, (0, 0, 0), (0, 0, 0)) == 1
    assert sf.calP_sum(1, (1, 0, 0), (1, 0, 0)) == 1
    assert sf.calP_sum(1, (1, 0, 0), (0, 1, 0)) == -1


def test_dual_evaluators_agree_exhaustively():
    for N in range(5):
        for lam in sf.tails(N):
            for mu in sf.tails(N):
                assert sf.calP_sum(N, lam, mu) == sf.calP_genfunc(N, lam, mu), (N, lam, mu)


def test_symmetry():
    for lam in sf.tails(2):
        for mu in sf.tails(2):
            assert sf.calP_sum(2, lam, mu) == sf.calP_sum(2, mu, lam)


def test_weight_form():
    # the weight substitution undoes the profile-to-weight change of variables
    N = 2
    for lam in sf.tails(N):
        for mu in sf.tails(N):
            S, T, U = mu
            R = N - S - T - U
            weights = (R + S - T - U, R - S + T - U, R - S - T + U)
            assert sf.calP_vee(N, lam, weights) == sf.calP_sum(N, lam, mu)
    assert sf.calP_vee(1, (0, 0, 0), (1, 1, 1)) == 1


def test_orthogonality():
    N = 1
    table = sf.transition_table(N)
    diag = sum(
        Fraction(table[((0, 0, 0), mu)] ** 2, factorial(N - sum(mu)) * factorial(mu[0]) * factorial(mu[1]) * factorial(mu[2]))
        for mu in sf.tails(N)
    )
    assert diag == 4
    for N in range(4):
        assert sf.check_orthogonality(N).passed


def test_recurrences():
    # a small instance by hand: both profiles (1,0,0,0) in degree 1
    lhs = 1 * sf.calP_sum(1, (0, 0, 0), (0, 0, 0))
    rhs = 1 * sf.calP_sum(1, (1, 0, 0), (0, 0, 0))
    assert lhs == rhs == 1
    for N in range(4):
        assert sf.check_recurrences(N).passed
        assert sf.check_weight_recurrences(N).passed


def test_recurrence_witnesses_on_a_corrupted_table():
    # the exhaustive and the sampled check share one comparison and keep
    # their own witness formats
    def corrupted(N):
        table = dict(sf.transition_table(N))
        table[((0, 0, 0), (0, 0, 0))] += 1
        return table

    exhaustive = [c.witness for c in sf.check_recurrences(2, corrupted(2)).checks]
    assert exhaustive == [f"recurrence {k} at N=2 lam=(0, 0, 0) mu=(0, 0, 0)" for k in (1, 2, 3)]
    [sampled] = sf.check_recurrences_sampled(4, corrupted(4), random.Random(0), 200).checks
    assert sampled.witness == "recurrence 1 at lam=(0, 0, 0) mu=(0, 0, 0)"


def test_krawtchouk_family():
    fam = sf.krawtchouk(2)
    assert fam.coeffs[0] == [1]
    assert fam.coeffs[1] == [0, Fraction(1, 2)]
    assert fam.coeffs[2] == [-1, 0, Fraction(1, 2)]
    assert fam.coeffs[3] == [0, -2, 0, Fraction(1, 2)]
    for N in range(7):
        got = sf.krawtchouk(N)
        for n, poly in enumerate(got.coeffs):
            assert len(poly) == n + 1 or poly[-1] != 0


def test_krawtchouk_recurrence_coefficientwise():
    for N in range(6):
        fam = sf.krawtchouk(N)
        pad = lambda p, n: list(p) + [Fraction(0)] * (n - len(p))
        for n in range(N + 1):
            lhs = pad([Fraction(0)] + list(fam.coeffs[n]), N + 3)
            prev = fam.coeffs[n - 1] if n else [Fraction(0)]
            nxt = fam.coeffs[n + 1]
            rhs_next = 1 if n == N else N - n
            rhs = [
                n * a + rhs_next * b
                for a, b in zip(pad(prev, N + 3), pad(nxt, N + 3))
            ]
            assert lhs == rhs, (N, n)


def test_krawtchouk_vectors():
    assert sf.krawtchouk_vector(1, 1, GeneratorId("A", 1)) == PolyVec.unit(MONOMIAL, (0, 1, 0, 0))
    assert sf.krawtchouk_vector(2, 2, GeneratorId("A", 2)) == PolyVec.unit(MONOMIAL, (0, 0, 2, 0))
    assert sf.krawtchouk_vector(3, 0, GeneratorId("A", 3)) == PolyVec.unit(MONOMIAL, (3, 0, 0, 0))
    assert sf.krawtchouk_vector(2, 1, GeneratorId("Astar", 3)) == PolyVec.unit(STARRED, (1, 0, 0, 1))
    with pytest.raises(ValueError):
        sf.krawtchouk_vector(2, 3, GeneratorId("A", 1))


def test_pairing_relation():
    # <x^p, x*^q> = (N!/2^N) P(tails)
    for N in (1, 2, 3):
        scale = Fraction(factorial(N), 2**N)
        for p in ps.enumerate_profiles(N):
            for q in ps.enumerate_profiles(N):
                pairing = ps.hermitian(PolyVec.unit(MONOMIAL, p), PolyVec.unit(STARRED, q))
                assert pairing == scale * sf.calP_sum(N, (p.s, p.t, p.u), (q.s, q.t, q.u))


def test_transition_expansion():
    N = 2
    scale = Fraction(factorial(N), 2**N)
    for p in ps.enumerate_profiles(N):
        conv = ps.convert_basis(PolyVec.unit(MONOMIAL, p), STARRED)
        for q, c in conv.items():
            assert c == scale * sf.calP_sum(N, (p.s, p.t, p.u), (q.s, q.t, q.u)) / q.norm_sq


def test_tails_count():
    for N in range(6):
        assert len(sf.tails(N)) == comb(N + 3, 3)
