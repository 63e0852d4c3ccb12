import random
from fractions import Fraction
from math import comb, factorial

import pytest

from sl4cube import polyspace as ps, specialfn as sf
from sl4cube.exact import pochhammer
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
    assert fam.coeffs[0] == (1,)
    assert fam.coeffs[1] == (0, Fraction(1, 2))
    assert fam.coeffs[2] == (-1, 0, Fraction(1, 2))
    assert fam.coeffs[3] == (0, -2, 0, Fraction(1, 2))
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


# The six-fold terminating sum as it was written before the grouping by
# second-slot exponents: one term per (a, b, c, d, e, f), with the factors of
# both slots in each term.
def _hand_six_fold_sum(N, lam, mu):
    pl = [[pochhammer(-arg, k) for k in range(N + 1)] for arg in lam]
    pm = [[pochhammer(-arg, k) for k in range(N + 1)] for arg in mu]
    pn = [pochhammer(-N, k) for k in range(N + 1)]
    fact = [factorial(k) for k in range(N + 1)]
    total = Fraction(0)
    for a in range(N + 1):
        for b in range(N + 1 - a):
            for c in range(N + 1 - a - b):
                for d in range(N + 1 - a - b - c):
                    for e in range(N + 1 - a - b - c - d):
                        for f in range(N + 1 - a - b - c - d - e):
                            m = a + b + c + d + e + f
                            num = pl[0][a + b] * pl[1][c + d] * pl[2][e + f] * pm[0][c + e] * pm[1][a + f] * pm[2][b + d] * 2**m
                            if num:
                                total += Fraction(num, pn[m] * fact[a] * fact[b] * fact[c] * fact[d] * fact[e] * fact[f])
    return total


@pytest.mark.parametrize("N", range(5))
def test_grouped_sum_matches_the_hand_six_fold_sum(N):
    for lam in sf.tails(N):
        for mu in sf.tails(N):
            assert sf.calP_sum(N, lam, mu) == _hand_six_fold_sum(N, lam, mu), (lam, mu)


@pytest.mark.parametrize("N", range(4))
def test_weight_form_matches_the_hand_sum_at_rational_mu(N):
    # every weight triple of degree N, and the same triple with its first
    # weight moved by one, off the weight lattice, where mu has quarters
    for lam in sf.tails(N):
        for w1, w2, w3 in ps.enumerate_weight_triples(N):
            for w in ((w1, w2, w3), (w1 + 1, w2, w3)):
                mu = tuple(Fraction(c, 4) for c in (N + w[0] - w[1] - w[2], N - w[0] + w[1] - w[2], N - w[0] - w[1] + w[2]))
                assert sf.calP_vee(N, lam, w) == _hand_six_fold_sum(N, lam, mu), (lam, w)


# The three contiguous recurrences' terms as they were written by hand before
# being read from polyspace._FOUR_TERM: (shifted tail, name of its coefficient).
def _hand_recurrence_terms(which, s, t, u):
    return {
        1: (((s + 1, t, u), "r"), ((s - 1, t, u), "s"), ((s, t - 1, u + 1), "t"), ((s, t + 1, u - 1), "u")),
        2: (((s, t + 1, u), "r"), ((s - 1, t, u + 1), "s"), ((s, t - 1, u), "t"), ((s + 1, t, u - 1), "u")),
        3: (((s, t, u + 1), "r"), ((s - 1, t + 1, u), "s"), ((s + 1, t - 1, u), "t"), ((s, t, u - 1), "u")),
    }[which]


@pytest.mark.parametrize("N", range(6))
def test_four_term_recurrences_match_the_hand_terms(N):
    # value() gives every tail its own power of a base above any coefficient,
    # so two right-hand sides agree only when their terms do
    box = range(-1, N + 2)
    index = {tail: k for k, tail in enumerate((s, t, u) for s in box for t in box for u in box)}
    value = lambda tail: 100 ** index[tail]
    for which in (1, 2, 3):
        for s, t, u in sf.tails(N):
            coeff_of = {"r": N - s - t - u, "s": s, "t": t, "u": u}
            hand = sum(coeff_of[name] * value(shifted) for shifted, name in _hand_recurrence_terms(which, s, t, u) if coeff_of[name])
            assert sf._recurrence_rhs(sf._term_image(N, which, (s, t, u)), value) == hand, (which, (s, t, u))


@pytest.mark.parametrize("k", (1, 2, 3))
def test_swapped_four_term_shift_fails_its_recurrence(monkeypatch, k):
    # the two middle terms of A_k trade shifts; the table now disagrees with
    # the transition coefficients, which are built without it
    first, second, third, fourth = ps._FOUR_TERM[k]
    swapped = (first, (*second[:2], third[2]), (*third[:2], second[2]), fourth)
    monkeypatch.setitem(ps._FOUR_TERM, k, swapped)
    failed = {c.id: c.witness for c in sf.check_recurrences(2).failures}
    assert set(failed) == {f"special.recurrence.{k}"}
    # a shift that leaves the range names the identity, not a table key
    assert failed[f"special.recurrence.{k}"].startswith(f"recurrence {k} at N=2")


@pytest.mark.parametrize("k", (1, 2, 3))
def test_reuse_within_a_job_hides_no_corruption(monkeypatch, k):
    # clean special and poly jobs first fill every cache this process keeps;
    # the same jobs after a swapped A_k shift must still read the table anew
    from sl4cube import cli

    jobs = [(suite, 2, (0, 2, 0)) for suite in ("special", "poly")]
    clean = [c for job in jobs for c in cli._run_job(job)]
    assert all(c.status != "fail" for c in clean)
    first, second, third, fourth = ps._FOUR_TERM[k]
    monkeypatch.setitem(ps._FOUR_TERM, k, (first, (*second[:2], third[2]), (*third[:2], second[2]), fourth))
    failed = {c.id: c.witness for job in jobs for c in cli._run_job(job) if c.status == "fail"}
    for check in (f"special.recurrence.{k}", f"special.weight_recurrence.{k}", "special.pvee_words"):
        assert failed.get(check), (check, sorted(failed))


def test_a_wrong_recurrence_step_fails_every_reader_of_the_family(monkeypatch, fresh_krawtchouk):
    # f_{n+1} built with eta f_n + n f_{n-1}: the family no longer meets its
    # closed product form, and every check that reads it must say so
    from sl4cube import suites

    real = sf._poly_sub
    monkeypatch.setattr(sf, "_poly_sub", lambda p, q: real(p, [-a for a in q]))
    failed = {c.id: c.witness for c in suites.suite_special(2, random.Random(0), 0, 2).failures}
    readers = ("special.krawtchouk_family", "special.krawtchouk_vectors", "special.operator_recurrence")
    assert set(failed) == set(readers)
    assert all(w.startswith("ArithmeticError: top Krawtchouk polynomial") for w in failed.values())
