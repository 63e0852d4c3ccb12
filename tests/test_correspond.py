import random
from fractions import Fraction
from math import factorial

import pytest

from sl4cube import correspond as co, polyspace as ps, specialfn, tensorspace as tsp
from sl4cube.cube import TripleIndex, t_algebra, triple_of_profile
from sl4cube.polyspace import MONOMIAL, STARRED, PolyVec
from sl4cube.tensorspace import STAR_TILDE, TILDE, FixVec


def test_ddag_rule():
    N = 3
    img = co.ddag_scaled(PolyVec.unit(MONOMIAL, (N, 0, 0, 0)))
    # the image is N! times the diagonal orbit sum
    assert img.lift() == factorial(N) * tsp.b_vector(N, (N, 0, 0, 0))
    img = co.ddag_scaled(PolyVec.unit(STARRED, (N, 0, 0, 0)))
    assert img.lift() == factorial(N) * tsp.bstar_vector(N, (N, 0, 0, 0))


def test_ddag_form_scaling():
    N = 2
    f = PolyVec(MONOMIAL, {(1, 1, 0, 0): 1, (0, 0, 2, 0): Fraction(1, 3)})
    g = PolyVec(MONOMIAL, {(1, 1, 0, 0): 2, (2, 0, 0, 0): 1})
    lhs = co.ddag_scaled(f).lift().inner(co.ddag_scaled(g).lift())
    assert lhs == factorial(N) * 2**N * ps.hermitian(f, g)


def test_ddag_starred_consistency_triangle():
    N = 1
    e = PolyVec.unit(STARRED, (1, 0, 0, 0))
    via_starred = co.ddag_scaled(e).lift()
    via_monomial = co.ddag_scaled(ps.convert_basis(e, MONOMIAL)).lift()
    assert via_starred == via_monomial == tsp.bstar_vector(1, (1, 0, 0, 0))


def test_ddag_of_a_starred_unit_lifts_as_its_monomial_conversion():
    # one ddag for both bases: a starred unit goes to the spectral sums
    for N in range(4):
        for p in ps.enumerate_profiles(N):
            e = PolyVec.unit(STARRED, p)
            assert co.ddag_scaled(e).tag == STAR_TILDE
            assert co.ddag_scaled(e).lift() == co.ddag_scaled(ps.convert_basis(e, MONOMIAL)).lift()


def add_scaled_eps(alg, v):
    """The star_tilde rule of eps_scaled_fix as a Fraction sum of E-basis
    elements, each weighted by its coordinate times p!/(N! 2^N)."""
    N = v.N
    ebas = alg.e_basis()
    out = alg.zero()
    for p, c in v.items():
        out.add_scaled(c * p.norm_sq * Fraction(1, factorial(N) * 2**N), ebas[triple_of_profile(p)])
    return out


def test_eps_on_star_tilde_matches_the_add_scaled_route():
    rng = random.Random(11)
    for N in range(4):
        for basepoint in (0, 2**N - 1):
            alg = t_algebra(N, basepoint)
            profiles = ps.enumerate_profiles(N)
            for _ in range(3):
                coeffs = {p: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for p in profiles if rng.random() < 0.7}
                v = FixVec(N, STAR_TILDE, coeffs)
                assert co.eps_scaled_fix(alg, v) == add_scaled_eps(alg, v)


def test_eps_rules_small():
    N = 1
    alg = t_algebra(N, 0)
    # the orbit sum over the diagonal profile flattens onto the basepoint cell
    b = FixVec.unit(N, TILDE, (1, 0, 0, 0))
    got = co.eps_scaled_concrete(alg, tsp.b_vector(N, (1, 0, 0, 0)))
    assert alg.from_matrix(got) == alg.estar_basis()[TripleIndex(0, 0, 0)]
    # and the formula route agrees after the dual-coordinate rescaling
    assert co.eps_scaled_fix(alg, b).coeffs == {
        TripleIndex(0, 0, 0): Fraction(1, factorial(N) * 2**N)
    }
    q = tsp.q_vector(N, (0, 0, 0))
    got = co.eps_scaled_concrete(alg, q)
    assert alg.from_matrix(got) == alg.e_basis()[TripleIndex(0, 0, 0)]


def test_theta_rules_small():
    N = 1
    alg = t_algebra(N, 0)
    theta_x = co.theta_scaled(alg, PolyVec.unit(MONOMIAL, (1, 0, 0, 0)))
    assert theta_x == alg.estar_basis()[TripleIndex(0, 0, 0)]
    assert theta_x.matrix().rows[0][0] == 1  # the basepoint matrix unit
    theta_y = co.theta_scaled(alg, PolyVec.unit(MONOMIAL, (0, 1, 0, 0)))
    # profile (0,1,0,0) has distance triple (0,1,1); outer indices reversed
    assert theta_y == alg.estar_basis()[TripleIndex(0, 1, 1)]
    theta_ys = co.theta_scaled(alg, PolyVec.unit(STARRED, (0, 1, 0, 0)))
    assert theta_ys == alg.e_basis()[TripleIndex(0, 1, 1)]


def test_scale_squared_bookkeeping():
    N = 3
    assert co.ddag_scale_squared(N) == factorial(N) * 2**N
    assert co.eps_scale_squared(N) == Fraction(1, 2**N)
    assert co.theta_scale_squared(N) == factorial(N)
    assert co.ddag_scale_squared(N) * co.eps_scale_squared(N) == co.theta_scale_squared(N)


def test_cell_indicator_rules_match_estar_sums():
    # each profile's basis vector goes to the indicator of its distance triple
    # with the outer indices reversed, weighted by the profile factorials
    rng = random.Random(5)
    for N in range(4):
        for basepoint in (0, 2**N - 1):
            alg = t_algebra(N, basepoint)
            estar = alg.estar_basis()
            profiles = ps.enumerate_profiles(N)
            coeffs = {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for p in profiles}
            want = alg.zero()
            for p, c in coeffs.items():
                h, i, j = triple_of_profile(p)
                want.add_scaled(c * p.norm_sq, estar[TripleIndex(h, j, i)])
            assert co.theta_scaled(alg, PolyVec(MONOMIAL, coeffs)) == want
            want = alg.zero()
            for p, c in coeffs.items():
                h, i, j = triple_of_profile(p)
                want.add_scaled(Fraction(c * p.norm_sq, factorial(N) * 2**N), estar[TripleIndex(h, j, i)])
            assert co.eps_scaled_fix(alg, FixVec(N, TILDE, coeffs)) == want


def test_sigma_s_diagram_explicit():
    N = 1
    alg = t_algebra(N, 0)
    x = PolyVec.unit(MONOMIAL, (1, 0, 0, 0))
    lhs = co.theta_scaled(alg, ps.sigma(x))
    rhs = alg.s_antiautomorphism(co.theta_scaled(alg, x))
    assert lhs == rhs == alg.e_basis()[TripleIndex(0, 0, 0)]
    assert co.sigma_S_diagram(2, basepoint=0).passed


def test_wedderburn_correspondence_level_one():
    N = 2
    alg = t_algebra(N, 0)
    w = PolyVec(MONOMIAL, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})  # spans level 1
    image = co.theta_scaled(alg, w)
    _, _, ideal = alg.wedderburn()[1]
    assert len(ideal) == 1
    [gen] = ideal
    # both are nonzero multiples of the same one-dimensional ideal
    ic = image.coord_vector()
    gc = gen.coord_vector()
    ratio = None
    for a, b in zip(ic, gc):
        if a or b:
            assert a and b
            r = Fraction(a) / Fraction(b)
            assert ratio is None or r == ratio
            ratio = r
    assert ratio is not None
    assert co.wedderburn_correspondence(N, basepoint=0).passed


def test_check_functions_pass_small():
    for N in (0, 1, 2):
        assert co.check_ddag(N, oracle_cap=3).passed
        assert co.check_eps(N, basepoint=0, oracle_cap=3).passed
        assert co.check_theta(N, basepoint=0, oracle_cap=3).passed
        assert co.check_c1_phi(N, basepoint=0).passed


def test_second_basepoint():
    assert co.check_theta(2, basepoint=3, oracle_cap=3).passed
    assert co.wedderburn_correspondence(2, basepoint=3).passed


def test_cross_pairing():
    # <image(x^p), image(x*^q)> = (N!)^2 * transition coefficient
    from sl4cube import specialfn as sf

    N = 2
    for p in ps.enumerate_profiles(N):
        for q in ps.enumerate_profiles(N):
            lhs = co.ddag_scaled(PolyVec.unit(MONOMIAL, p)).lift().inner(
                co.ddag_scaled(PolyVec.unit(STARRED, q)).lift()
            )
            assert lhs == factorial(N) ** 2 * sf.calP_sum(N, (p.s, p.t, p.u), (q.s, q.t, q.u))


def test_crash_in_wedderburn_is_a_failing_check(monkeypatch):
    # reversed eigenvalues make TAlgebra.wedderburn raise ArithmeticError; the
    # suite must still return a report, with the crash as a failing check
    import random

    from sl4cube import suites
    from sl4cube.cube import TAlgebra

    real = TAlgebra.phi_eigenvalues
    monkeypatch.setattr(TAlgebra, "phi_eigenvalues", lambda self: real(self)[::-1])
    rep = suites.suite_correspond(2, random.Random(0), 0, 2)
    failed = {c.id: c.witness for c in rep.failures}
    assert failed["correspond.wedderburn"].startswith("ArithmeticError: ")


@pytest.mark.parametrize(
    "scale, run, want",
    [
        ("theta_scale_squared", co.check_theta, {"correspond.theta.form": "monomial pair (0, 0, 0, 2),(0, 0, 0, 2)"}),
        (
            "ddag_scale_squared",
            lambda N, basepoint, oracle_cap: co.check_ddag(N, oracle_cap),
            {
                "correspond.ddag.form": "form pair (0, 0, 0, 2),(0, 0, 0, 2)",
                "correspond.ddag.concrete_form": "concrete form pair (0, 0, 0, 2),(0, 0, 0, 2)",
            },
        ),
        ("eps_scale_squared", co.check_eps, {"correspond.eps.form": f"{TILDE} pair (0, 0, 0, 2),(0, 0, 0, 2)"}),
    ],
    ids=["theta", "ddag", "eps"],
)
def test_form_witness_is_the_first_pair(monkeypatch, scale, run, want):
    # every pair with a nonzero form value fails; the witness is the first
    # in profile-major order
    real = getattr(co, scale)
    monkeypatch.setattr(co, scale, lambda N: real(N) + 1)
    failed = {c.id: c.witness for c in run(2, basepoint=0, oracle_cap=3).failures}
    assert failed == want


def test_cross_form_witness_is_the_first_mismatching_pair(monkeypatch):
    real = specialfn.calP_sum
    corrupted = {((0, 1, 1), (1, 0, 1))}

    def off_by_one(N, lam, mu):
        return real(N, lam, mu) + ((tuple(lam), tuple(mu)) in corrupted)

    monkeypatch.setattr(specialfn, "calP_sum", off_by_one)
    failed = {c.id: c.witness for c in co.check_ddag(2, oracle_cap=3).failures}
    assert failed == {"correspond.ddag.cross_form": "cross pair (0, 0, 1, 1),(0, 1, 0, 1)"}
    # a second bad pair, first in column-major order, leaves the row-major witness
    corrupted.add(((0, 2, 0), (0, 0, 2)))
    failed = {c.id: c.witness for c in co.check_ddag(2, oracle_cap=3).failures}
    assert failed == {"correspond.ddag.cross_form": "cross pair (0, 0, 1, 1),(0, 1, 0, 1)"}
