"""The three polynomials in an operator, each written once: linalg.horner,
linalg.lagrange and sl4core.casimir_form, on every carrier the package uses,
and the checks that catch a wrong copy of each."""

import random
import sys
from fractions import Fraction

import pytest

from sl4cube import correspond, cube as cube_module, linalg, polyspace, sl4core, suites
from sl4cube.cube import Cube, TAlgebra, t_algebra
from sl4cube.linalg import Mat, horner, lagrange
from sl4cube.polyspace import MONOMIAL, PolyVec
from sl4cube.sl4core import GeneratorId, casimir_form, generator


def powers_sum(coeffs, apply, v):
    """sum_k c_k X^k v with each power applied afresh: the reference for horner."""
    total, power = None, v
    for c in coeffs:
        total = c * power if total is None else total + c * power
        power = apply(power)
    return total


def never(*args):
    raise AssertionError("the operator was applied")


def random_polyvec(rng, N):
    return PolyVec(MONOMIAL, {p: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for p in polyspace.enumerate_profiles(N)})


# -- horner ----------------------------------------------------------------


def test_horner_on_numbers():
    assert horner([1, 2, 3], lambda y: 5 * y, 1) == 1 + 2 * 5 + 3 * 25
    assert horner([Fraction(1, 2), 0, Fraction(1, 3)], lambda y: Fraction(3, 2) * y, 1) == Fraction(5, 4)
    assert horner([7], never, 1) == 7


def test_horner_on_matrices():
    A = cube_module.cube(2).adjacency()
    coeffs = [Fraction(-1), Fraction(2, 3), Fraction(1, 2)]
    eye = Mat.identity(4)
    assert horner(coeffs, lambda M: A @ M, eye) == powers_sum(coeffs, lambda M: A @ M, eye)
    assert horner([Fraction(3)], never, eye) == 3 * eye


def test_horner_on_polynomials_and_t():
    rng = random.Random(2)
    v = random_polyvec(rng, 3)
    act = lambda w: polyspace.act_generator(GeneratorId("A", 1), w)
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
    assert horner(coeffs, act, v) == powers_sum(coeffs, act, v)
    alg = t_algebra(3, 0)
    A, ident = alg.adjacency_elem(), alg.identity()
    assert horner(coeffs, A.__matmul__, ident) == powers_sum(coeffs, A.__matmul__, ident)
    assert horner([Fraction(1, 2)], never, ident) == Fraction(1, 2) * ident


# -- lagrange --------------------------------------------------------------


def test_lagrange_on_numbers():
    at = lambda a: lambda mu, v: (a - mu) * v  # X multiplies by the number a
    assert lagrange(at(5), 1, [1, 2, 3], 0) == ((5 - 2) * (5 - 3), (1 - 2) * (1 - 3))
    half = Fraction(1, 2)
    assert lagrange(at(Fraction(5, 2)), Fraction(2), [half, 3], 1) == (Fraction(2) * (Fraction(5, 2) - half), 3 - half)
    assert lagrange(never, 4, [7], 0) == (4, 1)  # one eigenvalue: nothing to divide out


def test_lagrange_on_matrices_gives_the_eigenprojections():
    eigs = [1, Fraction(2, 3), -2]
    A, eye = Mat.diag(eigs), Mat.identity(3)
    for l in range(3):
        M, den = lagrange(lambda mu, X: (A - mu * eye) @ X, eye, eigs, l)
        assert Fraction(1, den) * M == Mat.diag([1 if m == l else 0 for m in range(3)])
    assert lagrange(never, eye, [5], 0) == (eye, 1)


def test_lagrange_on_polynomials_splits_by_weight():
    # A*_1 is diagonal on monomials with eigenvalue weight(1, p)
    N, rng = 3, random.Random(3)
    v = random_polyvec(rng, N)
    act = lambda w: polyspace.act_generator(GeneratorId("Astar", 1), w)
    eigs = [N - 2 * n for n in range(N + 1)]
    for l, lam in enumerate(eigs):
        M, den = lagrange(lambda mu, w: act(w) - mu * w, v, eigs, l)
        part = PolyVec(MONOMIAL, {p: c for p, c in v.coeffs.items() if polyspace.weight(1, p) == lam})
        assert Fraction(1, den) * M == part


def test_lagrange_on_t_splits_by_cell():
    # the first starred module operator scales the cell (h, i, j) by N - 2h
    N, rng = 3, random.Random(4)
    alg = t_algebra(N, 0)
    B = cube_module.TElem(alg, {t: rng.randint(-4, 4) for t in alg.triples})
    op = alg.module_op("Astar", 1)
    eigs = [N - 2 * h for h in range(N + 1)]
    for l in range(N + 1):
        M, den = lagrange(lambda mu, X: op(X) - mu * X, B, eigs, l)
        assert Fraction(1, den) * M == cube_module.TElem(alg, {t: a for t, a in B.coeffs.items() if t.h == l})
    one = t_algebra(0, 0)
    assert lagrange(never, one.identity(), one.phi_eigenvalues(), 0) == (one.identity(), 1)


# -- casimir_form ----------------------------------------------------------


def test_casimir_form_on_numbers():
    # commuting X and Y: the bracket term vanishes
    assert casimir_form(lambda w: 1 * w, lambda w: 3 * w, 1) == 5
    assert casimir_form(lambda w: Fraction(1, 2) * w, lambda w: -w, Fraction(2)) == Fraction(5, 4)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_casimir_form_on_the_4x4_generators_is_3_2(i):
    # the natural module is the degree-1 slice, where C_i is N(N+2)/2 = 3/2
    j, k = polyspace.complementary_pair(i)
    X, Y = generator(GeneratorId("A", j)), generator(GeneratorId("Astar", k))
    assert casimir_form(X.__matmul__, Y.__matmul__, Mat.identity(4)) == Fraction(3, 2) * Mat.identity(4)


@pytest.mark.parametrize("N", [2, 3])
def test_casimir_form_on_polynomials_is_the_c_table(N):
    j, k = polyspace.complementary_pair(1)
    X = lambda w: polyspace.act_generator(GeneratorId("A", j), w)
    Y = lambda w: polyspace.act_generator(GeneratorId("Astar", k), w)
    for p in polyspace.enumerate_profiles(N):
        e = PolyVec.unit(MONOMIAL, p)
        assert casimir_form(X, Y, e) == polyspace.apply_C(1, e)


@pytest.mark.parametrize("N", [2, 3])
def test_casimir_form_on_t_is_theta_of_the_c_table(N):
    # left multiplication by A and A* on theta(e) is theta(C_1 e)
    alg = t_algebra(N, 0)
    A, As = alg.adjacency_elem(), alg.dual_adjacency_elem()
    for p in polyspace.enumerate_profiles(N):
        e = PolyVec.unit(MONOMIAL, p)
        image = correspond.theta_scaled(alg, e)
        assert casimir_form(A.__matmul__, As.__matmul__, image) == correspond.theta_scaled(alg, polyspace.apply_C(1, e))


# -- a wrong copy of each helper fails its checks --------------------------


def _patch_everywhere(mp, orig, mutant):
    """Replace every binding of orig in the package's modules."""
    for name, m in list(sys.modules.items()):
        if name.startswith("sl4cube."):
            for key, val in list(vars(m).items()):
                if val is orig:
                    mp.setattr(m, key, mutant)


HORNER, LAGRANGE, CASIMIR = linalg.horner, linalg.lagrange, sl4core.casimir_form


def _no_constant_term(coeffs, apply, v):
    return HORNER([0, *coeffs[1:]], apply, v)


def _doubled_denominator(shifted, v, eigs, l):
    M, den = LAGRANGE(shifted, v, eigs, l)
    return M, 2 * den


def _plus_commutator(X, Y, v):
    anti = lambda w: X(Y(w)) + Y(X(w))
    return Fraction(1, 8) * (4 * X(X(v)) + 4 * Y(Y(v)) - anti(anti(v)))


def _checks(monkeypatch, N):
    """Every check of the poly, special and cube suites and of correspond.c1_phi
    at N, basepoint 0; the cube and its algebra are fresh, so that no table
    cached from the real helpers hides the mutant, and none built from the
    mutant outlives the test."""
    fresh = Cube(N)
    monkeypatch.setattr(cube_module, "cube", lambda n: fresh)
    monkeypatch.setattr(cube_module, "t_algebra", TAlgebra)
    monkeypatch.setattr(correspond, "t_algebra", TAlgebra)
    reports = [suites.SUITES[s](N, random.Random(0), 0, 3) for s in ("poly", "special", "cube")]
    reports.append(correspond.check_c1_phi(N, 0))
    return {c.id: c for rep in reports for c in rep.checks}


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize(
    "orig, mutant, readers",
    [
        (HORNER, _no_constant_term, ("cube.distance_vs_krawtchouk", "special.krawtchouk_vectors")),
        (LAGRANGE, _doubled_denominator, ("cube.idempotents", "cube.wedderburn")),
        (CASIMIR, _plus_commutator, ("poly.casimir_three_way", "correspond.c1_phi")),
    ],
    ids=["horner_without_constant", "lagrange_doubled_denominator", "casimir_plus_commutator"],
)
def test_a_wrong_operator_polynomial_fails_its_checks_with_witnesses(monkeypatch, N, orig, mutant, readers):
    _patch_everywhere(monkeypatch, orig, mutant)
    failed = {i: c.witness for i, c in _checks(monkeypatch, N).items() if c.status == "fail"}
    assert all(r in failed for r in readers) and all(failed.values())
