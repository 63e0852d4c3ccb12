import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from sl4cube import polyspace as ps, specialfn as sf
from sl4cube.polyspace import MONOMIAL, STARRED, PolyVec, Profile
from sl4cube.sl4core import GeneratorId


def unit(basis, p):
    return PolyVec.unit(basis, p)


def test_enumerate_profiles():
    assert ps.enumerate_profiles(0) == [Profile(0, 0, 0, 0)]
    assert len(ps.enumerate_profiles(1)) == 4
    assert len(ps.enumerate_profiles(3)) == 20
    lst = ps.enumerate_profiles(2)
    assert lst == sorted(lst)


def test_generator_action_examples():
    img = ps.act_generator(GeneratorId("A", 1), unit(MONOMIAL, (1, 1, 0, 0)))
    assert img == PolyVec(MONOMIAL, {(0, 2, 0, 0): 1, (2, 0, 0, 0): 1})
    img = ps.act_generator(GeneratorId("Astar", 1), unit(MONOMIAL, (1, 1, 1, 0)))
    assert img == unit(MONOMIAL, (1, 1, 1, 0))
    img = ps.act_generator(GeneratorId("A", 1), unit(STARRED, (1, 1, 1, 0)))
    assert img == unit(STARRED, (1, 1, 1, 0))
    img = ps.act_generator(GeneratorId("Astar", 2), unit(STARRED, (0, 0, 1, 0)))
    assert img == unit(STARRED, (1, 0, 0, 0))


def test_conversion_examples():
    xs = ps.convert_basis(unit(STARRED, (1, 0, 0, 0)), MONOMIAL)
    assert xs == PolyVec(
        MONOMIAL,
        {(1, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): Fraction(1, 2),
         (0, 0, 1, 0): Fraction(1, 2), (0, 0, 0, 1): Fraction(1, 2)},
    )
    N = 4
    conv = ps.convert_basis(unit(MONOMIAL, (N, 0, 0, 0)), STARRED)
    for p, c in conv.items():
        assert c == Fraction(factorial(N), 2**N) / p.norm_sq
    assert len(conv.coeffs) == comb(N + 3, 3)


def test_conversion_involution():
    rng = random.Random(5)
    coeffs = {p: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for p in ps.enumerate_profiles(3)}
    v = PolyVec(MONOMIAL, coeffs)
    assert ps.convert_basis(ps.convert_basis(v, STARRED), MONOMIAL) == v


def test_sigma():
    v = unit(MONOMIAL, (2, 0, 0, 0))
    assert ps.sigma(v) == unit(STARRED, (2, 0, 0, 0))
    assert ps.sigma(ps.sigma(v)) == v
    # sigma fixes the quadratic xy - zw expressed in coordinates
    q = PolyVec(MONOMIAL, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    assert ps.convert_basis(ps.sigma(q), MONOMIAL) == q


def test_derivatives_and_multiplication():
    # variables by slot index, in the vector's own basis
    assert ps.apply_D(0, unit(MONOMIAL, (3, 0, 0, 0))) == 3 * unit(MONOMIAL, (2, 0, 0, 0))
    assert ps.apply_D(0, unit(MONOMIAL, (0, 0, 0, 0))).is_zero()
    assert ps.apply_D(0, unit(STARRED, (1, 1, 0, 0))) == unit(STARRED, (0, 1, 0, 0))
    assert ps.apply_M(0, unit(MONOMIAL, (0, 0, 0, 0))) == unit(MONOMIAL, (1, 0, 0, 0))
    v = PolyVec(MONOMIAL, {(1, 2, 0, 1): Fraction(2, 3)})
    assert ps.apply_D(0, ps.apply_M(0, v)) - ps.apply_M(0, ps.apply_D(0, v)) == v
    assert (ps.apply_D(0, ps.apply_M(1, v)) - ps.apply_M(1, ps.apply_D(0, v))).is_zero()


def test_ladder_examples():
    assert ps.apply_L(1, unit(MONOMIAL, (1, 1, 0, 0))) == unit(MONOMIAL, (0, 0, 0, 0))
    assert ps.apply_L(1, unit(MONOMIAL, (2, 0, 0, 0))).is_zero()
    assert ps.apply_R(1, unit(MONOMIAL, (0, 0, 0, 0))) == PolyVec(
        MONOMIAL, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1}
    )
    v = unit(MONOMIAL, (2, 1, 1, 0))
    lhs = ps.apply_L(2, ps.apply_R(2, v)) - ps.apply_R(2, ps.apply_L(2, v))
    assert lhs == ps.apply_Omega(v) + 2 * v


def test_omega():
    assert ps.apply_Omega(unit(MONOMIAL, (2, 0, 1, 0))) == 3 * unit(MONOMIAL, (2, 0, 1, 0))
    assert ps.apply_Omega(unit(MONOMIAL, (0, 0, 0, 0))).is_zero()


def test_casimir_examples():
    assert ps.apply_C(1, unit(MONOMIAL, (1, 0, 0, 0))) == Fraction(3, 2) * unit(MONOMIAL, (1, 0, 0, 0))
    got = ps.apply_C(1, unit(MONOMIAL, (1, 1, 0, 0)))
    assert got == PolyVec(MONOMIAL, {(0, 0, 1, 1): 2, (1, 1, 0, 0): 2})
    v = PolyVec(MONOMIAL, {(1, 1, 1, 0): 1, (3, 0, 0, 0): Fraction(1, 2)})
    for i in (1, 2, 3):
        out = ps.apply_C(i, v)
        assert out == ps.apply_C_via_ladder(i, v)
        assert out == ps.apply_C_via_generators(i, v)
        assert out == ps.apply_C_via_generators(i, v, swapped=True)


def test_hermitian_examples():
    assert ps.hermitian(unit(MONOMIAL, (2, 1, 0, 0)), unit(MONOMIAL, (2, 1, 0, 0))) == 2
    assert ps.hermitian(unit(MONOMIAL, (1, 0, 0, 0)), unit(MONOMIAL, (0, 1, 0, 0))) == 0
    assert ps.hermitian(unit(STARRED, (1, 1, 0, 0)), unit(STARRED, (1, 1, 0, 0))) == 1
    N = 3
    for p in ps.enumerate_profiles(N):
        assert ps.hermitian(unit(MONOMIAL, p), unit(STARRED, (N, 0, 0, 0))) == Fraction(
            factorial(N), 2**N
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.data())
def test_adjointness_property(N, data):
    profiles = ps.enumerate_profiles(N)
    small = st.integers(min_value=-4, max_value=4)
    f = PolyVec(MONOMIAL, {p: data.draw(small) for p in profiles})
    g = PolyVec(MONOMIAL, {p: data.draw(small) for p in profiles})
    for gid in (GeneratorId("A", 2), GeneratorId("Astar", 3)):
        assert ps.hermitian(ps.act_generator(gid, f), g) == ps.hermitian(f, ps.act_generator(gid, g))
    assert ps.hermitian(ps.apply_L(1, f), g) == ps.hermitian(f, ps.apply_R(1, g))
    assert ps.hermitian(ps.sigma(f), ps.sigma(g)) == ps.hermitian(f, g)


def test_kernel_basis():
    kb = ps.kernel_L_basis(1, 1)
    assert len(kb) == 4
    vals = {key: dict(v.items()) for key, v in kb.items()}
    assert vals[(0, 0)] == {(1, 0, 0, 0): 1}
    assert vals[(1, 0)] == {(0, 0, 1, 0): 1}
    assert vals[(0, 1)] == {(0, 0, 0, 1): 1}
    assert vals[(1, 1)] == {(0, 1, 0, 0): 1}
    kb2 = ps.kernel_L_basis(1, 2)
    assert kb2[(1, 1)].norm_sq() == Fraction(1, 2)


def test_graded_decomposition_dimensions():
    summands = ps.graded_decomposition(1, 2)
    assert [len(v) for _, v in summands] == [9, 1]
    (_, top), (_, bottom) = summands
    [w] = list(bottom.values())
    assert w == PolyVec(MONOMIAL, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    assert ps.apply_C(1, w).is_zero()
    summands = ps.graded_decomposition(1, 3)
    assert [len(v) for _, v in summands] == [16, 4]


def test_weight_maps():
    wd = ps.weight_decomposition(1)
    assert wd[(1, 1, 1)] == Profile(1, 0, 0, 0)
    wd = ps.weight_decomposition(2)
    assert wd[(2, 0, 0)] == Profile(1, 1, 0, 0)
    assert ps.profile_from_weights(3, (3, 3, 3)) == Profile(3, 0, 0, 0)
    with pytest.raises(ValueError):
        ps.profile_from_weights(2, (1, 0, 0))


# The inverse weight map as it was written by hand before being read from
# the rows of sl4core._H: four times (r, s, t, u) from the degree and weights.
def _hand_inverse_weights(N, triple):
    lam, mu, nu = triple
    return (N + lam + mu + nu, N + lam - mu - nu, N - lam + mu - nu, N - lam - mu + nu)


def _hand_in_weight_set(N, triple):
    if not set(triple) <= set(range(-N, N + 1, 2)):
        return False
    if (N + sum(triple)) % 4:
        return False
    return all(c >= 0 for c in _hand_inverse_weights(N, triple))


@pytest.mark.parametrize("N", range(6))
def test_inverse_weight_map_matches_the_hand_formula(N):
    box = range(-N - 1, N + 2)
    for triple in ((a, b, c) for a in box for b in box for c in box):
        assert ps.in_weight_set(N, triple) == _hand_in_weight_set(N, triple), triple
        if _hand_in_weight_set(N, triple):
            assert ps.profile_from_weights(N, triple) == Profile(*(c // 4 for c in _hand_inverse_weights(N, triple)))
        else:
            with pytest.raises(ValueError):
                ps.profile_from_weights(N, triple)


def test_eigenspace_dims():
    assert ps.eigenspace_dims(1, "Astar", 2) == {2: 3, 0: 4, -2: 3}
    assert ps.eigenspace_dims(1, "Astar", 0) == {0: 1}
    dims = ps.eigenspace_dims(3, "A", 5)
    assert sum(dims.values()) == comb(8, 3)
    assert dims == {5 - 2 * n: (n + 1) * (5 - n + 1) for n in range(6)}


def test_word_bases():
    words = ps.a_word_basis(1)
    assert words[(0, 0, 0)] == unit(MONOMIAL, (1, 0, 0, 0))
    assert words[(1, 0, 0)] == unit(MONOMIAL, (0, 1, 0, 0))
    assert words[(0, 1, 0)] == unit(MONOMIAL, (0, 0, 1, 0))
    assert words[(0, 0, 1)] == unit(MONOMIAL, (0, 0, 0, 1))
    ps.a_word_basis(3)  # raises on rank deficiency
    ps.a_word_basis(2, starred=True)


def test_pvee_word_identity():
    for N in (1, 2):
        for p in ps.enumerate_profiles(N):
            assert sf.pvee_word(N, (p.s, p.t, p.u)) == unit(MONOMIAL, p)
            assert sf.pvee_word(N, (p.s, p.t, p.u), starred=True) == unit(STARRED, p)
    # a particular instance: the degree-2 word for (s,t,u) = (1,0,0) rebuilds x y
    assert sf.pvee_word(2, (1, 0, 0)) == unit(MONOMIAL, (1, 1, 0, 0))


def test_operator_matrix_matches_rule():
    N = 3
    gid = GeneratorId("A", 2)
    mat = ps.operator_matrix(lambda v: ps.act_generator(gid, v), N)
    rng = random.Random(9)
    v = PolyVec(MONOMIAL, {p: rng.randint(-5, 5) for p in ps.enumerate_profiles(N)})
    assert mat.apply(ps.vector_coords(v, N)) == ps.vector_coords(ps.act_generator(gid, v), N)


def test_zero_vector_conventions():
    z = PolyVec.zero(MONOMIAL)
    assert ps.apply_L(1, z).is_zero()
    assert ps.act_generator(GeneratorId("A", 1), z).is_zero()
    assert z == PolyVec.zero(STARRED)  # the zero vector carries no basis
    assert ps.apply_D(0, unit(MONOMIAL, (0, 0, 0, 0))).is_zero()


def test_mixed_basis_rejected():
    with pytest.raises(ValueError):
        unit(MONOMIAL, (1, 0, 0, 0)) + unit(STARRED, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        PolyVec(MONOMIAL, {(1, 0, 0, 0): 1, (2, 0, 0, 0): 1}).degree()


def test_nonrational_coefficients_rejected():
    with pytest.raises(TypeError):
        PolyVec(MONOMIAL, {(1, 0, 0, 0): 1.5})
    with pytest.raises(TypeError):
        PolyVec(MONOMIAL, {(1, 0, 0, 0): 1j})


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        ps.convert_basis(PolyVec(MONOMIAL, {(-1, -1, 2, 2): 1}), STARRED)
    # vectors built by the operator kernels skip the constructor's check, so
    # the expansion itself refuses a negative power
    with pytest.raises(ValueError):
        ps.convert_basis(PolyVec._of(MONOMIAL, {Profile(-1, -1, 2, 2): 1}), STARRED)


def _substituted(profile):
    """The monomial with each variable replaced by half its signed sum of the
    other basis's variables, multiplied out over plain dicts of Fractions."""
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


@pytest.mark.parametrize("source, target", [(MONOMIAL, STARRED), (STARRED, MONOMIAL)])
def test_conversion_matches_fraction_sum(source, target):
    rng = random.Random(11)
    for N in range(4):
        coeffs = {p: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12))) for p in ps.enumerate_profiles(N)}
        coeffs.update({p: Fraction(rng.randint(-9, 9), 4) for p in rng.sample(ps.enumerate_profiles(N + 1), 2)})
        want = {}
        for p, c in coeffs.items():
            for q, e in _substituted(p).items():
                want[q] = want.get(q, 0) + c * e
        assert ps.convert_basis(PolyVec(source, coeffs), target) == PolyVec(target, want)
