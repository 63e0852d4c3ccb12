import random
from fractions import Fraction
from math import factorial

import pytest

from sl4cube import tensorspace as tsp
from sl4cube.cube import TripleIndex, cube
from sl4cube.polyspace import Profile, enumerate_profiles
from sl4cube.tensorspace import STAR_TILDE, TILDE, FixVec, TripleTensor


def test_profile_of():
    assert tsp.profile_of(3, 5, 5, 5) == Profile(3, 0, 0, 0)
    # first coordinate all agree, second coordinate x differs from y = z
    assert tsp.profile_of(2, 0, 2, 2) == Profile(1, 1, 0, 0)
    # coordinate 0: y differs while z agrees with x; coordinate 1: all agree
    assert tsp.profile_of(2, 1, 0, 1) == Profile(1, 0, 1, 0)


def test_b_vector_support():
    b = tsp.b_vector(1, (0, 1, 0, 0))
    assert len(b.coeffs) == 2
    assert b == TripleTensor(1, {tsp.pack(1, 1, 0, 0): 1, tsp.pack(1, 0, 1, 1): 1})
    assert tsp.b_vector(2, (2, 0, 0, 0)).norm_sq() == 4
    for p in enumerate_profiles(3):
        b = tsp.b_vector(3, p)
        assert b.norm_sq() == Fraction(factorial(3) * 8, p.norm_sq)


def test_q_vector():
    q = tsp.q_vector(1, (0, 0, 0))
    assert q.norm_sq() == 2
    assert tsp.q_vector(1, (1, 1, 1)).is_zero()  # odd triple is out of range
    assert tsp.q_vector(2, (1, 0, 0)).is_zero()
    assert not tsp.q_vector(2, (1, 1, 0)).is_zero()


def test_spectral_sums_match_fraction_definition():
    rng = random.Random(2)
    for N in range(4):
        Ks = cube(N).idempotent_numerators()
        size = 1 << N
        scale = Fraction(1, 4**N)
        for h in range(N + 1):
            for i in range(N + 1):
                for j in range(N + 1):
                    want = {}
                    for a in range(size):
                        for b in range(size):
                            for c in range(size):
                                total = sum(Ks[h][a, x] * Ks[i][b, x] * Ks[j][c, x] for x in range(size))
                                if total:
                                    want[tsp.pack(N, a, b, c)] = total * scale
                    assert tsp.q_vector(N, (h, i, j)) == TripleTensor(N, want)
        # a lift is the weighted sum of the orbit or spectral sums it stands for
        profiles = enumerate_profiles(N)
        for tag, base in ((TILDE, tsp.b_vector), (STAR_TILDE, tsp.bstar_vector)):
            for _ in range(6):
                picked = rng.sample(profiles, rng.randint(1, len(profiles)))
                coeffs = {p: rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 7)))) for p in picked}
                want = TripleTensor(N)
                for p, c in coeffs.items():
                    want = want + c * Fraction(p.norm_sq, factorial(N) * 2**N) * base(N, p)
                assert FixVec(N, tag, coeffs).lift() == want


def test_spectral_diagonal_sum():
    N = 2
    total = TripleTensor(N)
    for p in enumerate_profiles(N):
        total = total + tsp.bstar_vector(N, p)
    assert Fraction(1, 2**N) * total == tsp.b_vector(N, (N, 0, 0, 0))


def test_act_concrete():
    t = TripleTensor.basis(1, 0, 1, 0)
    out = tsp.act_concrete(1, "A", t)
    assert out == TripleTensor.basis(1, 1, 1, 0)
    # starred operator 3 scales by theta*_{dist(x, y)}
    out = tsp.act_concrete(3, "Astar", t)
    assert out == (1 - 2 * 1) * t
    out = tsp.act_concrete(1, "Astar", TripleTensor.basis(2, 0, 1, 1))
    assert out == 2 * TripleTensor.basis(2, 0, 1, 1)


def test_act_abstract_examples():
    v = FixVec.unit(1, TILDE, (1, 0, 0, 0))
    out = tsp.act_abstract(1, "A", v)
    assert out == FixVec.unit(1, TILDE, (0, 1, 0, 0))
    v = FixVec.unit(2, TILDE, (1, 1, 0, 0))
    assert tsp.act_abstract(1, "Astar", v) == 2 * v
    v = FixVec.unit(2, STAR_TILDE, (1, 1, 0, 0))
    out = tsp.act_abstract(1, "Astar", v)
    assert out == FixVec(
        2, STAR_TILDE, {(0, 2, 0, 0): 1, (2, 0, 0, 0): 1}
    )


def test_abstract_concrete_agree():
    N = 2
    for tag in (TILDE, STAR_TILDE):
        for p in enumerate_profiles(N):
            u = FixVec.unit(N, tag, p)
            for kind in ("A", "Astar"):
                for k in (1, 2, 3):
                    assert tsp.act_abstract(k, kind, u).lift() == tsp.act_concrete(k, kind, u.lift())


def test_fix_membership():
    for p in enumerate_profiles(2):
        assert tsp.fix_membership(tsp.b_vector(2, p))
    assert tsp.fix_membership(tsp.q_vector(2, (1, 1, 2)))
    assert not tsp.fix_membership(TripleTensor.basis(2, 0, 1, 2))
    # N = 0: the whole space is fixed
    assert tsp.fix_membership(TripleTensor.basis(0, 0, 0, 0))


def test_duality():
    N = 2
    for p in enumerate_profiles(N):
        dual = FixVec.unit(N, TILDE, p).lift()
        for q in enumerate_profiles(N):
            assert tsp.b_vector(N, q).inner(dual) == (1 if p == q else 0)


def test_orbits_match_profiles():
    N = 2
    group = tsp.full_group(N)
    assert len(group) == 8  # 2! * 2^2
    reps = {}
    size = 1 << N
    for x in range(size):
        for y in range(size):
            for z in range(size):
                orbit_min = min(
                    tsp.pack(
                        N,
                        tsp.permute_bits(x, pm) ^ fl,
                        tsp.permute_bits(y, pm) ^ fl,
                        tsp.permute_bits(z, pm) ^ fl,
                    )
                    for pm, fl in group
                )
                prof = tsp.profile_of(N, x, y, z)
                assert reps.setdefault(prof, orbit_min) == orbit_min


def test_fixvec_inner_matches_lift():
    N = 2
    for tag in (TILDE, STAR_TILDE):
        for p in enumerate_profiles(N):
            for q in enumerate_profiles(N):
                u = FixVec.unit(N, tag, p)
                v = FixVec.unit(N, tag, q)
                assert u.inner(v) == u.lift().inner(v.lift())


def test_triple_of_profile_keys():
    assert tsp.triple_of_profile(Profile(1, 0, 0, 0)) == TripleIndex(0, 0, 0)
    assert tsp.triple_of_profile(Profile(0, 1, 0, 0)) == TripleIndex(0, 1, 1)


@pytest.mark.parametrize("tag", [TILDE, STAR_TILDE])
def test_fixvec_takes_only_profiles_of_its_degree(tag):
    for profile in ((1, 0, 0, 0), (3, 0, 0, 0), (3, -1, 0, 0), (0, 0, 2, -2)):
        for c in (1, 0):  # a zero coefficient does not excuse its key
            with pytest.raises(ValueError, match="is not a degree-2 profile"):
                FixVec(2, tag, {profile: c})
    with pytest.raises(ValueError):
        FixVec.unit(1, tag, (2, 0, 0, 0))
    v = FixVec(2, tag, {(2, 0, 0, 0): 3, (0, 1, 0, 1): Fraction(1, 2), (1, 1, 0, 0): 0})
    assert dict(v.coeffs) == {(2, 0, 0, 0): 3, (0, 1, 0, 1): Fraction(1, 2)}
