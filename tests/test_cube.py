import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from sl4cube import cube as cb
from sl4cube.cube import TripleIndex, cell_classes, cube, profile_of_triple, t_algebra, triple_of_profile
from sl4cube.linalg import Mat


def test_adjacency_small():
    c = cube(1)
    assert c.adjacency() == Mat([[0, 1], [1, 0]])
    assert cube(2).dist(0, 3) == 2


def test_idempotent_small():
    c = cube(1)
    assert c.primitive_idempotent(0) == Fraction(1, 2) * (c.adjacency() + Mat.identity(2))
    assert cube(3).idempotent_numerators()[1].rank() == comb(3, 1)


def test_distance_ops():
    c = cube(2)
    assert c.distance_op(0) == Mat.identity(4)
    total = c.distance_op(0) + c.distance_op(1) + c.distance_op(2)
    assert total == Mat([[1] * 4 for _ in range(4)])
    # distance-2 operator through the Krawtchouk identity: A^2/2 - I
    A = c.adjacency()
    assert c.distance_op(2) == Fraction(1, 2) * (A @ A) - Mat.identity(4)


def test_dual_objects():
    alg = t_algebra(2, 0)
    Astar = alg.dual_adjacency()
    assert Astar == Mat.diag([2, 0, 0, -2])
    assert alg.dual_idempotent(0) == Mat.diag([1, 0, 0, 0])
    # the diagonal entry of E_i at any vertex is C(N, i)/2^N, so the first dual
    # distance operator takes the value 2^N * C(2,1)/2^N = 2 at the basepoint
    assert alg.dual_distance_diag(1)[0] == 2
    K1 = alg.cube.idempotent_numerators()[1]
    assert K1[0, 0] == 2 and alg.cube.primitive_idempotent(1)[0, 0] == Fraction(1, 2)
    # eigenvalue multiplicities of the dual adjacency map
    from collections import Counter

    counts = Counter(alg.dual_adjacency().rows[x][x] for x in range(4))
    assert counts == {2: 1, 0: 2, -2: 1}


def test_valid_triples():
    assert set(cb.valid_triples(1)) == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
    for N in range(6):
        assert len(cb.valid_triples(N)) == comb(N + 3, 3)
    assert (1, 1, 1) not in set(cb.valid_triples(2))  # odd parity


def test_triple_profile_bijection():
    for N in range(5):
        for trip in cb.valid_triples(N):
            p = profile_of_triple(N, trip)
            assert p.degree == N
            assert triple_of_profile(p) == trip


@pytest.mark.parametrize("N", range(9))
def test_cell_reps_have_the_classes_transpose_and_size_of_their_profile(N):
    # the classes of each representative pair counted off its bits: set in
    # neither, x only, both, y only against the basepoint
    mask = 2**N - 1
    for basepoint in (0, mask):
        alg = t_algebra(N, basepoint)
        for trip, (x, y) in alg.cell_reps.items():
            xb, yb = x ^ basepoint, y ^ basepoint
            classes = tuple(bin(m).count("1") for m in (~(xb | yb) & mask, xb & ~yb, xb & yb, yb & ~xb))
            assert classes == cell_classes(N, trip)
            assert alg.cell_of(x, y) == trip
            assert alg.cell_of(y, x) == trip.transposed()
            assert alg.cell_sizes[trip] == factorial(N) // prod(map(factorial, classes))


def test_estar_basis_norms():
    alg = t_algebra(3, 0)
    for trip, elem in alg.estar_basis().items():
        p = profile_of_triple(3, trip)
        assert elem.norm_sq() == Fraction(factorial(3), p.norm_sq)


def test_e_basis_matches_dense_products():
    # every N the dense-product check of the cube suite runs at and one past
    # it, at the first, last and a middle vertex
    for N in range(5):
        for b in sorted({0, 5 % 2**N, 2**N - 1}):
            alg = t_algebra(N, b)
            for trip, elem in alg.e_basis().items():
                assert elem.matrix() == alg.e_basis_product_matrix(trip), (N, b, trip)


def test_telem_algebra():
    alg = t_algebra(2, 0)
    rng = random.Random(3)
    basis = list(alg.estar_basis().values())
    x = alg.zero()
    y = alg.zero()
    for b in basis:
        x = x + rng.randint(-3, 3) * b
        y = y + rng.randint(-3, 3) * b
    assert (x @ y).matrix() == x.matrix() @ y.matrix()
    assert (x + y).matrix() == x.matrix() + y.matrix()
    flat = lambda M: [a for row in M.rows for a in row]
    assert x.inner(y) == sum(a * b for a, b in zip(flat(x.matrix()), flat(y.matrix())))


def test_from_matrix_rejects_outsiders():
    alg = t_algebra(2, 0)
    M = Mat.zeros(4, 4)
    M.rows[0][1] = 1  # a lone matrix unit is not constant on its cell
    with pytest.raises(ArithmeticError):
        alg.from_matrix(M)
    # but the adjacency matrix is
    assert alg.from_matrix(alg.cube.adjacency()) == alg.adjacency_elem()


def test_phi_and_wedderburn():
    alg = t_algebra(2, 0)
    assert alg.phi_eigenvalues() == [4, 0]
    ideals = alg.wedderburn()
    assert [len(b) for _, _, b in ideals] == [9, 1]
    assert sum(len(b) for _, _, b in ideals) == comb(5, 3)
    alg4 = t_algebra(4, 0)
    assert [len(b) for _, _, b in alg4.wedderburn()] == [25, 9, 1]
    phi = alg.phi_central()
    A = alg.adjacency_elem()
    As = alg.dual_adjacency_elem()
    assert phi @ A == A @ phi
    assert phi @ As == As @ phi


def test_module_ops_small():
    alg = t_algebra(1, 0)
    e000 = alg.e_basis()[TripleIndex(0, 0, 0)]
    assert alg.module_op("A", 2)(e000) == 1 * e000  # theta_0 = 1 at N = 1
    estar = alg.estar_basis()[TripleIndex(1, 0, 1)]  # E*_0 A_1 E*_1
    assert alg.module_op("Astar", 1)(estar) == (-1) * estar  # theta*_1 = -1
    A = alg.adjacency_elem()
    for b in alg.estar_basis().values():
        assert alg.module_op("A", 2)(b) == A @ b
        assert alg.module_op("A", 3)(b) == b @ A


def test_s_map():
    alg = t_algebra(2, 0)
    estar = alg.estar_basis()
    ebas = alg.e_basis()
    for trip in alg.triples:
        assert alg.s_antiautomorphism(estar[trip]) == ebas[TripleIndex(trip.h, trip.j, trip.i)]
    rng = random.Random(4)
    x = alg.zero()
    y = alg.zero()
    for b in estar.values():
        x = x + rng.randint(-2, 2) * b
        y = y + rng.randint(-2, 2) * b
    S = alg.s_antiautomorphism
    assert S(S(x)) == x
    assert S(x @ y) == S(y) @ S(x)


@pytest.mark.parametrize("other", [(2, 0), (3, 1)], ids=["another_N", "another_basepoint"])
def test_maps_of_t_refuse_an_element_of_another_algebra(other):
    alg = t_algebra(3, 0)
    foreign = t_algebra(*other).identity()
    maps = [*alg.t_module_ops().values(), alg.s_antiautomorphism, alg.e_coords]
    for f in maps:
        with pytest.raises(ValueError, match="mixing TElem tags"):
            f(foreign)
    for f in maps[:-1]:  # the same maps accept the algebra's own element
        assert f(alg.identity()).space is alg


def test_intersection_identity():
    for N in (1, 2, 3, 4):
        for trip in cb.valid_triples(N):
            p = profile_of_triple(N, trip)
            assert comb(N, trip.h) * cb.intersection_number(N, *trip) == factorial(N) // p.norm_sq


def test_degenerate_n0():
    alg = t_algebra(0, 0)
    assert alg.triples == [TripleIndex(0, 0, 0)]
    assert alg.identity() == alg.estar_basis()[TripleIndex(0, 0, 0)]
    assert [len(b) for _, _, b in alg.wedderburn()] == [1]


def test_t_module_ops_keys():
    alg = t_algebra(1, 0)
    ops = alg.t_module_ops()
    assert set(ops) == {(kind, k) for kind in ("A", "Astar") for k in (1, 2, 3)}
    e000 = alg.e_basis()[TripleIndex(0, 0, 0)]
    assert ops[("A", 1)](e000) == 1 * e000


def test_basepoint_must_be_vertex():
    with pytest.raises(ValueError):
        cb.TAlgebra(2, 4)


def test_n_cap():
    with pytest.raises(ValueError):
        cb.Cube(9)


@pytest.mark.parametrize("N", range(5))
@pytest.mark.parametrize("basepoint", [0, 3])
def test_named_elements_match_dense_definitions(N, basepoint):
    alg = t_algebra(N, basepoint % 2**N)
    c = alg.cube
    assert alg.identity().matrix() == Mat.identity(c.size)
    assert alg.adjacency_elem().matrix() == c.adjacency()
    assert alg.dual_adjacency_elem().matrix() == alg.dual_adjacency()
    for h in range(N + 1):
        assert alg.dual_distance_elem(h).matrix() == Mat.diag(alg.dual_distance_diag(h))
        assert alg.idempotent_elem_raw(h).matrix() == c.idempotent_numerators()[h]


def test_basepoint_translation():
    alg0 = t_algebra(3, 0)
    alg5 = t_algebra(3, 5)
    assert sorted(alg0.cell_sizes.values()) == sorted(alg5.cell_sizes.values())
    assert [len(b) for _, _, b in alg0.wedderburn()] == [len(b) for _, _, b in alg5.wedderburn()]
