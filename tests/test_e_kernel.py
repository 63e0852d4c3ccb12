"""The per-N class-count kernel against the vertex sums it replaces, and the
integer E-basis kernel against the defining Fraction formulas.

The class-count product, cell sizes and Krawtchouk values are compared on
every cell with test-local vertex loops and with the dense numerators.  Each
E-basis element e_t = E_i A*_h E_j is taken here from the dense matrix
product (not from TAlgebra.e_basis, whose integers the kernel shares), and
every sum below is written out over plain dicts of Fractions.  The kernel
itself is compared with the entrywise sum over the dense numerators, the
cached A-kind operator matrices with the per-call route they are built from,
and the tables shared across basepoints are checked by identity.
"""

import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial, gcd
from operator import mul

import pytest

from sl4cube import cube as cube_module
from sl4cube import specialfn, suites
from sl4cube.correspond import theta_scaled
from sl4cube.cube import Cube, TAlgebra, TElem, t_algebra, valid_triples
from sl4cube.exact import clear_denominators
from sl4cube.linalg import Mat
from sl4cube.polyspace import STARRED, PolyVec, Profile, enumerate_profiles

CASES = [(N, b) for N in (2, 3) for b in (0, 3)]
# every N the default run checks, at the first, last and a middle vertex
OP_CASES = sorted({(N, b % 2**N) for N in range(6) for b in (0, 5, 2**N - 1)})
KERNEL_CASES = sorted({(N, b % 2**N) for N in range(7) for b in (0, 5, 2**N - 1)})


def vertex_loop_product(X, Y):
    """X @ Y as a dict of its nonzero cells, each entry summed over all 2^N
    vertices k at the cell's representative pair (x, y)."""
    alg = X.space
    pc, base = alg.cube.pc, alg.basepoint
    xc, yc = X.coeffs, Y.coeffs
    out = {}
    for trip, (x, y) in alg.cell_reps.items():
        total = sum(
            xc.get((pc[x ^ k], pc[x ^ base], pc[k ^ base]), 0) * yc.get((pc[k ^ y], pc[k ^ base], pc[y ^ base]), 0)
            for k in range(alg.cube.size)
        )
        if total:
            out[trip] = total
    return out


def count_cells(alg):
    """The number of vertex pairs in each cell, counted over all 4^N pairs."""
    pc, d = alg.cube.pc, alg.dist_to_base
    counts = Counter((pc[x ^ y], dx, dy) for x, dx in enumerate(d) for y, dy in enumerate(d))
    return {t: counts[t] for t in alg.triples}


@pytest.mark.parametrize("N,b", KERNEL_CASES)
def test_class_count_kernel_matches_the_vertex_loops(N, b):
    alg = TAlgebra(N, b)
    assert alg.cell_sizes == count_cells(alg)
    rng = random.Random(60 * N + b)
    ints = [TElem(alg, {t: rng.randint(-9, 9) for t in alg.triples}) for _ in range(2)]
    fracs = [random_telem(alg, rng) for _ in range(2)]
    for X, Y in ((ints[0], ints[1]), (fracs[0], fracs[1]), (ints[0], fracs[1])):
        assert (X @ Y).coeffs == vertex_loop_product(X, Y)


@pytest.mark.parametrize("N", range(7))
def test_krawtchouk_values_match_the_family_and_the_dense_numerators(N):
    c = Cube(N)  # fresh, so that the closed form is computed here
    fam = specialfn.krawtchouk(N)
    dense = [K.rows[0] for K in cube_module.cube(N).idempotent_numerators()]
    for m, row in enumerate(c.krawtchouk_values):
        assert row == [comb(N, m) * fam.evaluate(m, N - 2 * d) for d in range(N + 1)], m
        assert [row[c.pc[x]] for x in range(c.size)] == dense[m], m


def entrywise_e_kernel(alg):
    """Per triple (h, i, j): the numerator row, its cell-size weighted norm,
    and the element's reduced coordinate dict and denominator, each row
    entry its own sum over k of K_i[x, k] A*_h[k, k] K_j[k, y] at the cell's
    representative pair.  K_j is read by columns and no symmetry is used."""
    Ks = alg.cube.idempotent_numerators()
    sizes = [alg.cell_sizes[t] for t in alg.triples]
    out = {}
    for trip in alg.triples:
        h, i, j = trip
        dh, Ki, Kj = alg.dual_distance_diag(h), Ks[i], Ks[j]
        cols = {}  # y -> the column A*_h K_j[., y]
        row = []
        for x, y in alg.cell_reps.values():
            if y not in cols:
                cols[y] = [dh[k] * Kj[k, y] for k in range(alg.cube.size)]
            row.append(sum(map(mul, Ki.rows[x], cols[y])))
        g = gcd(alg.e_den, *row)
        coords = {t: a // g for t, a in zip(alg.triples, row) if a}
        out[trip] = (tuple(row), sum(s * a * a for s, a in zip(sizes, row)), coords, alg.e_den // g)
    return out


@pytest.mark.parametrize("N,b", KERNEL_CASES)
def test_e_kernel_matches_the_entrywise_sum(N, b):
    alg = TAlgebra(N, b)
    ebas = alg.e_basis()
    kernel = alg.cube.e_kernel
    want = entrywise_e_kernel(alg)
    assert list(ebas) == list(kernel) == list(want) == alg.triples
    for t, (row, norm, coords, den) in want.items():
        assert kernel[t][:2] == (row, norm)
        assert list(ebas[t].nums.items()) == list(coords.items()) and ebas[t].den == den


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
    # the cached matrices give what the integer E-combination of theta times
    # e_coords(B) gives, down to the order of the stored cells
    alg = t_algebra(N, b)
    rng = random.Random(50 * N + b)
    elems = [alg.zero()] + [random_telem(alg, rng) for _ in range(3)]
    for k, slot in ((1, 0), (2, 1), (3, 2)):  # theta_h, theta_i, theta_j
        theta = {t: N - 2 * t[slot] for t in alg.triples}
        op = alg.module_op("A", k)
        for B in elems:
            coeffs = {t: theta[t] * a for t, a in alg.e_coords(B).items()}
            ints, den = clear_denominators(coeffs.values())
            got, want = op(B), alg._e_int_combination(dict(zip(coeffs, ints)), den)
            assert got == want and list(got.nums.items()) == list(want.nums.items())
        with pytest.raises(ValueError, match="mixing TElem tags"):
            op(random_telem(TAlgebra(N, b), rng))


def test_basepoints_share_e_basis_storage_by_value():
    a, b = t_algebra(3, 0), t_algebra(3, 5)
    ea, eb = a.e_basis(), b.e_basis()
    sa, sb = a.estar_basis(), b.estar_basis()
    for t in a.triples:
        assert ea[t].nums is eb[t].nums is a.cube.e_kernel[t][2] and ea[t].den == eb[t].den
        assert ea[t] != eb[t]  # elements of different algebras
        assert sa[t].nums is sb[t].nums == {t: 1} and sa[t] != sb[t]
    assert a._a_matrices() is b._a_matrices()
    # the cells and their sizes are the same for every basepoint, held once
    assert a.triples is b.triples == valid_triples(3)
    assert a.cell_sizes is b.cell_sizes


def _asymmetric_numerators(real):
    def corrupted(self):
        Ks = real(self)
        K1 = Mat([list(r) for r in Ks[1].rows])
        K1.rows[0][1] += 1
        return [Ks[0], K1] + Ks[2:]

    return corrupted


def test_patched_numerators_leave_e_basis_unchanged(monkeypatch):
    # the E-basis is built from the class counts and the closed-form
    # Krawtchouk values, never from the dense numerators: a fresh cube under
    # the patch builds the same tables as the real one
    real_alg = t_algebra(2, 0)
    before = [(dict(e.nums), e.den) for e in real_alg.e_basis().values()]
    real_mats = real_alg._a_matrices()
    monkeypatch.setattr(Cube, "idempotent_numerators", _asymmetric_numerators(Cube.idempotent_numerators))
    fresh = Cube(2)
    assert fresh.idempotent_numerators()[1].rows[0][1] == 1  # the patch is in force
    monkeypatch.setattr(cube_module, "cube", lambda N: fresh)
    alg = TAlgebra(2, 0)
    assert [(dict(e.nums), e.den) for e in alg.e_basis().values()] == before
    assert alg._a_matrices() == real_mats and alg._a_matrices() is not real_mats


@pytest.mark.parametrize("N", (2, 3))
def test_asymmetric_numerators_fail_their_checks(N, monkeypatch, fresh_spectral_numerators):
    # a K_1 with one asymmetric entry must fail the check that certifies the
    # symmetry, and the dense-product oracle of the E-basis, which now
    # compares the class-count kernel with the patched Lagrange numerators
    monkeypatch.setattr(Cube, "idempotent_numerators", _asymmetric_numerators(Cube.idempotent_numerators))
    monkeypatch.setattr(cube_module, "t_algebra", TAlgebra)  # an algebra of the patched numerators
    checks = {c.id: c for c in suites.suite_cube(N, random.Random(0), 0, 3).checks}
    for name in ("cube.idempotents", "cube.e_basis_dense_oracle"):
        assert checks[name].status == "fail" and checks[name].witness, name


def _cube_suite_on(monkeypatch, fresh):
    """The cube suite at fresh.N, basepoint 0, run on the given Cube, so
    that no corrupted table is left on cube(N)."""
    monkeypatch.setattr(cube_module, "cube", lambda N: fresh)
    monkeypatch.setattr(cube_module, "t_algebra", TAlgebra)
    return {c.id: c for c in suites.suite_cube(fresh.N, random.Random(0), 0, 3).checks}


def _corrupt_krawtchouk(c):
    c.krawtchouk_values[1][1] += 1  # K_1(1) = 0 at N = 2


def _corrupt_multiplicity(c):
    n = c.cell_slot[(2, 1, 1)]
    (xk, ky, m), *rest = c.class_counts[n]
    c.class_counts[n] = ((xk, ky, m + 1), *rest)


@pytest.mark.parametrize(
    "corrupt, failing",
    [
        (_corrupt_krawtchouk, {"cube.e_basis_dense_oracle"}),
        (_corrupt_multiplicity, {"cube.e_basis_dense_oracle", "cube.product_oracle"}),
    ],
    ids=["krawtchouk_value", "class_multiplicity"],
)
def test_corrupted_kernel_tables_fail_an_oracle(monkeypatch, corrupt, failing):
    fresh = Cube(2)
    corrupt(fresh)  # before the E-basis kernel is built from it
    checks = _cube_suite_on(monkeypatch, fresh)
    oracles = {"cube.e_basis_dense_oracle", "cube.product_oracle"}
    assert {n for n in oracles if checks[n].status == "fail" and checks[n].witness} == failing
    monkeypatch.undo()
    assert cube_module.cube(2) is not fresh


def _swapped(r, s, t, u):
    return Profile(r, s, t, t)  # the y-only size in the x-only slot


def _merged(r, s, t, u):
    return Profile(r + t, s, 0, u)  # the y-only class counted as neither


@pytest.mark.parametrize(
    "mutant, with_profile", [(_swapped, False), (_merged, True)], ids=["swapped_size", "merged_sizes_and_profile"]
)
def test_wrong_class_sizes_in_the_multinomial_fail_estar_basis(monkeypatch, mutant, with_profile):
    # a cell size is the multinomial N!/p! of its classes, the profile p; with
    # the suite's profile formula changed the same way, the norms still equal
    # N!/p!: only the pairs counted off the dense product differ
    real = cube_module.profile_of_triple
    wrong = lambda N, trip: mutant(*real(N, trip))
    with monkeypatch.context() as mp:
        mp.setattr(cube_module, "profile_of_triple", wrong)
        fresh = Cube(2)  # only its cell sizes read the mutant; the class counts are built later
    assert fresh.cell_sizes != cube_module.cube(2).cell_sizes
    if with_profile:
        monkeypatch.setattr(cube_module, "profile_of_triple", wrong)
    check = _cube_suite_on(monkeypatch, fresh)["cube.estar_basis"]
    assert check.status == "fail" and check.witness.startswith("norm at ")


def test_a_zero_e_basis_element_fails_its_norm(monkeypatch):
    # cube.e_basis has no nonzero test of its own: a zero element's norm is 0
    real = TAlgebra.e_basis

    def with_a_zero(self):
        elems = dict(real(self))
        elems[cube_module.TripleIndex(1, 0, 1)] = self.zero()
        return elems

    monkeypatch.setattr(TAlgebra, "e_basis", with_a_zero)
    assert _cube_suite_on(monkeypatch, Cube(2))["cube.e_basis"].witness == "E pair (1, 0, 1),(1, 0, 1)"


REAL_CELL_CLASSES = cube_module.cell_classes


def _swapped_classes(N, trip):
    neither, x_only, both, y_only = REAL_CELL_CLASSES(N, trip)
    return (neither, y_only, both, x_only)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize(
    "target, name, mutant, reader",
    [
        (cube_module, "cell_classes", _swapped_classes, "cube.product_oracle"),
        (cube_module.TripleIndex, "transposed", lambda self: self, "cube.s_antiautomorphism"),
    ],
    ids=["swapped_class_order", "identity_transpose"],
)
def test_a_wrong_cell_dictionary_fails_checks_with_witnesses(monkeypatch, N, target, name, mutant, reader):
    monkeypatch.setattr(target, name, mutant)
    checks = _cube_suite_on(monkeypatch, Cube(N))  # the suite runs to its end
    failed = {i: c.witness for i, c in checks.items() if c.status == "fail"}
    assert reader in failed and all(failed.values())


def test_a_raising_estar_basis_fails_only_the_checks_that_read_it(monkeypatch):
    def broken(self):
        raise ArithmeticError("corrupted indicators")

    monkeypatch.setattr(TAlgebra, "estar_basis", broken)
    checks = _cube_suite_on(monkeypatch, Cube(2))
    failed = {i: c.witness for i, c in checks.items() if c.status == "fail"}
    assert len(checks) == 22
    assert set(failed) == {
        "cube.estar_basis",
        "cube.closure",
        "cube.wedderburn",
        "cube.module_ops",
        "cube.s_antiautomorphism",
        "cube.basepoint_independence",
    }
    assert set(failed.values()) == {"ArithmeticError: corrupted indicators"}
