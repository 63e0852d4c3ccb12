import random
import tracemalloc
from pathlib import Path

import pytest

from sl4cube import cli, cube, polyspace, sl4core, specialfn, suites, tensorspace
from sl4cube.linalg import Mat
from sl4cube.polyspace import MONOMIAL, STARRED, PolyVec


def _raise(*args):
    raise ArithmeticError("corrupted table")


@pytest.mark.parametrize(
    "run", [lambda: suites.suite_poly(1, random.Random(0), 0, 3), lambda: suites.suite_cube(1, random.Random(0), 0, 3)], ids=["poly", "cube"]
)
def test_krawtchouk_raise_is_a_failing_check(monkeypatch, run):
    # the family is built inside the checks that use it, so a raise there
    # ends in a report with failing checks rather than a traceback
    monkeypatch.setattr(specialfn, "krawtchouk", _raise)
    rep = run()
    assert rep.failures
    assert any(c.witness.startswith("ArithmeticError:") for c in rep.failures)


@pytest.mark.parametrize(
    "module, name, job, dependents",
    [
        (sl4core, "basis15", ("sl4", None, (0, 2, 0)), ("sl4.basis15.rank", "sl4.basis15.trace", "sl4.tau_lie_map")),
        (specialfn, "krawtchouk", ("special", 2, (0, 2, 0)), ("special.krawtchouk_family", "special.operator_recurrence")),
    ],
    ids=["basis15", "krawtchouk"],
)
def test_shared_input_raise_fails_its_dependents_and_keeps_the_job(monkeypatch, module, name, job, dependents):
    # an input several checks share is built inside each of them, so a raise
    # fails every one of them with the witness and the job reports every id
    clean = [c.id for c in cli._run_job(job)]
    monkeypatch.setattr(module, name, _raise)
    checks = cli._run_job(job)
    assert [c.id for c in checks] == clean
    failed = {c.id: c.witness for c in checks if c.status == "fail"}
    assert all(failed.get(i) == "ArithmeticError: corrupted table" for i in dependents)


def test_idempotent_numerators_raise_is_a_failing_check(fresh_spectral_numerators, monkeypatch):
    monkeypatch.setattr(cube.Cube, "idempotent_numerators", _raise)
    rep = suites.suite_cube(1, random.Random(0), 0, 3)
    failed = {c.id: c.witness for c in rep.failures}
    assert failed["cube.idempotents"].startswith("ArithmeticError:")
    rep = suites.suite_tensor(1, random.Random(0), 0, 1)
    failed = {c.id: c.witness for c in rep.failures}
    assert failed["tensor.spectral_sums"].startswith("ArithmeticError:")


def test_corrupted_idempotent_numerators_fail_the_spectral_sums(fresh_spectral_numerators, monkeypatch):
    # the spectral sums are cached per (N, triple); the fixture empties that
    # cache, so the sums are rebuilt from the patched numerators
    real = cube.Cube.idempotent_numerators

    def corrupted(self):
        Ks = real(self)
        K1 = Mat(Ks[1].rows)
        K1.rows[0][1] += 1
        return [Ks[0], K1] + Ks[2:]

    monkeypatch.setattr(cube.Cube, "idempotent_numerators", corrupted)
    rep = suites.suite_tensor(2, random.Random(0), 0, 2)
    failed = {c.id: c.witness for c in rep.failures}
    assert failed["tensor.spectral_sums"] == "nonzero spectral sum at invalid (0, 0, 1)"
    assert failed["tensor.oracle"] == "A^(1) on star_tilde unit (0, 1, 0, 1)"  # lifts read the same sums


@pytest.mark.parametrize("basepoint", [0, 3])
def test_dual_distance_elem_corruption_fails_pointwise(monkeypatch, basepoint):
    real = cube.TAlgebra.dual_distance_elem

    def corrupted(self, h):
        return real(self, h) + cube.TElem(self, {(0, 1, 1): 1})

    monkeypatch.setattr(cube.TAlgebra, "dual_distance_elem", corrupted)
    rep = suites.suite_cube(2, random.Random(0), basepoint, 3)
    failed = {c.id: c.witness for c in rep.failures}
    assert failed["cube.dual_distance_pointwise"].startswith("grade 0 at vertex ")


@pytest.fixture
def fresh_expansion_caches():
    # the cached basis-change rows are built through the operator kernel;
    # start and end empty so no corrupted value outlives its test
    polyspace._conversion_rows.cache_clear()
    yield
    polyspace._conversion_rows.cache_clear()


def test_casimir_table_corruption_keeps_every_poly_check(monkeypatch, fresh_expansion_caches):
    # swapping the two shifts of C_1 sends profiles below zero, so the dense
    # matrix of C_1 raises KeyError; that must fail its check, not end the job
    job = ("poly", 2, (0, 2, 0))
    clean = [c.id for c in cli._run_job(job)]
    up, down, *diagonal = polyspace._C_TABLE[1]
    swapped = ((up[0], up[1], down[2]), (down[0], down[1], up[2]), *diagonal)
    monkeypatch.setitem(polyspace._C_TABLE, 1, swapped)
    checks = cli._run_job(job)
    assert [c.id for c in checks] == clean
    failed = {c.id: c.witness for c in checks if c.status == "fail"}
    assert failed["poly.matrix_vs_rule"].startswith("KeyError:")


def _kernel_ignoring(part):
    real = polyspace._apply_terms

    def mutant(terms, coeffs, out=None):
        if part == "slots":
            terms = [(scale, (), shift) for scale, _, shift in terms]
        else:
            terms = [(1, slots, shift) for _, slots, shift in terms]
        return real(terms, coeffs, out)

    return mutant


@pytest.mark.parametrize(
    "part, run, check_id",
    [
        ("slots", lambda: suites.suite_tensor(2, random.Random(0), 0, 2), "tensor.oracle"),
        ("scale", lambda: suites.suite_poly(2, random.Random(0), 0, 3), "poly.casimir_three_way"),
    ],
    ids=["slots", "scale"],
)
def test_kernel_mutant_fails_its_guard(monkeypatch, fresh_expansion_caches, part, run, check_id):
    # the slot-wise tensor action does not use the kernel, and the generator
    # forms of C_i use only unit scales, so each catches one broken kernel
    monkeypatch.setattr(polyspace, "_apply_terms", _kernel_ignoring(part))
    failed = {c.id: c.witness for c in run().failures}
    assert failed.get(check_id)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_zero_kernel_word_fails_graded_dimension(monkeypatch, N):
    # a zero word keeps the word count, the Casimir and ladder eigenvalues and
    # the orthogonality, so only the rank of each level can catch it
    real = polyspace.kernel_L_basis

    def mutant(i, n):
        basis = real(i, n)
        basis[(0, 0)] = polyspace.PolyVec.zero(polyspace.MONOMIAL)
        return basis

    monkeypatch.setattr(polyspace, "kernel_L_basis", mutant)
    failed = {c.id: c.witness for c in suites.suite_poly(N, random.Random(0), 0, 3).failures}
    assert failed["poly.graded_decomposition"] == "dimension at level 0"


def test_tau_as_transpose_fails_bracket_compatibility(monkeypatch):
    # transposition is an involution but reverses brackets
    monkeypatch.setattr(sl4core, "tau", lambda m: m.transpose())
    failed = {c.id: c.witness for c in suites.suite_sl4(None, random.Random(0), 0, 3).failures}
    assert failed["sl4.tau_lie_map"] == "bracket compatibility fails"


@pytest.mark.parametrize("row, col", [(r, c) for r in range(4) for c in range(4)])
def test_hadamard_sign_flip_breaks_tau(monkeypatch, fresh_expansion_caches, row, col):
    # tau reads the integer table _H directly; a flipped entry there, with
    # UPSILON left intact, must show in the tau checks.  _H also gives the
    # starred derivation forms (through tau), the inverse weight map and the
    # change of variables, whose rows are rebuilt from the flipped table in
    # the emptied cache.
    rows = [list(r) for r in sl4core._H.rows]
    rows[row][col] *= -1
    monkeypatch.setattr(sl4core, "_H", Mat(rows))
    failed = {c.id for c in suites.suite_sl4(None, random.Random(0), 0, 3).failures}
    assert "sl4.upsilon_involution" not in failed
    assert {"sl4.tau_swaps", "sl4.tau_lie_map"} <= failed
    failed = {c.id for c in suites.suite_poly(2, random.Random(0), 0, 3).failures}
    assert {"poly.tables_vs_dm", "poly.conversion_roundtrip", "poly.starred_norms"} <= failed
    # the inverse weight map reads _H too: a flipped entry moves one of the
    # four components H (N, weights) by 2 N or 2 times a weight, and some
    # degree-2 weight triple has that entry nonzero
    assert "poly.weights" in failed


# The derivation forms as they were written by hand before being derived from
# sl4core's matrices: per generator index, the (M slot, D slot) summands of the
# permuting kind and the signs of the diagonal kind, in the vector's own basis.
_HAND_DM = {1: ((1, 0), (0, 1), (3, 2), (2, 3)), 2: ((2, 0), (3, 1), (0, 2), (1, 3)), 3: ((3, 0), (2, 1), (1, 2), (0, 3))}
_HAND_DIAG = {1: (1, 1, -1, -1), 2: (1, -1, 1, -1), 3: (1, -1, -1, 1)}


def _hand_dm_form(gid, v):
    if (gid.kind == "A") == (v.basis == MONOMIAL):
        terms = [(1, m, d) for m, d in _HAND_DM[gid.index]]
    else:
        terms = [(sign, k, k) for k, sign in enumerate(_HAND_DIAG[gid.index])]
    out = PolyVec.zero(v.basis)
    for c, m, d in terms:
        out.add_scaled(c, polyspace.apply_M(m, polyspace.apply_D(d, v)))
    return out


@pytest.mark.parametrize("N", range(5))
def test_derived_dm_form_matches_the_hand_tables(N):
    for basis in (MONOMIAL, STARRED):
        for gid in sl4core.GENERATORS:
            terms = suites.poly._dm_terms(gid, basis)
            for p in polyspace.enumerate_profiles(N):
                e = PolyVec.unit(basis, p)
                assert suites.poly._apply_dm_factorization(terms, e) == _hand_dm_form(gid, e), (gid, basis, p)


def test_corrupted_generator_matrix_fails_tables_vs_dm(monkeypatch):
    # the derivation forms are read from sl4core's matrices, and the
    # generator action from the four-term tables, so they must disagree
    monkeypatch.setitem(sl4core._A, 1, sl4core._A[2])
    failed = {c.id: c.witness for c in suites.suite_poly(1, random.Random(0), 0, 3).failures}
    assert failed["poly.tables_vs_dm"] == "A^(1) on monomial unit (0, 0, 0, 1)"


def test_swapped_four_term_shift_names_the_generator_in_every_witness(monkeypatch, fresh_expansion_caches):
    # the two middle terms of A_1 trade shifts: the checks that loop over
    # generators name the failing one as A^(1), as the intertwining checks do
    first, second, third, fourth = polyspace._FOUR_TERM[1]
    monkeypatch.setitem(polyspace._FOUR_TERM, 1, (first, (*second[:2], third[2]), (*third[:2], second[2]), fourth))
    failed = {c.id: c.witness for c in suites.suite_poly(2, random.Random(0), 0, 3).failures}
    assert failed["poly.tables_vs_dm"] == "A^(1) on monomial unit (0, 0, 1, 1)"
    assert failed["poly.adjoint_generators"] == "A^(1) at pair (0, 0, 0, 2),(0, 0, 1, 1)"
    assert failed["poly.ladder_commutes"] == "[R_2, A^(1)]"


def _doubled(real):
    return lambda i, v: 2 * real(i, v)


def _raised_kernel_word(real):
    # the Ker L_1 word (0, 1) picks up R_1 of the lowest unit below the slice
    def kernel_L_basis(i, N):
        words = dict(real(i, N))
        words[(0, 1)] += polyspace.apply_R(1, PolyVec.unit(MONOMIAL, (0, 0, 0, N - 2)))
        return words
    return kernel_L_basis


def _flipped_hadamard(real):
    rows = [list(r) for r in real.rows]
    rows[1][0] *= -1
    return Mat(rows)


def _doubled_orbit_sum(real):
    return lambda N, p: 2 * real(N, p) if tuple(p) == (0, 0, 1, 1) else real(N, p)


@pytest.mark.parametrize(
    "suite, module, name, mutant, check, witness",
    [
        ("poly", polyspace, "apply_L", _doubled, "poly.adjoint_ladder", "R_1/L_1 pair (0, 0, 0, 0),(0, 0, 1, 1)"),
        ("poly", polyspace, "kernel_L_basis", _raised_kernel_word, "poly.raised_perp_kernel", "raised pair (0, 0, 0, 0),(0, 1)"),
        ("poly", sl4core, "_H", _flipped_hadamard, "poly.starred_norms", "starred pair (0, 0, 0, 2),(0, 1, 0, 1)"),
        ("tensor", tensorspace, "b_vector", _doubled_orbit_sum, "tensor.duality", "dual pair (0, 0, 1, 1),(0, 0, 1, 1)"),
    ],
    ids=["adjoint_ladder", "raised_perp_kernel", "starred_norms", "duality"],
)
def test_a_gram_check_names_the_first_pair_that_fails(monkeypatch, fresh_expansion_caches, suite, module, name, mutant, check, witness):
    # each of these checks is one pair_failures over Gram matrices: its
    # witness is "<label> pair <p>,<q>" at the first failing entry, row by row
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    failed = {c.id: c.witness for c in suites.SUITES[suite](2, random.Random(0), 0, 3).failures}
    assert failed[check] == witness


def test_a_word_that_leaves_the_degree_names_the_profile_it_reaches(monkeypatch, fresh_expansion_caches):
    # A_1's first term shifted to (0, 1, 0, 0) raises the degree: the dense
    # rows of the word basis refuse the degree-3 key rather than drop it
    first, *rest = polyspace._FOUR_TERM[1]
    monkeypatch.setitem(polyspace._FOUR_TERM, 1, ((*first[:2], (0, 1, 0, 0)), *rest))
    failed = {c.id: c.witness for c in suites.suite_poly(2, random.Random(0), 0, 3).failures}
    assert failed["poly.word_basis"] == "KeyError: Profile(r=2, s=1, t=0, u=0)"


def _compile_peak(path):
    """Peak traced bytes of compiling one source file."""
    source = path.read_text()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_each_suite_module_compiles_below_the_largest_library_module():
    # an interpreter without bytecode compiles every module on import, and
    # the largest compile sets the process's memory peak: no suite module
    # may cost more than cube.py, so the suites stay one module each
    ceiling = _compile_peak(Path(cube.__file__))
    peaks = {path.name: _compile_peak(path) for path in sorted(Path(suites.__file__).parent.glob("*.py"))}
    assert len(peaks) == 7
    assert all(peak < ceiling for peak in peaks.values()), (peaks, ceiling)
