"""Acceptance sweep: every criterion is exact (zero tolerance) and prints one line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import random
import re
import time
from collections import Counter, defaultdict

from sl4cube import cli, specialfn, suites
from sl4cube.cli import SuiteConfig


def announce(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def failures(report):
    return [(c.id, c.n, c.witness) for c in report.failures]


def test_criterion_1_presentation():
    t0 = time.time()
    rep = suites.suite_sl4(None, random.Random(0), 0, 3)
    wanted = [c for c in rep.checks if c.id.startswith(("presentation.", "sl4.elementary", "sl4.basis15"))]
    elapsed = time.time() - t0
    ok = rep.passed and len(wanted) >= 35 and elapsed < 1.0
    if not rep.passed:
        print(failures(rep))
    announce(1, "matrix presentation, inverse formulas, basis rank", ok)


def test_criterion_2_polynomial_module():
    ids = (
        "poly.tables_vs_dm",
        "poly.adjoint_generators",
        "poly.ladder_relations",
        "poly.casimir_three_way",
        "poly.sigma_isometry",
        "poly.pairing_constant",
    )
    ok = True
    for N in range(6):
        rep = suites.suite_poly(N, random.Random(0), 0, 3)
        seen = {c.id for c in rep.checks}
        if not rep.passed or not all(i in seen for i in ids):
            ok = False
            print(f"N={N}:", failures(rep))
            break
    announce(2, "polynomial operator identities for N <= 5", ok)


def test_criterion_3_transition_coefficients():
    ok = True
    for N in range(5):
        for lam in specialfn.tails(N):
            for mu in specialfn.tails(N):
                if specialfn.calP_sum(N, lam, mu) != specialfn.calP_genfunc(N, lam, mu):
                    ok = False
        if not specialfn.check_orthogonality(N).passed:
            ok = False
        if N <= 3:
            if not specialfn.check_recurrences(N).passed:
                ok = False
            if not specialfn.check_weight_recurrences(N).passed:
                ok = False
    for N in range(4):
        rep = suites.suite_special(N, random.Random(0), 0, 3)
        if not rep.passed:
            ok = False
            print(f"N={N}:", failures(rep))
    announce(3, "dual evaluators, orthogonality, recurrences, operator words", ok)


def test_criterion_4_decomposition():
    ok = True
    from fractions import Fraction
    from math import comb, factorial

    from sl4cube import polyspace
    from sl4cube.sl4core import GeneratorId

    for N in range(7):
        fam = specialfn.krawtchouk(N)
        for i in (1, 2, 3):
            try:
                summands = polyspace.graded_decomposition(i, N)
            except ArithmeticError as e:
                print(f"N={N} i={i}: {e}")
                ok = False
                continue
            dims = [len(v) for _, v in summands]
            if dims != [(N - 2 * l + 1) ** 2 for l in range(N // 2 + 1)]:
                ok = False
            if sum(dims) != comb(N + 3, 3):
                ok = False
            kb = polyspace.kernel_L_basis(i, N)
            for (j, k), v in kb.items():
                if v.norm_sq() != Fraction(factorial(N), comb(N, j) * comb(N, k)):
                    ok = False
            gid = GeneratorId("A", i)
            for p in polyspace.enumerate_profiles(N):
                img = polyspace.apply_op_poly(
                    fam.coeffs[N + 1],
                    lambda w: polyspace.act_generator(gid, w),
                    polyspace.PolyVec.unit(polyspace.MONOMIAL, p),
                )
                if not img.is_zero():
                    ok = False
    announce(4, "graded decomposition, kernel norms, annihilation for N <= 6", ok)


def test_criterion_5_hypercube_algebra():
    ok = True
    for N in range(7):
        rep = suites.suite_cube(N, random.Random(0), 0, 3)
        if not rep.passed:
            ok = False
            print(f"N={N}:", failures(rep))
            break
    announce(5, "hypercube spectra, both algebra bases, Wedderburn for N <= 6", ok)


def test_criterion_6_fixed_space():
    ok = True
    for N in range(5):
        rep = suites.suite_tensor(N, random.Random(0), 0, 3)
        if not rep.passed:
            ok = False
            print(f"N={N}:", failures(rep))
            break
    announce(6, "fixed-space bases, norms, duality, concrete oracles for N <= 4", ok)


def test_criterion_7_correspondences():
    ok = True
    for N in range(6):
        rep = suites.suite_correspond(N, random.Random(0), 0, 3)
        if not rep.passed:
            ok = False
            print(f"N={N}:", failures(rep))
            break
    announce(7, "intertwining maps, form scalings, Wedderburn correspondence for N <= 5", ok)


def test_criterion_8_negative_controls(monkeypatch):
    from sl4cube import sl4core
    from sl4cube.linalg import Mat

    ok = True

    bad = Mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]])
    with monkeypatch.context() as mp:
        mp.setitem(sl4core._A, 1, bad)
        rep = suites.suite_sl4(None, random.Random(0), 0, 3)
        if rep.passed or not all(c.witness for c in rep.failures):
            ok = False
            print("corrupted generator was not caught")

    real_sum = specialfn.calP_sum

    def corrupted_sum(N, lam, mu):
        val = real_sum(N, lam, mu)
        if (lam, mu) == ((1, 0, 0), (0, 1, 0)):
            return -val
        return val

    with monkeypatch.context() as mp:
        mp.setattr(specialfn, "calP_sum", corrupted_sum)
        rep = suites.suite_special(1, random.Random(0), 0, 3)
        if rep.passed or not all(c.witness for c in rep.failures):
            ok = False
            print("corrupted transition sign was not caught")

    real_kraw = specialfn.krawtchouk

    def corrupted_kraw(N):
        fam = real_kraw(N)
        coeffs = [list(c) for c in fam.coeffs]
        coeffs[1][0] += 1
        return specialfn.KrawtchoukFamily(N, coeffs)

    with monkeypatch.context() as mp:
        mp.setattr(specialfn, "krawtchouk", corrupted_kraw)
        rep = suites.suite_special(2, random.Random(0), 0, 3)
        if rep.passed or not all(c.witness for c in rep.failures):
            ok = False
            print("corrupted Krawtchouk coefficient was not caught")

    announce(8, "negative controls fail with witnesses", ok)


def gaps(report, degrees):
    """(suite, N, id, times seen) for every check id of a suite not reported
    exactly once at every N, and (id, N, anchor) for every skip without a reason."""
    counts = defaultdict(Counter)  # (suite, N) -> id -> rows
    for c in report.checks:
        counts[c.id.split(".")[0], c.n][c.id] += 1
    ids = defaultdict(set)
    for (suite, _), seen in counts.items():
        ids[suite] |= set(seen)
    out = []
    for suite, suite_ids in ids.items():
        ns = [None] if (suite, None) in counts else degrees
        out += [(suite, n, i, counts[suite, n][i]) for n in ns for i in sorted(suite_ids) if counts[suite, n][i] != 1]
    out += [(c.id, c.n, c.anchor) for c in report.checks if c.status not in ("pass", "fail", "skipped")]
    out += [(c.id, c.n, c.anchor) for c in report.checks if c.status == "skipped" and not re.search(r" \[skipped: .+\]$", c.anchor)]
    return out


def test_full_default_suite_under_a_minute():
    t0 = time.time()
    report, status = cli.run(SuiteConfig())
    elapsed = time.time() - t0
    missing = gaps(report, range(6))
    ok = status == 0 and report.passed and not missing and elapsed < 60.0
    if not report.passed:
        print(failures(report))
    if missing:
        print("not reported exactly once, or skipped without a reason:", missing)
    print(f"ACCEPTANCE timing (full default suite): {elapsed:.1f}s: {'PASS' if ok else 'FAIL'}")
    assert ok
