"""The polynomial module: generators, ladders, Casimirs, sigma and the two bases."""

import functools
from fractions import Fraction

from .. import polyspace, sl4core, specialfn
from ..exact import binomial, factorial
from ..linalg import Mat, horner, rank
from ..polyspace import MONOMIAL, STARRED, PolyVec
from ..report import Report, above, completes, unless
from ..sl4core import GENERATORS, GeneratorId, intertwining_failures, pair_failures
from ..sparse import gram


def random_polyvec(rng, N, basis):
    coeffs = {}
    for p in polyspace.enumerate_profiles(N):
        if rng.random() < 0.6:
            coeffs[p] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return PolyVec(basis, coeffs)


def _dm_terms(gid, basis):
    """The derivation sum over a, b of X[b][a] M_b D_a of the generator's
    matrix X, as (coefficient, M slot, D slot) terms: X = sl4core.generator(gid)
    in the monomial basis, its tau image in the starred one."""
    X = sl4core.generator(gid)
    if basis == STARRED:
        X = sl4core.tau(X)
    return [(X[b, a], b, a) for a in range(4) for b in range(4) if X[b, a]]


def _apply_dm_factorization(terms, v):
    """The derivative/multiplication form given by _dm_terms, applied to v."""
    out = PolyVec.zero(v.basis)
    for c, m, d in terms:
        out.add_scaled(c, polyspace.apply_M(m, polyspace.apply_D(d, v)))
    return out


def suite_poly(N, rng, basepoint, oracle_n_max) -> Report:
    rep = Report()
    profiles = polyspace.enumerate_profiles(N)
    D, M, L, R, C = polyspace.apply_D, polyspace.apply_M, polyspace.apply_L, polyspace.apply_R, polyspace.apply_C
    act, herm, unit, Omega = polyspace.act_generator, polyspace.hermitian, functools.cache(PolyVec.unit), polyspace.apply_Omega
    low = "N < 2 (no slice of degree N-2)" if N < 2 else None
    count = unless(lambda: len(profiles) == binomial(N + 3, 3), f"{len(profiles)} profiles")
    rep.check("poly.profile_count", "number of degree-N profiles = C(N+3, 3)", N, count)

    dm_terms = functools.cache(_dm_terms)
    dm = lambda gid, e: _apply_dm_factorization(dm_terms(gid, e.basis), e)
    units = {basis: {p: unit(basis, p) for p in profiles} for basis in (MONOMIAL, STARRED)}
    tables_vs_dm = intertwining_failures(units, lambda e: e, act, dm)
    rep.check("poly.tables_vs_dm", "generator tables match their derivative/multiplication factorizations", N, tables_vs_dm)

    v = random_polyvec(rng, N, MONOMIAL)
    sv = random_polyvec(rng, N, STARRED)

    def weyl():
        for vec, star in ((v, ""), (sv, "*")):
            for a in range(4):
                for b in range(4):
                    if D(a, M(b, vec)) - M(b, D(a, vec)) != (vec if a == b else PolyVec.zero(vec.basis)):
                        yield f"[D_{'xyzw'[a]}{star}, M_{'xyzw'[b]}{star}]"
    rep.check("poly.weyl", "[D_a, M_b] = delta_ab I in both variable systems", N, weyl())

    mono = units[MONOMIAL]
    lower = {p: unit(MONOMIAL, p) for p in polyspace.enumerate_profiles(N - 2)}

    def adjoint_generators():  # <G e_p, e_q> against its transpose <e_p, G e_q>: the form is symmetric
        for gid in GENERATORS:
            got = gram((act(gid, e) for e in mono.values()), mono.values())
            yield from pair_failures(f"{gid.kind}^({gid.index}) at", mono, mono, got, list(zip(*got)))
    rep.check("poly.adjoint_generators", "<G f, g> = <f, G g> for all six generators", N, adjoint_generators())

    def adjoint_ladder():
        for i in (1, 2, 3):
            got = gram((R(i, f) for f in lower.values()), mono.values())
            yield from pair_failures(f"R_{i}/L_{i}", lower, mono, got, gram(lower.values(), (L(i, g) for g in mono.values())))
    rep.check("poly.adjoint_ladder", "<R_i f, g> = <f, L_i g>", N, adjoint_ladder(), skip=low)

    v = random_polyvec(rng, N, MONOMIAL)

    def ladder_relations():
        for i in (1, 2, 3):
            for p in profiles:
                e = unit(MONOMIAL, p)
                if L(i, R(i, e)) - R(i, L(i, e)) != Omega(e) + 2 * e:
                    yield f"[L_{i}, R_{i}] at {tuple(p)}"
        for i in (1, 2, 3):
            if Omega(R(i, v)) - R(i, Omega(v)) != 2 * R(i, v):
                yield f"[Omega, R_{i}]"
            if Omega(L(i, v)) - L(i, Omega(v)) != (-2) * L(i, v):
                yield f"[Omega, L_{i}]"
    rep.check("poly.ladder_relations", "[L_i, R_i] = Omega + 2I, [Omega, R_i] = 2R_i, [Omega, L_i] = -2L_i", N, ladder_relations())

    def ladder_commutes():
        for i in (1, 2, 3):
            for gid in (g for g in GENERATORS if g.index != i):
                for p in profiles:
                    e = unit(MONOMIAL, p)
                    ge = act(gid, e)
                    if L(i, ge) != act(gid, L(i, e)):
                        yield f"[L_{i}, {gid.kind}^({gid.index})]"
                    if R(i, ge) != act(gid, R(i, e)):
                        yield f"[R_{i}, {gid.kind}^({gid.index})]"
    rep.check("poly.ladder_commutes", "L_i and R_i commute with the complementary-index generators", N, ladder_commutes())

    def casimir_three_way():
        for i in (1, 2, 3):
            for p in profiles:
                e = unit(MONOMIAL, p)
                via_table = C(i, e)
                if via_table != polyspace.apply_C_via_ladder(i, e):
                    yield f"C_{i} ladder form at {tuple(p)}"
                if via_table != polyspace.apply_C_via_generators(i, e):
                    yield f"C_{i} first generator form at {tuple(p)}"
                if via_table != polyspace.apply_C_via_generators(i, e, swapped=True):
                    yield f"C_{i} second generator form at {tuple(p)}"
    rep.check("poly.casimir_three_way", "the ladder and both generator expressions for C_i agree", N, casimir_three_way())

    f = random_polyvec(rng, N, MONOMIAL)
    g = random_polyvec(rng, N, MONOMIAL)
    selfadjoint = (f"C_{i}" for i in (1, 2, 3) if herm(C(i, f), g) != herm(f, C(i, g)))
    rep.check("poly.casimir_selfadjoint", "<C_i f, g> = <f, C_i g>", N, selfadjoint)

    sigma = polyspace.sigma

    def sigma_involution():
        if sigma(sigma(f)) != f:
            yield "sigma(sigma(f)) != f on a random f"
    rep.check("poly.sigma_involution", "sigma^2 = id", N, sigma_involution())

    def sigma_isometry():
        if herm(sigma(f), sigma(g)) != herm(f, g):
            yield "<sigma f, sigma g> != <f, g> on random f, g"
    rep.check("poly.sigma_isometry", "<sigma f, sigma g> = <f, g>", N, sigma_isometry())

    def sigma_ladder():
        sf = sigma(f)
        for i in (1, 2, 3):
            if sigma(L(i, f)) != L(i, sf):
                yield f"sigma and L_{i}"
            if sigma(R(i, f)) != R(i, sf):
                yield f"sigma and R_{i}"
    rep.check("poly.sigma_ladder", "sigma commutes with L_i and R_i", N, sigma_ladder())

    def tau_conjugation():
        sf = sigma(f)
        for k in (1, 2, 3):
            a, b = GeneratorId("A", k), GeneratorId("Astar", k)
            if act(b, f) != sigma(act(a, sf)):
                yield f"index {k}"
            if act(a, f) != sigma(act(b, sf)):
                yield f"index {k} reversed"
    rep.check("poly.tau_conjugation", "swapped generator action = sigma . action . sigma", N, tau_conjugation())

    def starred_norms():  # the Hermitian form, on each starred unit converted to the monomial basis once
        want = Mat.diag([p.norm_sq for p in profiles]).rows
        yield from pair_failures("starred", profiles, profiles, gram(units[STARRED].values()), want)
    rep.check("poly.starred_norms", "starred monomials are orthogonal with square norms r!s!t!u!", N, starred_norms())

    xsN = unit(STARRED, (N, 0, 0, 0))
    want = Fraction(factorial(N), 2**N)
    pairing = (f"profile {tuple(p)}" for p in profiles if herm(unit(MONOMIAL, p), xsN) != want)
    rep.check("poly.pairing_constant", "<x^r y^s z^t w^u, x*^N> = N!/2^N for every profile", N, pairing)

    def xn_expansion():
        want = PolyVec(STARRED, {p: Fraction(factorial(N), 2**N * p.norm_sq) for p in profiles})
        if polyspace.convert_basis(unit(MONOMIAL, (N, 0, 0, 0)), STARRED) != want:
            yield "x^N converted to the starred basis differs from the stated sum"
    rep.check("poly.xn_expansion", "x^N = N!/2^N sum of starred monomials over their norms", N, xn_expansion())

    rt = random_polyvec(rng, N, MONOMIAL)

    def conversion_roundtrip():
        if polyspace.convert_basis(polyspace.convert_basis(rt, STARRED), MONOMIAL) != rt:
            yield "monomial -> starred -> monomial on a random vector"
    rep.check("poly.conversion_roundtrip", "changing basis twice is the identity", N, conversion_roundtrip())

    weights = completes(lambda: polyspace.weight_decomposition(N))
    rep.check("poly.weights", "profiles biject with the degree-N weight triples, both Cartans", N, weights)

    def eigenspace_dims():
        want_dims = {N - 2 * n: (n + 1) * (N - n + 1) for n in range(N + 1)}
        for i in (1, 2, 3):
            for which in ("A", "Astar"):
                dims = polyspace.eigenspace_dims(i, which, N)
                if dims != want_dims:
                    yield f"{which}_{i}: {dims}"
    dense = above(N, 5, "dense eigenspace bound")
    rep.check("poly.eigenspace_dims", "generator eigenspace of N-2n has dimension (n+1)(N-n+1)", N, eigenspace_dims(), skip=dense)

    # decomposition machinery
    def kernel_basis():
        for i in (1, 2, 3):
            for (j, k), v in polyspace.kernel_L_basis(i, N).items():
                if not L(i, v).is_zero():
                    yield f"L_{i} fails to kill word ({j}, {k})"
                if v.norm_sq() != Fraction(factorial(N), binomial(N, j) * binomial(N, k)):
                    yield f"norm of word ({j}, {k}) for i={i}"
    rep.check("poly.kernel_basis", "Krawtchouk words span Ker L_i with norms N!/(C(N,j) C(N,k))", N, kernel_basis())

    def graded_decomposition():
        for i in (1, 2, 3):
            for ell, vecs in polyspace.graded_decomposition(i, N):
                base = N - 2 * ell
                if rank([w.row(profiles) for w in vecs.values()]) != (base + 1) ** 2:
                    yield f"dimension at level {ell}"
                for key, w in vecs.items():
                    if L(i, R(i, w)) != ((ell + 1) * (base + ell + 2)) * w:
                        yield f"LR eigenvalue at level {ell}, word {key}"
                    if R(i, L(i, w)) != (ell * (base + ell + 1)) * w:
                        yield f"RL eigenvalue at level {ell}, word {key}"
    rep.check(
        "poly.graded_decomposition",
        "raised kernels give an orthogonal decomposition with the stated dimensions, Casimir and ladder eigenvalues",
        N,
        graded_decomposition(),
    )

    def krawtchouk_annihilation():
        fam = specialfn.krawtchouk(N)
        for i in (1, 2, 3):
            gid = GeneratorId("A", i)
            for p in profiles:
                if not horner(fam.coeffs[N + 1], lambda w: act(gid, w), unit(MONOMIAL, p)).is_zero():
                    yield f"f_{N+1}(A_{i}) on {tuple(p)}"
    rep.check("poly.krawtchouk_annihilation", "the top Krawtchouk polynomial annihilates the degree-N slice", N, krawtchouk_annihilation())

    def raised_perp_kernel():
        kb = polyspace.kernel_L_basis(1, N)
        got = gram((R(1, f) for f in lower.values()), kb.values())
        yield from pair_failures("raised", lower, kb, got, Mat.zeros(len(lower), len(kb)).rows)
    rep.check("poly.raised_perp_kernel", "the raised image of the lower slice is orthogonal to Ker L_i", N, raised_perp_kernel(), skip=low)

    def word_basis():  # the word bases certify their rank by raising
        polyspace.a_word_basis(N)
        polyspace.a_word_basis(N, starred=True)
    rep.check("poly.word_basis", "generator power words on x^N span the slice, both kinds", N, completes(word_basis))

    def matrix_vs_rule():
        op_mat = polyspace.operator_matrix(lambda w: C(1, w), N)
        if op_mat.apply(f.row(profiles)) != C(1, f).row(profiles):
            yield "C_1 on a random vector"
    rep.check("poly.matrix_vs_rule", "the dense matrix of an operator agrees with its sparse rule", N, matrix_vs_rule())
    return rep
