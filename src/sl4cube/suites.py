"""Per-module verification suites: every identity the package certifies, as checks.

Every suite takes (N, rng, basepoint, oracle_n_max), with N None for the
degree-free sl4 suite, and is reached by name through SUITES, in report
order; a suite ignores the arguments it has no use for.  Each returns a
Report with every one of its check ids at every N: pass, fail with a
witness, or skipped with the reason, such as the oracle cap, that the check
does not apply.  Each check builds what it needs inside its own body (inputs
shared by several checks once, through a cached local), so a raise while
building fails those checks and the others still run.  Randomized spot
checks draw from the caller's seeded PRNG so reports are reproducible.
"""

import functools
from fractions import Fraction

from . import correspond, cube, polyspace, specialfn, tensorspace
from . import sl4core
from .exact import binomial, factorial
from .linalg import Mat, horner, rank
from .polyspace import MONOMIAL, STARRED, PolyVec
from .report import Report, above, completes, unless
from .sl4core import GENERATORS, GeneratorId
from .sparse import gram
from .tensorspace import STAR_TILDE, TILDE, FixVec


def random_polyvec(rng, N, basis):
    coeffs = {}
    for p in polyspace.enumerate_profiles(N):
        if rng.random() < 0.6:
            coeffs[p] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return PolyVec(basis, coeffs)


def _second_basepoint_skip(N, basepoint, n_max):
    """Why a comparison from basepoint 0 with basepoint 1 does not apply, or None."""
    if N == 0:
        return "N = 0 (one vertex)"
    return above(N, n_max, "second-basepoint bound") or (
        f"basepoint {basepoint} (compared from basepoint 0 only)" if basepoint else None
    )


def random_telem(alg, rng):
    """A random element, one rng.randint(-4, 4) per cell in triple order: drawn
    now, and built by the function returned, inside the check that reads it."""
    draws = [rng.randint(-4, 4) for _ in alg.triples]
    return functools.cache(lambda: cube.TElem(alg, dict(zip(alg.triples, draws))))


# ---------------------------------------------------------------------------
# matrix realization
# ---------------------------------------------------------------------------


def suite_sl4(N, rng, basepoint, oracle_n_max) -> Report:
    rep = Report()
    rep.extend(sl4core.check_presentation())
    tau, bracket, U = sl4core.tau, sl4core.bracket, sl4core.UPSILON
    rep.check("sl4.upsilon_involution", "Upsilon^2 = I", None, unless(lambda: U @ U == Mat.identity(4), "Upsilon^2 != I"))
    pairs = [(k, sl4core.generator(GeneratorId("A", k)), sl4core.generator(GeneratorId("Astar", k))) for k in (1, 2, 3)]
    rep.check(
        "sl4.intertwine_upsilon",
        "A_i Upsilon = Upsilon A*_i and A*_i Upsilon = Upsilon A_i",
        None,
        (f"index {k}" for k, a, b in pairs if a @ U != U @ b or b @ U != U @ a),
    )

    basis = functools.cache(sl4core.basis15)  # certifies its rank by raising
    rep.check("sl4.basis15.rank", "the 15 bracket words are linearly independent", None, completes(basis))

    def traceless():
        yield from (f"basis matrix {k} has trace {m.trace()}" for k, m in enumerate(basis()) if m.trace() != 0)
    rep.check("sl4.basis15.trace", "every basis matrix is traceless", None, traceless())
    rep.check("sl4.tau_swaps", "tau swaps A_i with A*_i", None, (f"index {k}" for k, a, b in pairs if tau(a) != b or tau(b) != a))

    def tau_lie_map():
        images = [tau(x) for x in basis()]
        for x, tx in zip(basis(), images):
            if tau(tx) != x:
                yield "involution fails"
            for y, ty in zip(basis(), images):
                if tau(bracket(x, y)) != bracket(tx, ty):
                    yield "bracket compatibility fails"
    rep.check("sl4.tau_lie_map", "tau^2 = id and tau[X, Y] = [tau X, tau Y] on the basis", None, tau_lie_map())

    elementary = (f"formula for ({i}, {j})" for (i, j), got, want in sl4core.elementary_targets() if got != want)
    rep.check("sl4.elementary", "every inverse-map formula reproduces its elementary matrix", None, elementary)

    def six_independent():
        for j, k in ((1, 2), (2, 3), (1, 3)):
            (_, aj, bj), (_, ak, bk) = pairs[j - 1], pairs[k - 1]
            if rank([m.flatten() for m in (aj, ak, bj, bk, bracket(aj, bk), bracket(bj, ak))]) != 6:
                yield f"pair ({j}, {k})"
    rep.check("sl4.six_independent", "A_j, A_k, A*_j, A*_k and two brackets are independent", None, six_independent())
    return rep


# ---------------------------------------------------------------------------
# polynomial module
# ---------------------------------------------------------------------------

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
    act, herm, unit, Omega = polyspace.act_generator, polyspace.hermitian, PolyVec.unit, polyspace.apply_Omega
    low = "N < 2 (no slice of degree N-2)" if N < 2 else None
    count = unless(lambda: len(profiles) == binomial(N + 3, 3), f"{len(profiles)} profiles")
    rep.check("poly.profile_count", "number of degree-N profiles = C(N+3, 3)", N, count)

    def tables_vs_dm():
        for basis in (MONOMIAL, STARRED):
            for gid in GENERATORS:
                terms = _dm_terms(gid, basis)
                for p in profiles:
                    e = unit(basis, p)
                    if act(gid, e) != _apply_dm_factorization(terms, e):
                        yield f"{gid} on {basis} unit {tuple(p)}"
    rep.check("poly.tables_vs_dm", "generator tables match their derivative/multiplication factorizations", N, tables_vs_dm())

    v = random_polyvec(rng, N, MONOMIAL)
    sv = random_polyvec(rng, N, STARRED)

    def weyl():
        for vec, star in ((v, ""), (sv, "*")):
            for a in range(4):
                for b in range(4):
                    if D(a, M(b, vec)) - M(b, D(a, vec)) != (vec if a == b else PolyVec.zero(vec.basis)):
                        yield f"[D_{'xyzw'[a]}{star}, M_{'xyzw'[b]}{star}]"
    rep.check("poly.weyl", "[D_a, M_b] = delta_ab I in both variable systems", N, weyl())

    def adjoint_generators():
        for gid in GENERATORS:
            images = {p: act(gid, unit(MONOMIAL, p)) for p in profiles}
            for p in profiles:
                for q in profiles:
                    if herm(images[p], unit(MONOMIAL, q)) != herm(unit(MONOMIAL, p), images[q]):
                        yield f"{gid} at pair {tuple(p)},{tuple(q)}"
    rep.check("poly.adjoint_generators", "<G f, g> = <f, G g> for all six generators", N, adjoint_generators())

    def adjoint_ladder():
        for i in (1, 2, 3):
            for p in polyspace.enumerate_profiles(N - 2):
                for q in profiles:
                    f, g = unit(MONOMIAL, p), unit(MONOMIAL, q)
                    if herm(R(i, f), g) != herm(f, L(i, g)):
                        yield f"R_{i}/L_{i} at {tuple(p)},{tuple(q)}"
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
                        yield f"[L_{i}, {gid}]"
                    if R(i, ge) != act(gid, R(i, e)):
                        yield f"[R_{i}, {gid}]"
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

    def starred_norms():
        # the Hermitian form, on each starred unit converted to the monomial basis once
        for p, row in zip(profiles, gram(unit(STARRED, p) for p in profiles)):
            for q, value in zip(profiles, row):
                if value != (p.norm_sq if p == q else 0):
                    yield f"pair {tuple(p)},{tuple(q)}"
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
                if rank([polyspace.vector_coords(w, N) for w in vecs.values()]) != (base + 1) ** 2:
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
        for p in polyspace.enumerate_profiles(N - 2):
            rf = R(1, unit(MONOMIAL, p))
            for key, v in kb.items():
                if herm(rf, v) != 0:
                    yield f"raised {tuple(p)} against word {key}"
    rep.check("poly.raised_perp_kernel", "the raised image of the lower slice is orthogonal to Ker L_i", N, raised_perp_kernel(), skip=low)

    def word_basis():  # the word bases certify their rank by raising
        polyspace.a_word_basis(N)
        polyspace.a_word_basis(N, starred=True)
    rep.check("poly.word_basis", "generator power words on x^N span the slice, both kinds", N, completes(word_basis))

    def matrix_vs_rule():
        op_mat = polyspace.operator_matrix(lambda w: C(1, w), N)
        if op_mat.apply(polyspace.vector_coords(f, N)) != polyspace.vector_coords(C(1, f), N):
            yield "C_1 on a random vector"
    rep.check("poly.matrix_vs_rule", "the dense matrix of an operator agrees with its sparse rule", N, matrix_vs_rule())
    return rep


# ---------------------------------------------------------------------------
# transition coefficients
# ---------------------------------------------------------------------------


def suite_special(N, rng, basepoint, oracle_n_max) -> Report:
    rep = Report()
    ts = specialfn.tails(N)

    table = specialfn.transition_table(N)
    every_key = above(N, 4, "all-keys bound")
    if every_key:
        keys = [(ts[rng.randrange(len(ts))], ts[rng.randrange(len(ts))]) for _ in range(60)]
    else:
        keys = [(lam, mu) for lam in ts for mu in ts]
    dual = (f"key {lam};{mu}" for lam, mu in keys if table[(lam, mu)] != specialfn.calP_genfunc(N, lam, mu))
    rep.check("special.dual_evaluators", "sum form and generating-function form agree", N, dual)
    symmetry = (f"key {lam};{mu}" for lam, mu in keys[:200] if table[(lam, mu)] != table[(mu, lam)])
    rep.check("special.symmetry", "the transition coefficient is symmetric in its two slots", N, symmetry)

    rep.extend(specialfn.check_orthogonality(N, table))
    rep.extend(specialfn.check_recurrences(N, table))
    rep.extend(specialfn.check_weight_recurrences(N))
    rep.extend(specialfn.check_recurrences_sampled(N, table, rng, 40))

    sample = keys[:40] if every_key else keys

    def weight_form():
        for lam, mu in sample:
            R = N - sum(mu)
            if table[(lam, mu)] != specialfn.calP_vee(N, lam, polyspace.weight_triple((R, *mu))):
                yield f"key {lam};{mu}"
    rep.check("special.weight_form", "the weight-coordinate form matches the plain form", N, weight_form())

    nfact = Fraction(factorial(N), 2**N)

    def pairing():
        for lam, mu in sample:
            pairing = polyspace.hermitian(PolyVec.unit(MONOMIAL, (N - sum(lam), *lam)), PolyVec.unit(STARRED, (N - sum(mu), *mu)))
            if pairing != nfact * table[(lam, mu)]:
                yield f"key {lam};{mu}"
    rep.check("special.pairing", "<x^p, x*^q> = N!/2^N times the transition coefficient", N, pairing())

    def transition_expansion():
        for p in polyspace.enumerate_profiles(N):
            for q, c in polyspace.convert_basis(PolyVec.unit(MONOMIAL, p), STARRED).items():
                if c != nfact * table[((p.s, p.t, p.u), (q.s, q.t, q.u))] / q.norm_sq:
                    yield f"{tuple(p)} -> {tuple(q)}"
    rep.check("special.transition_expansion", "basis conversion reproduces the transition coefficients", N, transition_expansion(), skip=every_key)

    fam = functools.cache(lambda: specialfn.krawtchouk(N))  # certifies its closed form by raising

    rep.check("special.krawtchouk_family", "recurrence family is consistent with the closed product form", N, completes(fam))

    def krawtchouk_vectors():
        for k in (1, 2, 3):  # generator k moves weight into profile slot k
            for n in range(N + 1):
                prof = [N - n, 0, 0, 0]
                prof[k] = n
                if specialfn.krawtchouk_vector(N, n, GeneratorId("A", k)) != PolyVec.unit(MONOMIAL, tuple(prof)):
                    yield f"f_{n}(A_{k})"
                if specialfn.krawtchouk_vector(N, n, GeneratorId("Astar", k)) != PolyVec.unit(STARRED, tuple(prof)):
                    yield f"f_{n}(A*_{k})"
    rep.check("special.krawtchouk_vectors", "f_n applied to the seed produces the two-variable monomials", N, krawtchouk_vectors())

    def operator_recurrence():
        act = lambda w: polyspace.act_generator(GeneratorId("A", 1), w)
        vecs = [horner(fam().coeffs[n], act, PolyVec.unit(MONOMIAL, (N, 0, 0, 0))) for n in range(N + 2)]
        for n in range(N + 1):
            rhs = (n * vecs[n - 1] if n else PolyVec.zero(MONOMIAL)) + (N - n) * vecs[n + 1]
            if n == N:
                rhs = N * vecs[N - 1] + vecs[N + 1] if N else vecs[1]
            if act(vecs[n]) != rhs:
                yield f"recurrence at n={n}"
    rep.check("special.operator_recurrence", "the generator satisfies the Krawtchouk recurrence on seed words", N, operator_recurrence())

    def pvee_words():
        for p in polyspace.enumerate_profiles(N):
            if specialfn.pvee_word(N, (p.s, p.t, p.u)) != PolyVec.unit(MONOMIAL, p):
                yield f"plain word {tuple(p)}"
            if specialfn.pvee_word(N, (p.s, p.t, p.u), starred=True) != PolyVec.unit(STARRED, p):
                yield f"starred word {tuple(p)}"
    oracle = above(N, oracle_n_max, "oracle cap")
    rep.check("special.pvee_words", "operator-substituted transition polynomial reproduces the monomials", N, pvee_words(), skip=oracle)
    return rep


# ---------------------------------------------------------------------------
# hypercube and subconstituent algebra
# ---------------------------------------------------------------------------


def suite_cube(N, rng, basepoint, oracle_n_max) -> Report:
    rep = Report()
    c = cube.cube(N)
    alg = cube.t_algebra(N, basepoint)
    size = c.size
    eye = Mat.identity(size)
    twoN = 2**N

    A = functools.cache(c.adjacency)
    br = sl4core.bracket

    def presentation():
        Astar = alg.dual_adjacency()
        if br(A(), br(A(), Astar)) != 4 * Astar:
            yield "[A, [A, A*]] != 4 A*"
        if br(Astar, br(Astar, A())) != 4 * A():
            yield "[A*, [A*, A]] != 4 A"
    rep.check("cube.presentation", "[A, [A, A*]] = 4 A* and [A*, [A*, A]] = 4 A on the standard module", N, presentation())

    def idempotents():
        Ks = c.idempotent_numerators()
        total = Mat.zeros(size, size)
        recon = Mat.zeros(size, size)
        for i, K in enumerate(Ks):
            total = total + K
            recon = recon + c.theta(i) * K
            if A() @ K != c.theta(i) * K:
                yield f"eigenvector property of E_{i}"
            if K.transpose() != K:
                yield f"symmetry of E_{i}"
        if total != twoN * eye:
            yield "sum of idempotents"
        if recon != twoN * A():
            yield "spectral reconstruction of A"
        # pairwise products: dense matrices up to N=4, cell coordinates past that
        # (their agreement is itself certified at small N by cube.product_oracle)
        if N <= 4:
            Es, scaled, zero = Ks, [twoN * K for K in Ks], Mat.zeros(size, size)
        else:
            Es = [alg.idempotent_elem_raw(i) for i in range(N + 1)]
            scaled, zero = [twoN * E for E in Es], alg.zero()
        for i, Ei in enumerate(Es):
            for j, Ej in enumerate(Es):
                if Ei @ Ej != (scaled[i] if i == j else zero):
                    yield f"E_{i} E_{j}"
    rep.check("cube.idempotents", "the E_i are symmetric orthogonal idempotents resolving I and A", N, idempotents())

    def idempotent_ranks():
        for i, K in enumerate(c.idempotent_numerators()):
            if K.rank() != binomial(N, i):
                yield f"rank E_{i}"
    rep.check("cube.idempotent_ranks", "rank E_i = C(N, i)", N, idempotent_ranks())

    def distance_vs_krawtchouk():
        fam = specialfn.krawtchouk(N)
        for i in range(N + 1):
            if binomial(N, i) * horner(fam.coeffs[i], lambda M: A() @ M, eye) != c.distance_op(i):
                yield f"distance operator {i}"
    rep.check("cube.distance_vs_krawtchouk", "A_i = C(N, i) f_i(A)", N, distance_vs_krawtchouk())

    def distance_partition():
        total = Mat.zeros(size, size)
        for i in range(N + 1):
            total = total + c.distance_op(i)
        if total != Mat([[1] * size for _ in range(size)]):
            yield "the sum is not the all-ones matrix"
        if c.distance_op(0) != eye:
            yield "A_0 is not the identity"
    rep.check("cube.distance_partition", "the distance operators sum to the all-ones matrix", N, distance_partition())

    # the Krawtchouk value of the h-th dual distance operator at vertex x
    dual_value = lambda fam, h, x: binomial(N, h) * fam.evaluate(h, c.theta(alg.dist_to_base[x]))

    def dual_distance_vs_krawtchouk():
        fam = specialfn.krawtchouk(N)
        for i in range(N + 1):
            diag = alg.dual_distance_diag(i)
            for x in range(size):
                if diag[x] != dual_value(fam, i, x):
                    yield f"dual distance operator {i} at vertex {x}"
    rep.check("cube.dual_distance_vs_krawtchouk", "A*_i = C(N, i) f_i(A*)", N, dual_distance_vs_krawtchouk())

    vec = [rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in range(size)]

    def dual_distance_pointwise():
        Ks = c.idempotent_numerators()
        for h in range(N + 1):
            # the algebra element, expanded to a matrix, against the entrywise
            # product with the 2^N E_h base column; no entry of vec is zero
            image = alg.dual_distance_elem(h).matrix().apply(vec)
            for x in range(size):
                if image[x] != Ks[h][x, basepoint] * vec[x]:
                    yield f"grade {h} at vertex {x}"
    rep.check("cube.dual_distance_pointwise", "A*_h v equals the entrywise product of v with 2^N E_h(base)", N, dual_distance_pointwise())

    def estar_basis():
        estar = alg.estar_basis()
        for trip in alg.triples:
            h, i, j = trip
            dense = alg.dual_idempotent(i) @ c.distance_op(h) @ alg.dual_idempotent(j)
            if dense != estar[trip].matrix():
                yield f"triple {tuple(trip)}"
            # the norm is the cell size: the formula, and the pairs counted off the dense product
            if not estar[trip].norm_sq() == Fraction(factorial(N), cube.profile_of_triple(N, trip).norm_sq) == sum(r.count(1) for r in dense.rows):
                yield f"norm at {tuple(trip)}"
    rep.check("cube.estar_basis", "E*_i A_h E*_j are the cell indicators with norms N!/(r!s!t!u!)", N, estar_basis())

    def invalid_triples_vanish():
        valid = set(alg.triples)
        for h in range(N + 1):
            for i in range(N + 1):
                for j in range(N + 1):
                    if (h, i, j) in valid:
                        continue
                    if not (alg.dual_idempotent(i) @ c.distance_op(h) @ alg.dual_idempotent(j)).is_zero():
                        yield f"plain triple {(h, i, j)}"
                    if not (alg.idempotent_elem_raw(i) @ alg.dual_distance_elem(h) @ alg.idempotent_elem_raw(j)).is_zero():
                        yield f"spectral triple {(h, i, j)}"
    rep.check("cube.invalid_triples_vanish", "both triple products vanish off the valid index set", N, invalid_triples_vanish())

    def idempotents_in_algebra():
        for i, K in enumerate(c.idempotent_numerators()):
            by_h = {}
            for x in range(size):
                for y in range(size):
                    if by_h.setdefault(c.pc[x ^ y], K[x, y]) != K[x, y]:
                        yield f"E_{i} not constant at distance {c.pc[x ^ y]}"
    rep.check("cube.idempotents_in_algebra", "each E_i depends only on the distance, hence lies in the algebra", N, idempotents_in_algebra())

    def closure():  # from_matrix raises on a matrix outside the algebra
        for trip in alg.triples:
            alg.from_matrix(A() @ alg.estar_basis()[trip].matrix())
    rep.check("cube.closure", "adjacency times any cell indicator is again constant on cells (algebra closure)", N, completes(closure))
    dimension = unless(lambda: len(alg.triples) == binomial(N + 3, 3), f"{len(alg.triples)} valid triples")
    rep.check("cube.dimension", "the algebra has dimension C(N+3, 3)", N, dimension)

    def e_basis():
        elems = list(alg.e_basis().items())
        for a, (ta, ea) in enumerate(elems):
            if ea.is_zero():
                yield f"zero element at {tuple(ta)}"
            if ea.norm_sq() != Fraction(factorial(N), cube.profile_of_triple(N, ta).norm_sq):
                yield f"norm at {tuple(ta)}"
            for tb, eb in elems[a + 1 :]:
                if ea.inner(eb) != 0:
                    yield f"pair {tuple(ta)},{tuple(tb)}"
    rep.check("cube.e_basis", "E_i A*_h E_j are orthogonal, nonzero, with norms N!/(r!s!t!u!)", N, e_basis())

    def dense():
        for t, e in alg.e_basis().items():
            if e.matrix() != alg.e_basis_product_matrix(t):
                yield f"triple {tuple(t)}"
    dense_cap = above(N, 3, "dense-product oracle bound")
    rep.check("cube.e_basis_dense_oracle", "cell-coordinate products match dense matrix products", N, dense(), skip=dense_cap)

    # drawn only where the oracle runs, so the later draws keep their values
    X, Y = (None, None) if dense_cap else (random_telem(alg, rng), random_telem(alg, rng))

    def product_oracle():
        XM, YM = X().matrix(), Y().matrix()
        if (X() @ Y()).matrix() != XM @ YM:
            yield "product of two random elements"
        if X().inner(Y()) != sum(a * b for ra, rb in zip(XM.rows, YM.rows) for a, b in zip(ra, rb)):
            yield "inner product of two random elements"
    rep.check("cube.product_oracle", "coordinate products match dense matrix products on random elements", N, product_oracle(), skip=dense_cap)

    def wedderburn():
        ideals = alg.wedderburn()
        for la, (_, _, basis_a) in enumerate(ideals):
            for lb, (_, _, basis_b) in enumerate(ideals[la + 1 :], la + 1):
                if any(u.inner(v) != 0 for u in basis_a for v in basis_b):
                    yield f"ideals {la} and {lb} are not orthogonal"
    rep.check("cube.wedderburn", "central idempotents cut out orthogonal ideals of dimension (N-2l+1)^2", N, wedderburn())

    Ae = functools.cache(alg.adjacency_elem)
    Ase = functools.cache(alg.dual_adjacency_elem)

    def phi_central():
        phi = alg.phi_central()
        yield from (f"phi and {name}" for name, G in (("A", Ae()), ("A*", Ase())) if phi @ G != G @ phi)
    rep.check("cube.phi_central", "the central element commutes with both generators", N, phi_central())

    B = random_telem(alg, rng)

    def module_ops():
        ops = alg.t_module_ops()
        forms = [
            (("A", 2), Ae() @ B(), "left multiplication form"),
            (("A", 3), B() @ Ae(), "right multiplication form"),
            (("Astar", 2), B() @ Ase(), "right dual multiplication form"),
            (("Astar", 3), Ase() @ B(), "left dual multiplication form"),
        ]
        for key, want, name in forms:
            if ops[key](B()) != want:
                yield name
        for kind, basis, name in (("A", alg.e_basis(), "diagonal form"), ("Astar", alg.estar_basis(), "dual diagonal form")):
            for trip, elem in basis.items():
                if ops[(kind, 1)](elem) != c.theta(trip.h) * elem:
                    yield f"{name} at {tuple(trip)}"
    rep.check("cube.module_ops", "the six module operators match their multiplication interpretations", N, module_ops())

    def asymmetric():
        for M in [Ae().matrix(), Ase().matrix()] + [c.distance_op(i) for i in range(N + 1)]:
            if M.transpose() != M:
                yield "a distinguished element is not symmetric"
    rep.check("cube.dagger_fixes", "transpose fixes the adjacency, dual adjacency, and distance operators", N, asymmetric())

    X = random_telem(alg, rng)
    Y = random_telem(alg, rng)
    S = alg.s_antiautomorphism

    def s_antiautomorphism():
        if S(S(X())) != X():
            yield "S^2 != id on a random element"
        if S(X() @ Y()) != S(Y()) @ S(X()):
            yield "S(XY) != S(Y) S(X) on random elements"
        estar, ebas = alg.estar_basis(), alg.e_basis()
        for trip in alg.triples:
            if S(estar[trip]) != ebas[cube.TripleIndex(trip.h, trip.j, trip.i)]:
                yield f"S of the cell indicator {tuple(trip)}"
    rep.check("cube.s_antiautomorphism", "S is an involutive antiautomorphism swapping the two bases", N, s_antiautomorphism())

    def intersection_identity():
        for trip in alg.triples:
            if binomial(N, trip.h) * cube.intersection_number(N, *trip) != factorial(N) // cube.profile_of_triple(N, trip).norm_sq:
                yield f"triple {tuple(trip)}"
    rep.check("cube.intersection_identity", "k_h p^h_ij = N!/(r!s!t!u!)", N, intersection_identity())

    def basepoint_independence():
        dims_other = [len(b) for _, _, b in cube.t_algebra(N, 1).wedderburn()]
        dims_here = [len(b) for _, _, b in alg.wedderburn()]
        if dims_other != dims_here:
            yield f"ideal dimensions {dims_here} at basepoint {basepoint}, {dims_other} at basepoint 1"
    second = _second_basepoint_skip(N, basepoint, 4)
    rep.check("cube.basepoint_independence", "dimension profile is basepoint independent", N, basepoint_independence(), skip=second)
    return rep


# ---------------------------------------------------------------------------
# triple tensors and the fixed subspace
# ---------------------------------------------------------------------------


def suite_tensor(N, rng, basepoint, oracle_n_max) -> Report:
    rep = Report()
    size = 1 << N
    profiles = polyspace.enumerate_profiles(N)

    def profile_distances():
        c = cube.cube(N)
        for _ in range(20):
            x, y, z = rng.randrange(size), rng.randrange(size), rng.randrange(size)
            p = tensorspace.profile_of(N, x, y, z)
            if (c.dist(x, y), c.dist(y, z), c.dist(z, x)) != (p.s + p.t, p.t + p.u, p.u + p.s):
                yield f"triple {(x, y, z)}"
    rep.check("tensor.profile_distances", "pair distances are the two-index sums of the profile", N, profile_distances())

    budget = above(N, 4, "concrete-tensor budget")

    def orbit_sums():
        for p in profiles:
            b = tensorspace.b_vector(N, p)
            want = tensorspace.b_support_size(N, p)
            if len(b.coeffs) != want or b.norm_sq() != want:
                yield f"profile {tuple(p)}"
            if not tensorspace.fix_membership(b):
                yield f"orbit sum at {tuple(p)} not fixed"
    rep.check("tensor.orbit_sums", "orbit sums have support and square norm N! 2^N / (r!s!t!u!)", N, orbit_sums(), skip=budget)

    def duality():
        for p in profiles:
            bt = FixVec.unit(N, TILDE, p).lift()
            for q in profiles:
                if tensorspace.b_vector(N, q).inner(bt) != (1 if p == q else 0):
                    yield f"pair {tuple(p)},{tuple(q)}"
    rep.check("tensor.duality", "orbit sums and their duals pair to the identity", N, duality(), skip=budget)

    def spectral_sums():
        valid = set(cube.valid_triples(N))
        for h in range(N + 1):
            for i in range(N + 1):
                for j in range(N + 1):
                    q = tensorspace.q_vector(N, (h, i, j))
                    if (h, i, j) not in valid:
                        if not q.is_zero():
                            yield f"nonzero spectral sum at invalid {(h, i, j)}"
                        continue
                    if q.norm_sq() != tensorspace.b_support_size(N, cube.profile_of_triple(N, (h, i, j))):
                        yield f"spectral norm at {(h, i, j)}"
                    if not tensorspace.fix_membership(q):
                        yield f"spectral sum at {(h, i, j)} not fixed"
    rep.check("tensor.spectral_sums", "spectral sums vanish exactly off the valid triples, with matching norms", N, spectral_sums(), skip=budget)

    def diagonal_sum(summand, diagonal):
        total = tensorspace.TripleTensor(N)
        for p in profiles:
            total.add_scaled(1, summand(N, p))
        got, want = Fraction(1, 2**N) * total, diagonal(N, (N, 0, 0, 0))
        if got != want:
            yield f"triple {tensorspace.unpack(N, min((got - want).coeffs))}"
    b, bstar = tensorspace.b_vector, tensorspace.bstar_vector
    rep.check("tensor.diagonal_sum", "the diagonal orbit sum is 2^-N times the sum of all spectral sums", N, diagonal_sum(bstar, b), skip=budget)
    rep.check(
        "tensor.diagonal_sum_dual", "the diagonal spectral sum is 2^-N times the sum of all orbit sums", N, diagonal_sum(b, bstar), skip=budget
    )

    oracle = above(N, oracle_n_max, "oracle cap")

    units = {tag: {p: FixVec.unit(N, tag, p) for p in profiles} for tag in (TILDE, STAR_TILDE)}
    tensor_oracle = sl4core.intertwining_failures(units, FixVec.lift, tensorspace.act_abstract, tensorspace.act_concrete)
    rep.check("tensor.oracle", "abstract coordinate action equals the concrete slot-wise action", N, tensor_oracle, skip=oracle)

    t = tensorspace.TripleTensor(N, {rng.randrange(size**3): Fraction(rng.randint(1, 5)) for _ in range(5)})

    def symmetry_commutes():
        act, sym = tensorspace.act_concrete, tensorspace.apply_symmetry
        for gid in (g for g in GENERATORS if g.kind == "Astar"):
            for perm, flip in tensorspace.symmetry_generators(N):
                if sym(N, act(gid, t), perm, flip) != act(gid, sym(N, t, perm, flip)):
                    yield f"operator {gid.index}"
    rep.check("tensor.symmetry_commutes", "the diagonal symmetries commute with the starred operators", N, symmetry_commutes(), skip=oracle)

    def orbits_are_profiles():
        group = tensorspace.full_group(N)
        permute = tensorspace.permute_bits
        orbit_of = {}
        for x in range(size):
            for y in range(size):
                for z in range(size):
                    rep_key = min(
                        tensorspace.pack(N, permute(x, pm) ^ fl, permute(y, pm) ^ fl, permute(z, pm) ^ fl)
                        for pm, fl in group
                    )
                    if orbit_of.setdefault(tensorspace.profile_of(N, x, y, z), rep_key) != rep_key:
                        yield f"triple {(x, y, z)}"
    rep.check("tensor.orbits_are_profiles", "two triples lie in one orbit exactly when their profiles agree", N, orbits_are_profiles(), skip=oracle)

    negative = unless(lambda: not tensorspace.fix_membership(tensorspace.TripleTensor.basis(N, 0, 1, 2)), "the basis tensor at (0, 1, 2) is fixed")
    rep.check("tensor.membership_negative", "a lone basis tensor is not fixed", N, negative, skip=oracle or ("N < 2" if N < 2 else None))
    return rep


# ---------------------------------------------------------------------------
# correspondences
# ---------------------------------------------------------------------------


def suite_correspond(N, rng, basepoint, oracle_n_max) -> Report:
    rep = Report()
    rep.extend(correspond.check_ddag(N, oracle_n_max))
    rep.extend(correspond.check_eps(N, basepoint, oracle_n_max))
    rep.extend(correspond.check_theta(N, basepoint, oracle_n_max))
    rep.extend(correspond.sigma_S_diagram(N, basepoint))
    rep.extend(correspond.check_c1_phi(N, basepoint))
    rep.extend(correspond.wedderburn_correspondence(N, basepoint))

    def verbatim():
        sub = Report()
        sub.extend(correspond.check_theta(N, 1, oracle_n_max))
        sub.extend(correspond.wedderburn_correspondence(N, 1))
        if not sub.passed:
            yield "; ".join(c.id for c in sub.failures)
    second = _second_basepoint_skip(N, basepoint, 3)
    rep.check("correspond.basepoint_independence", "the correspondences hold verbatim at a second basepoint", N, verbatim(), skip=second)
    return rep


# every suite by name, in report order
SUITES = {
    "sl4": suite_sl4,
    "poly": suite_poly,
    "special": suite_special,
    "cube": suite_cube,
    "tensor": suite_tensor,
    "correspond": suite_correspond,
}
