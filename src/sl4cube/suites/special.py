"""The transition coefficients and the Krawtchouk family."""

import functools
from fractions import Fraction

from .. import polyspace, specialfn
from ..exact import factorial
from ..linalg import horner
from ..polyspace import MONOMIAL, STARRED, PolyVec
from ..report import Report, above, completes
from ..sl4core import GeneratorId


def suite_special(N, rng, basepoint, oracle_n_max) -> Report:
    rep = Report()
    ts = specialfn.tails(N)
    unit = functools.cache(PolyVec.unit)

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
            pairing = polyspace.hermitian(unit(MONOMIAL, (N - sum(lam), *lam)), unit(STARRED, (N - sum(mu), *mu)))
            if pairing != nfact * table[(lam, mu)]:
                yield f"key {lam};{mu}"
    rep.check("special.pairing", "<x^p, x*^q> = N!/2^N times the transition coefficient", N, pairing())

    def transition_expansion():
        for p in polyspace.enumerate_profiles(N):
            for q, c in polyspace.convert_basis(unit(MONOMIAL, p), STARRED).items():
                if c != nfact * table[((p.s, p.t, p.u), (q.s, q.t, q.u))] / q.norm_sq:
                    yield f"{tuple(p)} -> {tuple(q)}"
    rep.check("special.transition_expansion", "basis conversion reproduces the transition coefficients", N, transition_expansion(), skip=every_key)

    fam = lambda: specialfn.krawtchouk(N)  # certifies its closed form by raising

    rep.check("special.krawtchouk_family", "recurrence family is consistent with the closed product form", N, completes(fam))

    def krawtchouk_vectors():
        for k in (1, 2, 3):  # generator k moves weight into profile slot k
            for n in range(N + 1):
                prof = [N - n, 0, 0, 0]
                prof[k] = n
                if specialfn.krawtchouk_vector(N, n, GeneratorId("A", k)) != unit(MONOMIAL, tuple(prof)):
                    yield f"f_{n}(A_{k})"
                if specialfn.krawtchouk_vector(N, n, GeneratorId("Astar", k)) != unit(STARRED, tuple(prof)):
                    yield f"f_{n}(A*_{k})"
    rep.check("special.krawtchouk_vectors", "f_n applied to the seed produces the two-variable monomials", N, krawtchouk_vectors())

    def operator_recurrence():
        act = lambda w: polyspace.act_generator(GeneratorId("A", 1), w)
        vecs = [horner(fam().coeffs[n], act, unit(MONOMIAL, (N, 0, 0, 0))) for n in range(N + 2)]
        for n in range(N + 1):
            rhs = (n * vecs[n - 1] if n else PolyVec.zero(MONOMIAL)) + (N - n) * vecs[n + 1]
            if n == N:
                rhs = N * vecs[N - 1] + vecs[N + 1] if N else vecs[1]
            if act(vecs[n]) != rhs:
                yield f"recurrence at n={n}"
    rep.check("special.operator_recurrence", "the generator satisfies the Krawtchouk recurrence on seed words", N, operator_recurrence())

    def pvee_words():
        chains = {}  # the rising-factorial chains, shared by every word of this check
        for p in polyspace.enumerate_profiles(N):
            if specialfn.pvee_word(N, (p.s, p.t, p.u), chains=chains) != unit(MONOMIAL, p):
                yield f"plain word {tuple(p)}"
            if specialfn.pvee_word(N, (p.s, p.t, p.u), starred=True, chains=chains) != unit(STARRED, p):
                yield f"starred word {tuple(p)}"
    oracle = above(N, oracle_n_max, "oracle cap")
    rep.check("special.pvee_words", "operator-substituted transition polynomial reproduces the monomials", N, pvee_words(), skip=oracle)
    return rep
