"""Transition coefficients between the two polynomial bases, and Krawtchouk polynomials.

The transition coefficient has two independent evaluators: a terminating
six-fold hypergeometric-style sum, and a brute-force generating-function
expansion.  Their agreement on every key is one of the package's central
checks; the recurrences and the orthogonality relation are checked separately.
The sum is grouped once per first argument by its second-slot exponents, and
the grouping serves both calP_sum and pvee_word, which substitutes operators
in that slot.  The recurrences state that the coefficients intertwine A_i, so
their terms are read from polyspace._FOUR_TERM, each time a check runs.
"""

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .exact import clear_denominators, factorial, pochhammer
from .linalg import horner
from . import polyspace
from .polyspace import MONOMIAL, STARRED, PolyVec, Profile
from .report import Report, above
from .sl4core import GeneratorId
from .sparse import SparseVec, gram


def tails(N):
    """All (s, t, u) with s + t + u <= N, in lexicographic order."""
    return [
        (s, t, u)
        for s in range(N + 1)
        for t in range(N + 1 - s)
        for u in range(N + 1 - s - t)
    ]


@cache
def _mu_slot_weights(N, lam):
    """The six-fold terminating sum grouped by its second-slot exponents
    k = (c+e, a+f, b+d): the common denominator L and the pairs
    (k, L * W_lam(k)) of integers, nonzero only.  Each k's sum of
    multinomials m!/(a!...f!) times first-slot Pochhammers is an integer for
    an integer lam, divided once by (-N)_m m!/2^m."""
    pl = [[pochhammer(-arg, j) for j in range(N + 1)] for arg in lam]
    fact = [factorial(j) for j in range(N + 1)]
    grouped = {}
    for a in range(N + 1):
        for b in range(N + 1 - a):
            f1 = pl[0][a + b]
            if not f1:
                continue
            for c in range(N + 1 - a - b):
                for d in range(N + 1 - a - b - c):
                    f2 = pl[1][c + d]
                    if not f2:
                        continue
                    for e in range(N + 1 - a - b - c - d):
                        for f in range(N + 1 - a - b - c - d - e):
                            f3 = pl[2][e + f]
                            if not f3:
                                continue
                            m = a + b + c + d + e + f
                            k = (c + e, a + f, b + d)
                            multinomial = fact[m] // (fact[a] * fact[b] * fact[c] * fact[d] * fact[e] * fact[f])
                            grouped[k] = grouped.get(k, 0) + multinomial * f1 * f2 * f3
    keys = [k for k, g in grouped.items() if g]
    weights, den = clear_denominators(Fraction(grouped[k] * 2 ** sum(k), pochhammer(-N, sum(k)) * fact[sum(k)]) for k in keys)
    return den, tuple(zip(keys, weights))


def calP_sum(N, lam, mu):
    """Six-fold terminating sum form of the transition coefficient: the sum
    of W_lam(k) (-mu_1)_k1 (-mu_2)_k2 (-mu_3)_k3, taken over the integer
    numerators and divided once.  Accepts rational arguments in either slot;
    integer tails terminate the corresponding factors early.
    """
    pm = [[pochhammer(-arg, j) for j in range(N + 1)] for arg in mu]
    den, weights = _mu_slot_weights(N, tuple(lam))
    total = 0
    for (k1, k2, k3), w in weights:
        total += w * pm[0][k1] * pm[1][k2] * pm[2][k3]
    return Fraction(total, den)


def calP_genfunc(N, lam, mu):
    """Generating-function evaluator: the brute-force oracle for calP_sum.

    Reads the monomial coefficient out of the expanded product of linear forms
    and rescales by r!s!t!u!/N!.
    """
    s, t, u = lam
    S, T, U = mu
    r = N - s - t - u
    R = N - S - T - U
    if r < 0 or R < 0:
        raise ValueError("tails exceed degree")
    profiles, rows = polyspace._conversion_rows(N)
    coeff = rows[Profile(R, S, T, U)][profiles.index(Profile(r, s, t, u))]
    return Fraction(polyspace._norm_sq(Profile(r, s, t, u)) * coeff, factorial(N))


def calP_vee(N, lam, weights):
    """Transition coefficient in weight coordinates: substitutes the inverse
    weight map into the second argument slot."""
    quarters = (polyspace.inverse_weight(i, N, weights) for i in (1, 2, 3))
    return calP_sum(N, lam, tuple(c // 4 if c % 4 == 0 else Fraction(c, 4) for c in quarters))


def pvee_word(N, stu, starred=False, chains=None):
    """Apply the six-variable transition polynomial, with the three commuting
    generators substituted in its second argument slot, to x^N (or the starred
    mirror to x*^N).  The operator mu'_i is the inverse weight map with the
    generators for the weights; each exponent triple k of the grouped sum
    applies one chain of rising factorials (-mu'_i)_{k_i}, in i = 1, 2, 3.

    Each chain extends the one a factor shorter, and chains keeps them by
    (starred, k), so words at one N that share the dict build each chain
    once.  The chains read the generator tables, so the dict must not
    outlive a check."""
    seed = PolyVec.unit(STARRED if starred else MONOMIAL, (N, 0, 0, 0))
    gens = [GeneratorId("Astar" if starred else "A", k) for k in (1, 2, 3)]
    chains = {} if chains is None else chains

    def chain(k):  # (-mu'_3)_k3 (-mu'_2)_k2 (-mu'_1)_k1 applied to the seed
        key = (starred, k)
        if key not in chains:
            i = max((i for i in (1, 2, 3) if k[i - 1]), default=0)
            if not i:
                chains[key] = seed
            else:  # the last factor, -mu'_i + (k_i - 1), on the chain before it
                p = k[i - 1] - 1
                v = chain(k[: i - 1] + (p,) + k[i:])
                four_mu = polyspace.inverse_weight(i, N * v, [polyspace.act_generator(g, v) for g in gens])
                chains[key] = p * v - Fraction(1, 4) * four_mu
        return chains[key]

    den, weights = _mu_slot_weights(N, tuple(stu))
    total = PolyVec.zero(seed.basis)
    for k, w in weights:
        total.add_scaled(w, chain(k))
    return Fraction(1, den) * total


def transition_table(N):
    """Full table (lam, mu) -> calP_sum value for all degree-N tail pairs."""
    ts = tails(N)
    return {(lam, mu): calP_sum(N, lam, mu) for lam in ts for mu in ts}


def check_orthogonality(N, table=None) -> Report:
    """Row orthogonality with the exact right-hand side 4^N r!s!t!u!/(N!)^2."""
    rep = Report()
    ts = tails(N)
    table = table or transition_table(N)
    nfact_sq = factorial(N) ** 2

    def failures():
        rows = [SparseVec(N, {mu: table[(lam, mu)] for mu in ts}) for lam in ts]
        over_mu_fact = (SparseVec(N, {mu: Fraction(c, Profile(N - sum(mu), *mu).norm_sq) for mu, c in row.items()}) for row in rows)
        sums = gram(rows, over_mu_fact)
        for lam, row in zip(ts, sums):
            for lam2, total in zip(ts, row):
                expected = Fraction(4**N * Profile(N - sum(lam), *lam).norm_sq, nfact_sq) if lam == lam2 else 0
                if total != expected:
                    yield f"N={N} lam={lam} lam'={lam2}: got {total}, want {expected}"
    rep.check(
        "special.orthogonality", "sum_mu P(lam;mu) P(lam';mu) / (R!S!T!U!) = delta * 4^N r!s!t!u!/(N!)^2", N, failures()
    )
    return rep


def _term_image(N, which, lam):
    """The terms of recurrence ``which`` at the tail lam, as (shifted tail,
    coefficient) pairs: A_which on the monomial of tail lam, by the four-term
    table polyspace._FOUR_TERM read now.  The transition coefficients
    intertwine A_which, four shifts in the first slot and its weight in the
    second.  Zero coefficients, where a shifted tail would leave the range,
    are dropped."""
    image = polyspace._act_profiles(True, which, {Profile(N - sum(lam), *lam): 1})
    return tuple((q[1:], c) for q, c in image.items())


def _recurrence_rhs(terms, value):
    """Right-hand side of a recurrence at the tail whose terms are given
    (_term_image), reading each shifted coefficient through value(shifted
    tail).  A check takes the terms of one tail once, for every second
    argument it pairs the tail with."""
    return sum(c * value(shifted) for shifted, c in terms)


# The recurrences are checked on every key up to this degree, on sampled keys above it.
EXHAUSTIVE_N_MAX = 3


def _recurrence_fails(N, which, terms, lam, mu, table):
    """Whether recurrence ``which``, with the terms of lam, fails at the key
    (lam, mu) of the table; a correct four-term table drops every
    out-of-range shift, so a missing tail fails."""
    lhs = polyspace.weight(which, (N - sum(mu), *mu)) * table[(lam, mu)]
    try:
        return lhs != _recurrence_rhs(terms, lambda shifted: table[(shifted, mu)])
    except KeyError:
        return True


def check_recurrences(N, table=None) -> Report:
    """The three contiguous recurrences, exhaustively over degree-N tail pairs;
    skipped above EXHAUSTIVE_N_MAX."""
    rep = Report()
    ts = tails(N)
    table = table or transition_table(N)

    def failures(which):
        for lam in ts:
            terms = _term_image(N, which, lam)
            for mu in ts:
                if _recurrence_fails(N, which, terms, lam, mu, table):
                    yield f"recurrence {which} at N={N} lam={lam} mu={mu}"
    beyond = above(N, EXHAUSTIVE_N_MAX, "exhaustive range")
    for which in (1, 2, 3):
        rep.check(f"special.recurrence.{which}", f"weighted transition recurrence #{which} in the plain variables", N, failures(which), skip=beyond)
    return rep


def check_recurrences_sampled(N, table, rng, count) -> Report:
    """Random instances of the three recurrences, for degrees past the exhaustive
    range; skipped within it, where no sample is drawn."""
    rep = Report()
    ts = tails(N)

    def failures():
        for _ in range(count):
            lam = ts[rng.randrange(len(ts))]
            mu = ts[rng.randrange(len(ts))]
            for which in (1, 2, 3):
                if _recurrence_fails(N, which, _term_image(N, which, lam), lam, mu, table):
                    yield f"recurrence {which} at lam={lam} mu={mu}"
    within = f"N <= {EXHAUSTIVE_N_MAX} (checked exhaustively)" if N <= EXHAUSTIVE_N_MAX else None
    rep.check("special.recurrence.sampled", "weighted transition recurrences on sampled keys", N, failures(), skip=within)
    return rep


def check_weight_recurrences(N) -> Report:
    """The same recurrences after the change to weight coordinates; skipped
    above EXHAUSTIVE_N_MAX."""
    rep = Report()
    triples = polyspace.enumerate_weight_triples(N)
    ts = tails(N)
    pv = cache(lambda lam, trip: calP_vee(N, lam, trip))

    def failures(which):
        for lam in ts:
            terms = _term_image(N, which, lam)
            for trip in triples:
                if trip[which - 1] * pv(lam, trip) != _recurrence_rhs(terms, lambda shifted: pv(shifted, trip)):
                    yield f"weight recurrence {which} at N={N} lam={lam} weights={trip}"
    beyond = above(N, EXHAUSTIVE_N_MAX, "exhaustive range")
    for which in (1, 2, 3):
        rep.check(
            f"special.weight_recurrence.{which}", f"weighted transition recurrence #{which} in weight coordinates", N, failures(which), skip=beyond
        )
    return rep


class KrawtchoukFamily(NamedTuple):
    N: int
    coeffs: tuple  # coeffs[n] = dense coefficient tuple of f_n, low degree first

    def evaluate(self, n, x):
        return horner(self.coeffs[n], lambda y: x * y, 1)


@cache
def krawtchouk(N) -> KrawtchoukFamily:
    """Build f_0 .. f_{N+1} from the three-term recurrence
    (N - n) f_{n+1} = eta f_n - n f_{n-1}, the factor N - n dropped for the top
    one, once per N: each polynomial is a SparseVec keyed by power, read out
    as a tuple, so no reader can change the shared family.

    Certifies that the top polynomial matches its closed product form
    (eta - N)(eta - N + 2) ... (eta + N) / N! coefficientwise, raising, and
    caching nothing, when it does not.
    """
    times_eta = lambda f: SparseVec._of("eta", {k + 1: a for k, a in f.nums.items()}, f.den)
    fam, prev = [SparseVec("eta", {0: 1})], SparseVec("eta")
    for n in range(N + 1):
        nxt = times_eta(fam[n]) - n * prev
        prev = fam[n]
        fam.append(Fraction(1, N - n) * nxt if n < N else nxt)
    closed = fam[0]
    for k in range(N + 1):
        closed = times_eta(closed) - (N - 2 * k) * closed
    if fam[N + 1] != Fraction(1, factorial(N)) * closed:
        raise ArithmeticError(f"top Krawtchouk polynomial disagrees with product form at N={N}")
    for n, f in enumerate(fam):
        if max(f.nums, default=-1) != n:
            raise ArithmeticError(f"deg f_{n} != {n} at N={N}")
    return KrawtchoukFamily(N, tuple(tuple(f.row(range(n + 1))) for n, f in enumerate(fam)))


def krawtchouk_vector(N, n, gid) -> PolyVec:
    """f_n evaluated at a generator, applied to x^N (plain kinds) or x*^N (starred)."""
    if not 0 <= n <= N:
        raise ValueError("need 0 <= n <= N")
    fam = krawtchouk(N)
    basis = MONOMIAL if gid.kind == "A" else STARRED
    seed = PolyVec.unit(basis, (N, 0, 0, 0))
    return horner(fam.coeffs[n], lambda v: polyspace.act_generator(gid, v), seed)
