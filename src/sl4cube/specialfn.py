"""Transition coefficients between the two polynomial bases, and Krawtchouk polynomials.

The transition coefficient has two independent evaluators: a terminating
six-fold hypergeometric-style sum, and a brute-force generating-function
expansion.  Their agreement on every key is one of the package's central
checks; the recurrences and the orthogonality relation are checked separately.
The sum is grouped once per first argument by its second-slot exponents, and
the grouping serves both calP_sum and pvee_word, which substitutes operators
in that slot.  The recurrences state that the coefficients intertwine A_i, so
their terms are read from polyspace._FOUR_TERM.
"""

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .exact import factorial, pochhammer
from .linalg import gram, horner
from . import polyspace
from .polyspace import MONOMIAL, STARRED, PolyVec, Profile
from .report import Report, above
from .sl4core import GeneratorId


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
    k = (c+e, a+f, b+d): the pairs (k, W_lam(k)), nonzero only.  Each k's
    sum of multinomials m!/(a!...f!) times first-slot Pochhammers is an
    integer for an integer lam, divided once by (-N)_m m!/2^m."""
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
    return tuple((k, Fraction(g * 2 ** sum(k), pochhammer(-N, sum(k)) * fact[sum(k)])) for k, g in grouped.items() if g)


def calP_sum(N, lam, mu):
    """Six-fold terminating sum form of the transition coefficient: the sum
    of W_lam(k) (-mu_1)_k1 (-mu_2)_k2 (-mu_3)_k3.  Accepts rational arguments
    in either slot; integer tails terminate the corresponding factors early.
    """
    pm = [[pochhammer(-arg, j) for j in range(N + 1)] for arg in mu]
    total = Fraction(0)
    for (k1, k2, k3), w in _mu_slot_weights(N, tuple(lam)):
        f = pm[0][k1] * pm[1][k2] * pm[2][k3]
        if f:
            total += w * f
    return total


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


def pvee_word(N, stu, starred=False):
    """Apply the six-variable transition polynomial, with the three commuting
    generators substituted in its second argument slot, to x^N (or the starred
    mirror to x*^N).  The operator mu'_i is the inverse weight map with the
    generators for the weights; each exponent triple k of the grouped sum
    applies one chain of rising factorials (-mu'_i)_{k_i}."""
    seed = PolyVec.unit(STARRED if starred else MONOMIAL, (N, 0, 0, 0))
    gens = [GeneratorId("Astar" if starred else "A", k) for k in (1, 2, 3)]

    def rising(i, m, v):  # (-mu'_i)_m applied to v
        for p in range(m):
            four_mu = polyspace.inverse_weight(i, N * v, [polyspace.act_generator(g, v) for g in gens])
            v = p * v - Fraction(1, 4) * four_mu
        return v

    total = PolyVec.zero(seed.basis)
    for (k1, k2, k3), w in _mu_slot_weights(N, tuple(stu)):
        total.add_scaled(w, rising(3, k3, rising(2, k2, rising(1, k1, seed))))
    return total


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
        rows = ({mu: table[(lam, mu)] for mu in ts if table[(lam, mu)]} for lam in ts)
        sums = gram(rows, weight=lambda mu: Fraction(1, Profile(N - sum(mu), *mu).norm_sq))
        for lam, row in zip(ts, sums):
            for lam2, total in zip(ts, row):
                expected = Fraction(4**N * Profile(N - sum(lam), *lam).norm_sq, nfact_sq) if lam == lam2 else 0
                if total != expected:
                    yield f"N={N} lam={lam} lam'={lam2}: got {total}, want {expected}"
    rep.check(
        "special.orthogonality", "sum_mu P(lam;mu) P(lam';mu) / (R!S!T!U!) = delta * 4^N r!s!t!u!/(N!)^2", N, failures()
    )
    return rep


def _recurrence_rhs(N, which, lam, value):
    """Right-hand side of recurrence ``which`` at the tail lam, reading each
    shifted coefficient through value(shifted tail).

    The terms are A_which on the monomial of tail lam, by the four-term table
    polyspace._FOUR_TERM: the transition coefficients intertwine A_which,
    four shifts in the first slot and its weight in the second.  Zero
    coefficients, where a shifted tail would leave the range, are dropped.
    """
    image = polyspace._act_profiles(True, which, {Profile(N - sum(lam), *lam): 1})
    return sum(c * value(q[1:]) for q, c in image.items())


# The recurrences are checked on every key up to this degree, on sampled keys above it.
EXHAUSTIVE_N_MAX = 3


def _recurrence_fails(N, which, lam, mu, table):
    """Whether recurrence ``which`` fails at the key (lam, mu) of the table; a
    correct four-term table drops every out-of-range shift, so a missing tail fails."""
    lhs = polyspace.weight(which, (N - sum(mu), *mu)) * table[(lam, mu)]
    try:
        return lhs != _recurrence_rhs(N, which, lam, lambda shifted: table[(shifted, mu)])
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
            for mu in ts:
                if _recurrence_fails(N, which, lam, mu, table):
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
                if _recurrence_fails(N, which, lam, mu, table):
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
            for trip in triples:
                if trip[which - 1] * pv(lam, trip) != _recurrence_rhs(N, which, lam, lambda shifted: pv(shifted, trip)):
                    yield f"weight recurrence {which} at N={N} lam={lam} weights={trip}"
    beyond = above(N, EXHAUSTIVE_N_MAX, "exhaustive range")
    for which in (1, 2, 3):
        rep.check(
            f"special.weight_recurrence.{which}", f"weighted transition recurrence #{which} in weight coordinates", N, failures(which), skip=beyond
        )
    return rep


class KrawtchoukFamily(NamedTuple):
    N: int
    coeffs: list  # coeffs[n] = dense coefficient list of f_n, low degree first

    def evaluate(self, n, x):
        return horner(self.coeffs[n], lambda y: x * y, 1)


def krawtchouk(N) -> KrawtchoukFamily:
    """Build f_0 .. f_{N+1} from the three-term recurrence.

    Certifies that the top polynomial matches its closed product form
    (eta - N)(eta - N + 2) ... (eta + N) / N! coefficientwise.
    """
    coeffs = [[Fraction(1)]]
    if N >= 1:
        prev = None
        cur = coeffs[0]
        for n in range(N):
            shifted = [Fraction(0)] + cur  # eta * f_n
            if prev is not None:
                shifted = _poly_sub(shifted, _poly_scale(prev, n))
            nxt = _poly_scale(shifted, Fraction(1, N - n))
            coeffs.append(nxt)
            prev, cur = cur, nxt
        top = [Fraction(0)] + cur
        top = _poly_sub(top, _poly_scale(prev, N))
        coeffs.append(top)
    else:
        coeffs.append([Fraction(0), Fraction(1)])  # f_1 = eta when N = 0
    closed = [Fraction(1)]
    for k in range(N + 1):
        closed = _poly_sub([Fraction(0)] + closed, _poly_scale(closed, N - 2 * k))
    closed = _poly_scale(closed, Fraction(1, factorial(N)))
    if _poly_trim(coeffs[N + 1]) != _poly_trim(closed):
        raise ArithmeticError(f"top Krawtchouk polynomial disagrees with product form at N={N}")
    for n, c in enumerate(coeffs):
        if len(_poly_trim(c)) != n + 1:
            raise ArithmeticError(f"deg f_{n} != {n} at N={N}")
    return KrawtchoukFamily(N, coeffs)


def _poly_scale(p, c):
    return [a * c for a in p]


def _poly_sub(p, q):
    n = max(len(p), len(q))
    p = p + [Fraction(0)] * (n - len(p))
    q = q + [Fraction(0)] * (n - len(q))
    return [a - b for a, b in zip(p, q)]


def _poly_trim(p):
    out = list(p)
    while out and not out[-1]:
        out.pop()
    return out


def krawtchouk_vector(N, n, gid) -> PolyVec:
    """f_n evaluated at a generator, applied to x^N (plain kinds) or x*^N (starred)."""
    if not 0 <= n <= N:
        raise ValueError("need 0 <= n <= N")
    fam = krawtchouk(N)
    basis = MONOMIAL if gid.kind == "A" else STARRED
    seed = PolyVec.unit(basis, (N, 0, 0, 0))
    return horner(fam.coeffs[n], lambda v: polyspace.act_generator(gid, v), seed)
