"""Transition coefficients between the two polynomial bases, and Krawtchouk polynomials.

The transition coefficient has two independent evaluators: a terminating
six-fold hypergeometric-style sum, and a brute-force generating-function
expansion.  Their agreement on every key is one of the package's central
checks; the recurrences and the orthogonality relation are checked separately.
"""

from fractions import Fraction
from typing import NamedTuple

from .exact import factorial, pochhammer
from .linalg import gram
from . import polyspace
from .polyspace import MONOMIAL, STARRED, PolyVec, Profile
from .report import Report


def tails(N):
    """All (s, t, u) with s + t + u <= N, in lexicographic order."""
    return [
        (s, t, u)
        for s in range(N + 1)
        for t in range(N + 1 - s)
        for u in range(N + 1 - s - t)
    ]


def calP_sum(N, lam, mu):
    """Six-fold terminating sum form of the transition coefficient.

    Accepts rational arguments in either slot; integer tails terminate the
    corresponding factors early.
    """
    l1, l2, l3 = lam
    m1, m2, m3 = mu
    # pochhammer tables up to length N for all six arguments
    pl = [[pochhammer(-arg, k) for k in range(N + 1)] for arg in (l1, l2, l3)]
    pm = [[pochhammer(-arg, k) for k in range(N + 1)] for arg in (m1, m2, m3)]
    pn = [pochhammer(-N, k) for k in range(N + 1)]
    fact = [factorial(k) for k in range(N + 1)]
    total = Fraction(0)
    for a in range(N + 1):
        for b in range(N + 1 - a):
            f1 = pl[0][a + b]
            if not f1:
                continue
            for c in range(N + 1 - a - b):
                for d in range(N + 1 - a - b - c):
                    f2 = pl[1][c + d]
                    f6 = pm[2][b + d]
                    if not (f2 and f6):
                        continue
                    for e in range(N + 1 - a - b - c - d):
                        f4 = pm[0][c + e]
                        if not f4:
                            continue
                        for f in range(N + 1 - a - b - c - d - e):
                            f3 = pl[2][e + f]
                            f5 = pm[1][a + f]
                            if not (f3 and f5):
                                continue
                            m = a + b + c + d + e + f
                            num = f1 * f2 * f3 * f4 * f5 * f6 * 2**m
                            den = pn[m] * fact[a] * fact[b] * fact[c] * fact[d] * fact[e] * fact[f]
                            total += Fraction(num, den)
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
    return Fraction(
        factorial(r) * factorial(s) * factorial(t) * factorial(u) * coeff, factorial(N)
    )


def calP_vee(N, lam, weights):
    """Transition coefficient in weight coordinates: substitutes the inverse
    weight combinations into the second argument slot."""
    w1, w2, w3 = weights
    mu = (
        Fraction(N + w1 - w2 - w3, 4),
        Fraction(N - w1 + w2 - w3, 4),
        Fraction(N - w1 - w2 + w3, 4),
    )
    mu = tuple(int(m) if m.denominator == 1 else m for m in mu)
    return calP_sum(N, lam, mu)


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


def _recurrence_terms(which, s, t, u):
    """Coefficient-and-shifted-tail terms of the three contiguous recurrences."""
    r_shift = {
        1: (((s + 1, t, u), "r"), ((s - 1, t, u), "s"), ((s, t - 1, u + 1), "t"), ((s, t + 1, u - 1), "u")),
        2: (((s, t + 1, u), "r"), ((s - 1, t, u + 1), "s"), ((s, t - 1, u), "t"), ((s + 1, t, u - 1), "u")),
        3: (((s, t, u + 1), "r"), ((s - 1, t + 1, u), "s"), ((s + 1, t - 1, u), "t"), ((s, t, u - 1), "u")),
    }
    return r_shift[which]


def _recurrence_rhs(N, which, lam, value):
    """Right-hand side of recurrence ``which`` at the tail lam, reading each
    shifted coefficient through value(shifted tail).

    Terms whose combinatorial coefficient vanishes are skipped before the
    shifted coefficient is read, which is exactly when a shifted tail would
    leave the valid range.
    """
    s, t, u = lam
    coeff_of = {"r": N - s - t - u, "s": s, "t": t, "u": u}
    return sum(coeff_of[name] * value(shifted) for shifted, name in _recurrence_terms(which, s, t, u) if coeff_of[name])


# The recurrences are checked on every key up to this degree, on sampled keys above it.
EXHAUSTIVE_N_MAX = 3


def check_recurrences(N, table=None) -> Report:
    """The three contiguous recurrences, exhaustively over degree-N tail pairs;
    skipped above EXHAUSTIVE_N_MAX."""
    rep = Report()
    ts = tails(N)
    table = table or transition_table(N)

    def failures(which):
        for lam in ts:
            for mu in ts:
                lhs = polyspace.weight(which, (N - sum(mu), *mu)) * table[(lam, mu)]
                if lhs != _recurrence_rhs(N, which, lam, lambda shifted: table[(shifted, mu)]):
                    yield f"recurrence {which} at N={N} lam={lam} mu={mu}"
    above = f"N > {EXHAUSTIVE_N_MAX} (exhaustive range)" if N > EXHAUSTIVE_N_MAX else None
    for which in (1, 2, 3):
        rep.check(f"special.recurrence.{which}", f"weighted transition recurrence #{which} in the plain variables", N, failures(which), skip=above)
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
                lhs = polyspace.weight(which, (N - sum(mu), *mu)) * table[(lam, mu)]
                if lhs != _recurrence_rhs(N, which, lam, lambda shifted: table[(shifted, mu)]):
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
    cache = {}

    def pv(lam, trip):
        key = (lam, trip)
        if key not in cache:
            cache[key] = calP_vee(N, lam, trip)
        return cache[key]

    def failures(which):
        for lam in ts:
            for trip in triples:
                if trip[which - 1] * pv(lam, trip) != _recurrence_rhs(N, which, lam, lambda shifted: pv(shifted, trip)):
                    yield f"weight recurrence {which} at N={N} lam={lam} weights={trip}"
    above = f"N > {EXHAUSTIVE_N_MAX} (exhaustive range)" if N > EXHAUSTIVE_N_MAX else None
    for which in (1, 2, 3):
        rep.check(
            f"special.weight_recurrence.{which}", f"weighted transition recurrence #{which} in weight coordinates", N, failures(which), skip=above
        )
    return rep


class KrawtchoukFamily(NamedTuple):
    N: int
    coeffs: list  # coeffs[n] = dense coefficient list of f_n, low degree first

    def evaluate(self, n, x):
        return sum(c * x**k for k, c in enumerate(self.coeffs[n]))


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
    return polyspace.apply_op_poly(
        fam.coeffs[n], lambda v: polyspace.act_generator(gid, v), seed
    )
