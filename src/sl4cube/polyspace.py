"""The graded polynomial module in four variables, with both bases and all operators.

Vectors are sparse maps from exponent profiles (r, s, t, u) to exact rationals,
tagged with the basis they are written in.  The monomial basis diagonalizes the
starred generators; the starred basis (built from the half-sum change of
variables) diagonalizes the plain generators.  Degree-N slices have dimension
C(N+3, 3).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import NamedTuple

from .exact import binomial, factorial
from .linalg import Mat, horner, kernel_dim, rank
from . import sl4core
from .sl4core import GeneratorId
from .sparse import SparseVec

MONOMIAL = "monomial"
STARRED = "starred"

_UNIT_SHIFTS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


class Profile(NamedTuple):
    r: int
    s: int
    t: int
    u: int

    @property
    def degree(self):
        return self.r + self.s + self.t + self.u

    @property
    def norm_sq(self):
        return _norm_sq(self)


@lru_cache(maxsize=None)
def _norm_sq(p):
    """r!s!t!u!, the square norm of the profile's basis vector in either
    basis; computed once per profile."""
    r, s, t, u = p
    return factorial(r) * factorial(s) * factorial(t) * factorial(u)


def enumerate_profiles(N):
    """All degree-N profiles in lexicographic order; C(N+3, 3) of them."""
    out = []
    for r in range(N + 1):
        for s in range(N + 1 - r):
            for t in range(N + 1 - r - s):
                out.append(Profile(r, s, t, N - r - s - t))
    return out


class PolyVec(SparseVec):
    """Sparse polynomial vector tagged with its basis; zero coefficients dropped."""

    __slots__ = ()

    def __init__(self, basis, coeffs=None):
        if basis not in (MONOMIAL, STARRED):
            raise ValueError(f"unknown basis tag {basis!r}")
        values = {}
        if coeffs:
            for p, c in coeffs.items():
                if min(p) < 0:
                    raise ValueError(f"negative exponent in profile {tuple(p)}")
                values[Profile(*p)] = c
        self._set_values(basis, values)

    @property
    def basis(self):
        return self.space

    @classmethod
    def unit(cls, basis, profile):
        return cls(basis, {Profile(*profile): 1})

    @classmethod
    def zero(cls, basis=MONOMIAL):
        return cls(basis)

    def degree(self):
        """Common degree of a homogeneous vector; None for 0, error if mixed."""
        degs = {p.degree for p in self.nums}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("vector is not homogeneous")
        return degs.pop()

    def _form(self):
        """The Hermitian form, read in the monomial basis: each basis is orthogonal
        with square norms r!s!t!u!, and on rational coefficients it is bilinear."""
        return convert_basis(self, MONOMIAL), _norm_sq


def _shift(p, dr, ds, dt, du):
    return Profile(p.r + dr, p.s + ds, p.t + dt, p.u + du)


def _apply_terms(terms, coeffs, out=None):
    """The one kernel of every operator that moves exponent profiles.

    Each term (scale, slots, shift) sends the profile p to p + shift with
    coefficient scale * prod(p[k] for k in slots).  The images of the
    profile-keyed ``coeffs`` accumulate into ``out`` (a fresh dict by default),
    entries that cancel to zero are dropped, and ``out`` is returned.
    """
    if out is None:
        out = {}
    for p, c in coeffs.items():
        for scale, slots, shift in terms:
            k = scale
            for pos in slots:
                k *= p[pos]
            if k:
                q = _shift(p, *shift)
                nv = out.get(q, 0) + c * k
                if nv:
                    out[q] = nv
                else:
                    del out[q]
    return out


# Off-diagonal action of the generators, for index k: four terms, each with
# the profile component at one position as its coefficient.
_FOUR_TERM = {
    1: ((1, (0,), (-1, 1, 0, 0)), (1, (1,), (1, -1, 0, 0)), (1, (2,), (0, 0, -1, 1)), (1, (3,), (0, 0, 1, -1))),
    2: ((1, (0,), (-1, 0, 1, 0)), (1, (1,), (0, -1, 0, 1)), (1, (2,), (1, 0, -1, 0)), (1, (3,), (0, 1, 0, -1))),
    3: ((1, (0,), (-1, 0, 0, 1)), (1, (1,), (0, -1, 1, 0)), (1, (2,), (0, 1, -1, 0)), (1, (3,), (1, 0, 0, -1))),
}


def weight(index, p):
    """Eigenvalue of the index-th diagonal generator on the profile p."""
    r, s, t, u = p
    if index == 1:
        return r + s - t - u
    if index == 2:
        return r - s + t - u
    return r - s - t + u


def _act_profiles(four_term, index, coeffs):
    """One generator on profile-keyed coordinates: the four-term shift table
    when ``four_term``, else the diagonal weight.  Returns the new dict."""
    if four_term:
        return _apply_terms(_FOUR_TERM[index], coeffs)
    out = {}
    for p, c in coeffs.items():
        w = weight(index, p)
        if w:
            out[p] = c * w
    return out


def act_generator(gid: GeneratorId, v: PolyVec) -> PolyVec:
    """Apply one of the six generators in the vector's own basis."""
    kind, index = gid
    four_term = (kind == "A") == (v.basis == MONOMIAL)
    return PolyVec._of(v.basis, _act_profiles(four_term, index, v.nums), v.den)


def _product_expansion(R, S, T, U):
    """Integer coefficients, keyed by profile in the other basis, of the
    product of the four signed linear forms raised to the powers R, S, T, U.

    Row i of the Hadamard matrix sl4core._H, read at call time, gives the
    i-th variable of one basis in the other, times 2; H^2 = 4 I makes the
    change its own inverse up to that factor.  Raises ValueError on a
    negative power."""
    if min(R, S, T, U) < 0:
        raise ValueError(f"negative power in ({R}, {S}, {T}, {U})")
    poly = {Profile(0, 0, 0, 0): 1}
    for signs, power in zip(sl4core._H.rows, (R, S, T, U)):
        terms = tuple((sign, (), unit) for sign, unit in zip(signs, _UNIT_SHIFTS))
        for _ in range(power):
            poly = _apply_terms(terms, poly)
    return poly


@lru_cache(maxsize=None)
def _conversion_rows(N):
    """The degree-N profiles in enumerate_profiles order, and each one's
    _product_expansion as a dense tuple of integers in that order: the one
    kept form of the expansions."""
    profiles = enumerate_profiles(N)
    slot = {p: k for k, p in enumerate(profiles)}
    rows = {}
    for p in profiles:
        row = [0] * len(profiles)
        for q, c in _product_expansion(*p).items():
            row[slot[q]] = c
        rows[p] = tuple(row)
    return profiles, rows


def convert_basis(v: PolyVec, target) -> PolyVec:
    """Exact change of basis; converting twice returns the original.

    Each profile p of degree N expands to _product_expansion(*p) / 2^N.  The
    integer numerators, brought to the one denominator den * 2^D with D the
    top degree, weight the dense expansion rows of their degree, which are
    summed as integer lists, one per degree.  A vector already in the target
    basis is returned as it is, not copied: vectors are immutable by
    convention.  Raises ValueError on a profile with a negative exponent.
    """
    if v.basis == target:
        return v
    nums = v.nums
    top = max(map(sum, nums), default=0)
    accs = {}  # degree -> numerators in enumerate_profiles order
    for p, m in nums.items():
        N = sum(p)
        try:
            row = _conversion_rows(N)[1][p]
        except KeyError:
            raise ValueError(f"negative exponent in profile {tuple(p)}") from None
        m <<= top - N
        acc = accs.get(N)
        accs[N] = [m * r for r in row] if acc is None else [a + m * r for a, r in zip(acc, row)]
    out = {}
    for N, acc in accs.items():
        out.update(zip(compress(_conversion_rows(N)[0], acc), compress(acc, acc)))
    return PolyVec._of(target, out, v.den << top)


def sigma(v: PolyVec) -> PolyVec:
    """The involution swapping the two bases coordinate-wise."""
    other = STARRED if v.basis == MONOMIAL else MONOMIAL
    return PolyVec._of(other, dict(v.nums), v.den)


def apply_D(slot, v: PolyVec) -> PolyVec:
    """Partial derivative in the slot-th variable of the vector's own basis;
    lowers degree by one."""
    down = tuple(-d for d in _UNIT_SHIFTS[slot])
    return PolyVec._of(v.basis, _apply_terms(((1, (slot,), down),), v.nums), v.den)


def apply_M(slot, v: PolyVec) -> PolyVec:
    """Multiplication by the slot-th variable of the vector's own basis;
    raises degree by one."""
    return PolyVec._of(v.basis, _apply_terms(((1, (), _UNIT_SHIFTS[slot]),), v.nums), v.den)


# L_i: the difference of two second derivatives.
_L_TABLE = {
    1: ((1, (0, 1), (-1, -1, 0, 0)), (-1, (2, 3), (0, 0, -1, -1))),
    2: ((1, (0, 2), (-1, 0, -1, 0)), (-1, (1, 3), (0, -1, 0, -1))),
    3: ((1, (0, 3), (-1, 0, 0, -1)), (-1, (1, 2), (0, -1, -1, 0))),
}

# R_i: multiplication by the difference of two variable products.
_R_TABLE = {
    1: ((1, (), (1, 1, 0, 0)), (-1, (), (0, 0, 1, 1))),
    2: ((1, (), (1, 0, 1, 0)), (-1, (), (0, 1, 0, 1))),
    3: ((1, (), (1, 0, 0, 1)), (-1, (), (0, 1, 1, 0))),
}


def apply_L(i, v: PolyVec) -> PolyVec:
    """Lowering map: the difference of two second derivatives; degree -2."""
    return PolyVec._of(v.basis, _apply_terms(_L_TABLE[i], v.nums), v.den)


def apply_R(i, v: PolyVec) -> PolyVec:
    """Raising map: multiplication by a difference of variable products; degree +2."""
    return PolyVec._of(v.basis, _apply_terms(_R_TABLE[i], v.nums), v.den)


def apply_Omega(v: PolyVec) -> PolyVec:
    """Degree-grading operator: multiplies each homogeneous term by its degree."""
    return PolyVec._of(v.basis, {p: c * p.degree for p, c in v.nums.items() if p.degree}, v.den)


# C_i off the N(N+2)/2 diagonal: two moving terms and their zero-shift
# counterparts.
_C_TABLE = {
    1: ((2, (0, 1), (-1, -1, 1, 1)), (2, (2, 3), (1, 1, -1, -1)), (-2, (0, 1), (0, 0, 0, 0)), (-2, (2, 3), (0, 0, 0, 0))),
    2: ((2, (0, 2), (-1, 1, -1, 1)), (2, (1, 3), (1, -1, 1, -1)), (-2, (0, 2), (0, 0, 0, 0)), (-2, (1, 3), (0, 0, 0, 0))),
    3: ((2, (0, 3), (-1, 1, 1, -1)), (2, (1, 2), (1, -1, -1, 1)), (-2, (0, 3), (0, 0, 0, 0)), (-2, (1, 2), (0, 0, 0, 0))),
}


def apply_C(i, v: PolyVec) -> PolyVec:
    """Casimir-type operator, by its three-term action on basis vectors.

    The diagonal N(N+2)/2 is a half-integer, so the numerators are doubled
    over twice the denominator."""
    diag = {}
    for p, c in v.nums.items():
        N = p.degree
        if N:
            diag[p] = N * (N + 2) * c
    doubled = {p: 2 * c for p, c in v.nums.items()}
    return PolyVec._of(v.basis, _apply_terms(_C_TABLE[i], doubled, diag), 2 * v.den)


def apply_C_via_ladder(i, v: PolyVec) -> PolyVec:
    """Defining expression (Omega+2)^2/2 - L_i R_i - R_i L_i."""
    w = apply_Omega(v) + 2 * v
    w = apply_Omega(w) + 2 * w
    return Fraction(1, 2) * w - apply_L(i, apply_R(i, v)) - apply_R(i, apply_L(i, v))


def complementary_pair(i):
    """The two generator indices other than i, as its cyclic successors:
    (2, 3), (3, 1), (1, 2) for i = 1, 2, 3."""
    j = i % 3 + 1
    return j, j % 3 + 1


def apply_C_via_generators(i, v: PolyVec, swapped=False) -> PolyVec:
    """Defining expression (4 X^2 + 4 Y^2 - (XY - YX)^2)/8 for the generator pair.

    For index i the pair (X, Y) is (A_j, A*_k) with (j, k) the complementary
    pair of i, or (A*_j, A_k) when ``swapped``.
    """
    gx, gy = map(GeneratorId, ("Astar", "A") if swapped else ("A", "Astar"), complementary_pair(i))
    return sl4core.casimir_form(lambda w: act_generator(gx, w), lambda w: act_generator(gy, w), v)


def hermitian(v: PolyVec, w: PolyVec):
    """The Hermitian form of P_N (``PolyVec._form``), in either basis."""
    return v.inner(w)


def kernel_L_basis(i, N):
    """Orthogonal basis of Ker(L_i) on the degree-N slice.

    The (N+1)^2 vectors are Krawtchouk operator words in the two generators
    complementary to i, applied to x^N.
    """
    from . import specialfn  # deferred: specialfn builds vectors through this module

    a, b = complementary_pair(i)
    fam = specialfn.krawtchouk(N)
    ga = GeneratorId("A", a)
    gb = GeneratorId("A", b)
    seed = PolyVec.unit(MONOMIAL, (N, 0, 0, 0))
    basis = {}
    for j in range(N + 1):
        wj = horner(fam.coeffs[j], lambda x: act_generator(ga, x), seed)
        for k in range(N + 1):
            basis[(j, k)] = horner(fam.coeffs[k], lambda x: act_generator(gb, x), wj)
    return basis


def graded_decomposition(i, N):
    """Split the degree-N slice into raised kernel summands.

    Returns [(l, {(j, k): vector})] for l = 0 .. floor(N/2).  Certifies
    mutual orthogonality of everything and the Casimir eigenvalue
    (N-2l)(N-2l+2)/2 on each summand; any violation raises.
    """
    summands = []
    for ell in range(N // 2 + 1):
        base = kernel_L_basis(i, N - 2 * ell)
        vecs = {}
        for key, v in base.items():
            w = v
            for _ in range(ell):
                w = apply_R(i, w)
            vecs[key] = w
        summands.append((ell, vecs))
        lam = Fraction((N - 2 * ell) * (N - 2 * ell + 2), 2)
        for key, w in vecs.items():
            if apply_C(i, w) != lam * w:
                raise ArithmeticError(
                    f"C_{i} eigenvalue violation at N={N}, l={ell}, word={key}"
                )
    flat = [w for _, vecs in summands for w in vecs.values()]
    for p in range(len(flat)):
        for q in range(p + 1, len(flat)):
            if hermitian(flat[p], flat[q]) != 0:
                raise ArithmeticError(f"orthogonality failure at N={N}, i={i}, pair ({p},{q})")
    return summands


def weight_triple(p):
    return (weight(1, p), weight(2, p), weight(3, p))


def inverse_weight(i, degree, weights):
    """Row i of the Hadamard matrix sl4core._H, read at call time, applied to
    (degree, *weights): four times exponent i of the profile with that degree
    and weight triple.  The degree and the three weights are H times the
    profile, so H^2 = 4 I inverts them.  The entries may be numbers or
    vectors, with the identity's image as the degree."""
    h0, *hs = sl4core._H.rows[i]
    out = h0 * degree
    for h, w in zip(hs, weights):
        out = out + h * w
    return out


def in_weight_set(N, triple):
    """Membership test for the degree-N weight triples."""
    return all(not c % 4 and c >= 0 for c in (inverse_weight(i, N, triple) for i in range(4)))


def profile_from_weights(N, triple):
    """Inverse of the weight map; raises when the triple is not a weight of degree N."""
    if not in_weight_set(N, triple):
        raise ValueError(f"{triple} is not a degree-{N} weight triple")
    return Profile(*(inverse_weight(i, N, triple) // 4 for i in range(4)))


def enumerate_weight_triples(N):
    """All weight triples of degree N, enumerated independently of profiles."""
    rng = range(-N, N + 1, 2)
    return [(a, b, c) for a in rng for b in rng for c in rng if in_weight_set(N, (a, b, c))]


def weight_decomposition(N):
    """Bijection from weight triples to profiles.

    It serves both Cartan choices, H (starred basis diagonal) and H* (monomial
    basis diagonal): the coordinate formulas agree, only the interpretation
    differs.
    """
    out = {}
    for p in enumerate_profiles(N):
        trip = weight_triple(p)
        if not in_weight_set(N, trip):
            raise ArithmeticError(f"weight {trip} of {p} escapes the weight set")
        if trip in out:
            raise ArithmeticError(f"weight {trip} is hit twice")
        if profile_from_weights(N, trip) != p:
            raise ArithmeticError(f"inverse weight map fails at {p}")
        out[trip] = p
    if len(out) != len(enumerate_weight_triples(N)):
        raise ArithmeticError("weight map is not onto")
    return out


def operator_matrix(apply_fn, N):
    """Dense matrix of a degree-preserving operator on the monomial basis, in
    lexicographic profile order: the transpose of the units' image rows."""
    profiles = enumerate_profiles(N)
    return Mat(zip(*(apply_fn(PolyVec.unit(MONOMIAL, p)).row(profiles) for p in profiles)))


def eigenspace_dims(i, which, N):
    """Eigenvalue -> dimension for one generator on the degree-N slice.

    The operator matrix is taken in the monomial basis and each eigenspace
    dimension is the exact kernel dimension of (Op - lambda I).
    """
    gid = GeneratorId(which, i)
    op = operator_matrix(lambda v: act_generator(gid, v), N)
    dims = {}
    eye = Mat.identity(op.nrows)
    for n in range(N + 1):
        lam = N - 2 * n
        dims[lam] = kernel_dim((op - lam * eye).rows)
    return dims


def a_word_basis(N, starred=False):
    """The basis {A_1^s A_2^t A_3^u x^N} (or its starred mirror) of the degree-N slice.

    Raises on rank deficiency.
    """
    kind = "Astar" if starred else "A"
    seed = PolyVec.unit(STARRED if starred else MONOMIAL, (N, 0, 0, 0))
    gens = [GeneratorId(kind, k) for k in (1, 2, 3)]
    words = {}
    for s in range(N + 1):
        for t in range(N + 1 - s):
            for u in range(N + 1 - s - t):
                v = seed
                for g, power in zip(gens, (s, t, u)):
                    for _ in range(power):
                        v = act_generator(g, v)
                words[(s, t, u)] = v
    profiles = enumerate_profiles(N)
    if rank([v.row(profiles) for v in words.values()]) != binomial(N + 3, 3):
        raise ArithmeticError(f"operator words fail to span the degree-{N} slice")
    return words
