"""Triple tensors over the cube's standard module and the automorphism-fixed subspace.

Concrete vectors live in the 8^N-dimensional triple tensor space, stored
sparsely with packed 3N-bit keys.  The fixed subspace has dimension C(N+3, 3);
its elements are stored abstractly as profile-indexed coordinate vectors in
either the orbit-sum dual basis or the spectral dual basis, and the abstract
operator tables are validated against the concrete slot-wise action.
"""

from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, repeat
from operator import mul

from .cube import cube, triple_of_profile
from .exact import factorial
from .polyspace import Profile, _act_profiles, _norm_sq, enumerate_profiles
from .sl4core import GeneratorId
from .sparse import SparseVec

TILDE = "tilde"  # coordinates against the duals of the orbit sums
STAR_TILDE = "star_tilde"  # coordinates against the duals of the spectral sums


def pack(N, x, y, z):
    return (x << (2 * N)) | (y << N) | z


def unpack(N, key):
    mask = (1 << N) - 1
    return (key >> (2 * N)) & mask, (key >> N) & mask, key & mask


class TripleTensor(SparseVec):
    """Sparse exact vector in the triple tensor space."""

    __slots__ = ()

    def __init__(self, N, coeffs=None):
        coeffs = coeffs or {}
        if bad := [k for k in coeffs if type(k) is not int or not 0 <= k < 8**N]:
            raise ValueError(f"{bad[0]!r} is not a packed triple at N = {N}")
        self._set_values(N, {k: c for k, c in coeffs.items() if c})

    @property
    def N(self):
        return self.space

    @classmethod
    def basis(cls, N, x, y, z):
        return cls(N, {pack(N, x, y, z): 1})


def profile_of(N, x, y, z):
    """Coordinate agreement pattern of a vertex triple."""
    r = s = t = u = 0
    for k in range(N):
        xb, yb, zb = (x >> k) & 1, (y >> k) & 1, (z >> k) & 1
        if xb == yb == zb:
            r += 1
        elif yb == zb:
            s += 1
        elif zb == xb:
            t += 1
        else:
            u += 1
    return Profile(r, s, t, u)


@lru_cache(maxsize=None)
def _keys_by_profile(N):
    out = {p: [] for p in enumerate_profiles(N)}
    size = 1 << N
    for x in range(size):
        for y in range(size):
            for z in range(size):
                out[profile_of(N, x, y, z)].append(pack(N, x, y, z))
    return out


def b_vector(N, p) -> TripleTensor:
    """Sum of all basis triples with the given profile."""
    keys = _keys_by_profile(N)[Profile(*p)]
    return TripleTensor._of(N, dict.fromkeys(keys, 1))


def group_order(N):
    """|G| = N! 2^N, the order of the automorphism group of H(N, 2)."""
    return factorial(N) * 2**N


def fix_weight(N):
    """The weight of the fixed-space form on profile coordinates, the square
    norm of a dual basis vector: (r!s!t!u!)^2/|G|^2 * |G|/r!s!t!u!."""
    order = group_order(N)
    return lambda p: Fraction(_norm_sq(p), order)


def b_support_size(N, p):
    return Fraction(group_order(N), _norm_sq(Profile(*p)))


def _compact(ints):
    """The ints as an array of 2-byte C ints, or of 4-byte ones when they do not fit;
    OverflowError past that."""
    try:
        return array("h", ints)
    except OverflowError:
        return array("i", ints)


@lru_cache(maxsize=1)  # one N at a time: the N = 4 sums alone take 0.4 MB
def _spectral_table(N):
    """trip -> (keys, numerators) of the spectral sums of one N, filled on demand."""
    return {}


def _spectral_numerators(N, trip):
    """The nonzero entries of one spectral sum times 4^N, as (keys, numerators),
    computed once per (N, triple) while N is the last N asked for.

    The entry at (a, b, c) is the sum over x of K_h[a, x] K_i[b, x] K_j[c, x],
    with K the integer idempotent numerators.  Both are ``_compact`` arrays:
    keys have 3N bits (at most 24 up to the cube cap), and a numerator is at
    most 2^N C(N, N/2)^3 in size, below 2^31 up to the cube cap.
    """
    table = _spectral_table(N)
    if trip in table:
        return table[trip]
    h, i, j = trip
    Ks = cube(N).idempotent_numerators()
    Ki, Kj = Ks[i].rows, Ks[j].rows
    keys, nums = [], []
    for a, ra in enumerate(Ks[h].rows):
        for b, rb in enumerate(Ki):
            rab = list(map(mul, ra, rb))
            if not any(rab):
                continue
            base = pack(N, a, b, 0)
            for c, rc in enumerate(Kj):
                total = sum(map(mul, rab, rc))
                if total:
                    keys.append(base | c)
                    nums.append(total)
    table[trip] = out = _compact(keys), _compact(nums)
    return out


def q_vector(N, trip) -> TripleTensor:
    """Spectral triple sum for a distance triple; zero exactly off the valid set."""
    keys, nums = _spectral_numerators(N, tuple(trip))
    return TripleTensor._of(N, dict(zip(keys, nums)), 4**N)


def bstar_vector(N, p) -> TripleTensor:
    return q_vector(N, triple_of_profile(Profile(*p)))


class FixVec(SparseVec):
    """Fixed-subspace vector in dual-basis coordinates.

    Tag ``tilde`` means coordinates against the duals of the orbit sums (where
    the plain operators act by profile shifts); ``star_tilde`` against the
    duals of the spectral sums (where the starred operators shift).
    """

    __slots__ = ()

    def __init__(self, N, tag, coeffs=None):
        if tag not in (TILDE, STAR_TILDE):
            raise ValueError(f"unknown tag {tag!r}")
        values = {Profile(*p): c for p, c in (coeffs or {}).items()}
        if bad := [p for p in values if min(p) < 0 or p.degree != N]:
            raise ValueError(f"{tuple(bad[0])} is not a degree-{N} profile")
        self._set_values((N, tag), {p: c for p, c in values.items() if c})

    @property
    def N(self):
        return self.space[0]

    @property
    def tag(self):
        return self.space[1]

    @classmethod
    def unit(cls, N, tag, profile):
        return cls(N, tag, {Profile(*profile): 1})

    def lift(self) -> TripleTensor:
        """Concrete tensor represented by these coordinates: the sum of
        c p!/|G| times the orbit sum (tilde) or spectral sum (star_tilde)
        at each profile p, accumulated in integers."""
        N, tag = self.space
        star = tag == STAR_TILDE
        acc = {}
        for p, c in self.nums.items():
            m = c * _norm_sq(p)
            if star:
                keys, nums = _spectral_numerators(N, triple_of_profile(p))
            else:
                keys, nums = _keys_by_profile(N)[p], repeat(1)
            for k, v in zip(keys, nums):
                acc[k] = acc.get(k, 0) + m * v
        den = self.den * group_order(N) * (4**N if star else 1)
        return TripleTensor._of(N, {k: a for k, a in acc.items() if a}, den)

    def _form(self):
        """The form of the lifts, via the certified norms of the orthogonal sums."""
        return self, fix_weight(self.space[0])


def act_abstract(gid: GeneratorId, v: FixVec) -> FixVec:
    """Stated coordinate action of the six operators on the fixed subspace."""
    kind, k = gid
    four_term = (kind == "A") == (v.tag == TILDE)
    return FixVec._of(v.space, _act_profiles(four_term, k, v.nums), v.den)


def act_concrete(gid: GeneratorId, t: TripleTensor) -> TripleTensor:
    """Slot-wise action on concrete tensors: the brute-force oracle."""
    kind, k = gid
    N = t.N
    out = {}
    if kind == "A":
        shift_bits = 2 * N if k == 1 else (N if k == 2 else 0)
        for key, c in t.nums.items():
            for bit in range(N):
                nk = key ^ (1 << (bit + shift_bits))
                nv = out.get(nk, 0) + c
                if nv:
                    out[nk] = nv
                else:
                    del out[nk]
    else:
        pc = cube(N).pc
        for key, c in t.nums.items():
            x, y, z = unpack(N, key)
            if k == 1:
                d = pc[y ^ z]
            elif k == 2:
                d = pc[z ^ x]
            else:
                d = pc[x ^ y]
            w = N - 2 * d
            if w:
                out[key] = c * w
    return TripleTensor._of(N, out, t.den)


def permute_bits(v, perm):
    out = 0
    for i, target in enumerate(perm):
        if (v >> i) & 1:
            out |= 1 << target
    return out


def apply_symmetry(N, t: TripleTensor, perm, flip) -> TripleTensor:
    """Apply the cube symmetry (coordinate permutation then sign flips) diagonally."""
    image = [permute_bits(x, perm) ^ flip for x in range(1 << N)]  # the vertex map, once
    mask = (1 << N) - 1
    out = {}
    for key, c in t.nums.items():
        out[(image[key >> (2 * N)] << (2 * N)) | (image[(key >> N) & mask] << N) | image[key & mask]] = c
    return TripleTensor._of(N, out, t.den)


def symmetry_generators(N):
    """Adjacent transpositions plus one sign flip: a generating set of the full group."""
    gens = []
    for k in range(N - 1):
        perm = list(range(N))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        gens.append((tuple(perm), 0))
    if N >= 1:
        gens.append((tuple(range(N)), 1))
    return gens


def full_group(N):
    return [(perm, flip) for perm in permutations(range(N)) for flip in range(1 << N)]


def fix_membership(t: TripleTensor) -> bool:
    """Invariance under a generating set of the automorphism group."""
    return all(apply_symmetry(t.N, t, perm, flip) == t for perm, flip in symmetry_generators(t.N))
