"""The binary hypercube, its spectral decomposition, and the subconstituent algebra.

Vertices are bitmasks; bit k set means coordinate k equals -1 and the distance
between two vertices is the popcount of their xor.  For a fixed basepoint, the
pairs (x, y) are partitioned into cells by the triple
(dist(x, y), dist(x, base), dist(y, base)); the subconstituent algebra is
exactly the space of matrices constant on those cells, which makes products and
inner products cheap to compute exactly once that fact has been certified.
Every vertex sum the algebra takes is one over its class counts, tables of N
alone held on the Cube for every basepoint; dense 2^N x 2^N matrices are
built only for the oracles that compare against them.
"""

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import comb, factorial, gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from .exact import binomial, clear_denominators
from .linalg import Mat, independent_rows, lagrange
from .polyspace import Profile
from .sl4core import GENERATORS, casimir_form
from .sparse import SparseVec


class TripleIndex(NamedTuple):
    h: int
    i: int
    j: int

    def transposed(self):
        """The cell of the pairs (y, x) for (x, y) in this one: i and j swapped."""
        return TripleIndex(self.h, self.j, self.i)


def valid_triples(N):
    """The distance triples realizable in the N-cube, in lexicographic order."""
    out = []
    for h in range(N + 1):
        for i in range(N + 1):
            for j in range(N + 1):
                if (h + i + j) % 2 == 0 and h + i + j <= 2 * N and h <= i + j and i <= j + h and j <= h + i:
                    out.append(TripleIndex(h, i, j))
    return out


def triple_of_profile(p):
    r, s, t, u = p
    return TripleIndex(t + u, u + s, s + t)


def profile_of_triple(N, trip):
    h, i, j = trip
    return Profile((2 * N - h - i - j) // 2, (i + j - h) // 2, (j + h - i) // 2, (h + i - j) // 2)


def cell_classes(N, trip):
    """The sizes of the classes of the coordinates of a cell's pairs (x, y), by
    their bits in x and y against the basepoint: set in neither, x only, both,
    y only.  They are the cell's profile (r, s, t, u) read as (r, u, s, t)."""
    r, s, t, u = profile_of_triple(N, trip)
    return (r, u, s, t)


N_CAP = 8  # standard-module work is dense in 2^N; guard against accidents


class Cube:
    """The hypercube on 2^N vertices with its exact spectral data."""

    def __init__(self, N):
        if N > N_CAP:
            raise ValueError(f"N={N} exceeds the standard-module cap {N_CAP}")
        self.N = N
        self.size = 1 << N
        self.pc = [bin(v).count("1") for v in range(self.size)]
        # the cells of every basepoint's algebra, in lexicographic triple
        # order, and each triple's position in that order
        self.triples = valid_triples(N)
        self.cell_slot = {t: n for n, t in enumerate(self.triples)}
        # pairs per cell, N!/p! for its profile p; cube.estar_basis counts them
        self.cell_sizes = {t: factorial(N) // profile_of_triple(N, t).norm_sq for t in self.triples}
        self.cell_units = {t: {t: 1} for t in self.triples}  # each cell indicator's numerators
        self._K = None
        self.a_matrices = None  # filled by the first A-kind call of any algebra of this N

    def dist(self, x, y):
        return self.pc[x ^ y]

    def theta(self, i):
        return self.N - 2 * i

    def adjacency(self):
        return self.distance_op(1)

    def distance_op(self, i):
        return Mat(
            [[1 if self.pc[x ^ y] == i else 0 for y in range(self.size)] for x in range(self.size)]
        )

    def idempotent_numerators(self):
        """Integer matrices K_i with E_i = K_i / 2^N, via the Lagrange product.

        Exactness of the rescaling is checked entrywise.
        """
        if self._K is not None:
            return self._K
        A = self.adjacency()
        eye = Mat.identity(self.size)
        thetas = [self.theta(j) for j in range(self.N + 1)]
        Ks = []
        for i in range(self.N + 1):
            # the sparse factor A - theta I on the left keeps each product cheap
            M, den = lagrange(lambda mu, X: (A - mu * eye) @ X, eye, thetas, i)
            if any(e * self.size % den for e in M.flatten()):
                raise ArithmeticError("idempotent numerator fails to be integral")
            Ks.append(Mat([[e * self.size // den for e in row] for row in M.rows]))
        self._K = Ks
        return Ks

    def primitive_idempotent(self, i):
        return Fraction(1, 2**self.N) * self.idempotent_numerators()[i]

    # -- class counts: the per-N kernel of every sum over vertices ---------

    @cached_property
    def class_counts(self):
        """Per cell, in triple order, the vertices k at its representative pair
        (x, y) as triples (cell of (x, k), cell of (k, y), m), m the number of
        such k: the bits f_c that k flips in each class of cell_classes fix the
        three distances, and k stands for prod C(n_c, f_c) vertices."""
        cell = dict(zip(self.triples, self.triples))  # one key object per cell
        out = []
        for trip in self.triples:
            sizes = cell_classes(self.N, trip)
            _, i, j = trip
            counts = Counter()
            for f in product(*(range(n + 1) for n in sizes)):
                f00, f10, f11, f01 = f
                dists = (i - f10 - f11 + f00 + f01, f00 + f10 + f11 + f01, j - f11 - f01 + f00 + f10)
                counts[dists] += prod(map(comb, sizes, f))
            out.append(tuple((cell[(dxk, i, dk)], cell[(dky, dk, j)], m) for (dxk, dk, dky), m in counts.items()))
        return out

    @cached_property
    def krawtchouk_values(self):
        """K[m][d] = sum_s (-1)^s C(d, s) C(N-d, m-s), the entry of 2^N E_m at a
        pair at distance d, in closed form."""
        r = range(self.N + 1)
        return [[sum((-1) ** s * comb(d, s) * comb(self.N - d, m - s) for s in range(m + 1)) for d in r] for m in r]

    @cached_property
    def e_kernel(self):
        """E_i A*_h E_j in integers, for every basepoint: per triple, in triple
        order, (row, norm, coords, den), the numerators over 4^N at the cells
        in triple order, their cell-size weighted norm, and the element's
        reduced numerators and denominator.

        The row's entry at a cell is 4^N (E_i A*_h E_j)[x, y] at its
        representative pair, sum m K_i(d(x, k)) K_h(d(k, base)) K_j(d(k, y))
        over its class counts.  (E_i A*_h E_j)^T = E_j A*_h E_i, so a row with
        i > j is the transposed triple's row read at the transposed cells.
        """
        triples, K = self.triples, self.krawtchouk_values
        direct = {t: [] for t in triples if t.i <= t.j}
        for terms in self.class_counts:
            # per term of the cell: K_i(d(x, k)), m K_h(d(k, base)), K_j(d(k, y))
            left = [[Ki[xk[0]] for xk, _, _ in terms] for Ki in K]
            mid = [[m * Kh[xk[2]] for xk, _, m in terms] for Kh in K]
            right = [[Kj[ky[0]] for _, ky, _ in terms] for Kj in K]
            for (h, i, j), vals in direct.items():
                vals.append(sum(map(mul, mid[h], map(mul, left[i], right[j]))))
        flip = [self.cell_slot[t.transposed()] for t in triples]
        sizes = [self.cell_sizes[t] for t in triples]
        den = 4**self.N
        out = {}
        for t in triples:
            row = tuple(direct[t]) if t.i <= t.j else tuple(map(direct[t.transposed()].__getitem__, flip))
            g = gcd(den, *row)
            coords = {s: a // g for s, a in zip(triples, row) if a}
            out[t] = (row, sum(map(mul, sizes, map(mul, row, row))), coords, den // g)
        return out


@lru_cache(maxsize=None)
def cube(N) -> Cube:
    return Cube(N)


class TElem(SparseVec):
    """Element of the subconstituent algebra, stored by its value on each cell.

    Valid only for matrices constant on the distance-triple cells; that the
    algebra consists exactly of those matrices is certified by the cube suite.
    """

    __slots__ = ()

    def __init__(self, alg, coords):
        self._set_values(alg, {TripleIndex(*k): v for k, v in coords.items() if v})

    def __matmul__(self, other):
        """Exact product: at each cell, the sum over the class counts of its
        representative pair (x, y) of m times the factors at (x, k) and (k, y)."""
        alg = self.space
        lc, rc = self.nums.get, other.nums.get
        out = {}
        for trip, terms in zip(alg.triples, alg.cube.class_counts):
            total = 0
            for xk, ky, m in terms:
                a = lc(xk)
                if a:
                    b = rc(ky)
                    if b:
                        total += m * a * b
            if total:
                out[trip] = total
        return TElem._of(alg, out, self.den * other.den)

    def matrix(self):
        alg = self.space
        coords, pc, d = self.coeffs, alg.cube.pc, alg.dist_to_base
        n = alg.cube.size
        return Mat([[coords.get((pc[x ^ y], d[x], d[y]), 0) for y in range(n)] for x in range(n)])

    def inner(self, other):
        """Entrywise form; the cell indicator basis is orthogonal with norms the cell sizes."""
        return SparseVec.inner(self, other, self.space.cell_sizes.__getitem__)

    def coord_vector(self):
        """Coordinates against the cell indicator basis, in lexicographic triple order."""
        coords = self.coeffs
        return [coords.get(t, 0) for t in self.space.triples]


class TAlgebra:
    """Subconstituent algebra of the N-cube at a basepoint."""

    def __init__(self, N, basepoint=0):
        self.cube = cube(N)
        if not 0 <= basepoint < self.cube.size:
            raise ValueError(f"basepoint {basepoint} is not a vertex of the {N}-cube")
        self.N = N
        self.basepoint = basepoint
        self.triples = self.cube.triples
        self.cell_sizes = self.cube.cell_sizes  # equal for every basepoint
        # E_i = K_i / 2^N with K_i integral, so every E_i A*_h E_j coordinate
        # is an integer over this one denominator
        self.e_den = 4**N
        self._estar_basis = None
        self._e_basis = None

    @cached_property
    def dist_to_base(self):  # for the dense forms
        return [self.cube.dist(x, self.basepoint) for x in range(self.cube.size)]

    # -- cell geometry -------------------------------------------------

    def cell_of(self, x, y):
        pc, b = self.cube.pc, self.basepoint
        return TripleIndex(pc[x ^ y], pc[x ^ b], pc[y ^ b])

    @cached_property
    def cell_reps(self):
        return {t: self._make_rep(t) for t in self.triples}

    def _make_rep(self, trip):
        """The pair (x, y) of the cell whose bits against the basepoint are,
        from the lowest: the class set in both, x only, then y only."""
        _, x_only, both, y_only = cell_classes(self.N, trip)
        ones = lambda n, shift=0: ((1 << n) - 1) << shift
        x = ones(both + x_only) ^ self.basepoint
        y = (ones(both) | ones(y_only, both + x_only)) ^ self.basepoint
        if (got := self.cell_of(x, y)) != trip:
            raise ArithmeticError(f"the representative pair of cell {tuple(trip)} lies in cell {tuple(got)}")
        return (x, y)

    def _require_own(self, B):
        """The tag check of every map that reads B's cells: B is of this N and basepoint."""
        if B.space is not self:
            raise ValueError("mixing TElem tags; convert first")

    # -- distinguished elements -----------------------------------------

    def zero(self):
        return TElem(self, {})

    def _at_reps(self, entry):
        """The element whose value on each cell is entry(x, y) at the cell's
        representative pair, the rule products are evaluated by."""
        return TElem._of(self, {t: v for t, (x, y) in self.cell_reps.items() if (v := entry(x, y))})

    def identity(self):
        return self._at_reps(lambda x, y: 1 if x == y else 0)

    def adjacency_elem(self):
        pc = self.cube.pc
        return self._at_reps(lambda x, y: 1 if pc[x ^ y] == 1 else 0)

    def dual_adjacency_elem(self):
        return self._at_reps(lambda x, y: self.cube.theta(self.cube.dist(x, self.basepoint)) if x == y else 0)

    def dual_distance_diag(self, h):
        """Diagonal entries of the h-th dual distance operator: column of K_h at the basepoint."""
        K = self.cube.idempotent_numerators()[h]
        return [K[x, self.basepoint] for x in range(self.cube.size)]

    def dual_distance_elem(self, h):
        diag = self.dual_distance_diag(h)
        return self._at_reps(lambda x, y: diag[x] if x == y else 0)

    def idempotent_elem_raw(self, i):
        """2^N E_i as an integer-coordinate algebra element."""
        K = self.cube.idempotent_numerators()[i]
        return self._at_reps(lambda x, y: K[x, y])

    # -- matrix-level counterparts (small N oracles) ---------------------

    def dual_adjacency(self):
        return Mat.diag([self.cube.theta(self.dist_to_base[x]) for x in range(self.cube.size)])

    def dual_idempotent(self, i):
        return Mat.diag([1 if self.dist_to_base[x] == i else 0 for x in range(self.cube.size)])

    # -- the two bases ----------------------------------------------------

    def estar_basis(self):
        """E*_i A_h E*_j for valid (h, i, j): the cell indicator matrices."""
        if self._estar_basis is None:
            self._estar_basis = {t: TElem._of(self, u) for t, u in self.cube.cell_units.items()}
        return self._estar_basis

    def e_basis(self):
        """E_i A*_h E_j for valid (h, i, j): the cube's e_kernel in this
        algebra's elements.  The kernel reads the Krawtchouk values, not the
        dense numerators the dense-product oracle compares it with."""
        if self._e_basis is None:
            self._e_basis = {t: TElem._of(self, coords, den) for t, (_, _, coords, den) in self.cube.e_kernel.items()}
        return self._e_basis

    def e_basis_product_matrix(self, trip):
        """Direct dense product E_i A*_h E_j; the small-N oracle for e_basis."""
        h, i, j = trip
        Ei = self.cube.primitive_idempotent(i)
        Ej = self.cube.primitive_idempotent(j)
        diag = self.dual_distance_diag(h)
        scaled = Mat([[diag[x] * e for e in Ej.rows[x]] for x in range(self.cube.size)])
        return Ei @ scaled

    def from_matrix(self, M):
        """Interpret an exact matrix as an algebra element; raises when the matrix
        is not constant on the cells, i.e. lies outside the algebra."""
        coords = {}
        for x in range(self.cube.size):
            row = M.rows[x]
            for y in range(self.cube.size):
                t = self.cell_of(x, y)
                v = row[y]
                if t in coords:
                    if coords[t] != v:
                        raise ArithmeticError(f"matrix is not constant on cell {t}")
                else:
                    coords[t] = v
        return TElem(self, coords)

    def e_coords(self, B):
        """Coordinates of B against the orthogonal E_i A*_h E_j basis.

        The coordinate at t is <B, e_t> / <e_t, e_t>; with B the numerators
        b over D and e_t the row r_t over e_den, that is
        (sum over cells s of b_s |s| r_t[s]) * e_den / (D * norm(r_t)),
        one integer dot product per triple.
        """
        self._require_own(B)
        slots = [self.cube.cell_slot[s] for s in B.nums]
        weights = [a * self.cell_sizes[s] for s, a in B.nums.items()]
        scale, den = self.e_den, B.den
        return {
            t: Fraction(sum(map(mul, weights, map(row.__getitem__, slots))) * scale, den * norm)
            for t, (row, norm, _, _) in self.cube.e_kernel.items()
        }

    def _e_int_combination(self, nums, den=1):
        """sum over t of nums[t] / den * e_t, for integer numerators over one
        denominator: the numerator rows are combined in integers over
        den * e_den."""
        kernel = self.cube.e_kernel
        acc = None
        for t, m in nums.items():
            if m:
                row = kernel[t][0]
                acc = [m * r for r in row] if acc is None else [a + m * r for a, r in zip(acc, row)]
        if acc is None:
            return TElem._of(self, {})
        return self._of_cell_list(acc, den * self.e_den)

    def _of_cell_list(self, acc, den):
        """The element with integer numerators acc, listed in self.triples
        order, over den: reduced by one gcd on the list, so that the dict of
        nonzero cells is built once, already in lowest terms."""
        g = gcd(den, *acc)
        return TElem._of(self, {t: a // g for t, a in zip(self.triples, acc) if a}, den // g)

    def _a_matrices(self):
        """The A-kind operators A^(1), A^(2), A^(3) as sparse integer matrices
        in cell coordinates, built on the first A-kind call of any algebra of
        this N and held on the cube.

        Slot k of the triple (theta_h, theta_i, theta_j) gives the pair
        (cols, L): cols[s] lists the pairs (n, m), m / L being the coordinate
        at self.triples[n] of the operator applied to the indicator of cell s.
        Each column comes from the E-basis route: the indicator's e_coords
        times the eigenvalues, cleared to integers and combined by
        _e_int_combination (per-N tables only).
        """
        if self.cube.a_matrices is None:
            units = [self.e_coords(e) for e in self.estar_basis().values()]  # in self.triples order
            slot_of = self.cube.cell_slot
            mats = []
            for k in range(3):
                theta = {t: self.N - 2 * t[k] for t in self.triples}
                images = []
                for c in units:
                    ints, den = clear_denominators(theta[t] * a for t, a in c.items())
                    images.append(self._e_int_combination(dict(zip(c, ints)), den))
                L = lcm(*(im.den for im in images))
                cols = [tuple((slot_of[t], a * (L // im.den)) for t, a in im.nums.items()) for im in images]
                mats.append((dict(zip(self.triples, cols)), L))
            self.cube.a_matrices = mats
        return self.cube.a_matrices

    # -- center and Wedderburn decomposition ------------------------------

    def phi_central(self):
        """The central element (4 A^2 + 4 A*^2 - (A A* - A* A)^2) / 8."""
        return casimir_form(self.adjacency_elem().__matmul__, self.dual_adjacency_elem().__matmul__, self.identity())

    def phi_eigenvalues(self):
        return [Fraction((self.N - 2 * l) * (self.N - 2 * l + 2), 2) for l in range(self.N // 2 + 1)]

    def phi_idempotents(self):
        """Lagrange idempotents of the central element; certified to resolve it."""
        phi = self.phi_central()
        eigs = self.phi_eigenvalues()
        ident = self.identity()
        out = []
        for l in range(len(eigs)):
            M, den = lagrange(lambda mu, X: X @ (phi - mu * ident), ident, eigs, l)
            M = Fraction(1, den) * M
            if M.is_zero():
                raise ArithmeticError(f"central idempotent {l} vanishes")
            out.append(M)
        resolved = self.zero()
        weighted = self.zero()
        for lam, p in zip(eigs, out):
            if not (p @ p == p):
                raise ArithmeticError("central idempotent fails to be idempotent")
            resolved.add_scaled(1, p)
            weighted.add_scaled(lam, p)
        if resolved != ident or weighted != phi:
            raise ArithmeticError("central idempotents fail to resolve the identity or phi")
        return out

    def wedderburn(self):
        """Bases of the two-sided ideals cut out by the central idempotents.

        Returns [(l, eigenvalue, [TElem basis])]; dimensions (N - 2l + 1)^2.
        """
        idems = self.phi_idempotents()
        eigs = self.phi_eigenvalues()
        basis = self.estar_basis()
        out = []
        total = 0
        for l, (lam, p) in enumerate(zip(eigs, idems)):
            scaled = TElem._of(self, p.nums)  # p times its denominator: spans are scale independent
            images = [scaled @ b for b in basis.values()]
            rows = [im.coord_vector() for im in images]
            keep = independent_rows(rows)
            ideal = [images[k] for k in keep]
            expect = (self.N - 2 * l + 1) ** 2
            if len(ideal) != expect:
                raise ArithmeticError(
                    f"ideal {l} has dimension {len(ideal)}, expected {expect}"
                )
            total += len(ideal)
            out.append((l, lam, ideal))
        if total != binomial(self.N + 3, 3):
            raise ArithmeticError("ideal dimensions fail to sum to dim T")
        return out

    # -- module structure on the algebra ----------------------------------

    def module_op(self, kind, k):
        """The six module operators, diagonal on one of the two bases.

        Plain kind scales the E-basis coordinates by an eigenvalue read off the
        triple, through the cached matrices of _a_matrices; starred kind scales
        the cell coordinates.
        """
        N = self.N
        if kind == "Astar":
            slot = {1: 0, 2: 2, 3: 1}[k]  # theta*_h, theta*_j, theta*_i

            def op(B):
                self._require_own(B)
                return TElem._of(self, {t: w * v for t, v in B.nums.items() if (w := N - 2 * t[slot])}, B.den)

            return op
        if kind == "A":
            slot = {1: 0, 2: 1, 3: 2}[k]  # theta_h, theta_i, theta_j
            size = len(self.triples)

            def op(B):
                self._require_own(B)
                cols, L = self._a_matrices()[slot]
                acc = [0] * size
                for s, b in B.nums.items():
                    for n, m in cols[s]:
                        acc[n] += b * m
                return self._of_cell_list(acc, B.den * L)

            return op
        raise ValueError(f"unknown kind {kind!r}")

    def t_module_ops(self):
        """All six module operators, keyed by GeneratorId, which equals its
        (kind, index) pair."""
        return {gid: self.module_op(*gid) for gid in GENERATORS}

    def s_antiautomorphism(self, B):
        """The basis-swapping antiautomorphism: the indicator of a cell goes to
        the E-basis element of the transposed triple."""
        self._require_own(B)
        return self._e_int_combination({t.transposed(): a for t, a in B.nums.items()}, B.den)

@lru_cache(maxsize=None)
def t_algebra(N, basepoint=0) -> TAlgebra:
    return TAlgebra(N, basepoint)


def intersection_number(N, h, i, j):
    """|Gamma_i(x) cap Gamma_j(y)| for a pair at distance h, counted directly."""
    c = cube(N)
    x = 0
    y = (1 << h) - 1
    return sum(1 for z in range(c.size) if c.pc[z] == i and c.pc[z ^ y] == j)
