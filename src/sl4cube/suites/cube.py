"""The hypercube and its subconstituent algebra T."""

import functools
from fractions import Fraction

from .. import cube, sl4core, specialfn
from ..exact import binomial, factorial
from ..linalg import Mat, horner
from ..report import Report, above, completes, second_basepoint_skip, unless


def random_telem(alg, rng):
    """A random element, one rng.randint(-4, 4) per cell in triple order: drawn
    now, and built by the function returned, inside the check that reads it."""
    draws = [rng.randint(-4, 4) for _ in alg.triples]
    return functools.cache(lambda: cube.TElem(alg, dict(zip(alg.triples, draws))))


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
    second = second_basepoint_skip(N, basepoint, 4)
    rep.check("cube.basepoint_independence", "dimension profile is basepoint independent", N, basepoint_independence(), skip=second)
    return rep
