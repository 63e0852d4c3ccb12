"""Triple tensors on the hypercube and the fixed subspace."""

from fractions import Fraction

from .. import cube, polyspace, sl4core, tensorspace
from ..report import Report, above, unless
from ..sl4core import GENERATORS
from ..tensorspace import STAR_TILDE, TILDE, FixVec


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
