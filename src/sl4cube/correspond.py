"""The rationally-rescaled intertwining maps between the three module realizations.

The natural isometric normalization of each map carries an irrational global
factor.  We implement the rational rescaling instead and track the exact square
of the suppressed factor, so every identity below is checked in exact
arithmetic.  Monomials go to scaled orbit sums, fixed vectors to algebra
elements, and the composite sends a monomial with exponent profile (r, s, t, u)
to r!s!t!u! times the indicator of the cell whose transposed triple is
(t+u, u+s, s+t).
"""

import functools
from fractions import Fraction

from . import polyspace, specialfn, tensorspace
from .cube import TAlgebra, TElem, t_algebra, triple_of_profile
from .exact import factorial
from .linalg import Mat, rank, spans_match
from .polyspace import MONOMIAL, STARRED, PolyVec, _norm_sq
from .report import Report, above
from .sl4core import intertwining_failures
from .sparse import gram
from .tensorspace import STAR_TILDE, TILDE, FixVec, TripleTensor, group_order


def ddag_scaled(v: PolyVec) -> FixVec:
    """The polynomial slice to the fixed subspace: unit profile p to p! times
    the orbit sum over p from the monomial basis, or the spectral sum at p
    from the starred basis, written in the matching dual coordinates."""
    N = v.degree() or 0  # raises if mixed
    w, tag = group_order(N), TILDE if v.basis == MONOMIAL else STAR_TILDE
    return FixVec._of((N, tag), {p: w * c for p, c in v.nums.items()}, v.den)


def ddag_scale_squared(N):
    """The square of the factor the rational fixed-space map suppresses."""
    return group_order(N)


def eps_scaled_concrete(alg: TAlgebra, t: TripleTensor) -> Mat:
    """The flattening map on concrete tensors: a basis triple with first slot at
    the basepoint goes to the matrix unit indexed by the other two slots."""
    size = alg.cube.size
    M = [[0] * size for _ in range(size)]
    for key, c in t.coeffs.items():
        x, y, z = tensorspace.unpack(t.N, key)
        if x == alg.basepoint:
            M[y][z] += c
    return Mat(M)


def _require_degree(alg: TAlgebra, N):
    """Raise ValueError unless degree N (None: the zero vector) maps into alg."""
    if N not in (None, alg.N):
        raise ValueError(f"a degree-{N} vector has no image in T at N = {alg.N}")


def eps_scaled_fix(alg: TAlgebra, v: FixVec) -> TElem:
    """The same map on the fixed subspace, through its action on the two dual bases."""
    N, tag = v.space
    _require_degree(alg, N if v.nums else None)
    den = v.den * group_order(N)
    if tag == TILDE:
        return TElem._of(alg, {triple_of_profile(p).transposed(): c * _norm_sq(p) for p, c in v.nums.items()}, den)
    return alg._e_int_combination({triple_of_profile(p): c * _norm_sq(p) for p, c in v.nums.items()}, den)


def eps_scale_squared(N):
    """The square of the factor the rational flattening suppresses."""
    return Fraction(1, 2**N)


def theta_scaled(alg: TAlgebra, v: PolyVec) -> TElem:
    """Monomials to the indicators of the transposed cells, starred monomials
    to the spectral basis, both weighted by the profile factorials."""
    _require_degree(alg, v.degree())  # raises if mixed
    if v.basis != MONOMIAL:
        return alg._e_int_combination({triple_of_profile(p): a * _norm_sq(p) for p, a in v.nums.items()}, v.den)
    return TElem._of(alg, {triple_of_profile(p).transposed(): c * _norm_sq(p) for p, c in v.nums.items()}, v.den)


def theta_scale_squared(N):
    """The square of the factor theta suppresses: ddag's times eps's."""
    return factorial(N)


def _form_mismatches(units, image, scale_sq):
    """The witness "<label> pair p,q" at each entry where the Gram matrix of
    the images of the units {label: {profile: unit}} differs from scale_sq
    times the Gram matrix of the units, label by label."""
    for label, vecs in units.items():
        got, want = gram(image(u) for u in vecs.values()), gram(vecs.values())
        for p, got_row, want_row in zip(vecs, got, want):
            for q, value, w in zip(vecs, got_row, want_row):
                if value != scale_sq * w:
                    yield f"{label} pair {tuple(p)},{tuple(q)}"


def _rank_mismatches(rows):
    """The witness "rank r of n images" unless the n rows are independent."""
    rows = list(rows)
    r = rank(rows)
    if r != len(rows):
        yield f"rank {r} of {len(rows)} images"


def check_ddag(N, oracle_cap) -> Report:
    """Intertwining and form scaling for the polynomial-to-fixed-space map."""
    rep = Report()
    profiles = polyspace.enumerate_profiles(N)
    scale_sq = ddag_scale_squared(N)
    oracle = above(N, oracle_cap, "oracle cap")
    units = {tag: {p: PolyVec.unit(tag, p) for p in profiles} for tag in (MONOMIAL, STARRED)}
    act = polyspace.act_generator
    intertwine = intertwining_failures(units, ddag_scaled, act, tensorspace.act_abstract)
    rep.check("correspond.ddag.intertwine", "image of generator action = operator action of image", N, intertwine)

    mono = units[MONOMIAL]
    lift = lambda v: ddag_scaled(v).lift()
    lifted = functools.cache(lambda: [lift(v) for v in mono.values()])
    rep.check("correspond.ddag.form", "<f',g'> = N! 2^N <f,g>", N, _form_mismatches({"form": mono}, ddag_scaled, scale_sq))

    concrete = intertwining_failures({MONOMIAL: mono}, lift, act, tensorspace.act_concrete)
    rep.check("correspond.ddag.concrete", "abstract image action matches the lifted slot-wise action", N, concrete, skip=oracle)
    concrete_form = _form_mismatches({"concrete form": mono}, lift, scale_sq)
    rep.check("correspond.ddag.concrete_form", "lifted form matches the scaled polynomial form", N, concrete_form, skip=oracle)

    def consistency():
        for p, e in units[STARRED].items():
            if lift(e) != lift(polyspace.convert_basis(e, MONOMIAL)):
                yield f"starred unit {tuple(p)}"
    rep.check(
        "correspond.ddag.starred_consistency", "starred rule agrees with conversion followed by the plain rule", N, consistency(), skip=oracle
    )

    def cross_form():
        starred = (lift(e) for e in units[STARRED].values())
        got = gram(lifted(), starred)
        for p, row in zip(profiles, got):
            for q, value in zip(profiles, row):
                if value != factorial(N) ** 2 * specialfn.calP_sum(N, (p.s, p.t, p.u), (q.s, q.t, q.u)):
                    yield f"cross pair {tuple(p)},{tuple(q)}"
    rep.check("correspond.ddag.cross_form", "<image(x^p), image(x*^q)> = (N!)^2 * transition coefficient", N, cross_form(), skip=oracle)

    def injective_rows():  # of the lifted tensors where the oracle runs, else of the coordinates
        if oracle:
            yield from ([c.get(q, 0) for q in profiles] for c in (ddag_scaled(v).coeffs for v in mono.values()))
        else:
            keys = sorted({k for vec in lifted() for k in vec.nums})
            yield from ([c.get(k, 0) for k in keys] for c in (vec.coeffs for vec in lifted()))
    rep.check("correspond.ddag.injective", "the map has full rank on the degree slice", N, _rank_mismatches(injective_rows()))
    return rep


def check_eps(N, basepoint, oracle_cap) -> Report:
    """Route agreement, bijectivity, and form scaling for the flattening map."""
    rep = Report()
    alg = t_algebra(N, basepoint)
    profiles = polyspace.enumerate_profiles(N)
    eps = lambda v: eps_scaled_fix(alg, v)
    scale_sq = eps_scale_squared(N)
    units = {tag: {p: FixVec.unit(N, tag, p) for p in profiles} for tag in (TILDE, STAR_TILDE)}

    def routes():
        for tag, vecs in units.items():
            for p, u in vecs.items():
                if alg.from_matrix(eps_scaled_concrete(alg, u.lift())) != eps(u):
                    yield f"{tag} unit {tuple(p)}"
    oracle = above(N, oracle_cap, "oracle cap")
    rep.check("correspond.eps.routes", "concrete flattening equals the dual-basis formulas", N, routes(), skip=oracle)

    ops = alg.t_module_ops()
    intertwine = intertwining_failures(units, eps, tensorspace.act_abstract, lambda gid, B: ops[gid](B))
    rep.check("correspond.eps.intertwine", "flattening carries the operator action to the module operators", N, intertwine)
    rep.check("correspond.eps.form", "<eps(u), eps(v)> = 2^-N <u, v>", N, _form_mismatches(units, eps, scale_sq))
    bijective = _rank_mismatches(eps(u).coord_vector() for u in units[STAR_TILDE].values())
    rep.check("correspond.eps.bijective", "flattening restricted to the fixed subspace has full rank", N, bijective)
    return rep


def check_theta(N, basepoint, oracle_cap) -> Report:
    """Intertwining, composition, form scaling, and the antiautomorphism square."""
    rep = Report()
    alg = t_algebra(N, basepoint)
    profiles = polyspace.enumerate_profiles(N)
    theta = lambda v: theta_scaled(alg, v)
    scale_sq = theta_scale_squared(N)
    units = {tag: {p: PolyVec.unit(tag, p) for p in profiles} for tag in (MONOMIAL, STARRED)}

    ops = alg.t_module_ops()
    intertwine = intertwining_failures(units, theta, polyspace.act_generator, lambda gid, B: ops[gid](B))
    rep.check("correspond.theta.intertwine", "theta carries generator action to the module operators", N, intertwine)

    def composite():
        for tag, vecs in units.items():
            for p, e in vecs.items():
                if eps_scaled_fix(alg, ddag_scaled(e)) != theta(e):
                    yield f"{tag} unit {tuple(p)}"
    rep.check("correspond.theta.composite", "theta = flattening after the fixed-space map (scales N! 2^N * 2^-N = N!)", N, composite())

    concrete = (
        f"unit {tuple(p)}"
        for p, e in units[MONOMIAL].items()
        if alg.from_matrix(eps_scaled_concrete(alg, ddag_scaled(e).lift())) != theta(e)
    )
    oracle = above(N, oracle_cap, "oracle cap")
    rep.check("correspond.theta.concrete", "composite through concrete tensors matches the direct rule", N, concrete, skip=oracle)

    rep.check("correspond.theta.form", "<theta(f), theta(g)> = N! <f, g>", N, _form_mismatches(units, theta, scale_sq))
    injective = _rank_mismatches(theta(e).coord_vector() for e in units[MONOMIAL].values())
    rep.check("correspond.theta.injective", "theta has full rank", N, injective)
    return rep


def sigma_S_diagram(N, basepoint) -> Report:
    """theta after the basis swap equals the antiautomorphism after theta."""
    rep = Report()
    alg = t_algebra(N, basepoint)

    def failures():
        for p in polyspace.enumerate_profiles(N):
            e = PolyVec.unit(MONOMIAL, p)
            if theta_scaled(alg, polyspace.sigma(e)) != alg.s_antiautomorphism(theta_scaled(alg, e)):
                yield f"unit {tuple(p)}"
    rep.check("correspond.sigma_s", "theta . sigma = S . theta on every monomial", N, failures())
    return rep


def check_c1_phi(N, basepoint) -> Report:
    """theta conjugates the first Casimir-type operator into left multiplication
    by the central element."""
    rep = Report()
    alg = t_algebra(N, basepoint)

    def failures():
        phi = alg.phi_central()
        for p in polyspace.enumerate_profiles(N):
            e = PolyVec.unit(MONOMIAL, p)
            if theta_scaled(alg, polyspace.apply_C(1, e)) != phi @ theta_scaled(alg, e):
                yield f"unit {tuple(p)}"
    rep.check("correspond.c1_phi", "theta . C_1 = (phi . ) . theta", N, failures())
    return rep


def wedderburn_correspondence(N, basepoint) -> Report:
    """theta maps the graded summands onto the central ideals, by exact mutual
    span containment for every level."""
    rep = Report()
    alg = t_algebra(N, basepoint)

    def failures():
        summands = polyspace.graded_decomposition(1, N)
        for (ell, vecs), (ell2, _, ideal) in zip(summands, alg.wedderburn()):
            if ell != ell2:
                yield f"summand level {ell} is paired with ideal level {ell2}"
            image_rows = [theta_scaled(alg, v).coord_vector() for v in vecs.values()]
            if not spans_match(image_rows, [b.coord_vector() for b in ideal]):
                yield f"level {ell}"
    rep.check("correspond.wedderburn", "theta images of the graded summands span the central ideals, level by level", N, failures())
    return rep
