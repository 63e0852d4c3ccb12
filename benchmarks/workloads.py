"""The workloads and their inputs; the seed picks every input.

verify-n2 is ``sl4cube verify --n-max 2 --oracle-n-max 2``: every suite at
N = 0..2 in one process, so every module runs.  lib-maps is one library
client in a closed loop over the 32 t-algebras of N = 5, one per basepoint:
each query maps a small polynomial with theta_scaled, applies each of the
six module operators, and checks the results against two identities.

Both are made of short operations that cost alike (about a second a verify
call, about a tenth of one a query), so that a run holds many of them: the
2-vCPU host this was written on alternates between two speeds about 2x
apart for spells of seconds to minutes, and the 90th percentile of many
like operations lands on the slower speed whatever the share of fast
spells, where the median or the mean of a few long ones does not.
"""

import random
from math import factorial

WORKLOADS = ("verify-n2", "lib-maps")

# verify-n2's SuiteConfig fields, per size.
VERIFY = {"full": {"n_max": 2, "oracle_n_max": 2}, "tiny": {"n_max": 2, "oracle_n_max": 2}}
# Workers of the traced run's extra verify-n2 call, the only load on the
# cli process pool (nproc = 2).
POOL_JOBS = 2

# lib-maps: the degree whose algebras are built, at every basepoint, before
# the first query; and the number of queries of a traced pass.
LIB_DEGREE = {"full": 5, "tiny": 3}
TRACE_QUERIES = {"full": 60, "tiny": 10}
COEFFS = (-3, -2, -1, 1, 2, 3)
GENERATORS = [(kind, k) for kind in ("A", "Astar") for k in (1, 2, 3)]


def suite_config(size, seed, jobs=1):
    from sl4cube.cli import SuiteConfig

    return SuiteConfig(seed=seed, jobs=jobs, **VERIFY[size])


def build_algebras(size):
    """Every t-algebra a lib-maps client queries, with both bases built."""
    from sl4cube.cube import t_algebra

    n = LIB_DEGREE[size]
    algs = {}
    for b in range(2**n):
        alg = algs[b] = t_algebra(n, b)
        alg.e_basis()
        alg.estar_basis()
    return algs


def queries(size, seed):
    """The endless query stream of one client: (basepoint, basis, terms), a
    1-4-term homogeneous polynomial of degree N with small integer
    coefficients."""
    from sl4cube import polyspace

    rng = random.Random(seed)
    n = LIB_DEGREE[size]
    profiles = [tuple(p) for p in polyspace.enumerate_profiles(n)]
    while True:
        b = rng.randrange(2**n)
        basis = rng.choice((polyspace.MONOMIAL, polyspace.STARRED))
        yield b, basis, {p: rng.choice(COEFFS) for p in rng.sample(profiles, rng.randint(1, 4))}


def answer(algs, query):
    """Run one query; True when, for each generator g of sl4 with module
    operator op, op(theta v) = theta(g v), and <theta v, theta v> = N! <v, v>."""
    from sl4cube import polyspace
    from sl4cube.correspond import theta_scaled
    from sl4cube.sl4core import GeneratorId

    b, basis, terms = query
    alg = algs[b]
    v = polyspace.PolyVec(basis, terms)
    image = theta_scaled(alg, v)
    for kind, k in GENERATORS:
        if alg.module_op(kind, k)(image) != theta_scaled(alg, polyspace.act_generator(GeneratorId(kind, k), v)):
            return False
    return image.inner(image) == factorial(alg.N) * polyspace.hermitian(v, v)
