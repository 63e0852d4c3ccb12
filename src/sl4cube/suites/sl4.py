"""The matrix realization: the presentation, basis and tau of sl4 on 4x4 matrices."""

import functools

from .. import sl4core
from ..linalg import Mat, rank
from ..report import Report, completes, unless
from ..sl4core import GeneratorId


def suite_sl4(N, rng, basepoint, oracle_n_max) -> Report:
    rep = Report()
    rep.extend(sl4core.check_presentation())
    tau, bracket, U = sl4core.tau, sl4core.bracket, sl4core.UPSILON
    rep.check("sl4.upsilon_involution", "Upsilon^2 = I", None, unless(lambda: U @ U == Mat.identity(4), "Upsilon^2 != I"))
    pairs = [(k, sl4core.generator(GeneratorId("A", k)), sl4core.generator(GeneratorId("Astar", k))) for k in (1, 2, 3)]
    rep.check(
        "sl4.intertwine_upsilon",
        "A_i Upsilon = Upsilon A*_i and A*_i Upsilon = Upsilon A_i",
        None,
        (f"index {k}" for k, a, b in pairs if a @ U != U @ b or b @ U != U @ a),
    )

    basis = functools.cache(sl4core.basis15)  # certifies its rank by raising
    rep.check("sl4.basis15.rank", "the 15 bracket words are linearly independent", None, completes(basis))

    def traceless():
        yield from (f"basis matrix {k} has trace {m.trace()}" for k, m in enumerate(basis()) if m.trace() != 0)
    rep.check("sl4.basis15.trace", "every basis matrix is traceless", None, traceless())
    rep.check("sl4.tau_swaps", "tau swaps A_i with A*_i", None, (f"index {k}" for k, a, b in pairs if tau(a) != b or tau(b) != a))

    def tau_lie_map():
        images = [tau(x) for x in basis()]
        for x, tx in zip(basis(), images):
            if tau(tx) != x:
                yield "involution fails"
            for y, ty in zip(basis(), images):
                if tau(bracket(x, y)) != bracket(tx, ty):
                    yield "bracket compatibility fails"
    rep.check("sl4.tau_lie_map", "tau^2 = id and tau[X, Y] = [tau X, tau Y] on the basis", None, tau_lie_map())

    elementary = (f"formula for ({i}, {j})" for (i, j), got, want in sl4core.elementary_targets() if got != want)
    rep.check("sl4.elementary", "every inverse-map formula reproduces its elementary matrix", None, elementary)

    def six_independent():
        for j, k in ((1, 2), (2, 3), (1, 3)):
            (_, aj, bj), (_, ak, bk) = pairs[j - 1], pairs[k - 1]
            if rank([m.flatten() for m in (aj, ak, bj, bk, bracket(aj, bk), bracket(bj, ak))]) != 6:
                yield f"pair ({j}, {k})"
    rep.check("sl4.six_independent", "A_j, A_k, A*_j, A*_k and two brackets are independent", None, six_independent())
    return rep
