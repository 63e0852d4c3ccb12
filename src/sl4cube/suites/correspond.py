"""The correspondences between the three realizations."""

from .. import correspond
from ..report import Report, second_basepoint_skip


def suite_correspond(N, rng, basepoint, oracle_n_max) -> Report:
    rep = Report()
    rep.extend(correspond.check_ddag(N, oracle_n_max))
    rep.extend(correspond.check_eps(N, basepoint, oracle_n_max))
    rep.extend(correspond.check_theta(N, basepoint, oracle_n_max))
    rep.extend(correspond.sigma_S_diagram(N, basepoint))
    rep.extend(correspond.check_c1_phi(N, basepoint))
    rep.extend(correspond.wedderburn_correspondence(N, basepoint))

    def verbatim():
        sub = Report()
        sub.extend(correspond.check_theta(N, 1, oracle_n_max))
        sub.extend(correspond.wedderburn_correspondence(N, 1))
        if not sub.passed:
            yield "; ".join(c.id for c in sub.failures)
    second = second_basepoint_skip(N, basepoint, 3)
    rep.check("correspond.basepoint_independence", "the correspondences hold verbatim at a second basepoint", N, verbatim(), skip=second)
    return rep
