"""The 4x4 matrix realization of sl4: six generators, presentation, basis, tau.

Generators come in two triples.  A_1, A_2, A_3 are the permutation matrices
swapping coordinate pairs (12)(34), (13)(24), (14)(23); the starred triple is
diagonal with entries +-1.  Together they generate all traceless 4x4 matrices,
and the involution tau = conjugation by the Hadamard-like matrix Upsilon swaps
A_i with A*_i.  ``casimir_form`` is the one Casimir-type form of a pair of
operators, read by every realization.
"""

from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

from .linalg import Mat, rank
from .report import Report, unless


class GeneratorId(NamedTuple):
    kind: str  # "A" or "Astar"
    index: int  # 1, 2, or 3


# The six generators, plain triple first: the one list the package iterates.
GENERATORS = tuple(GeneratorId(kind, k) for kind in ("A", "Astar") for k in (1, 2, 3))


def intertwining_failures(units, image, act_before, act_after):
    """The witness "<kind>^(<k>) on <tag> unit <p>" wherever image fails to
    carry one generator's action into another's: image(act_before(gid, u))
    against act_after(gid, image(u)), over units {tag: {profile: unit}}, tag
    by tag, then generator by generator.  Each unit's image is taken once."""
    for tag, vecs in units.items():
        images = {p: image(u) for p, u in vecs.items()}
        for gid in GENERATORS:
            for p, u in vecs.items():
                if image(act_before(gid, u)) != act_after(gid, images[p]):
                    yield f"{gid.kind}^({gid.index}) on {tag} unit {tuple(p)}"

_A = {
    1: Mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    2: Mat([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]),
    3: Mat([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
}

_ASTAR = {
    1: Mat.diag([1, 1, -1, -1]),
    2: Mat.diag([1, -1, 1, -1]),
    3: Mat.diag([1, -1, -1, 1]),
}

# The +-1 Hadamard matrix H; Upsilon = H/2, and H is symmetric with H^2 = 4 I.
# Its rows also give the change of variables between the two polynomial bases
# (polyspace._product_expansion), and tau through it the derivation forms of
# the generators in the starred basis.
_H = Mat(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ]
)

UPSILON = Fraction(1, 2) * _H


def generator(gid: GeneratorId) -> Mat:
    kind, index = gid
    if kind == "A":
        return _A[index]
    if kind == "Astar":
        return _ASTAR[index]
    raise ValueError(f"unknown generator kind {kind!r}")


def bracket(x: Mat, y: Mat) -> Mat:
    return x @ y - y @ x


def casimir_form(X, Y, v):
    """(4 X^2 + 4 Y^2 - [X, Y]^2) / 8 applied to v, for two operators given as
    functions on any carrier with +, - and scalar c * v: the Casimir-type
    operators C_i on polynomials and the central element phi of T."""
    comm = lambda w: X(Y(w)) - Y(X(w))
    return Fraction(1, 8) * (4 * X(X(v)) + 4 * Y(Y(v)) - comm(comm(v)))


def tau(m: Mat) -> Mat:
    """Conjugation by Upsilon; an involution since Upsilon squares to I.

    Computed as the product H m H, with one division by 4 per entry: an int
    where that division is exact, else a Fraction, so non-integral input
    stays exact.
    """
    return Mat._of([[e // 4 if e % 4 == 0 else Fraction(e, 4) for e in row] for row in (_H @ m @ _H).rows])


def basis15():
    """The 15 matrices spanning sl4, built from the six generators.

    Raises if the list fails to have exact rank 15 when flattened, which would
    signal a broken generator table.
    """
    a1, a2, a3 = _A[1], _A[2], _A[3]
    b1, b2, b3 = _ASTAR[1], _ASTAR[2], _ASTAR[3]
    basis = [
        a1, a2, a3, b1, b2, b3,
        bracket(a1, b2), bracket(a2, b3), bracket(a3, b1),
        bracket(b1, a2), bracket(b2, a3), bracket(b3, a1),
        bracket(b1, bracket(b2, a3)),
        bracket(b2, bracket(b3, a1)),
        bracket(b3, bracket(b1, a2)),
    ]
    if rank([m.flatten() for m in basis]) != 15:
        raise ArithmeticError("generator brackets do not span a 15-dimensional space")
    return basis


def _elem(i, j):
    return Mat([[1 if (r, c) == (i - 1, j - 1) else 0 for c in range(4)] for r in range(4)])


# Inverse-map formulas expressing each elementary matrix through the
# generators.  Each entry: target E_{i,j}, main generator index g, the two
# starred indices (p, q), and the three signs on the correction terms in
# (4 A_g + s1*2[A*_p, A_g] + s2*2[A*_q, A_g] + s3*[A*_p, [A*_q, A_g]]) / 16.
_OFFDIAG_FORMULAS = [
    ((1, 2), 1, 2, 3, (1, 1, 1)),
    ((2, 1), 1, 2, 3, (-1, -1, 1)),
    ((3, 4), 1, 2, 3, (1, -1, -1)),
    ((4, 3), 1, 2, 3, (-1, 1, -1)),
    ((1, 3), 2, 3, 1, (1, 1, 1)),
    ((3, 1), 2, 3, 1, (-1, -1, 1)),
    ((4, 2), 2, 3, 1, (1, -1, -1)),
    ((2, 4), 2, 3, 1, (-1, 1, -1)),
    ((1, 4), 3, 1, 2, (1, 1, 1)),
    ((4, 1), 3, 1, 2, (-1, -1, 1)),
    ((2, 3), 3, 1, 2, (1, -1, -1)),
    ((3, 2), 3, 1, 2, (-1, 1, -1)),
]

# Diagonal differences E_{i,i} - E_{i+1,i+1} as half-sums of starred generators.
_DIAG_FORMULAS = [
    (1, (2, 1), (3, 1)),   # (A*_2 + A*_3)/2
    (2, (1, 1), (2, -1)),  # (A*_1 - A*_2)/2
    (3, (2, 1), (3, -1)),  # (A*_2 - A*_3)/2
]


def elementary_from_generators(i, j):
    """Evaluate the generator-word formula for E_{i,j} (i != j) or, when i == j
    in 1..3, for the diagonal difference E_{i,i} - E_{i+1,i+1}."""
    if i == j:
        for row, (p, sp), (q, sq) in _DIAG_FORMULAS:
            if row == i:
                return Fraction(1, 2) * (sp * _ASTAR[p] + sq * _ASTAR[q])
        raise ValueError("diagonal case must have i in 1..3")
    for (ti, tj), g, p, q, (s1, s2, s3) in _OFFDIAG_FORMULAS:
        if (ti, tj) == (i, j):
            ag = _A[g]
            t1 = bracket(_ASTAR[p], ag)
            t2 = bracket(_ASTAR[q], ag)
            t3 = bracket(_ASTAR[p], bracket(_ASTAR[q], ag))
            return Fraction(1, 16) * (4 * ag + 2 * s1 * t1 + 2 * s2 * t2 + s3 * t3)
    raise ValueError(f"no formula for ({i}, {j})")


def elementary_targets():
    """Pairs (formula value, expected matrix) for every inverse-map formula."""
    out = []
    for (i, j), *_ in _OFFDIAG_FORMULAS:
        out.append(((i, j), elementary_from_generators(i, j), _elem(i, j)))
    for row, *_ in _DIAG_FORMULAS:
        out.append(((row, row), elementary_from_generators(row, row), _elem(row, row) - _elem(row + 1, row + 1)))
    return out


def check_presentation() -> Report:
    """Evaluate every instance of the defining relations on the generator matrices."""
    rep = Report()
    zero = Mat.zeros(4, 4)
    commute = lambda X, Y: lambda: bracket(X, Y) == zero
    serre = lambda X, Y: lambda: bracket(X, bracket(X, Y)) == 4 * Y
    for i, j in permutations((1, 2, 3), 2):
        rep.check(f"presentation.commute.A{i}A{j}", f"[A_{i}, A_{j}] = 0", None, unless(commute(_A[i], _A[j]), f"[A_{i}, A_{j}] != 0"))
        rep.check(
            f"presentation.commute.As{i}As{j}", f"[A*_{i}, A*_{j}] = 0", None, unless(commute(_ASTAR[i], _ASTAR[j]), f"[A*_{i}, A*_{j}] != 0")
        )
    for i in (1, 2, 3):
        rep.check(f"presentation.commute.A{i}As{i}", f"[A_{i}, A*_{i}] = 0", None, unless(commute(_A[i], _ASTAR[i]), f"[A_{i}, A*_{i}] != 0"))
    for i, j in permutations((1, 2, 3), 2):
        anchor = f"[A_{i}, [A_{i}, A*_{j}]] = 4 A*_{j}"
        rep.check(f"presentation.serre.A{i}As{j}", anchor, None, unless(serre(_A[i], _ASTAR[j]), f"fails at (i, j) = ({i}, {j})"))
        anchor = f"[A*_{j}, [A*_{j}, A_{i}]] = 4 A_{i}"
        rep.check(f"presentation.serre.As{j}A{i}", anchor, None, unless(serre(_ASTAR[j], _A[i]), f"fails at (j, i) = ({j}, {i})"))

    def triple(h, i, j):
        vals = [
            bracket(_A[h], bracket(_ASTAR[i], _A[j])),
            bracket(_ASTAR[h], bracket(_A[i], _ASTAR[j])),
            bracket(_A[j], bracket(_ASTAR[i], _A[h])),
            bracket(_ASTAR[j], bracket(_A[i], _ASTAR[h])),
        ]
        if any(v != vals[0] for v in vals[1:]):
            yield f"fails at (h, i, j) = ({h}, {i}, {j})"
    anchor = "[A_h, [A*_i, A_j]] = [A*_h, [A_i, A*_j]] = [A_j, [A*_i, A_h]] = [A*_j, [A_i, A*_h]]"
    for h, i, j in permutations((1, 2, 3)):
        rep.check(f"presentation.triple.{h}{i}{j}", anchor, None, triple(h, i, j))
    return rep
