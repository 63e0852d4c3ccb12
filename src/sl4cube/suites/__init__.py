"""Per-module verification suites: every identity the package certifies, as checks.

Every suite takes (N, rng, basepoint, oracle_n_max), with N None for the
degree-free sl4 suite, and is reached by name through SUITES, in report
order; a suite ignores the arguments it has no use for.  Each returns a
Report with every one of its check ids at every N: pass, fail with a
witness, or skipped with the reason, such as the oracle cap, that the check
does not apply.  Each check builds what it needs inside its own body (inputs
shared by several checks once, through a cached local), so a raise while
building fails those checks and the others still run.  Randomized spot
checks draw from the caller's seeded PRNG so reports are reproducible.
"""

from .correspond import suite_correspond
from .cube import suite_cube
from .poly import suite_poly
from .sl4 import suite_sl4
from .special import suite_special
from .tensor import suite_tensor

# every suite by name, in report order
SUITES = {
    "sl4": suite_sl4,
    "poly": suite_poly,
    "special": suite_special,
    "cube": suite_cube,
    "tensor": suite_tensor,
    "correspond": suite_correspond,
}
