"""Verification report plumbing shared by the check suites and the CLI."""

from typing import NamedTuple


PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

_PASSED = object()


class Check(NamedTuple):
    """Outcome of one verified identity.

    ``anchor`` states the identity being checked in formula form; ``witness``
    is present exactly when the check failed and pins down a failing instance.
    """

    id: str
    anchor: str
    n: int | None
    status: str
    witness: str | None = None

    def as_dict(self):
        d = self._asdict()
        if self.witness is None:
            del d["witness"]
        return d


def unless(holds, witness):
    """The failures of a one-condition check: witness, unless holds() is true."""
    if not holds():
        yield witness


def completes(fn):
    """The failures of a check that certifies by raising: none, once fn() returns."""
    fn()
    yield from ()


def above(N, bound, name):
    """The skip reason "N > bound (name)" when N exceeds the named bound, else None."""
    return f"N > {bound} ({name})" if N > bound else None


class Report:
    def __init__(self):
        self.checks = []

    def check(self, id, anchor, n, failures, skip=None):
        """Record one check from a lazy iterable of witness strings.

        The check passes when the iterable yields nothing; otherwise the first
        value yielded is the witness.  An exception raised while drawing from
        the iterable fails the check with witness "<Type>: <message>".
        Returns whether the check passed.

        When ``skip`` is a reason string the check does not apply: it is
        recorded as skipped, with the reason in its anchor, nothing is drawn
        from ``failures``, and None is returned.
        """
        if skip is not None:
            self.checks.append(Check(id, f"{anchor} [skipped: {skip}]", n, SKIPPED))
            return None
        try:
            witness = next(iter(failures), _PASSED)
        except Exception as e:
            witness = f"{type(e).__name__}: {e}"
        ok = witness is _PASSED
        self.checks.append(Check(id, anchor, n, PASS) if ok else Check(id, anchor, n, FAIL, witness))
        return ok

    def extend(self, other):
        self.checks.extend(other.checks)

    @property
    def passed(self):
        return all(c.status != FAIL for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if c.status == FAIL]
