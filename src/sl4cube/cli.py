"""Batch verification harness and exact table emitter.

``verify`` runs the selected check suites over a range of degrees and prints a
machine-readable report; the exit status is 0 only when every check passes.
``table`` writes exact-valued reference tables.  Options of ``verify`` may
also be supplied through SL4CUBE_-prefixed environment variables; explicit
flags win, and a malformed value is a usage error naming its flag.
"""

import csv
import json
import os
import random
import sys
from fractions import Fraction
from typing import NamedTuple

from . import specialfn, suites
from .cube import N_CAP, t_algebra
from .exact import binomial
from .report import Report

ENV_PREFIX = "SL4CUBE_"

USAGE_ERROR = 2
VERIFY_FAILURE = 1

# the brute-force oracles grow steeply with N: they take seconds at N = 4 and
# do not finish in minutes at N = 5
ORACLE_N_CEILING = 4
# the oracle cap when none is given: min(ORACLE_N_DEFAULT, n_max)
ORACLE_N_DEFAULT = 3


class SuiteConfig(NamedTuple):
    """One verify run; each field's default here is the one default of the
    library and of the command line.  oracle_n_max None means
    min(ORACLE_N_DEFAULT, n_max), which validate() fills in."""

    n_min: int = 0
    n_max: int = 5
    suites: tuple = ("all",)
    oracle_n_max: int | None = None
    basepoint: int = 0
    output: str = "text"
    seed: int = 0
    jobs: int = 1

    def selected(self):
        chosen = set(self.suites)
        if "all" in chosen:
            return list(suites.SUITES)
        return [s for s in suites.SUITES if s in chosen]

    def validate(self):
        """This config with oracle_n_max resolved; raises ValueError on a bad one."""
        if isinstance(self.suites, str):
            raise ValueError(f"suites must be a tuple of names from {('all', *suites.SUITES)}, not the string {self.suites!r}")
        if self.oracle_n_max is None:
            return self._replace(oracle_n_max=min(ORACLE_N_DEFAULT, self.n_max)).validate()
        if self.n_min < 0 or self.n_min > self.n_max:
            raise ValueError("need 0 <= n-min <= n-max")
        if not 0 <= self.oracle_n_max <= self.n_max:
            raise ValueError("need 0 <= oracle-n-max <= n-max")
        if self.oracle_n_max > ORACLE_N_CEILING:
            raise ValueError(f"oracle-n-max {self.oracle_n_max} exceeds the oracle ceiling {ORACLE_N_CEILING}")
        capped = sorted({"cube", "tensor", "correspond"} & set(self.selected()))
        if capped and self.n_max > N_CAP:
            raise ValueError(f"n-max {self.n_max} exceeds the cube cap {N_CAP} of suites {', '.join(capped)}")
        if self.output not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {self.output!r}")
        unknown = set(self.suites) - set(suites.SUITES) - {"all"}
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        # bit_length, not 2^n-min: no huge power is built for a huge n-min
        if self.basepoint < 0 or self.basepoint.bit_length() > self.n_min:
            raise ValueError(f"basepoint {self.basepoint} is not a vertex at N = {self.n_min}: need 0 <= basepoint < 2^n-min")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        return self


def _job_rng(seed, suite, n):
    # string seeding hashes through sha512, so this is stable across processes
    return random.Random(f"{seed}:{suite}:{n}")


def _run_job(job):
    """The checks of one (suite, N) job.

    An exception that escapes the suite, from code outside any one check,
    replaces the job's checks by one failing check "<suite>.completed" with
    witness "<Type>: <message>", so the run still ends in a report.
    """
    suite, n, (seed, oracle_n_max, basepoint) = job
    try:
        return suites.SUITES[suite](n, _job_rng(seed, suite, n), basepoint, oracle_n_max).checks
    except Exception as e:
        rep = Report()
        rep.check(f"{suite}.completed", "the suite runs to its end", n, [f"{type(e).__name__}: {e}"])
        return rep.checks


def run(cfg: SuiteConfig):
    """Execute the configured suites; returns (report, exit_status)."""
    cfg = cfg.validate()
    shared = (cfg.seed, cfg.oracle_n_max, cfg.basepoint)
    degrees = range(cfg.n_min, cfg.n_max + 1)
    jobs = [(suite, n, shared) for suite in cfg.selected() for n in ((None,) if suite == "sl4" else degrees)]
    report = Report()
    if cfg.jobs > 1:
        # submit by descending N, then in canonical order (sl4 counting as
        # N = 0): a job's cost grows with N, so no worker starts a long one
        # near the end.  The report keeps the canonical job order.  Under fork
        # the pool starts all its workers up front, so it gets no more than
        # there are jobs.  Imported here: the pool loads multiprocessing,
        # which a serial run has no use for.
        from concurrent.futures import ProcessPoolExecutor

        order = sorted(range(len(jobs)), key=lambda k: -(jobs[k][1] or 0))
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(jobs))) as pool:
            results = dict(zip(order, pool.map(_run_job, [jobs[k] for k in order])))
        for k in range(len(jobs)):
            report.checks.extend(results[k])
    else:
        for job in jobs:
            report.checks.extend(_run_job(job))
    return report, (0 if report.passed else VERIFY_FAILURE)


def render_report(report: Report, cfg: SuiteConfig, stream):
    if cfg.output == "json":
        payload = {"config": cfg._asdict(), "checks": [c.as_dict() for c in report.checks]}
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    elif cfg.output == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["id", "anchor", "n", "status", "witness"])
        for c in report.checks:
            writer.writerow([c.id, c.anchor, "" if c.n is None else c.n, c.status, c.witness or ""])
    else:
        for c in report.checks:
            n = "-" if c.n is None else c.n
            line = f"{c.status.upper():7s} n={n:<3} {c.id}: {c.anchor}"
            if c.witness:
                line += f"  [{c.witness}]"
            stream.write(line + "\n")
        failed = len(report.failures)
        stream.write(f"# {len(report.checks)} checks, {failed} failed\n")


def table_rows(kind, N):
    """Rows (as string tuples) for the requested exact reference table."""
    if kind == "dims":
        header = ("N", "dim")
        rows = [(str(n), str(binomial(n + 3, 3))) for n in range(N + 1)]
    elif kind == "transition":
        header = ("N", "s", "t", "u", "S", "T", "U", "P_value_num", "P_value_den")
        rows = [
            tuple(str(v) for v in (N, *lam, *mu, val.numerator, val.denominator))
            for (lam, mu), val in specialfn.transition_table(N).items()
        ]
    elif kind == "krawtchouk":
        header = ("N", "n", "power", "coeff_num", "coeff_den")
        fam = specialfn.krawtchouk(N)
        rows = []
        for n, poly in enumerate(fam.coeffs):
            for k, coef in enumerate(poly):
                f = Fraction(coef)
                rows.append(tuple(str(v) for v in (N, n, k, f.numerator, f.denominator)))
    elif kind == "wedderburn":
        header = ("l", "eigenvalue", "dim")
        # read off the certified decomposition: wedderburn raises unless each
        # ideal has the dimension and central eigenvalue it is listed with
        rows = [(str(l), str(lam), str(len(ideal))) for l, lam, ideal in t_algebra(N).wedderburn()]
    else:
        raise ValueError(f"unknown table kind {kind!r}")
    return header, rows


def emit_table(kind, N, path, fmt="csv"):
    header, rows = table_rows(kind, N)
    if fmt == "json":
        payload = {"kind": kind, "n": N, "columns": list(header), "rows": [list(r) for r in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(header)] + [",".join(r) for r in rows]
        text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _env_default(name, fallback):
    # the raw string: argparse converts a string default through the option's
    # type only when verify is parsed without that flag, and reports a bad one
    return os.environ.get(ENV_PREFIX + name, fallback)


def build_parser():
    import argparse  # deferred: a library client that never parses arguments does not load it

    parser = argparse.ArgumentParser(prog="sl4cube", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites over a degree range")
    default = SuiteConfig._field_defaults
    helps = {
        "oracle_n_max": f"cap for brute-force tensor oracles, at most {ORACLE_N_CEILING} (default min({ORACLE_N_DEFAULT}, n-max))",
        "basepoint": "index of the base vertex, below 2^n-min",
    }
    for name in ("n_min", "n_max", "oracle_n_max", "basepoint", "seed", "jobs"):
        flag = "--" + name.replace("_", "-")
        v.add_argument(flag, type=int, default=_env_default(name.upper(), default[name]), help=helps.get(name))
    # the SL4CUBE_SUITE list is read in main: an appended option takes no string default
    v.add_argument(
        "--suite", dest="suites", action="append", choices=[*suites.SUITES, "all"], help="suite to run (repeatable; default all)"
    )
    v.add_argument("--output", choices=("json", "csv", "text"), default=_env_default("OUTPUT", default["output"]))

    t = sub.add_parser("table", help="emit an exact reference table")
    t.add_argument("--kind", required=True, choices=("transition", "krawtchouk", "dims", "wedderburn"))
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--out", default="-", help="output path, or - for stdout")
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        args.suites = tuple(args.suites or _env_default("SUITE", ",".join(SuiteConfig._field_defaults["suites"])).split(","))
        try:
            cfg = SuiteConfig(**{name: getattr(args, name) for name in SuiteConfig._fields}).validate()
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return USAGE_ERROR
        report, status = run(cfg)
        render_report(report, cfg, sys.stdout)
        return status
    if args.command == "table":
        if args.n < 0:
            print("error: n must be >= 0", file=sys.stderr)
            return USAGE_ERROR
        if args.kind == "wedderburn" and args.n > N_CAP:
            print(f"error: n {args.n} exceeds the cube cap {N_CAP} of the wedderburn table", file=sys.stderr)
            return USAGE_ERROR
        try:
            emit_table(args.kind, args.n, args.out, args.format)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        return 0
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
