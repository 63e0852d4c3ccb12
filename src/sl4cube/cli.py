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
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import specialfn, suites
from .cube import N_CAP, t_algebra
from .exact import binomial
from .report import Report

ENV_PREFIX = "SL4CUBE_"

USAGE_ERROR = 2
VERIFY_FAILURE = 1


@dataclass
class SuiteConfig:
    n_min: int = 0
    n_max: int = 5
    suites: tuple = ("all",)
    oracle_n_max: int = 3
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
        if self.n_min < 0 or self.n_min > self.n_max:
            raise ValueError("need 0 <= n-min <= n-max")
        if self.oracle_n_max > self.n_max:
            raise ValueError("oracle-n-max must not exceed n-max")
        capped = sorted({"cube", "tensor", "correspond"} & set(self.selected()))
        if capped and self.n_max > N_CAP:
            raise ValueError(f"n-max {self.n_max} exceeds the cube cap {N_CAP} of suites {', '.join(capped)}")
        if self.output not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {self.output!r}")
        unknown = set(self.suites) - set(suites.SUITES) - {"all"}
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        if not 0 <= self.basepoint:
            raise ValueError("basepoint must be a vertex index")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def as_dict(self):
        return asdict(self)


def _job_rng(seed, suite, n):
    # string seeding hashes through sha512, so this is stable across processes
    return random.Random(f"{seed}:{suite}:{n}")


def _suite_report(suite, n, rng, oracle_n_max, base):
    if suite == "sl4":
        return suites.suite_sl4(rng)
    if suite == "poly":
        return suites.suite_poly(n, rng)
    if suite == "special":
        return suites.suite_special(n, rng, oracle_n_max)
    if suite == "cube":
        return suites.suite_cube(n, base, rng)
    if suite == "tensor":
        return suites.suite_tensor(n, base, oracle_n_max, rng)
    if suite == "correspond":
        return suites.suite_correspond(n, base, oracle_n_max, rng)
    raise ValueError(f"unknown suite {suite!r}")


def _run_job(job):
    """The checks of one (suite, N) job.

    An exception that escapes the suite, from code outside any one check,
    replaces the job's checks by one failing check "<suite>.completed" with
    witness "<Type>: <message>", so the run still ends in a report.
    """
    suite, n, cfg_tuple = job
    seed, oracle_n_max, basepoint = cfg_tuple
    rng = _job_rng(seed, suite, n)
    base = basepoint % (1 << n) if n else 0
    try:
        return _suite_report(suite, n, rng, oracle_n_max, base).checks
    except Exception as e:
        rep = Report()
        rep.check(f"{suite}.completed", "the suite runs to its end", n, [f"{type(e).__name__}: {e}"])
        return rep.checks


# Seconds each job of the default run (N <= 5, oracle-n-max 3) took alone in a
# fresh interpreter: median of three runs on a 2-core Xeon, Python 3.11. Jobs
# not listed took under 0.15 s. A larger oracle-n-max adds work that these
# figures do not count.
_JOB_SECONDS = {
    ("cube", 5): 1.2, ("correspond", 5): 0.88, ("tensor", 4): 0.72, ("poly", 5): 0.54,
    ("special", 5): 0.37, ("correspond", 4): 0.26, ("special", 4): 0.26, ("correspond", 3): 0.22,
    ("poly", 4): 0.20, ("cube", 4): 0.19, ("special", 3): 0.19, ("tensor", 3): 0.17,
}
_MEASURED_N_MAX = 5


def _submit_rank(job):
    """Sort key for the pool: jobs above the measured N first, higher N first
    (at N = 6 every suite but tensor, which is cheap above N = 4, takes longer
    than any N = 5 job), then the rest by descending measured seconds."""
    suite, n, _ = job
    beyond = n if n is not None and n > _MEASURED_N_MAX else 0
    return (-beyond, -_JOB_SECONDS.get((suite, n), 0))


def run(cfg: SuiteConfig):
    """Execute the configured suites; returns (report, exit_status)."""
    cfg.validate()
    jobs = []
    for suite in cfg.selected():
        if suite == "sl4":
            jobs.append((suite, None, (cfg.seed, cfg.oracle_n_max, cfg.basepoint)))
        else:
            for n in range(cfg.n_min, cfg.n_max + 1):
                jobs.append((suite, n, (cfg.seed, cfg.oracle_n_max, cfg.basepoint)))
    report = Report()
    if cfg.jobs > 1:
        # submit the longest jobs first so no worker starts one near the end;
        # the report keeps the canonical job order.  Under fork the pool starts
        # all its workers up front, so it gets no more than there are jobs.
        # Imported here: the pool loads multiprocessing, which a serial run
        # has no use for.
        from concurrent.futures import ProcessPoolExecutor

        order = sorted(range(len(jobs)), key=lambda k: _submit_rank(jobs[k]))
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
        payload = {"config": cfg.as_dict(), "checks": [c.as_dict() for c in report.checks]}
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
    v.add_argument("--n-min", type=int, default=_env_default("N_MIN", 0))
    v.add_argument("--n-max", type=int, default=_env_default("N_MAX", 5))
    v.add_argument(
        "--suite",
        action="append",
        default=None,
        choices=list(suites.SUITES) + ["all"],
        help="suite to run (repeatable; default all)",
    )
    v.add_argument(
        "--oracle-n-max",
        type=int,
        default=_env_default("ORACLE_N_MAX", None),
        help="cap for brute-force tensor oracles (default min(3, n-max))",
    )
    v.add_argument("--basepoint", type=int, default=_env_default("BASEPOINT", 0))
    v.add_argument("--output", choices=("json", "csv", "text"), default=_env_default("OUTPUT", "text"))
    v.add_argument("--seed", type=int, default=_env_default("SEED", 0))
    v.add_argument("--jobs", type=int, default=_env_default("JOBS", 1))

    t = sub.add_parser("table", help="emit an exact reference table")
    t.add_argument("--kind", required=True, choices=("transition", "krawtchouk", "dims", "wedderburn"))
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--out", default="-", help="output path, or - for stdout")
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        suite_list = tuple(args.suite) if args.suite else tuple(
            os.environ.get(ENV_PREFIX + "SUITE", "all").split(",")
        )
        oracle = args.oracle_n_max
        if oracle is None:
            oracle = min(3, args.n_max)
        cfg = SuiteConfig(
            n_min=args.n_min,
            n_max=args.n_max,
            suites=suite_list,
            oracle_n_max=oracle,
            basepoint=args.basepoint,
            output=args.output,
            seed=args.seed,
            jobs=args.jobs,
        )
        try:
            cfg.validate()
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
