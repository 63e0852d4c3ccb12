"""One measured process of the benchmark: a fresh interpreter that imports the
package, sets up, runs its operations, then prints one JSON line.

    python3 child.py WORKLOAD SIZE SEED SPAWNED MODE TRACE SECONDS

SPAWNED is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is system-wide on Linux), so setup_s covers interpreter
start, imports and, for lib-maps, building the algebras.  MODE is "setup"
(set up, then exit), "op" (verify-n2: one cli.run call; lib-maps: queries
for SECONDS), "fixed" (verify-n2: one call; lib-maps: the first
TRACE_QUERIES queries of the seed) or "pool" (verify-n2 with a process pool).
"""

import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _rusage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(me.ru_maxrss, kids.ru_maxrss) * 1024 / 1e6,
        "children_cpu_s": kids.ru_utime + kids.ru_stime,
    }


def run_verify(cfg):
    from sl4cube import cli

    t0 = time.perf_counter()
    try:
        report, status = cli.run(cfg)
        failed = len(report.failures)
        attempted = sum(c.status != "skipped" for c in report.checks)
    except Exception:
        # a suite that raises is a failed check, not a crashed benchmark
        traceback.print_exc()
        status, failed, attempted = None, 1, 1
    elapsed = time.perf_counter() - t0
    return {
        "elapsed_s": elapsed,
        "ok": status == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "workers": cfg.jobs,
    }


def run_queries(algs, size, seed, seconds=None, count=None):
    """Queries until `seconds` have passed or `count` are answered."""
    stream = workloads.queries(size, seed)
    latencies, failed = [], 0
    start = time.perf_counter()
    while (len(latencies) < count) if count is not None else (len(latencies) < 2 or time.perf_counter() - start < seconds):
        query = next(stream)
        t0 = time.perf_counter()
        try:
            ok = workloads.answer(algs, query)
        except Exception:
            traceback.print_exc()
            ok = False
        latencies.append(time.perf_counter() - t0)
        if not ok:
            failed += 1
            print(f"query failed: {query!r}", file=sys.stderr)
    return {
        "elapsed_s": sum(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "ok": failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "workers": 1,
    }


def main(argv):
    workload, size, seed, spawned, mode, trace, seconds = argv
    seed = int(seed)
    if not (SRC / "sl4cube").is_dir():
        print(f"no sl4cube package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sl4cube.cli  # noqa: F401  (what every verify call imports)

    rec = dump = None
    if trace == "1":
        import layers

        rec = layers.Recorder()
        layers.install(rec)
        dump = Path(tempfile.mkdtemp(prefix=".bench-trace-", dir=ROOT))
        layers.install_job_timer(rec, dump)

    if workload == "lib-maps":
        algs = workloads.build_algebras(size)
        t_ready = time.monotonic()
        if mode == "op":
            out = run_queries(algs, size, seed, seconds=float(seconds))
        elif mode == "fixed":
            out = run_queries(algs, size, seed, count=workloads.TRACE_QUERIES[size])
        else:
            out = {}
    else:
        cfg = workloads.suite_config(size, seed, jobs=workloads.POOL_JOBS if mode == "pool" else 1)
        t_ready = time.monotonic()
        out = run_verify(cfg) if mode != "setup" else {}
    out["setup_s"] = t_ready - float(spawned)
    out.update(_rusage())
    if rec is not None:
        layers.collect_forked(rec, dump)
        dump.rmdir()
        out["trace"] = rec.as_dict()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
