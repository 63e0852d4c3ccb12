"""sl4cube benchmark runner (standard library only).

    python3 benchmarks/run.py --workload verify-n2 --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from src/.
verify-n2 starts every verify call in a fresh interpreter (child.py),
because a CLI user pays the import and the cold caches on every call, and
makes calls until --seconds have passed.  lib-maps sets up one client
process and sends it queries for --seconds.  op_p90_ms is the 90th
percentile of the run's operation times (verify calls or queries).

--trace 0 prints the end-to-end metrics; --trace 1 runs one fixed pass
untraced and the same pass traced, in separate processes, and prints the
per-layer metrics.  Every metric is printed as "workload name value unit";
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Machine metadata goes on a line starting
"# meta".

Exit status: 0 when every output check passed, 1 when one failed (the result
is still printed), 2 when the benchmark itself could not run (no result).
The harness pins no CPU and controls no cache; the Fraction calibration loop
timed before and after each run shows how fast the machine was at the time.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

# One run must end within this many seconds.
RUN_BUDGET_S = 170
# Extra set-up-only processes per run; each measuring process adds one sample.
SETUP_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def calibrate():
    """Seconds for a fixed pure-Python Fraction loop."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(1, 60_000):
        acc += (Fraction(k, k + 1) * Fraction(k + 3, k + 2)).numerator % 7
    return time.perf_counter() - t0


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def spawn(workload, size, seed, mode, trace, deadline, seconds=0):
    """Run child.py once; returns its JSON result."""
    spawned = time.monotonic()
    args = [sys.executable, str(CHILD), workload, size, str(seed), repr(spawned), mode, str(int(trace)), repr(seconds)]
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as e:
        # the child's session holds its pool workers too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            raise BenchError(f"{workload}: the run took longer than {RUN_BUDGET_S} s") from None
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: measuring process exited with status {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload, size, seed, seconds, deadline):
    # an unmeasured start first, so every measured one finds compiled bytecode
    spawn(workload, size, seed, "setup", False, deadline)
    if workload == "lib-maps":
        results = [spawn(workload, size, seed, "op", False, deadline, seconds)]
        op_p90_ms = results[0]["op_p90_ms"]
    else:
        results = []
        t0 = time.monotonic()
        # two calls at least, the fewest a percentile is taken over
        while len(results) < 2 or time.monotonic() - t0 < seconds:
            results.append(spawn(workload, size, seed, "op", False, deadline))
        op_p90_ms = p90([r["elapsed_s"] for r in results]) * 1e3
    setups = [r["setup_s"] for r in results]
    setups += [spawn(workload, size, seed, "setup", False, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p90_ms": op_p90_ms,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    units = dict(END_TO_END)
    return results, {k: (v, units[k]) for k, v in metrics.items()}


def per_layer(workload, size, seed, deadline):
    plain = spawn(workload, size, seed, "fixed", False, deadline)
    traced = spawn(workload, size, seed, "fixed", True, deadline)
    values = layers.layer_values(traced["trace"])
    missing = [n for n in layers.expected_spans(workload) if not values[f"{n}.calls"]]
    if missing:
        raise BenchError(f"{workload}: no calls recorded for {', '.join(missing)}")
    results = [plain, traced]

    values["cli.pool_busy_s"] = values["cli.pool_idle_s"] = values["cli.pool_efficiency"] = 0.0
    if workload == "verify-n2":
        pool = spawn(workload, size, seed, "pool", False, deadline)
        results.append(pool)
        busy, wall = pool["children_cpu_s"], pool["workers"] * pool["elapsed_s"]
        values["cli.pool_busy_s"] = busy
        values["cli.pool_idle_s"] = wall - busy
        values["cli.pool_efficiency"] = busy / wall
    values["trace.overhead_ratio"] = traced["elapsed_s"] / plain["elapsed_s"] - 1
    units = {name: unit for name, unit, _ in layers.per_layer_metrics()}
    return results, {name: (values[name], unit) for name, unit in units.items()}


def run_workload(workload, size, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    before = calibrate()
    if trace:
        results, metrics = per_layer(workload, size, seed, deadline)
    else:
        results, metrics = end_to_end(workload, size, seed, seconds, deadline)
    meta = {
        "workload": workload,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "processes": len(results),
        "operations": sum(r["attempted"] if workload == "lib-maps" else 1 for r in results),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "src_lines": src_lines(),
        "calibration_s": {"before": before, "after": calibrate()},
        "pinning": "none: no CPU pinning, no cache control",
    }
    return {
        "correct": all(r["ok"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
        "meta": meta,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: a seconds-long pass for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sl4cube").is_dir():
        print(f"error: no sl4cube package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    try:
        for name in names:
            runs[name] = run_workload(name, args.size, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    for name, res in runs.items():
        print("# meta " + json.dumps(res["meta"]))
        for metric, (value, unit) in res["metrics"].items():
            print(f"{name} {metric} {value!r} {unit}")
    bad = [name for name, res in runs.items() if not res["correct"]]
    for name in bad:
        print(f"error: {name}: {runs[name]['failed']} output checks failed", file=sys.stderr)

    def as_json(metrics):
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    result = {
        "correct": not bad,
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": (
            as_json(runs[names[0]]["metrics"])
            if len(names) == 1
            else {name: as_json(r["metrics"]) for name, r in runs.items()}
        ),
    }
    print(json.dumps(result))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
