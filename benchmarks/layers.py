"""Per-module call counts and self times, recorded around public functions.

Spans are recorded only from the benchmark's side: each wrapped name is a
public function or method of one ``sl4cube`` module, replaced for the life of
one traced process.  A module-level function is replaced in every ``sl4cube``
module that bound it (``from .linalg import rank`` makes ``correspond.rank``
and ``polyspace.rank`` separate lookups), a method on its class.

A wrapped call's self time is its duration minus the durations of the wrapped
calls made inside it, in the same process.
"""

import functools
import importlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter

# (module, dotted attribute) for every wrapped public name.  Metric names are
# "<module>.<attribute>.calls" and "<module>.<attribute>.self_s".
WRAPPED = (
    ("correspond", "check_ddag"),
    ("correspond", "check_eps"),
    ("correspond", "check_theta"),
    ("correspond", "sigma_S_diagram"),
    ("correspond", "check_c1_phi"),
    ("correspond", "wedderburn_correspondence"),
    ("correspond", "theta_scaled"),
    ("correspond", "eps_scaled_fix"),
    ("cube", "TElem.__matmul__"),
    ("cube", "TElem.inner"),
    ("cube", "TAlgebra.e_basis"),
    ("cube", "TAlgebra.e_coords"),
    ("cube", "TAlgebra.wedderburn"),
    ("cube", "TAlgebra.phi_idempotents"),
    ("cube", "TAlgebra.s_antiautomorphism"),
    ("cube", "t_algebra"),
    ("polyspace", "hermitian"),
    ("polyspace", "convert_basis"),
    ("polyspace", "act_generator"),
    ("polyspace", "graded_decomposition"),
    ("polyspace", "PolyVec.__init__"),
    ("specialfn", "transition_table"),
    ("specialfn", "calP_sum"),
    ("specialfn", "calP_genfunc"),
    ("specialfn", "check_orthogonality"),
    ("specialfn", "check_recurrences"),
    ("specialfn", "krawtchouk"),
    ("tensorspace", "q_vector"),
    ("tensorspace", "act_abstract"),
    ("tensorspace", "act_concrete"),
    ("tensorspace", "fix_membership"),
    ("tensorspace", "full_group"),
    ("linalg", "rank"),
    ("linalg", "independent_rows"),
    ("linalg", "Mat.__matmul__"),
    ("sl4core", "check_presentation"),
)

# The closures TAlgebra.module_op returns are recorded per operator kind.
MODULE_OP_KINDS = ("A", "Astar")

# The wrapped names every lib-maps query or its set-up calls.
LIB_MAPS_SPANS = (
    "correspond.theta_scaled",
    "cube.TElem.inner",
    "cube.TAlgebra.e_basis",
    "cube.TAlgebra.e_coords",
    "cube.TAlgebra.module_op.A",
    "cube.TAlgebra.module_op.Astar",
    "cube.t_algebra",
    "polyspace.hermitian",
    "polyspace.convert_basis",
    "polyspace.act_generator",
    "polyspace.PolyVec.__init__",
)

# Every (suite, N) job verify-n2 runs; sl4 has no degree.
SUITE_JOBS = [("sl4", None)] + [
    (s, n) for s in ("poly", "special", "cube", "tensor", "correspond") for n in range(3)
]


def span_names():
    names = [f"{mod}.{attr}" for mod, attr in WRAPPED]
    names[names.index("cube.t_algebra"):0] = [f"cube.TAlgebra.module_op.{k}" for k in MODULE_OP_KINDS]
    return names


def expected_spans(workload):
    """The wrapped names that must record calls on a workload's traced pass."""
    if workload == "lib-maps":
        return LIB_MAPS_SPANS
    return span_names()


def job_metric(suite, n):
    return f"suites.{suite}.total_s" if n is None else f"suites.{suite}.n{n}.total_s"


def per_layer_metrics():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name == "polyspace.convert_basis":
            out.append(("polyspace.convert_basis.same_basis_ratio", "ratio", "lower"))
    out += [(job_metric(s, n), "s", "lower") for s, n in SUITE_JOBS]
    out += [
        ("cli.pool_busy_s", "s", "lower"),
        ("cli.pool_idle_s", "s", "lower"),
        ("cli.pool_efficiency", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


class Recorder:
    """Call counts and self times of one process, keyed by span name."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = {}  # name -> [calls, self seconds]
        self.jobs = {}  # job metric -> seconds
        self.same_basis = 0
        self._stack = []

    def reset_if_forked(self):
        # a pool worker forked from a traced process starts from the parent's
        # numbers; it reports only its own work.  Installed wrappers hold their
        # entries, so those are zeroed in place.
        if os.getpid() == self.pid:
            return
        self.pid = os.getpid()
        for entry in self.spans.values():
            entry[0], entry[1] = 0, 0.0
        self.jobs.clear()
        self.same_basis = 0

    def wrap(self, name, fn):
        entry = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                entry[0] += 1
                entry[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return wrapper

    def as_dict(self):
        return {"spans": self.spans, "jobs": self.jobs, "same_basis": self.same_basis}

    def merge(self, other):
        for name, (calls, self_s) in other["spans"].items():
            entry = self.spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for name, secs in other["jobs"].items():
            self.jobs[name] = self.jobs.get(name, 0.0) + secs
        self.same_basis += other["same_basis"]


def _resolve(mod, attr):
    owner = mod
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(rec: Recorder):
    """Replace every wrapped name; raises AttributeError when one is missing."""
    mods = {name: importlib.import_module(f"sl4cube.{name}") for name, _ in WRAPPED}
    pkg = [m for name, m in sys.modules.items() if name.startswith("sl4cube.")]
    for modname, attr in WRAPPED:
        mod = mods[modname]
        owner, leaf, orig = _resolve(mod, attr)
        wrapped = rec.wrap(f"{modname}.{attr}", orig)
        if owner is not mod:
            setattr(owner, leaf, wrapped)
            continue
        for m in pkg:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)

    convert = mods["polyspace"].convert_basis

    def counted_convert(v, target):
        if v.basis == target:
            rec.same_basis += 1
        return convert(v, target)

    for m in pkg:
        for key, val in list(vars(m).items()):
            if val is convert:
                setattr(m, key, counted_convert)

    TAlgebra = mods["cube"].TAlgebra
    module_op = TAlgebra.module_op

    def traced_module_op(self, kind, k):
        return rec.wrap(f"cube.TAlgebra.module_op.{kind}", module_op(self, kind, k))

    TAlgebra.module_op = traced_module_op


def install_job_timer(rec: Recorder, dump_dir: Path):
    """Time each (suite, N) job; a forked pool worker writes its numbers to
    dump_dir after every job, since it exits without running exit handlers."""
    cli = sys.modules["sl4cube.cli"]
    run_job = cli._run_job
    parent = os.getpid()

    @functools.wraps(run_job)
    def timed_job(job):
        rec.reset_if_forked()
        suite, n, _ = job
        t0 = perf_counter()
        try:
            return run_job(job)
        finally:
            name = job_metric(suite, n)
            rec.jobs[name] = rec.jobs.get(name, 0.0) + perf_counter() - t0
            if os.getpid() != parent:
                (dump_dir / f"{os.getpid()}.json").write_text(json.dumps(rec.as_dict()))

    # functools.wraps keeps the qualified name, so the pool pickles this
    # wrapper by reference to cli._run_job and a forked worker finds it there
    cli._run_job = timed_job


def collect_forked(rec: Recorder, dump_dir: Path):
    for path in sorted(dump_dir.glob("*.json")):
        rec.merge(json.loads(path.read_text()))
        path.unlink()


def layer_values(trace):
    """Per-layer metric values from one traced pass (Recorder.as_dict form);
    the pool and overhead metrics come from the runner."""
    spans, jobs = trace["spans"], trace["jobs"]
    out = {}
    for name in span_names():
        calls, self_s = spans.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    convert_calls = spans.get("polyspace.convert_basis", (0, 0.0))[0]
    out["polyspace.convert_basis.same_basis_ratio"] = (
        trace["same_basis"] / convert_calls if convert_calls else 0.0
    )
    for s, n in SUITE_JOBS:
        out[job_metric(s, n)] = jobs.get(job_metric(s, n), 0.0)
    return out
