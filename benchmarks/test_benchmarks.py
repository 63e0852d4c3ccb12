"""Tests of the benchmark itself, on tiny sizes.

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def tiny(workload, seed, trace, root=ROOT):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny", root=root)


@pytest.fixture(scope="module")
def traced_twice():
    return [bench("--workload", "all", "--seed", "5", "--seconds", "1", "--trace", "1", "--size", "tiny") for _ in range(2)]


def test_spec_lists_every_workload():
    import layers
    import workloads

    assert WORKLOADS == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in layers.per_layer_metrics()
    ]


def test_tiny_pass_prints_every_end_to_end_metric():
    proc, result = bench("--workload", "all", "--seed", "3", "--seconds", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name in WORKLOADS:
        got = result["metrics"][name]
        assert {k: v["unit"] for k, v in got.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(v["value"] > 0 for v in got.values()), got
        for m in SPEC["end_to_end"]:
            assert f"{name} {m['name']} " in proc.stdout


def test_tiny_traced_pass_prints_every_per_layer_metric(traced_twice):
    proc, result = traced_twice[0]
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    for name in WORKLOADS:
        got = result["metrics"][name]
        assert {k: v["unit"] for k, v in got.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    pool = result["metrics"]["verify-n2"]
    assert pool["cli.pool_busy_s"]["value"] > 0
    assert 0 < pool["cli.pool_efficiency"]["value"] <= 1


def test_traced_call_counts_repeat(traced_twice):
    (_, first), (_, second) = traced_twice
    for name in WORKLOADS:
        a, b = (
            {k: v["value"] for k, v in r["metrics"][name].items() if k.endswith(".calls")}
            for r in (first, second)
        )
        assert a == b
        assert sum(a.values()) > 0


def _checkout(tmp_path):
    """A copy of the files the benchmark needs: BENCHMARK.json, its own
    directory and the package sources."""
    dst = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dst / "benchmarks", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(ROOT / "src", dst / "src", ignore=ignore)
    return dst


def test_wrong_output_fails_and_names_the_workload(tmp_path):
    root = _checkout(tmp_path)
    exact = root / "src" / "sl4cube" / "exact.py"
    exact.write_text(
        exact.read_text()
        + "\n\n_true_factorial = factorial\n\n\ndef factorial(n):\n    return _true_factorial(n) + (n == 2)\n"
    )
    for workload in WORKLOADS:
        proc, result = tiny(workload, 1, 0, root=root)
        assert proc.returncode == 1
        assert result is not None and not result["correct"] and result["failed"] > 0
        assert workload in proc.stderr


def test_missing_wrapped_name_fails_the_traced_run(tmp_path):
    root = _checkout(tmp_path)
    core = root / "src" / "sl4cube" / "sl4core.py"
    core.write_text(core.read_text().replace("def check_presentation(", "def check_presentation_renamed("))
    proc, result = tiny("verify-n2", 1, 1, root=root)
    assert proc.returncode == 2 and result is None
    assert "check_presentation" in proc.stderr


def test_without_sources_it_fails_without_a_result(tmp_path):
    dst = tmp_path / "bare"
    shutil.copytree(HERE, dst / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    proc, result = tiny("verify-n2", 1, 0, root=dst)
    assert proc.returncode != 0 and result is None
