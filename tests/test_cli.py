import concurrent.futures
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sl4cube import cli, cube, suites
from sl4cube.cli import SuiteConfig


def small_cfg(**kw):
    base = dict(n_min=0, n_max=1, suites=("sl4", "special"), oracle_n_max=1, seed=3)
    base.update(kw)
    return SuiteConfig(**base)


def test_run_passes_and_exit_zero():
    report, status = cli.run(small_cfg())
    assert status == 0
    assert report.passed
    assert any(c.id.startswith("presentation.") for c in report.checks)
    assert any(c.id.startswith("special.") for c in report.checks)


def test_config_validation():
    with pytest.raises(ValueError):
        cli.run(SuiteConfig(n_min=2, n_max=1))
    with pytest.raises(ValueError):
        cli.run(SuiteConfig(n_max=2, oracle_n_max=3))
    with pytest.raises(ValueError):
        cli.run(SuiteConfig(suites=("bogus",)))
    with pytest.raises(ValueError):
        cli.run(SuiteConfig(output="yaml"))


def test_n_max_above_cube_cap_is_a_usage_error(monkeypatch, capsys):
    def no_job(job):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "_run_job", no_job)
    argv = ["verify", "--suite", "cube", "--n-min", "9", "--n-max", "9", "--oracle-n-max", "0"]
    assert cli.main(argv) == cli.USAGE_ERROR
    assert "cube cap 8" in capsys.readouterr().err
    SuiteConfig(n_min=9, n_max=9, suites=("poly", "special"), oracle_n_max=0).validate()  # no cap there


def test_oracle_n_max_above_the_ceiling_is_a_usage_error(monkeypatch, capsys):
    def no_job(job):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "_run_job", no_job)
    assert cli.main(["verify", "--n-max", "5", "--oracle-n-max", "5"]) == cli.USAGE_ERROR
    assert "oracle ceiling 4" in capsys.readouterr().err
    monkeypatch.setenv("SL4CUBE_ORACLE_N_MAX", "5")
    assert cli.main(["verify", "--n-max", "6"]) == cli.USAGE_ERROR
    assert "oracle ceiling 4" in capsys.readouterr().err
    SuiteConfig(n_max=5, oracle_n_max=cli.ORACLE_N_CEILING).validate()


def test_library_default_oracle_cap_follows_n_max():
    # oracle_n_max None means min(3, n_max): n_max = 2 runs as oracle_n_max = 2
    assert SuiteConfig(n_max=2).validate() == SuiteConfig(n_max=2, oracle_n_max=2)
    report, status = cli.run(SuiteConfig(n_max=2))
    assert status == 0
    pinned, _ = cli.run(SuiteConfig(n_max=2, oracle_n_max=2))
    assert [c.as_dict() for c in report.checks] == [c.as_dict() for c in pinned.checks]


@pytest.mark.parametrize(
    "argv, env",
    [(["--n-min", "4", "--n-max", "4", "--basepoint", "16"], {}), (["--n-max", "0"], {"SL4CUBE_BASEPOINT": "1"})],
    ids=["flag", "env"],
)
def test_basepoint_outside_the_smallest_cube_is_a_usage_error(monkeypatch, capsys, argv, env):
    # a basepoint must be a vertex at every N of the range: below 2^n-min
    def no_job(job):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "_run_job", no_job)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert cli.main(["verify", *argv]) == cli.USAGE_ERROR
    assert "is not a vertex at N = " in capsys.readouterr().err


def test_last_vertex_of_the_smallest_cube_runs(capsys):
    argv = ["verify", "--n-min", "4", "--n-max", "4", "--suite", "cube", "--basepoint", "15", "--output", "json"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["basepoint"] == 15 and payload["config"]["oracle_n_max"] == 3
    assert "basepoint 15 (compared from basepoint 0 only)" in next(
        c["anchor"] for c in payload["checks"] if c["id"] == "cube.basepoint_independence"
    )


def test_verify_without_flags_is_the_library_default(monkeypatch):
    # every default is SuiteConfig's: the parsed command line adds none of its own
    for key in [k for k in os.environ if k.startswith(cli.ENV_PREFIX)]:
        monkeypatch.delenv(key)
    seen = []

    def recorded_run(cfg):
        seen.append(cfg)
        return cli.Report(), 0

    monkeypatch.setattr(cli, "run", recorded_run)
    assert cli.main(["verify"]) == 0
    assert seen == [SuiteConfig().validate()]


def test_main_exit_codes(capsys):
    assert cli.main(["verify", "--n-max", "1", "--suite", "sl4", "--output", "text"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out
    assert cli.main(["verify", "--n-min", "3", "--n-max", "1"]) == cli.USAGE_ERROR


def test_json_schema(capsys):
    assert cli.main(["verify", "--n-max", "0", "--suite", "poly", "--output", "json", "--seed", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"config", "checks"}
    assert payload["config"]["n_max"] == 0
    assert payload["config"]["seed"] == 9
    for check in payload["checks"]:
        assert {"id", "anchor", "n", "status"} <= set(check)
        assert check["status"] in ("pass", "fail", "skipped")
        if check["status"] == "fail":
            assert check.get("witness")


def test_csv_output(capsys):
    assert cli.main(["verify", "--n-max", "0", "--suite", "sl4", "--output", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "id,anchor,n,status,witness"
    assert all(line.count(",") >= 4 for line in lines[1:])


def test_report_determinism():
    cfg = small_cfg(output="json")
    rep1, _ = cli.run(cfg)
    rep2, _ = cli.run(cfg)
    buf1, buf2 = io.StringIO(), io.StringIO()
    cli.render_report(rep1, cfg, buf1)
    cli.render_report(rep2, cfg, buf2)
    assert buf1.getvalue() == buf2.getvalue()


def _digest(report, cfg):
    buf = io.StringIO()
    cli.render_report(report, cfg, buf)
    payload = buf.getvalue().encode()
    return len(report.checks), len(payload), hashlib.sha256(payload).hexdigest()


def test_report_digest_pinned():
    # a refactor must leave every check id, anchor, status and its order unchanged
    cfg = SuiteConfig(n_max=2, oracle_n_max=2, output="json")
    report, status = cli.run(cfg)
    assert status == 0
    assert _digest(report, cfg) == (323, 51660, "377f6a2faa4f7963e00cc4f18715982433f40529283c6490c27058994595db03")
    # without its skip rows the report is the one pinned before skips were
    # recorded for every check that does not apply
    report.checks = [c for c in report.checks if c.status != "skipped"]
    assert _digest(report, cfg) == (312, 49554, "2b94275c4214c11770cff999de596b5cf6c028baea8fcea79cbb4fe30f9fb1c9")


def test_report_digest_pinned_at_the_oracle_cap():
    # N = 3 is the default oracle cap, where ddag.cross_form and concrete_form,
    # eps.routes and tensor.oracle still run
    cfg = SuiteConfig(n_max=3, oracle_n_max=3, output="json")
    report, status = cli.run(cfg)
    assert status == 0
    assert _digest(report, cfg) == (417, 66723, "46688b2c6e4de39709cc185235a6dc9247a53e136b42aa1c2d51e112892d5c98")


def test_process_pool_gives_the_same_checks():
    # --jobs 2 runs the (suite, N) jobs in worker processes; the report must
    # not depend on that
    cfg = SuiteConfig(n_max=1, oracle_n_max=1)
    serial, _ = cli.run(cfg)
    pooled, _ = cli.run(SuiteConfig(n_max=1, oracle_n_max=1, jobs=2))
    assert [c.as_dict() for c in pooled.checks] == [c.as_dict() for c in serial.checks]


def test_serial_import_leaves_out_the_process_pool():
    # the pool module loads multiprocessing; only a run with --jobs > 1 imports it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, sl4cube.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_leaves_out_argparse():
    # only the command line parses arguments; a library import does not load argparse
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, sl4cube.cli; print('argparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _inline_pool(made):
    """A ProcessPoolExecutor stand-in that runs the jobs in this process and
    appends (max_workers, [(suite, n) in submit order]) to ``made``."""

    class InlinePool:
        def __init__(self, max_workers):
            self.submitted = []
            made.append((max_workers, self.submitted))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            self.submitted.extend((suite, n) for suite, n, _ in jobs)
            return map(fn, jobs)

    return InlinePool


def test_pool_submits_longest_measured_first(monkeypatch):
    # with --jobs the jobs go out highest N first, each N in catalogue order,
    # sl4 counting as N = 0 (a job's cost grows with N, so the longest go
    # first; test_submit_rank_on_the_measured_table checks this against
    # measured seconds); the report keeps the canonical order
    made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(made))
    serial, _ = cli.run(SuiteConfig(n_max=2, oracle_n_max=1))
    pooled, _ = cli.run(SuiteConfig(n_max=2, oracle_n_max=1, jobs=2))
    assert [c.as_dict() for c in pooled.checks] == [c.as_dict() for c in serial.checks]
    [(_, submitted)] = made
    graded = list(suites.SUITES)[1:]
    assert submitted == [(s, n) for n in (2, 1) for s in graded] + [("sl4", None)] + [(s, 0) for s in graded]


def test_pool_is_capped_at_the_job_count(monkeypatch):
    # under fork a pool starts every worker up front: --jobs 10000 on the 11
    # jobs of N <= 1 (sl4 plus five suites at two degrees) asks for 11
    made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(made))
    _, status = cli.run(SuiteConfig(n_max=1, oracle_n_max=1, jobs=10_000))
    assert [workers for workers, _ in made] == [11] and status == 0


# Seconds each job of the default run (N <= 5, oracle-n-max 3) took alone in a
# fresh interpreter: median of three runs on a 2-core Xeon, Python 3.11. Jobs
# not listed took under 0.15 s.
_MEASURED_SECONDS = {
    ("cube", 5): 1.2, ("correspond", 5): 0.88, ("tensor", 4): 0.72, ("poly", 5): 0.54,
    ("special", 5): 0.37, ("correspond", 4): 0.26, ("special", 4): 0.26, ("correspond", 3): 0.22,
    ("poly", 4): 0.20, ("cube", 4): 0.19, ("special", 3): 0.19, ("tensor", 3): 0.17,
}


def _makespan(order, workers):
    # a pool's workers each take the next submitted job as soon as they are free
    free = [0.0] * workers
    for job in order:
        free.sort()
        free[0] += _MEASURED_SECONDS.get(job, 0.0)
    return max(free)


def test_submit_rank_on_the_measured_table(monkeypatch):
    # the cost-free submit order of the default run, scheduled on the measured
    # seconds, ends within 10 % of the order that sorts by those seconds
    made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool(made))
    monkeypatch.setattr(cli, "_run_job", lambda job: [])
    cli.run(SuiteConfig(jobs=2))
    [(_, submitted)] = made
    assert submitted[:2] == [("poly", 5), ("special", 5)] and set(_MEASURED_SECONDS) <= set(submitted)
    measured = sorted(submitted, key=lambda job: -_MEASURED_SECONDS.get(job, 0.0))
    for workers in (2, 3, 4):
        assert _makespan(submitted, workers) <= 1.1 * _makespan(measured, workers)


def test_crash_outside_checks_is_one_failing_check(monkeypatch):
    def broken(N, rng, basepoint, oracle_n_max):
        raise ArithmeticError("corrupted center")

    monkeypatch.setitem(suites.SUITES, "cube", broken)
    report, status = cli.run(SuiteConfig(n_min=1, n_max=1, suites=("sl4", "cube"), oracle_n_max=1))
    assert status == cli.VERIFY_FAILURE
    [failure] = report.failures
    assert (failure.id, failure.n) == ("cube.completed", 1)
    assert failure.witness == "ArithmeticError: corrupted center"
    # the other suite keeps its checks and no completed row is added on passing jobs
    assert any(c.id.startswith("presentation.") for c in report.checks)
    assert not any(c.id.endswith(".completed") and c.status == "pass" for c in report.checks)


def test_phi_central_raise_fails_its_check_and_keeps_the_job(monkeypatch):
    # the central element is built inside the checks that use it, so a raise
    # there fails those checks and every other check of the job still runs
    job = ("cube", 2, (0, 2, 0))
    clean = [c.id for c in cli._run_job(job)]

    def broken(self):
        raise ArithmeticError("corrupted center")

    monkeypatch.setattr(cube.TAlgebra, "phi_central", broken)
    checks = cli._run_job(job)
    assert [c.id for c in checks] == clean
    failed = {c.id: c.witness for c in checks if c.status == "fail"}
    assert failed["cube.phi_central"] == "ArithmeticError: corrupted center"


def test_env_overrides(monkeypatch, capsys):
    monkeypatch.setenv("SL4CUBE_N_MAX", "0")
    monkeypatch.setenv("SL4CUBE_SUITE", "sl4")
    monkeypatch.setenv("SL4CUBE_OUTPUT", "json")
    assert cli.main(["verify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["n_max"] == 0
    assert payload["config"]["suites"] == ["sl4"]
    # flags win over the environment
    monkeypatch.setenv("SL4CUBE_N_MAX", "1")
    assert cli.main(["verify", "--n-max", "0", "--suite", "sl4", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["n_max"] == 0


def test_malformed_env_value_is_a_verify_usage_error(monkeypatch, capsys):
    # a command that reads no such option runs; verify names the flag
    monkeypatch.setenv("SL4CUBE_N_MAX", "x")
    assert cli.main(["table", "--kind", "dims", "--n", "1"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == cli.USAGE_ERROR
    assert "argument --n-max: invalid int value: 'x'" in capsys.readouterr().err


def test_table_dims(tmp_path):
    out = tmp_path / "dims.csv"
    cli.emit_table("dims", 5, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,dim"
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "4", "10", "20", "35", "56"]


def test_table_transition_rows(tmp_path):
    out = tmp_path / "trans.csv"
    cli.emit_table("transition", 1, str(out))
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 16  # header plus 4 x 4 tail pairs
    assert lines[0].startswith("N,s,t,u,S,T,U")


def test_table_wedderburn(tmp_path):
    out = tmp_path / "w.csv"
    cli.emit_table("wedderburn", 4, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[1:] == ["0,12,25", "1,4,9", "2,0,1"]


def test_table_wedderburn_above_cube_cap_is_a_usage_error(capsys):
    # the table is read off the certified decomposition, which needs the cube
    assert cli.main(["table", "--kind", "wedderburn", "--n", "9"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert "cube cap 8" in captured.err and not captured.out


def test_table_krawtchouk_json(tmp_path):
    out = tmp_path / "k.json"
    cli.emit_table("krawtchouk", 2, str(out), fmt="json")
    payload = json.loads(out.read_text())
    assert payload["kind"] == "krawtchouk"
    # f_1 = eta/2: row (N, n, power, num, den) = (2, 1, 1, 1, 2)
    assert ["2", "1", "1", "1", "2"] in payload["rows"]


def test_table_cli_and_bad_kind(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert cli.main(["table", "--kind", "dims", "--n", "2", "--out", str(out)]) == 0
    assert out.exists()
    with pytest.raises(SystemExit):
        cli.main(["table", "--kind", "nope", "--n", "2"])
    assert cli.main(["table", "--kind", "dims", "--n", "-1"]) == cli.USAGE_ERROR


def test_negative_control_cli(monkeypatch):
    # corrupting one generator matrix must fail the matrix suite with a witness
    from sl4cube import sl4core
    from sl4cube.linalg import Mat

    bad = Mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]])
    monkeypatch.setitem(sl4core._A, 1, bad)
    report, status = cli.run(SuiteConfig(n_max=0, suites=("sl4",), oracle_n_max=0))
    assert status == cli.VERIFY_FAILURE
    assert report.failures
    assert all(c.witness for c in report.failures)
