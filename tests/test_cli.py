"""CLI harness: determinism, exit codes, report shape."""

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from askeykit import cli
from askeykit.cli import CASE_KINDS, IDENTITIES, SuiteConfig, main, render_report, run_verify
from askeykit.families import FAMILIES, ParamPoint


def _failures(report):
    """(id, residual_summary) of every case that did not pass."""
    return [(c["id"], c["residual_summary"]) for c in report["cases"] if not c["pass"]]


def test_verify_grid_case_count(tmp_path):
    out = tmp_path / "report.json"
    rc = main([
        "verify", "--identities", "hermite-expansion",
        "--max-n", "3", "--max-m", "3", "--seed", "7", "--output", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["totals"] == {"cases": 16, "passed": 16, "failed": 0}


def test_verify_byte_identical(tmp_path):
    args = [
        "verify", "--families", "charlier", "--trials", "2", "--seed", "11",
        "--max-n", "2", "--max-m", "2",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(args + ["--output", str(a)]) == 0, _failures(json.loads(a.read_text()))
    assert main(args + ["--output", str(b)]) == 0, _failures(json.loads(b.read_text()))
    assert a.read_bytes() == b.read_bytes()


def test_verify_seed_changes_report(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ["verify", "--identities", "laguerre-expansion", "--max-n", "2", "--max-m", "1"]
    assert main(base + ["--seed", "1", "--output", str(a)]) == 0
    assert main(base + ["--seed", "2", "--output", str(b)]) == 0
    ra = json.loads(a.read_text())
    rb = json.loads(b.read_text())
    assert ra["cases"][0]["params"] != rb["cases"][0]["params"]


def test_verify_rational_serialization(tmp_path):
    out = tmp_path / "report.json"
    main([
        "verify", "--identities", "meixner-expansion-eta1",
        "--max-n", "1", "--max-m", "1", "--seed", "3", "--output", str(out),
    ])
    report = json.loads(out.read_text())
    for case in report["cases"]:
        for v in case["params"].values():
            num, _, den = v.partition("/")
            int(num), int(den)


def test_verify_unknown_identity_usage_error(capsys):
    assert main(["verify", "--identities", "nope"]) == 2
    assert "unknown identities" in capsys.readouterr().err


def test_verify_unknown_family_usage_error():
    assert main(["verify", "--families", "nope"]) == 2


def test_verify_toda_identity():
    config = SuiteConfig(identities=["toda-flows"], max_n=4, seed=5)
    report = run_verify(config)
    assert report["totals"]["failed"] == 0
    fams = {c["family"] for c in report["cases"]}
    assert len(fams) == 6


def test_markdown_render():
    config = SuiteConfig(identities=["hermite-expansion"], max_n=1, max_m=1, seed=1)
    report = run_verify(config)
    text = render_report(report, "markdown")
    assert "| case | pass | residual |" in text
    assert "hermite-expansion" in text


def test_expand_zero_residual(capsys):
    rc = main(["expand", "hermite-expansion", "--n", "1", "--m", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "residual: 0" in out
    assert "k=0" in out and "k=1" in out


def test_expand_needs_params(capsys):
    rc = main(["expand", "laguerre-expansion", "--n", "1", "--m", "1"])
    assert rc == 2
    assert "needs --param" in capsys.readouterr().err


def test_expand_inadmissible_param(capsys):
    rc = main(["expand", "laguerre-expansion", "--n", "1", "--m", "1", "--param", "nu=-2"])
    assert rc == 2
    assert "inadmissible" in capsys.readouterr().err


def test_expand_modified_identity(capsys):
    rc = main([
        "expand", "charlier-toda-eta1", "--n", "2",
        "--param", "a=3", "--param", "u=1/2",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "residual: 0" in out
    # the header names the deformation scalar, so the instance can be rerun from it
    assert out.splitlines()[0] == "identity: charlier-toda-eta1  point: charlier(a=3)  n=2 u=1/2"


def test_toda_command(capsys):
    rc = main(["toda", "--families", "hermite", "meixner", "--max-n", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "residuals zero" in out
    assert "NONZERO" not in out


def test_toda_unknown_family():
    assert main(["toda", "--families", "wilson"]) == 2


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_toda_without_flows_exits_2(max_n, capsys):
    # a run that checks no flow must not read as a pass
    assert main(["toda", "--families", "hermite", "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "askey-wilson" in out
    assert "toda-flows" in out


def test_failing_case_gives_error_entry_and_exit_1(tmp_path, monkeypatch):
    # a case that blows up mid-run becomes a per-case error entry, not a crash
    import dataclasses

    from askeykit import burchnall

    broken = dataclasses.replace(
        burchnall.EXPANSIONS["hermite-expansion"],
        build=lambda pt, n, m: (_ for _ in ()).throw(ValueError("inadmissible")),
    )
    monkeypatch.setitem(burchnall.EXPANSIONS, "hermite-expansion", broken)
    out = tmp_path / "r.json"
    rc = main([
        "verify", "--identities", "hermite-expansion",
        "--max-n", "0", "--max-m", "0", "--output", str(out),
    ])
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["totals"]["failed"] == 1
    assert report["cases"][0]["residual_summary"].startswith("error:")


def test_every_identity_kind_has_a_case_kind():
    assert {kind for kind, _ in IDENTITIES.values()} == set(CASE_KINDS)


def test_adjointness_covers_every_family_declaring_an_adjoint():
    # the family list is read off FamilySpec.adjoint, not kept beside it
    report = run_verify(SuiteConfig(identities=["adjointness"], max_n=1))
    declared = {tag for tag, spec in FAMILIES.items() if spec.adjoint is not None}
    assert {c["family"] for c in report["cases"]} == declared
    assert report["totals"]["failed"] == 0, _failures(report)


def test_failing_adjointness_names_its_residual(tmp_path, monkeypatch):
    # a failed check reads as its first nonzero failure value, not as a stand-in
    from askeykit import cli
    from askeykit.algebra import scalar

    real = cli.adjointness_check

    def drifting(point, n, D):
        _, witness, _ = real(point, n, D)
        return False, witness, [(0, 1, "mass ratio drifted", scalar(5, 3))]

    monkeypatch.setattr(cli, "adjointness_check", drifting)
    out = tmp_path / "r.json"
    rc = main([
        "verify", "--identities", "adjointness", "--families", "hermite",
        "--max-n", "1", "--output", str(out),
    ])
    assert rc == 1
    case, = json.loads(out.read_text())["cases"]
    assert case["pass"] is False
    assert case["residual_summary"] == "nonzero: 5/3"


def test_bad_bounds_usage_error():
    assert main(["verify", "--max-n", "-1"]) == 2
    assert main(["verify", "--trials", "0"]) == 2


def test_full_default_suite_small():
    # every registered identity runs clean on a small grid
    config = SuiteConfig(max_n=2, max_m=1, seed=13)
    report = run_verify(config)
    assert report["totals"]["failed"] == 0, _failures(report)[:5]
    idents = {c["identity"] for c in report["cases"]}
    assert len(idents) == len(json.loads(json.dumps(sorted(idents))))
    assert "adjointness" in idents and "leibniz" in idents


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "laguerre-expansion", "--n", "1", "--m", "1", "--param", "nu=abc"],
        ["expand", "laguerre-expansion", "--n", "-1", "--m", "1", "--param", "nu=1/2"],
        ["expand", "charlier-toda-eta1", "--n", "2", "--param", "a=3", "--param", "u=0"],
        ["expand", "laguerre-toda", "--n", "2", "--param", "nu=1/2", "--param", "t=-1"],
        ["expand", "laguerre-expansion", "--n", "1", "--m", "1", "--param", "nu=1/2", "--param", "zz=1"],
        ["expand", "hermite-toda", "--n", "2", "--m", "3", "--param", "t=1"],
        ["expand", "laguerre-expansion", "--n", "1", "--m", "1", "--param", "nu=1/2", "--param", "nu=3"],
        ["expand", "hermite-expansion", "--n", "2"],
    ],
    ids=["not-a-rational", "negative-n", "u-zero", "t-outside-domain", "unknown-param", "m-not-taken",
         "param-twice", "m-missing"],
)
def test_bad_expand_input_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_verify_empty_selection_exits_2(capsys):
    # Krawtchouk has no adjointness identity: an empty run must not read as a pass
    assert main(["verify", "--families", "krawtchouk", "--identities", "adjointness"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_verify_max_n_0_runs_nothing_above_it(capsys):
    # toda-flows starts at n = 1, so --max-n 0 leaves it no case: a usage
    # error that names the bound, not a degree-1 run
    assert main(["verify", "--max-n", "0", "--identities", "toda-flows"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "--max-n 0" in lines[0]
    report = run_verify(SuiteConfig(seed=7, max_n=0, max_m=0))
    assert report["totals"] == {"cases": 46, "passed": 46, "failed": 0}
    assert {c["n"] for c in report["cases"]} == {0}


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "askeykit", "list"], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "askey-wilson" in proc.stdout
    assert "carrier: even" in proc.stdout


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_verify_unwritable_output_exits_2_before_running(where, tmp_path, monkeypatch, capsys):
    from askeykit import cli

    def no_run(config):
        raise AssertionError("the suite ran before the output path was checked")

    monkeypatch.setattr(cli, "run_verify", no_run)
    out = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
    assert main(["verify", "--max-n", "0", "--max-m", "0", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def _module_containers() -> dict:
    """Size of every module-level dict, list and set in the askeykit package."""
    sizes = {}
    for name, mod in list(sys.modules.items()):
        if name == "askeykit" or name.startswith("askeykit."):
            for attr, value in vars(mod).items():
                if isinstance(value, (dict, list, set)) and not attr.startswith("__"):
                    sizes[name, attr] = len(value)
    return sizes


def _live_points() -> set:
    return {id(o) for o in gc.get_objects() if type(o) is ParamPoint}


def test_a_run_keeps_nothing_after_it_ends():
    # what a case derives lives on its points, so once the run is over its
    # points are freed and no module-level container has grown
    gc.collect()
    before, points = _module_containers(), _live_points()
    for _ in range(2):
        run_verify(SuiteConfig(seed=7, max_n=2, max_m=2))
    gc.collect()
    assert _module_containers() == before
    assert _live_points() <= points


def _key_kind(key) -> str:
    if isinstance(key, tuple):
        return key[0]
    return key if isinstance(key, str) else "spec"  # a variant's op_spec


def test_every_point_memo_is_reused_by_the_suite(monkeypatch):
    # a memo that no case reuses costs memory and code for nothing: in the
    # suite every kind of key kept on a point is both built and reused
    assert [f.name for f in dataclasses.fields(ParamPoint)] == ["family", "values", "_memo"]
    derived = ParamPoint.derived
    hits, misses = Counter(), Counter()

    def counting(self, key, build, *args):
        built = []
        out = derived(self, key, lambda *a: built.append(key) or build(*a), *args)
        (misses if built else hits)[_key_kind(key)] += 1
        return out

    monkeypatch.setattr(ParamPoint, "derived", counting)
    # the counter sees only this process, so every case must run in it
    monkeypatch.setattr(cli, "_worker_count", lambda n_jobs: 1)
    run_verify(SuiteConfig(seed=7, max_n=3, max_m=3))
    kinds = {"next", "admissible", "raising", "spec", "chain", "std"}
    assert set(misses) == kinds
    assert set(hits) == kinds, (hits, misses)


def _suite_jobs(max_n: int, max_m: int) -> list:
    """The (ident, family, n, m, trial) jobs of the full suite at one trial."""
    return [
        (ident, family, n, m, 0)
        for ident, (kind, fams) in sorted(IDENTITIES.items())
        for family in fams
        for n, m in CASE_KINDS[kind][0](max_n, max_m)
    ]


def _by_id(records: list) -> list:
    return sorted(records, key=lambda c: c["id"])


def _assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [7, 2718])
def test_records_do_not_depend_on_the_worker_count(seed):
    jobs = _suite_jobs(2, 2)
    config = SuiteConfig(seed=seed)
    serial = _by_id(cli._records(jobs, config, 1))
    assert len(serial) == len(jobs)
    for workers in (2, 3):
        assert _by_id(cli._records(jobs, config, workers)) == serial, workers
    _assert_no_child()


def test_worker_count_follows_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert [cli._worker_count(n) for n in (0, 63, 64, 191, 192, 10**4)] == [1, 1, 1, 2, 3, 4]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._worker_count(10**4) == 1


def test_an_error_in_a_workers_slice_gives_the_serial_error_record(monkeypatch):
    jobs = _suite_jobs(1, 1)
    ident, family, n, m, _ = jobs[1]  # the first job of worker 1's slice
    kind = IDENTITIES[ident][0]
    grid, runner = CASE_KINDS[kind]

    def failing(i, f, nn, mm, rng):
        if (i, f, nn, mm) == (ident, family, n, m):
            raise ValueError("inadmissible in a worker")
        return runner(i, f, nn, mm, rng)

    monkeypatch.setitem(CASE_KINDS, kind, (grid, failing))
    config = SuiteConfig(seed=7)
    serial = _by_id(cli._records(jobs, config, 1))
    assert _by_id(cli._records(jobs, config, 2)) == serial
    errors = [c for c in serial if not c["pass"]]
    assert [c["residual_summary"] for c in errors] == ["error: inadmissible in a worker"]
    _assert_no_child()


def test_a_verify_run_leaves_no_child(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    config = SuiteConfig(seed=7, max_n=2, max_m=2)
    report = run_verify(config)
    assert report["totals"] == {"cases": 322, "passed": 322, "failed": 0}
    assert len(forks) == cli._worker_count(322) - 1
    _assert_no_child()


def test_a_worker_that_dies_raises_and_leaves_no_child(monkeypatch):
    parent = os.getpid()
    real = cli._case_record

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(cli, "_case_record", dying)
    monkeypatch.setattr(cli, "_worker_count", lambda n_jobs: 2)
    with pytest.raises(RuntimeError, match=r"verify worker \d+ exited with status 3 "):
        run_verify(SuiteConfig(seed=7, max_n=1, max_m=1))
    _assert_no_child()


def test_an_interrupt_in_the_parents_slice_leaves_no_child(monkeypatch):
    # the workers would take a minute: the interrupt must kill them, not wait for them
    parent = os.getpid()
    real = cli._case_record
    calls = []

    def interrupted(*args):
        if os.getpid() != parent:
            time.sleep(60)
            os._exit(0)
        calls.append(1)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(cli, "_case_record", interrupted)
    monkeypatch.setattr(cli, "_worker_count", lambda n_jobs: 3)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_verify(SuiteConfig(seed=7, max_n=2, max_m=2))
    assert time.monotonic() - started < 30
    _assert_no_child()


def test_an_interrupt_just_after_a_reap_still_kills_the_other_workers(monkeypatch):
    # the interrupt lands between reaping worker 1 and dropping it from the
    # children to kill; worker 2 would take a minute and must be killed
    parent = os.getpid()
    jobs = _suite_jobs(1, 1)
    slow = set(jobs[2::3])
    real = cli._case_record
    waitpid = os.waitpid

    def sleepy(*args):
        if os.getpid() != parent and args[:5] in slow:
            time.sleep(60)
            os._exit(0)
        return real(*args)

    def interrupted_waitpid(pid, options):
        waitpid(pid, options)
        monkeypatch.setattr(os, "waitpid", waitpid)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_case_record", sleepy)
    monkeypatch.setattr(os, "waitpid", interrupted_waitpid)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli._records(jobs, SuiteConfig(seed=7), 3)
    assert time.monotonic() - started < 30
    _assert_no_child()


def test_a_failed_fork_closes_its_pipe_and_leaves_no_child(monkeypatch):
    fds = []
    pipe, fork = os.pipe, os.fork

    def recording_pipe():
        ends = pipe()
        fds.extend(ends)
        return ends

    def failing_fork():
        if len(fds) == 4:  # the second worker's pipe
            raise BlockingIOError("no process left")
        return fork()

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "fork", failing_fork)
    with pytest.raises(BlockingIOError):
        cli._records(_suite_jobs(1, 1), SuiteConfig(seed=7), 3)
    _assert_no_child()
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_a_worker_that_raises_writes_its_traceback(monkeypatch, capfd):
    parent = os.getpid()
    real = cli._case_record

    def raising(*args):
        if os.getpid() != parent:
            raise LookupError("lost in a worker")
        return real(*args)

    monkeypatch.setattr(cli, "_case_record", raising)
    with pytest.raises(RuntimeError, match=r"exited with status 1 "):
        cli._records(_suite_jobs(1, 1), SuiteConfig(seed=7), 2)
    err = capfd.readouterr().err
    assert "Traceback" in err and "LookupError: lost in a worker" in err
    _assert_no_child()


def test_one_usable_cpu_runs_serially(monkeypatch):
    def no_fork():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    report = run_verify(SuiteConfig(seed=7, max_n=2, max_m=2))
    assert report["totals"] == {"cases": 322, "passed": 322, "failed": 0}


def test_python_dash_m_verify_gives_the_pinned_report(tmp_path):
    # the forked path outside this process: the report of `verify --seed 7 --max-n 3
    # --max-m 3` keeps its pinned bytes, and every worker held the command's
    # stdout and stderr, so both reach end of file as soon as the command exits
    # only if no worker outlived it
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "r.json"
    cmd = [sys.executable, "-m", "askeykit", "verify", "--seed", "7", "--max-n", "3",
           "--max-m", "3", "--output", str(out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        rc = proc.wait(timeout=300)
        stdout, stderr = proc.communicate(timeout=10)
    finally:
        proc.kill()
        proc.wait()
    assert rc == 0, stderr
    assert stdout == "wrote " + str(out) + ": 532/532 passed\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "750874a5c7271c709964e67a0ae3ac6d9fbd6b7ecf580a73218c3bcf6b7ac959"
    )
