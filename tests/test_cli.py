"""CLI harness: determinism, exit codes, report shape."""

import dataclasses
import gc
import hashlib
import json
import marshal
import os
import select
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


# Strings that JSON escapes, or that are not ASCII
_ODD = ['"', "\\", "\x00", "\x1f", "\x7f", "\n\t\r\b\f", "é", "€", "\U0001d538", "\u2028", "/"]
_TEXT = st.one_of(
    st.text(max_size=8), st.sampled_from(_ODD), st.lists(st.sampled_from(_ODD), max_size=4).map("".join)
)
_INT = st.one_of(st.integers(-5, 5), st.integers(), st.sampled_from([-(2**200), 2**64, -1, 0]))
_CASE = st.fixed_dictionaries(
    {
        "id": _TEXT,
        "identity": _TEXT,
        "family": _TEXT,
        "params": st.dictionaries(_TEXT, _TEXT, max_size=4),
        "n": _INT,
        "m": st.none() | _INT,
        "extras": st.dictionaries(_TEXT, _TEXT, max_size=3),
        "pass": st.booleans(),
        "residual_summary": _TEXT,
    },
    optional={"elapsed_ms": _INT},
)
_REPORT = st.fixed_dictionaries(
    {
        "schema": _INT,
        "version": _TEXT,
        "seed": _INT,
        "config": st.fixed_dictionaries(
            {
                "families": st.lists(_TEXT, max_size=3),
                "identities": st.lists(_TEXT, max_size=3),
                "max_n": _INT,
                "max_m": _INT,
                "trials": _INT,
            }
        ),
        "cases": st.lists(_CASE, max_size=6),
        "totals": st.dictionaries(_TEXT, _INT, max_size=3),
    }
)
_JSON = st.recursive(
    st.none() | st.booleans() | _INT | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)

# the configurations of tests/test_golden.py, each with the sha256 of its
# markdown report
GOLDEN_CONFIGS = {
    "golden": (
        SuiteConfig(seed=7, max_n=2, max_m=2),
        "1fc3b8a036b068ec52c5634715c347dcb6dabd6aa607d2877266073816a7f75a",
    ),
    "deep": (
        SuiteConfig(seed=7, identities=["chain-expansion", "operational", "leibniz"], max_n=8, max_m=2),
        "821e950a737b53936c45f7eefd48365b09bacfb3c8f808f6defc23804abb8fe3",
    ),
    "suite": (
        SuiteConfig(seed=7, max_n=5, max_m=5),
        "070a4a9bc26303610bcb8c4068e455476ea07a6f8096cf6685e2d5392c098ad8",
    ),
    "held-out": (
        SuiteConfig(seed=2718, max_n=5, max_m=5),
        "8a43d7961fc6b83887751326813ec79c15b04853a88ea7b1df002cf2594273a4",
    ),
    "aw-deep": (
        SuiteConfig(seed=7, families=["askey-wilson", "continuous-q-hermite"], max_n=7, max_m=7),
        "3e6b2531c5659834ccc4752f7953fd804753238f66bfc030bb934df93cd0e3d0",
    ),
}


def _dumped(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(_REPORT)
def test_json_render_is_json_dumps_on_drawn_reports(report):
    assert render_report(report, "json") == _dumped(report)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_TEXT, _JSON, max_size=5))
def test_json_render_is_json_dumps_on_any_json_object(value):
    assert render_report(value, "json") == _dumped(value)


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_both_renders_keep_their_bytes_on_the_golden_configurations(name):
    # timed, so that every record also carries elapsed_ms
    config, markdown_sha256 = GOLDEN_CONFIGS[name]
    report = run_verify(dataclasses.replace(config, timings=True))
    assert render_report(report, "json") == _dumped(report)
    markdown = render_report(report, "markdown")
    assert hashlib.sha256(markdown.encode()).hexdigest() == markdown_sha256


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


# `askeykit expand` stdout: both registries, a declared prefactor, a deformed
# parameter, a deformed phase and big q-Laguerre's mapped measure times its scale
EXPAND_SHA256 = {
    "laguerre-expansion --n 2 --m 1 --param nu=1/2":
        "68ec0633a2b5d627c76e5738a0b26acf75f9396c96698c12bda09b701828f9c3",
    "charlier-toda-eta1 --n 2 --param a=3 --param u=1/2":
        "e180ad66cd781f005996d2c55a7123ee12ac9f8f808576235ce07c80820749d9",
    "mp-toda --n 2 --param lam=1/2 --param phi=1/3 --param r=1/5":
        "387720342c8a178828626f5a54854aa3a052802beaa3f765f7c93024800e14dc",
    "bigqlaguerre-second --n 2 --param q=1/2 --param a=1/3 --param b=1/4 --param c=-2/3":
        "0078d0b1a159fe44f63a222dd9304f5b3b1b32c9772e20948521b423a3b42a9d",
}


@pytest.mark.parametrize("args", sorted(EXPAND_SHA256))
def test_expand_output_bytes(args, capsys):
    assert main(["expand", *args.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == EXPAND_SHA256[args]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-n", "1", "--max-m", "0", "--identities", "hermite-expansion", "hermite-expansion"],
        ["verify", "--max-n", "1", "--max-m", "0", "--families", "hermite", "laguerre", "hermite"],
        ["toda", "--families", "hermite", "hermite"],
    ],
    ids=["verify-identity-twice", "verify-family-twice", "toda-family-twice"],
)
def test_repeated_selection_exits_2_with_one_line(argv, capsys):
    # a repeated entry would run its cases twice under duplicated ids
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "given twice" in lines[0], captured.err


def test_run_verify_rejects_a_repeated_selection():
    for config in (
        SuiteConfig(identities=["leibniz", "leibniz"], max_n=1, max_m=0),
        SuiteConfig(families=["hermite", "hermite"], max_n=1, max_m=0),
    ):
        with pytest.raises(cli.UsageError, match="given twice"):
            run_verify(config)


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


@pytest.mark.parametrize("where", ["missing-dir", "directory", "read-only-file"])
def test_verify_unwritable_output_exits_2_before_running(where, tmp_path, monkeypatch, capsys):
    from askeykit import cli

    def no_run(config):
        raise AssertionError("the suite ran before the output path was checked")

    monkeypatch.setattr(cli, "run_verify", no_run)
    out = {
        "missing-dir": tmp_path / "missing" / "r.json",
        "directory": tmp_path,
        "read-only-file": tmp_path / "r.json",
    }[where]
    if where == "read-only-file":
        out.write_text("")
        access = os.access  # root may write any file, so the denial is simulated
        monkeypatch.setattr(os, "access", lambda path, mode: access(path, mode) and os.fspath(path) != str(out))
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
    kinds = {"next", "admissible", "raising", "chain", "std"}
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


@pytest.fixture
def meet(monkeypatch):
    """meet(worker=None, parent=None) wraps cli._case_record for one run of _records.

    Each process calls its hook with the job before it builds a case: worker
    in the workers, parent in the parent.  Before its first case the parent
    waits until a worker has started one, and a worker until the parent has.
    A waiting process holds one ticket, so with more tickets than processes
    the parent and at least one worker each build a case, whatever the
    scheduling.
    """
    real, parent_pid, fds = cli._case_record, os.getpid(), []

    def install(worker=None, parent=None):
        to_parent, to_workers = os.pipe(), os.pipe()
        fds.extend(to_parent + to_workers)
        first = []

        def record(*args):
            in_parent = os.getpid() == parent_pid
            if not first:
                first.append(1)
                tell, wait_on = (to_workers[1], to_parent[0]) if in_parent else (to_parent[1], to_workers[0])
                os.write(tell, b"." * 8)  # a byte for each process that waits
                assert select.select([wait_on], [], [], 60)[0], "no other process started a case"
                os.read(wait_on, 1)
            hook = parent if in_parent else worker
            if hook is not None:
                hook(args[:5])
            return real(*args)

        monkeypatch.setattr(cli, "_case_record", record)

    yield install
    for fd in fds:
        os.close(fd)


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


def test_an_error_in_a_workers_slice_gives_the_serial_error_record(monkeypatch, meet):
    # every case a worker builds fails and every case the parent builds
    # passes; the meeting makes each side build at least one
    jobs, config, parent = _suite_jobs(1, 1), SuiteConfig(seed=7), os.getpid()
    passing = {c["id"]: c for c in cli._records(jobs, config, 1)}
    everywhere = [True]

    def failing(runner):
        def run(*args):
            if everywhere or os.getpid() != parent:
                raise ValueError("inadmissible in a worker")
            return runner(*args)

        return run

    for kind, (grid, runner) in list(CASE_KINDS.items()):
        monkeypatch.setitem(CASE_KINDS, kind, (grid, failing(runner)))
    failed = {c["id"]: c for c in cli._records(jobs, config, 1)}
    assert {c["residual_summary"] for c in failed.values()} == {"error: inadmissible in a worker"}
    everywhere.clear()
    meet()
    mixed = cli._records(jobs, config, 2)
    assert [c["id"] for c in mixed] == sorted(passing)
    assert {c["pass"] for c in mixed} == {True, False}
    for case in mixed:
        assert case == (passing if case["pass"] else failed)[case["id"]]
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


def test_a_worker_that_dies_raises_and_leaves_no_child(monkeypatch, meet):
    def dying(job):
        os._exit(3)

    meet(worker=dying)
    monkeypatch.setattr(cli, "_worker_count", lambda n_jobs: 2)
    with pytest.raises(RuntimeError, match=r"verify worker \d+ exited with status 3 "):
        run_verify(SuiteConfig(seed=7, max_n=1, max_m=1))
    _assert_no_child()


@pytest.mark.parametrize("workers", [2, 3])
def test_a_worker_killed_mid_run_raises_and_leaves_no_child(workers, meet):
    def killed(job):
        os.kill(os.getpid(), signal.SIGKILL)

    meet(worker=killed)
    with pytest.raises(RuntimeError, match=r"verify worker \d+ exited with status -9 "):
        cli._records(_suite_jobs(1, 1), SuiteConfig(seed=7), workers)
    _assert_no_child()


def test_a_worker_that_sends_half_its_records_raises_and_leaves_no_child(monkeypatch):
    class Halving:  # the worker writes the first half of its dump, then exits 0
        loads = staticmethod(marshal.loads)

        @staticmethod
        def dumps(value):
            data = marshal.dumps(value)
            return data[: len(data) // 2]

    monkeypatch.setattr(cli, "marshal", Halving)
    with pytest.raises(RuntimeError, match=r"verify worker \d+ exited with status 0 after sending \d+ bytes, not a list"):
        cli._records(_suite_jobs(1, 1), SuiteConfig(seed=7), 2)
    _assert_no_child()


def test_an_interrupt_in_the_parents_slice_leaves_no_child(monkeypatch, meet):
    # the workers would take a minute: the interrupt must kill them, not wait for them
    calls = []

    def sleepy(job):
        time.sleep(60)
        os._exit(0)

    def interrupted(job):
        calls.append(job)
        if len(calls) == 3:
            raise KeyboardInterrupt

    meet(worker=sleepy, parent=interrupted)
    monkeypatch.setattr(cli, "_worker_count", lambda n_jobs: 3)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_verify(SuiteConfig(seed=7, max_n=2, max_m=2))
    assert time.monotonic() - started < 30
    _assert_no_child()


def test_an_interrupt_just_after_a_reap_still_kills_the_other_workers(monkeypatch):
    # the interrupt lands between reaping worker 1 and dropping it from the
    # children to kill; worker 2 would take a minute before its first ticket
    # read and must be killed
    parent, forks = os.getpid(), []
    fork, read, waitpid = os.fork, os.read, os.waitpid

    def counting_fork():
        forks.append(1)
        return fork()

    def sleepy_read(fd, n):
        if os.getpid() != parent and len(forks) == 2:  # worker 2
            time.sleep(60)
            os._exit(0)
        return read(fd, n)

    def interrupted_waitpid(pid, options):
        waitpid(pid, options)
        monkeypatch.setattr(os, "waitpid", waitpid)
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "read", sleepy_read)
    monkeypatch.setattr(os, "waitpid", interrupted_waitpid)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli._records(_suite_jobs(1, 1), SuiteConfig(seed=7), 3)
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
        if len(fds) == 6:  # the second worker's pipe, after the ticket pipe and the first's
            raise BlockingIOError("no process left")
        return fork()

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "fork", failing_fork)
    with pytest.raises(BlockingIOError):
        cli._records(_suite_jobs(1, 1), SuiteConfig(seed=7), 3)
    _assert_no_child()
    assert len(fds) == 6
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_a_worker_that_raises_writes_its_traceback(meet, capfd):
    def raising(job):
        raise LookupError("lost in a worker")

    meet(worker=raising)
    with pytest.raises(RuntimeError, match=r"exited with status 1 "):
        cli._records(_suite_jobs(1, 1), SuiteConfig(seed=7), 2)
    err = capfd.readouterr().err
    assert "Traceback" in err and "LookupError: lost in a worker" in err
    _assert_no_child()


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("slowed", ["parent", "worker"])
def test_every_job_is_built_once_when_one_side_is_slowed(workers, slowed, meet, tmp_path):
    # each process logs the id of every job it builds to one append-only file
    jobs, config = _suite_jobs(1, 1), SuiteConfig(seed=7)
    serial = cli._records(jobs, config, 1)
    log = os.open(tmp_path / "built", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def logged(delay):
        def hook(job):
            time.sleep(delay)
            os.write(log, f"{cli._case_id(*job)}\n".encode())

        return hook

    hooks = {"parent": logged(0), "worker": logged(0)}
    hooks[slowed] = logged(0.005)
    meet(**hooks)
    try:
        records = cli._records(jobs, config, workers)
    finally:
        os.close(log)
    assert sorted((tmp_path / "built").read_text().split()) == [c["id"] for c in serial]
    assert records == serial
    _assert_no_child()


def test_records_whose_ids_are_not_the_jobs_raise(monkeypatch, meet):
    # a worker sends as many records as it built, one of them under another id
    parent, take = os.getpid(), cli._take_tickets

    def mislabelled(*args):
        part = take(*args)
        if os.getpid() != parent:
            part[0] = {**part[0], "id": "leibniz/operators/n0m-/t1"}
        return part

    meet()
    monkeypatch.setattr(cli, "_take_tickets", mislabelled)
    with pytest.raises(RuntimeError, match=r"verify built 160 records, not one for each of its 160 cases"):
        cli._records(_suite_jobs(1, 1), SuiteConfig(seed=7), 2)
    _assert_no_child()


def test_a_short_ticket_read_raises(monkeypatch):
    read = os.read
    monkeypatch.setattr(os, "read", lambda fd, n: read(fd, n)[:2])
    with pytest.raises(RuntimeError, match="read 2 bytes of a 4-byte verify ticket"):
        cli._records(_suite_jobs(1, 1), SuiteConfig(seed=7), 1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_records_close_every_pipe_they_open(workers, monkeypatch):
    fds, pipe = [], os.pipe

    def recording_pipe():
        ends = pipe()
        fds.extend(ends)
        return ends

    monkeypatch.setattr(os, "pipe", recording_pipe)
    cli._records(_suite_jobs(1, 1), SuiteConfig(seed=7), workers)
    assert len(fds) == 2 * workers  # the ticket pipe and one pipe per worker
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)
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


def test_timings_time_every_record_and_change_nothing_else(monkeypatch, meet):
    # two processes build the records, and the meeting makes each build some
    built_here = []
    meet(parent=built_here.append)
    monkeypatch.setattr(cli, "_worker_count", lambda n_jobs: 2)
    config = SuiteConfig(seed=7, max_n=1, max_m=1)
    timed = run_verify(dataclasses.replace(config, timings=True))
    cases = timed["cases"]
    assert 0 < len(built_here) < len(cases)
    for case in cases:
        ms = case.pop("elapsed_ms")
        assert type(ms) is int and ms >= 0, (case["id"], ms)
    assert render_report(timed, "json") == render_report(run_verify(config), "json")
    _assert_no_child()
