"""askeykit benchmark: cold `verify` runs, timed from outside the package.

    python3 perfbench/run.py --workload suite [--seed 7|default|held-out] \
        [--seconds 30] [--trace 0|1]

Run from the repository root.  Every measurement starts a fresh interpreter
(`perfbench/child.py`), one at a time, so askeykit's module-level memo
caches start empty exactly as they do for a user's `askeykit verify`.

--trace 0 measures the end-to-end metrics: set-up (import) time, verify
time, verdicts per second, pass ratio and peak memory.  It repeats cold
runs for as long as another one still fits in --seconds and reports
medians.  Times are rescaled to a reference machine speed by the gauge
(`perfbench/gauge.py`); the wall times are printed beside them.
--trace 1 makes one untraced run, one run under `perfbench/tracer.py` and
one run of the kernel probes, and reports the per-layer metrics.

Metric names and units come from BENCHMARK.json.  The report of every run
is classified case by case (pass, nonzero residual, error) and must be
byte-identical across the runs of one invocation; its sha256 is printed.
The last line of output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Intermediate results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import REF_S
from workloads import WORKLOADS, parse_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
IMPORTS_PER_RUN = 2  # import-only children before each verify child
RUN_LIMIT_S = 170  # every invocation must finish within 180 s


class BenchError(Exception):
    pass


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


class Children:
    """Starts child measurements one at a time, within the invocation's time limit."""

    def __init__(self, config: dict, seed: int):
        self.config = json.dumps(config)
        self.seed = str(seed)
        self.started = time.monotonic()

    def run(self, mode: str, *extra: str) -> dict:
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise BenchError("out of time before all measurements ran")
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, self.config, self.seed, *extra]
        spawned = time.monotonic_ns()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child did not finish within {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        # interpreter start-up, rescaled by the gauge piece that follows it,
        # then the import, rescaled piece by piece
        startup_s = (out.pop("started_ns") - spawned) / 1e9
        out["setup_wall_s"] = startup_s + out.pop("import_wall_s")
        out["setup_s"] = startup_s / out.pop("start_gauge_s") * REF_S + out.pop("import_rescaled_s")
        return out


def check_runs(runs: list, min_cases: int) -> tuple:
    """Correctness of the reports: (correct, classes, sha256, problems)."""
    first = runs[0]
    classes, sha = first["classes"], first["report_sha256"]
    problems = []
    if any(r["report_sha256"] != sha for r in runs):
        problems.append("report bytes differ between runs of the same seed")
    if not classes["consistent"]:
        problems.append("report totals or pass flags disagree with the residual summaries")
    if classes["nonzero"]:
        problems.append(f"{classes['nonzero']} nonzero residuals (wrong verdicts)")
    if classes["cases"] < min_cases:
        problems.append(f"only {classes['cases']} cases, expected at least {min_cases}")
    return not problems, classes, sha, problems


def end_to_end(children: Children, workload: dict, seconds: float) -> tuple:
    children.run("import")  # compiles the bytecode cache; not a sample
    imports, runs, cycles = [], [], []
    deadline = time.monotonic() + seconds
    # Another cycle starts only if one more like the previous ones still ends
    # within the window, so a run lasts at most about --seconds.
    while not runs or time.monotonic() + statistics.median(cycles) <= deadline:
        started = time.monotonic()
        # set-up samples are spread over the run, like the verify samples
        imports += [children.run("import") for _ in range(IMPORTS_PER_RUN)]
        runs.append(children.run("run"))
        cycles.append(time.monotonic() - started)
    correct, classes, sha, problems = check_runs(runs, workload["min_cases"])
    run_s = statistics.median(r["run_s"] for r in runs)
    measured = imports + runs
    verdicts = classes["pass"] + classes["nonzero"]
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in measured),
        "run_s": run_s,
        "verdicts_per_s": verdicts / run_s,
        "pass_ratio": classes["pass"] / classes["cases"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    samples = {
        "run_s": [r["run_s"] for r in runs],
        "run wall time": [r["wall_s"] for r in runs],
        "setup_s": [c["setup_s"] for c in measured],
        "set-up wall time": [c["setup_wall_s"] for c in measured],
    }
    return correct, classes, sha, problems, metrics, samples


def describe(samples: list) -> str:
    return f"median {statistics.median(samples):.4g}, min {min(samples):.4g}, max {max(samples):.4g}, n = {len(samples)}"


def per_layer(children: Children, workload: dict, names: dict, trace_path: Path) -> tuple:
    plain = children.run("run")
    traced = children.run("trace", str(trace_path))
    probes = children.run("probe")["probes"]
    correct, classes, sha, problems = check_runs([plain, traced], workload["min_cases"])
    layers = dict(traced["layers"], **probes)
    layers["trace.run_s"] = traced["wall_s"]
    layers["trace.untraced_run_s"] = plain["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["cli.error_cases"] = classes["error"]
    layers["cli.nonzero_cases"] = classes["nonzero"]
    listed = {n for n in names if ".errors." in n}
    metrics = {}
    for name in names:
        if name.endswith(".errors.other"):  # exception types not listed for the module
            prefix = name[: -len("other")]
            metrics[name] = sum(v for k, v in layers.items() if k.startswith(prefix) and k not in listed)
        elif name in layers:
            metrics[name] = layers[name]
        elif ".errors." in name:
            metrics[name] = 0  # no exception of that type crossed the boundary
        else:
            raise BenchError(f"per-layer metric {name} was not measured")
    extra = {"error_types": traced["error_types"], "all_layers": layers}
    return correct, classes, sha, problems, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", default="default", type=parse_seed)
    parser.add_argument("--seconds", default=30, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "askeykit" / "cli.py").is_file():
        print(f"error: no askeykit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    children = Children(workload["config"], args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            names = spec["per_layer"]
            correct, classes, sha, problems, metrics, extra = per_layer(
                children, workload, names, OUT_DIR / f"{stem}-spans.json"
            )
        else:
            names = spec["end_to_end"]
            correct, classes, sha, problems, metrics, extra = end_to_end(
                children, workload, args.seconds
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = classes["nonzero"] + classes["error"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  why: {workload['why']}")
    print(
        f"  cases {classes['cases']}  pass {classes['pass']}  nonzero_cases {classes['nonzero']}"
        f"  error_cases {classes['error']}  failed_ratio {failed / classes['cases']:.4f}"
    )
    print(f"  report_sha256 {sha}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    if args.trace:
        types = ", ".join(f"{t} {n}" for t, n in sorted(extra["error_types"].items()))
        print(f"  error cases by exception type: {types or '-'}")
    for name, unit in names.items():
        print(f"  {name:45s} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        for name, samples in extra.items():
            print(f"  {name} samples: {describe(samples)}")
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"classes": classes, "report_sha256": sha, "metrics": metrics, "extra": extra}, indent=1)
    )
    result = {
        "correct": correct,
        "attempted": classes["cases"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
