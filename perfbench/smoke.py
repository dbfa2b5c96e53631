"""Smoke test of the benchmark harness itself, at tiny degree (about 20 s).

    python3 perfbench/smoke.py

Checks that
* the case classifier counts error and nonzero cases instead of dropping them;
* the gauge leaves its own pieces out of the times and leaves no timer armed;
* an untraced and a traced run emit every metric of BENCHMARK.json with its
  unit, and the last output line has the result format;
* every error case of the tiny report has a recorded exception type;
* the per-module self times account for the traced run_s.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys

import child
import run
from gauge import Gauge
from tracer import MODULES

TINY = {"config": {"max_n": 1, "max_m": 1, "trials": 1}, "min_cases": 1, "why": "harness smoke test"}


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        check.failures += 1


check.failures = 0


def check_classifier() -> None:
    def case(i, ok, summary):
        return {"id": f"c{i}", "pass": ok, "residual_summary": summary}

    cases = [case(0, True, "zero"), case(1, False, "nonzero: 1"), case(2, False, "error: boom")]
    report = {"cases": cases, "totals": {"cases": 3, "passed": 1, "failed": 2}}
    got = child.classify(report)
    check(
        (got["pass"], got["nonzero"], got["error"], got["consistent"]) == (1, 1, 1, True),
        "classifier counts pass, nonzero and error cases",
    )
    report["totals"] = {"cases": 2, "passed": 1, "failed": 1}  # error case dropped
    check(not child.classify(report)["consistent"], "classifier flags a report that drops a case")


def check_gauge() -> None:
    before = signal.getsignal(signal.SIGALRM)
    with Gauge() as gauge:
        total = sum(i * i for i in range(2_000_000))
    check(total > 0 and len(gauge.pieces) >= 3, "gauge pieces run before, during and after a measurement")
    span = gauge.pieces[-1][1] - gauge.pieces[0][0]
    pieces = sum(end - start for start, end in gauge.pieces)
    check(abs(gauge.wall_s() + pieces - span) < 1e-6, "gauge wall time leaves out exactly the gauge pieces")
    check(gauge.rescaled_s() > 0, "gauge rescales the wall time")
    check(
        signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0) and signal.getsignal(signal.SIGALRM) is before,
        "gauge disarms its timer and restores the SIGALRM handler",
    )


def run_main(args: list) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(args)
    text = buf.getvalue()
    print(text, end="")
    check(code == 0, f"run.py {' '.join(args)} exits 0")
    result = json.loads(text.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result line has the four keys")
    return result


def check_metrics(result: dict, expected: dict, what: str) -> None:
    metrics = result["metrics"]
    check(set(metrics) == set(expected), f"{what}: exactly the metrics of BENCHMARK.json")
    check(
        all(metrics[n]["unit"] == u and isinstance(metrics[n]["value"], (int, float)) for n, u in expected.items()),
        f"{what}: every metric is a number with its unit",
    )


def main() -> int:
    check_classifier()
    check_gauge()
    spec = run.load_spec()
    run.WORKLOADS["smoke"] = TINY

    result = run_main(["--workload", "smoke", "--seed", "7", "--seconds", "0", "--trace", "0"])
    check_metrics(result, spec["end_to_end"], "untraced")
    check(all(m["value"] > 0 for m in result["metrics"].values()), "untraced: no metric is 0")
    check(result["correct"], "tiny report is correct")
    saved = json.loads((run.OUT_DIR / "smoke-seed7-trace0.json").read_text())
    classes = saved["classes"]
    check(classes["pass"] + classes["nonzero"] + classes["error"] == result["attempted"], "every case is classified")
    check(result["failed"] == classes["nonzero"] + classes["error"], "failed counts nonzero and error cases")

    result = run_main(["--workload", "smoke", "--seed", "7", "--trace", "1"])
    check_metrics(result, spec["per_layer"], "traced")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    saved = json.loads((run.OUT_DIR / "smoke-seed7-trace1.json").read_text())
    types = saved["extra"]["error_types"]
    check(sum(types.values()) == m["cli.error_cases"], "error cases in the report are all counted by type")
    check("unknown" not in types, "every error case has a recorded exception type")
    check(
        m["cli.error_cases"] == result["failed"] - m["cli.nonzero_cases"],
        "traced error count matches the result line",
    )
    layers = saved["extra"]["all_layers"]
    selfs = [layers[f"{mod}.self_s"] for mod in MODULES]
    check(min(selfs) >= -1e-6, "no module self time is negative")
    total, traced = sum(selfs), m["trace.run_s"]
    slack = max(m["trace.overhead_s"], 0.0) + 0.01 * traced
    check(
        0 <= traced - total <= slack,
        f"module self times {total:.4f} s account for traced run_s {traced:.4f} s (slack {slack:.4f} s)",
    )
    print(f"{check.failures} failed checks")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
