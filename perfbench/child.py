"""One cold measurement in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py MODE CONFIG_JSON SEED [TRACE_OUT]

MODE is `import` (set-up only), `run` (untraced verify), `trace` (verify
under the tracer, spans written to TRACE_OUT) or `probe` (kernel probes).
CONFIG_JSON holds the `SuiteConfig` fields of the workload.  The first
thing the child does is import `askeykit.cli`: the parent's spawn to the
end of that import is the set-up time a user of `askeykit verify` waits
for.  The import and the untraced verify run under the gauge (`gauge.py`),
which rescales their wall times to the reference machine speed; the child
reports the monotonic time at which the import started, so the parent can
add the interpreter's start-up.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gauge import Gauge  # noqa: E402

STARTED_NS = time.monotonic_ns()
with Gauge() as SETUP_GAUGE:
    import askeykit.cli as cli  # noqa: E402  (timed: this is the set-up)

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def classify(report: dict) -> dict:
    """Split the report's cases into pass, nonzero and error, and check its totals.

    Every catalogued identity is a theorem, so a nonzero residual is a wrong
    verdict; a summary starting with `error:` is a case that reached no verdict.
    """
    counts = {"pass": 0, "nonzero": 0, "error": 0}
    consistent = True
    for case in report["cases"]:
        summary = case["residual_summary"]
        if summary.startswith("error:"):
            kind = "error"
        elif summary == "zero":
            kind = "pass"
        else:
            kind = "nonzero"
        counts[kind] += 1
        consistent &= case["pass"] == (kind == "pass")
    totals = report["totals"]
    consistent &= totals["cases"] == len(report["cases"])
    consistent &= totals["passed"] == counts["pass"]
    consistent &= totals["failed"] == counts["nonzero"] + counts["error"]
    return {
        "cases": len(report["cases"]),
        "pass": counts["pass"],
        "nonzero": counts["nonzero"],
        "error": counts["error"],
        "consistent": bool(consistent),
    }


def error_types(report: dict, tracer) -> dict:
    """Exception type of each error case, from the first module boundary it crossed."""
    by_label = {tracer.case_labels[c]: v[1] for c, v in tracer.case_errors.items() if c >= 0}
    types = {}
    for case in report["cases"]:
        if case["residual_summary"].startswith("error:"):
            t = by_label.get(case["id"], "unknown")
            types[t] = types.get(t, 0) + 1
    return types


def verify(config: dict, seed: int, tracer=None):
    """run_verify + render_report, timed; the root spans are opened here.

    Returns the report, its text, the wall time and, untraced, the wall time
    rescaled by the gauge (traced, the wall time again).
    """
    suite = cli.SuiteConfig(seed=seed, **config)
    if tracer is None:
        with Gauge() as gauge:
            report = cli.run_verify(suite)
            text = cli.render_report(report, "json")
        return report, text, gauge.wall_s(), gauge.rescaled_s()
    t0 = time.perf_counter()
    root = tracer.open(tracer.name_id("cli.run_verify"))
    report = cli.run_verify(suite)
    tracer.close(root)
    render = tracer.open(tracer.name_id("cli.render_report"))
    text = cli.render_report(report, "json")
    tracer.close(render)
    run_s = time.perf_counter() - t0
    return report, text, run_s, run_s


def main(argv) -> int:
    mode, config, seed = argv[1], json.loads(argv[2]), int(argv[3])
    first = SETUP_GAUGE.pieces[0]
    out = {
        "started_ns": STARTED_NS,  # the interpreter's start-up ends here
        "start_gauge_s": first[1] - first[0],
        "import_wall_s": SETUP_GAUGE.wall_s(),
        "import_rescaled_s": SETUP_GAUGE.rescaled_s(),
    }
    if mode in ("run", "trace"):
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        report, text, wall_s, run_s = verify(config, seed, tracer)
        out["wall_s"] = wall_s
        out["run_s"] = run_s
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["report_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        out["classes"] = classify(report)
        if tracer is not None:
            out["layers"] = tracer.metrics()
            out["error_types"] = error_types(report, tracer)
            tracer.write(argv[4])
    elif mode == "probe":
        import probes

        out["probes"] = probes.run_all(seed)
    elif mode != "import":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
