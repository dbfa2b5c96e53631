"""The benchmark's workloads: fixed `SuiteConfig` settings, seeded per run.

Each workload is one call of `askeykit.cli.run_verify` plus
`render_report(report, "json")`.  The seed given on the command line becomes
`SuiteConfig.seed`; nothing else about the inputs varies between runs.
"""

from __future__ import annotations

DEFAULT_SEED = 7
# Never used while the benchmark or a change is tuned; a claimed gain must
# also hold here (`--seed held-out`).
HELD_OUT_SEED = 2718

WORKLOADS = {
    "suite": {
        "config": {"max_n": 5, "max_m": 5, "trials": 1},
        "min_cases": 1091,
        "why": (
            "all identities and families at max-n = max-m = 5, one trial: the "
            "command users run; it mixes every layer"
        ),
    },
    "chains-deep": {
        "config": {
            "identities": ["chain-expansion", "operational", "leibniz"],
            "max_n": 8,
            "max_m": 2,
            "trials": 1,
        },
        "min_cases": 405,
        "why": (
            "raising chains and operator iteration at degree up to 10: large dense "
            "polynomials through families, ops, burchnall and algebra; functional "
            "and toda do no work"
        ),
    },
    "small-many": {
        "config": {"max_n": 2, "max_m": 2, "trials": 6},
        "min_cases": 1920,
        "why": (
            "all identities at degree <= 2 with six trials: many tiny polynomials, "
            "so fixed per-operation, sampling and report costs dominate; "
            "adjointness does about half the work"
        ),
    },
}


def parse_seed(text: str) -> int:
    """An integer seed, or one of the names `default` and `held-out`."""
    named = {"default": DEFAULT_SEED, "held-out": HELD_OUT_SEED}
    if text in named:
        return named[text]
    return int(text)
