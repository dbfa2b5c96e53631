"""Acceptance suite: every criterion at its stated bound, tolerance zero.

Each test prints one PASS/FAIL line.  All residuals are exact symbolic
objects; a criterion passes only when every residual vanishes identically.
"""

import time
from random import Random

from askeykit.algebra import Poly, pochhammer, scalar
from askeykit.burchnall import (
    EXPANSIONS,
    closed_expansion_residual,
    chain_expansion_residual,
    expansion_term_gaps,
    feldheim_watson_coefficient,
    hermite_linearization_oracle,
    operational_residual,
    zassenhaus_series_residual,
)
from askeykit.cli import SuiteConfig, render_report, run_verify
from askeykit.families import FAMILIES
from askeykit.functional import adjointness_check
from askeykit.ops import leibniz_check, operator_catalog
from askeykit.sampling import sample_deformation, sample_point, sample_rational
from askeykit.toda import (
    MODIFIED_EXPANSIONS,
    TODA_SOLUTIONS,
    modified_expansion_residual,
    toda_from_recurrence_crosscheck,
    toda_residuals,
)

Q = scalar
POINTS_PER_IDENTITY = 10
# the families of the classical Askey scheme whose expansions run to n + m = 8
CLASSICAL = {"hermite", "laguerre", "jacobi", "meixner", "charlier", "meixner-pollaczek"}
_t0 = time.perf_counter()


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f"  ({detail})" if detail else ""
    print(f"[acceptance] {status}: {name}{extra}")
    assert ok, name


def test_criterion_1_identity_suite():
    """All 13 closed-form expansions, n+m <= 8 classical / 6 q-level,
    at >= 10 seeded admissible points each."""
    failures = []
    for ident, e in sorted(EXPANSIONS.items()):
        bound = 8 if e.family in CLASSICAL else 6
        rng = Random(1_000_001)
        for _ in range(POINTS_PER_IDENTITY):
            pt = sample_point(e.family, rng)
            for n in range(bound + 1):
                for m in range(bound + 1 - n):
                    if closed_expansion_residual(ident, pt, n, m):
                        failures.append((ident, pt, n, m))
    elapsed = time.perf_counter() - _t0
    _report(
        "criterion 1: 13 expansion identities residual-zero",
        not failures and elapsed < 600,
        f"{POINTS_PER_IDENTITY} points each, {elapsed:.1f}s elapsed",
    )


def test_criterion_2_generic_engine_agreement():
    """the generic operational and chain-expansion residuals vanish and reproduce each literal expansion
    term by term after normalization, every family, n <= 6."""
    failures = []
    rng = Random(2_000_002)
    for tag, spec in sorted(FAMILIES.items()):
        if spec.raising is None:
            continue
        pt = sample_point(tag, rng)
        f = spec.carrier.element([sample_rational(rng, -3, 3) for _ in range(5)])
        for var in spec.variants:
            for n in range(7):
                if operational_residual(pt, n, f, var.name):
                    failures.append(("operational", tag, var.name, n))
            for n in range(7):
                for m in range(3):
                    if chain_expansion_residual(pt, n, m, var.name):
                        failures.append(("chain-expansion", tag, var.name, n, m))
    for ident, e in sorted(EXPANSIONS.items()):
        pt = sample_point(e.family, rng)
        for n in range(7):
            for m in range(3):
                if any(expansion_term_gaps(ident, pt, n, m)):
                    failures.append(("agreement", ident, n, m))
    _report("criterion 2: generic engine zero + literal agreement, n <= 6", not failures, str(failures[:3]) if failures else "")


def test_criterion_3_leibniz_engines():
    """Every Leibniz factorization in the catalog, n <= 6, degree-<=5 inputs."""
    failures = []
    rng = Random(3_000_003)

    def rand_input(carrier):
        return carrier.element([sample_rational(rng, -3, 3) for _ in range(6)])

    for trial in range(3):
        q = sample_rational(rng, 0, 1)
        p = sample_rational(rng, 0, 1)
        for name, spec in operator_catalog(q, p).items():
            for n in range(7):
                f = rand_input(spec.carrier)
                g = rand_input(spec.carrier)
                if leibniz_check(spec, f, g, n):
                    failures.append((name, n))
    _report("criterion 3: all operator schemes pass leibniz_check, n <= 6", not failures, str(failures[:3]) if failures else "")


def test_criterion_4_toda():
    """All six flows residual-zero for n <= 10 (Krawtchouk n <= N-1, N <= 8),
    plus the recurrence crosscheck for n <= 6 at >= 5 samples per family."""
    failures = []
    rng = Random(4_000_004)
    for tag, sol in sorted(TODA_SOLUTIONS.items()):
        for _ in range(POINTS_PER_IDENTITY):
            pt = sample_point(tag, rng)
            top = FAMILIES[tag].top(pt)
            nmax = 10 if top is None else top - 1
            for n in range(1, nmax + 1):
                rc, rb = toda_residuals(sol, n, pt)
                if rc or rb:
                    failures.append((tag, n))
    for tag in sorted(TODA_SOLUTIONS):
        for _ in range(5):
            pt = sample_point(tag, rng)
            extra = sample_deformation(rng, pt)
            top = FAMILIES[tag].top(pt)
            nmax = 6 if top is None else min(6, top - 1)
            for n in range(1, nmax + 1):
                bg, cg = toda_from_recurrence_crosscheck(pt, extra, n)
                if bg or cg:
                    failures.append(("crosscheck", tag, n))
    _report("criterion 4: six lattice flows + recurrence crosscheck", not failures, str(failures[:3]) if failures else "")


def test_criterion_5_modified_expansions():
    """All ten deformed-weight expansions, n <= 8 (q-cases 6), >= 10 samples."""
    failures = []
    for ident, e in sorted(MODIFIED_EXPANSIONS.items()):
        bound = 6 if e.family == "big-q-jacobi" else 8
        rng = Random(5_000_005)
        for _ in range(POINTS_PER_IDENTITY):
            pt = sample_point(e.family, rng)
            s = sample_deformation(rng, pt)
            for n in range(bound + 1):
                if modified_expansion_residual(ident, pt, n, s):
                    failures.append((ident, n))
    _report("criterion 5: ten modified-weight expansions residual-zero", not failures, str(failures[:3]) if failures else "")


def test_criterion_6_adjointness():
    """Vanishing + constant mass ratio for seven families, n <= 3, D = 6;
    the Laguerre ratio is (nu+1)_n exactly."""
    failures = []
    rng = Random(6_000_006)
    fams = ("hermite", "laguerre", "jacobi", "meixner", "charlier", "meixner-pollaczek", "big-q-jacobi")
    for tag in fams:
        pt = sample_point(tag, rng)
        for n in (1, 2, 3):
            rho, pairs, fails = adjointness_check(pt, n)
            if fails:
                failures.append((tag, n, fails[:1]))
            if tag == "laguerre" and rho != pochhammer(pt.get("nu") + 1, n):
                failures.append(("laguerre-rho", n, rho))
    _report("criterion 6: integrated adjointness, 7 families, D = 6", not failures, str(failures[:3]) if failures else "")


def test_criterion_7_oracles():
    """Linearization oracle matches the product-formula coefficients for
    m, n <= 6; the operator-exponential series vanishes through order 6."""
    failures = []
    for m in range(7):
        for n in range(7):
            got = hermite_linearization_oracle(m, n)
            want = tuple(
                pochhammer(1, 0) * feldheim_watson_coefficient(m, n, r)
                for r in range(min(m, n) + 1)
            )
            if got != want:
                failures.append((m, n))
    rng = Random(7_000_007)
    for _ in range(5):
        f = Poly([sample_rational(rng, -3, 3) for _ in range(4)])
        if any(zassenhaus_series_residual(6, f)):
            failures.append(("zassenhaus", f))
    _report("criterion 7: linearization + operator-exponential oracles", not failures, str(failures[:3]) if failures else "")


def test_criterion_8_determinism():
    """Identical config and seed produce byte-identical JSON reports."""
    config = SuiteConfig(
        identities=["hermite-expansion", "charlier-toda-eta1", "toda-flows"],
        max_n=3,
        max_m=2,
        trials=2,
        seed=20180717,
    )
    first = render_report(run_verify(config), "json")
    second = render_report(run_verify(config), "json")
    ok = first.encode() == second.encode()
    _report("criterion 8: byte-identical reruns of verify", ok, f"{len(first)} bytes")
