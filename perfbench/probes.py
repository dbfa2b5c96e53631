"""Kernel probes at fixed sizes, through askeykit's public API only.

Each probe times one operation on inputs drawn from the run's seed, repeats
the timing and keeps the median.  Probe names follow the layer they time:
`algebra.probe.*` for scalar and polynomial kernels, `ops.probe.*` for
one Leibniz check per operator scheme.
"""

from __future__ import annotations

import statistics
import time
from random import Random

from askeykit.algebra import (
    GaussianRational,
    Poly,
    Rational,
    chebyshev_lift,
    chebyshev_project,
)
from askeykit.ops import leibniz_check, operator_catalog

REPEATS = 5
DEGREE = 16
LEIBNIZ_N = 6


def _timed(fn, loops: int) -> float:
    """Median seconds per call of fn over REPEATS timings of `loops` calls."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / loops)
    return statistics.median(samples)


def _rational(rng: Random) -> Rational:
    return Rational(rng.randrange(-64, 65), rng.randrange(1, 65))


def _scalar(rng: Random) -> GaussianRational:
    return GaussianRational(_rational(rng), _rational(rng))


def _poly(rng: Random, degree: int, kind: str = "poly"):
    coeffs = [_rational(rng) for _ in range(degree + 1)]
    coeffs[-1] = coeffs[-1] or Rational(1)
    if kind == "even":
        coeffs = [c if k % 2 == 0 else 0 for k, c in enumerate(coeffs)]
    f = Poly(coeffs)
    return chebyshev_lift(f) if kind == "laurent" else f


def run_all(seed: int) -> dict:
    rng = Random(f"probes:{seed}")
    out = {}
    a, b = _scalar(rng), _scalar(rng)
    out["algebra.probe.scalar_mul_ns"] = _timed(lambda: a * b, 2000) * 1e9
    out["algebra.probe.scalar_inverse_ns"] = _timed(a.inverse, 2000) * 1e9

    f, g = _poly(rng, DEGREE), _poly(rng, DEGREE)
    fg = f * g
    shift = GaussianRational(0, Rational(1, 2))
    lifted = chebyshev_lift(f)
    out["algebra.probe.poly_mul_d16_us"] = _timed(lambda: f * g, 10) * 1e6
    out["algebra.probe.compose_affine_d16_us"] = _timed(lambda: f.compose_affine(1, shift), 10) * 1e6
    out["algebra.probe.exact_div_d16_us"] = _timed(lambda: fg.exact_div(g), 10) * 1e6
    out["algebra.probe.chebyshev_project_d16_us"] = _timed(lambda: chebyshev_project(lifted), 2) * 1e6

    q, p = Rational(rng.randrange(1, 64), 64), Rational(rng.randrange(1, 64), 64)
    for name, spec in operator_catalog(q, p).items():
        kind = "laurent" if spec.carrier == "laurent" else ("even" if name == "delta-x2" else "poly")
        lf, lg = _poly(rng, 5, kind), _poly(rng, 5, kind)
        if leibniz_check(spec, lf, lg, LEIBNIZ_N):
            raise AssertionError(f"Leibniz rule {name} failed in its probe")
        out[f"ops.probe.leibniz_{name}_n{LEIBNIZ_N}_ms"] = (
            _timed(lambda: leibniz_check(spec, lf, lg, LEIBNIZ_N), 1) * 1e3
        )
    return out
