"""Seeded rational sampling of admissible parameter points.

Samples are rationals with numerator and denominator bounded by 64, drawn
from the sampling windows of each family's parameter domain, coordinate by
coordinate in the domain's order, so a bound may read the coordinates drawn
before it.  Deformation scalars are drawn the same way from the domain of
the family's deformation.  Everything is driven by random.Random so a fixed
seed reproduces the exact suite.
"""

from __future__ import annotations

from math import ceil, floor
from random import Random

from .algebra import GaussianRational, scalar
from .families import FAMILIES, Param, ParamPoint, make_point

__all__ = ["sample_rational", "sample_point", "sample_deformation"]

MAX_DEN = 64


def sample_rational(rng: Random, lo, hi, skip=None) -> GaussianRational:
    """Uniform-ish real rational strictly inside (lo, hi) with small
    numerator/denominator, never equal to `skip`."""
    lo = scalar(lo)
    hi = scalar(hi)
    for _ in range(10_000):
        den = rng.randrange(1, MAX_DEN + 1)
        num_lo = (lo.r * den) // lo.d + 1
        num_hi = -((-hi.r * den) // hi.d) - 1
        if num_hi < num_lo:
            continue
        num = rng.randrange(num_lo, num_hi + 1)
        if abs(num) > MAX_DEN:
            continue
        v = scalar(num, den)
        if not (lo < v < hi):
            continue
        if v == skip:
            continue
        return v
    raise RuntimeError(f"could not sample a rational in ({lo}, {hi})")


def _sample(rng: Random, param: Param, values: dict):
    lo, hi, skip = param.sampling_window(values)
    if param.integer:
        return rng.randrange(floor(lo) + 1, ceil(hi))
    return sample_rational(rng, lo, hi, skip=skip)


def sample_point(tag: str, rng: Random) -> ParamPoint:
    values = {}
    for param in FAMILIES[tag].domain:
        values[param.name] = _sample(rng, param, values)
    return make_point(tag, **values)


def sample_deformation(rng: Random, point: ParamPoint) -> GaussianRational | None:
    """The scalar of the family's e^(-xt) deformation, drawn from its domain;
    None (and no draw) for a family without a deformation."""
    d = FAMILIES[point.family].deformation
    if d is None:
        return None
    return _sample(rng, d.scalar, point.as_dict())
