"""Seeded rational sampling of admissible parameter points.

Samples are rationals with numerator and denominator bounded by 64, drawn
from the sampling windows of each family's parameter domain, coordinate by
coordinate in the domain's order, so a bound may read the coordinates drawn
before it.  Deformation scalars are drawn the same way from the domain of
the family's deformation.  Everything is driven by random.Random so a fixed
seed reproduces the exact suite.  A draw works on the integer parts of its
bounds and builds a scalar only for the value it returns.
"""

from __future__ import annotations

from math import ceil, floor
from random import Random

from .algebra import GaussianRational, _parts
from .families import FAMILIES, Param, ParamPoint, make_point

__all__ = ["sample_rational", "sample_point", "sample_deformation"]

MAX_DEN = 64


def sample_rational(rng: Random, lo, hi, skip=None) -> GaussianRational:
    """Uniform-ish real rational strictly inside (lo, hi) with small
    numerator/denominator, never equal to `skip`.

    A candidate num/den is tested on integers (den > 0, so lo < num/den is
    lo_r * den < num * lo_d), and the scalar is built only for the value
    returned.
    """
    lo_r, lo_i, lo_d = _parts(lo)
    hi_r, hi_i, hi_d = _parts(hi)
    if lo_i or hi_i:
        raise TypeError(f"sampling bounds must be real, got ({lo}, {hi})")
    sk = None if skip is None else _parts(skip)
    for _ in range(10_000):
        den = rng.randrange(1, MAX_DEN + 1)
        num_lo = (lo_r * den) // lo_d + 1
        num_hi = -((-hi_r * den) // hi_d) - 1
        if num_hi < num_lo:
            continue
        num = rng.randrange(num_lo, num_hi + 1)
        if abs(num) > MAX_DEN:
            continue
        if not (lo_r * den < num * lo_d and num * hi_d < hi_r * den):
            continue
        if sk is not None and not sk[1] and num * sk[2] == sk[0] * den:
            continue
        return GaussianRational.from_parts(num, 0, den)
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
