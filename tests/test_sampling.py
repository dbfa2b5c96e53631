"""Seeded sampling: the integer-part draw against the scalar loop it replaced."""

from math import ceil, floor
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from askeykit.algebra import GaussianRational, scalar
from askeykit.families import FAMILIES, make_point
from askeykit.sampling import MAX_DEN, sample_point, sample_rational


def _reference_rational(rng, lo, hi, skip=None):
    """The draw on GaussianRational objects: the same RNG calls, compared as scalars."""
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


def _reference_point(tag, rng):
    values = {}
    for param in FAMILIES[tag].domain:
        lo, hi, skip = param.sampling_window(values)
        if param.integer:
            values[param.name] = rng.randrange(floor(lo) + 1, ceil(hi))
        else:
            values[param.name] = _reference_rational(rng, lo, hi, skip)
    return make_point(tag, **values)


def _outcome(draw, rng, *args):
    try:
        return draw(rng, *args), rng.getstate()
    except RuntimeError:
        return "exhausted", rng.getstate()


rationals = st.builds(scalar, st.integers(-80, 80), st.integers(1, 12))


@st.composite
def windows(draw):
    """(lo, hi, skip); narrow windows leave few candidates, so the midpoint skip is often drawn."""
    lo = draw(rationals)
    hi = lo + draw(st.builds(scalar, st.integers(1, 40), st.integers(1, 64)))
    skip = draw(st.one_of(st.none(), st.integers(-3, 3), rationals, st.just((lo + hi) / 2)))
    return lo, hi, skip


@settings(max_examples=300, deadline=None)
@given(windows(), st.integers(0, 2**32))
def test_sample_rational_matches_the_scalar_loop(window, seed):
    new = _outcome(sample_rational, Random(seed), *window)
    old = _outcome(_reference_rational, Random(seed), *window)
    assert new == old


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 2**32))
def test_sample_point_matches_the_scalar_loop(tag, seed):
    new, old = Random(seed), Random(seed)
    for _ in range(3):
        assert sample_point(tag, new) == _reference_point(tag, old)
        assert new.getstate() == old.getstate()


def test_sample_rational_refuses_a_non_real_bound():
    with pytest.raises(TypeError):
        sample_rational(Random(1), GaussianRational(0, 1), 3)
    with pytest.raises(TypeError):
        sample_rational(Random(1), 0, GaussianRational(3, 1))
