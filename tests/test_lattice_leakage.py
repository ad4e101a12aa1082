"""Leakage against lattice evidence: the mass of the atoms that
``Evidence.contains`` rejects, summed with nothing cancelling against 1,
checked against 40-digit mpmath sums."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from probleak import Empirical, Evidence, Mixture, Poisson, leakage, never_falsifiable
from probleak.predictive import _count_stride

_rates = st.floats(-3.0, 5.0).map(lambda e: 10.0**e)


def _mp_poisson_off(rate: float, e: Evidence):
    """The Poisson mass of the counts ``e.contains`` rejects, at 40 digits.

    Every count whose pmf could reach 1e-330 is summed, from a pmf that a
    recurrence carries from the first one; the counts outside hold less
    than 1e-300 together.
    """
    with mp.workdps(40):
        r = mp.mpf(rate)
        first = max(0, math.floor(rate - 40.0 * math.sqrt(rate) - 40.0))
        last = math.ceil(rate + 45.0 * math.sqrt(rate) + 200.0)
        off = ~e.contains(np.arange(first, last + 1, dtype=float))
        pmf = mp.exp(first * mp.log(r) - r - mp.loggamma(first + 1))
        total = mp.mpf(0)
        for count, is_off in zip(range(first, last + 1), off):
            if is_off:
                total += pmf
            pmf = pmf * r / (count + 1)
        return total


def _mp_off(dist, e: Evidence):
    if isinstance(dist, Poisson):
        return _mp_poisson_off(dist.rate, e)
    if isinstance(dist, Empirical):
        obs = np.asarray(dist.observations)
        return mp.mpf(int(np.count_nonzero(~e.contains(obs)))) / obs.size
    with mp.workdps(40):
        return mp.fsum(mp.mpf(w) * _mp_off(c, e) for w, c in zip(dist.weights, dist.components))


def _assert_close(got: float, want) -> None:
    err = abs(mp.mpf(got) - want)
    assert err <= 1e-12 * want or err <= 1e-300, (got, mp.nstr(want, 17))


@st.composite
def _lattices_near(draw, rate):
    """Integer, decimal (step 1/m), strided (integer step) and other
    lattices, bounded and unbounded, whose lower end lies within eight
    standard deviations of the rate."""
    sd = math.sqrt(rate)
    base = max(0, math.floor(rate + draw(st.floats(-8.0, 8.0)) * sd))
    kind = draw(st.sampled_from(["integer", "decimal", "strided", "other"]))
    if kind == "integer":
        lo, step = float(base + draw(st.sampled_from([0, -3]))), 1.0
    elif kind == "decimal":
        m = draw(st.sampled_from([2, 3, 4, 5, 7, 10]))
        lo, step = (base * m + draw(st.sampled_from([0, 1, 3, -2]))) / m, 1.0 / m
    elif kind == "strided":
        lo, step = float(base), float(draw(st.integers(2, 7)))
    else:
        lo, step = base + 0.3, 0.7
    points = draw(st.one_of(st.none(), st.integers(0, int(20.0 * sd / step) + 3)))
    hi = math.inf if points is None else lo + step * points
    return lo, hi, step


@st.composite
def _poisson_cases(draw):
    rate = draw(_rates)
    return rate, draw(_lattices_near(rate))


@settings(max_examples=150, deadline=None)
@given(_poisson_cases())
@example((17.7, (0.3, math.inf, 0.1)))
@example((20_000.0, (0.0, math.inf, 1.0)))
@example((3.0, (0.0, 10.0, 1.0)))
@example((20.0, (0.0, math.inf, 2.0)))
@example((1e-3, (0.0, math.inf, 7.0)))
@example((9e4, (0.3, math.inf, 0.7)))
def test_poisson_lattice_leakage_matches_mpmath(case):
    rate, lattice = case
    e = Evidence.lattice_support(*lattice)
    _assert_close(leakage(Poisson(rate), e).leakage, _mp_poisson_off(rate, e))


_ATOMS = [0.0, 0.3, 0.5, 1.0, 1.4, 2.0, 3.0, 7.0, 11.0]
_parts = st.one_of(
    st.floats(-3.0, 2.0).map(lambda e: Poisson(10.0**e)),
    st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=6).map(Empirical),
)


@st.composite
def _mixture_cases(draw):
    parts = draw(st.lists(_parts, min_size=1, max_size=3))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=len(parts), max_size=len(parts)))
    weights = np.asarray(raw) + 1e-3 * (np.asarray(raw) == 0.0).all()
    mix = Mixture(parts, weights / weights.sum()) if len(parts) > 1 else parts[0]
    lattice = draw(st.sampled_from([
        (0.0, math.inf, 1.0), (0.0, 2.0, 1.0), (0.3, math.inf, 0.1), (0.0, math.inf, 0.5),
        (1.0, math.inf, 2.0), (0.0, 10.0, 0.7), (-3.0, 5.0, 1.0), (0.5, math.inf, 1.0),
    ]))
    return mix, lattice


@settings(max_examples=100, deadline=None)
@given(_mixture_cases())
def test_mixture_and_empirical_lattice_leakage_match_mpmath(case):
    dist, lattice = case
    e = Evidence.lattice_support(*lattice)
    _assert_close(leakage(dist, e).leakage, _mp_off(dist, e))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=5e-324, max_value=1e300))
@example(20.0)
@example(700.0)
@example(20_000.0)
def test_the_integer_lattice_leaks_nothing_at_any_rate(rate):
    e = Evidence.lattice_support(0.0, math.inf, 1.0)
    assert leakage(Poisson(rate), e).leakage == 0.0
    assert leakage(Mixture([Poisson(rate), Poisson(rate + 1.0)], [0.5, 0.5]), e).leakage == 0.0


@st.composite
def _any_lattice(draw):
    lo = draw(st.one_of(
        st.integers(-20, 60).map(float),
        st.integers(-200, 600).map(lambda j: j / 10.0),
        st.floats(-20.0, 60.0),
        st.sampled_from([2.0**52 - 1, 2.0**53, 1e300]),
    ))
    step = draw(st.one_of(
        st.integers(1, 9).map(float),
        st.sampled_from([0.1, 0.5, 0.25, 1.0 / 3.0, 1.0 / 7.0, 0.7, 1.0 + 2.0**-40, 2.0**-60]),
        st.floats(0.01, 5.0),
    ))
    hi = draw(st.one_of(st.just(math.inf), st.floats(0.0, 200.0).map(lambda h: lo + h)))
    return lo, hi, step


@settings(max_examples=500, deadline=None)
@given(_any_lattice())
@example((0.3, math.inf, 0.1))
@example((-3.0, 10.0, 1.0))
@example((1.0 / 3.0, 40.0, 1.0 / 3.0))
@example((1e9, 1e9 + 5.0, 1.0))
def test_the_count_stride_agrees_with_contains(lattice):
    e = Evidence.lattice_support(*lattice)
    lo, _, step = e.lattice
    stride = _count_stride(lo, step)
    least, greatest = e._lattice_window()
    first = max(math.ceil(least) - 5, 0)
    counts = np.arange(first, first + 400, dtype=float)
    # a stride above 1 holds where the membership slack, 1e-9 of the
    # largest of 1, |lo|, step and |y|, stays below half a count
    if stride is None or (stride > 1 and 1e-9 * max(1.0, abs(lo), step, counts[-1]) >= 0.25):
        return
    if stride == 1:
        want = counts >= math.ceil(lo)
    else:
        want = (counts >= lo) & ((counts - lo) % stride == 0)
    np.testing.assert_array_equal(e.contains(counts), want & (counts <= greatest))


def test_leakage_zero_and_never_falsifiable_are_different_questions():
    # the mass above a bounded lattice leaks, though every point is a count
    e = Evidence.lattice_support(0.0, 10.0, 1.0)
    assert never_falsifiable(Poisson(3.0), e) is True
    assert leakage(Poisson(3.0), e).leakage == pytest.approx(float(special.pdtrc(10.0, 3.0)), rel=1e-15)
