"""Leakage against lattice and finite-set evidence: the mass of the atoms
that ``Evidence.contains`` rejects, summed with nothing cancelling against
1, checked against 40-digit mpmath sums."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from probleak import Empirical, Evidence, Mixture, Poisson, leakage, never_falsifiable

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
@example((3.0, (1e300, math.inf, 0.7)))
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
def _discrete_dists(draw):
    parts = draw(st.lists(_parts, min_size=1, max_size=3))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=len(parts), max_size=len(parts)))
    weights = np.asarray(raw) + 1e-3 * (np.asarray(raw) == 0.0).all()
    return Mixture(parts, weights / weights.sum()) if len(parts) > 1 else parts[0]


@st.composite
def _mixture_cases(draw):
    mix = draw(_discrete_dists())
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
@example((1e300, math.inf, 2.0**-60))
def test_the_count_stride_agrees_with_contains(lattice):
    # the counts the lattice holds, from 5 below the least one contains can
    # accept: a run from first to last, or those listed between the ends of
    # the bulk it is given, here the 400 counts tested
    e = Evidence.lattice_support(*lattice)
    lo, hi, step = e.lattice
    atol = e._lattice_atol()
    first = max(math.ceil(lo - 3.0 * atol) - 5, 0)
    counts = np.arange(first, first + 400, dtype=float)
    if first + 400 > 2**53:  # the counts tested are no longer all doubles
        return
    held = e._held_counts(lambda: (first, first + 399))
    accepted = e.contains(counts)
    if type(held) is tuple:
        np.testing.assert_array_equal(accepted, (counts >= held[0]) & (counts <= held[1]))
    else:
        np.testing.assert_array_equal(counts[accepted], held)
    # an integer lo and step hold every step-th count from lo, where the
    # membership slack, 1e-9 of the largest of 1, |lo|, step and |y|, stays
    # below half a count
    if lo == math.floor(lo) and step == math.floor(step) and abs(lo) <= 2.0**53:
        if 1e-9 * max(1.0, abs(lo), step, counts[-1]) < 0.25:
            want = (counts >= lo) & ((counts - lo) % step == 0) & (counts <= hi + atol)
            np.testing.assert_array_equal(accepted, want)


@st.composite
def _poisson_set_cases(draw):
    """A rate and a finite set around it: a run of counts that spans some
    or all of the bulk, with holes, or a few scattered counts, plus members
    that are no counts and negative members."""
    rate = draw(_rates)
    sd = math.sqrt(rate)
    lo = max(0, math.floor(rate + draw(st.floats(-10.0, 2.0)) * sd))
    hi = max(lo, math.ceil(rate + draw(st.floats(-2.0, 10.0)) * sd))
    if draw(st.booleans()):
        counts = set(range(lo, hi + 1)) - set(draw(st.lists(st.integers(lo, hi), max_size=5)))
    else:
        counts = set(draw(st.lists(st.integers(0, hi + 10), max_size=12)))
    others = draw(st.lists(st.sampled_from([-3.0, -1.0, -0.5, 0.5, 2.5, lo + 0.25]), max_size=3))
    return rate, tuple(sorted(counts)) + tuple(others) or (-1.0,)


@settings(max_examples=150, deadline=None)
@given(_poisson_set_cases())
@example((20.0, tuple(range(400))))
@example((700.0, tuple(range(2000))))
@example((1e-3, (0.0, 1.0, 2.0)))
@example((3.0, (-2.0, 0.5, 1.0, 2.0, 2.0**53, 1e300)))
@example((9e4, (-1.0,)))
def test_poisson_finite_set_leakage_matches_mpmath(case):
    rate, values = case
    e = Evidence.finite_set(values)
    _assert_close(leakage(Poisson(rate), e).leakage, _mp_poisson_off(rate, e))


@settings(max_examples=100, deadline=None)
@given(_discrete_dists(), st.lists(st.sampled_from([*_ATOMS, -1.0, -0.5, 4.0, 5.0, 12.0]), min_size=1, max_size=8))
def test_mixture_and_empirical_finite_set_leakage_match_mpmath(dist, values):
    e = Evidence.finite_set(values)
    _assert_close(leakage(dist, e).leakage, _mp_off(dist, e))


def test_a_count_listing_past_the_limit_is_refused_before_it_is_made():
    # the counts this lattice holds lie 7 apart, so they are listed, and
    # Poisson(1e12)'s bulk spans about 1.6e7 counts
    e = Evidence.lattice_support(0.3, math.inf, 0.7)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="counts to test, above the 10000000 limit"):
            leakage(Poisson(1e12), e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    with pytest.raises(ValueError, match="above the 10000000 limit"):
        leakage(Mixture([Poisson(3.0), Poisson(1e300)], [0.5, 0.5]), e)


@pytest.mark.xfail(strict=True, reason="contains takes a slack of 1e-9 |y|, which swallows a step of 2 past 5e8")
def test_an_odd_count_is_no_point_of_the_even_lattice():
    assert Evidence.lattice_support(0.0, math.inf, 2.0).contains(1e9 + 1.0) is False


def _mp_off_the_offset_lattice(rate: float):
    """Poisson(rate) mass off lattice(0.3, inf, 0.7), at 40 digits, from
    integer arithmetic alone: 0.3 + 0.7 k = n for some k >= 0 iff
    (10 n - 3) % 7 == 0, which fixes n mod 7, and the mass of the counts
    with n = r mod 7 is (1/7) sum_j w^(-j r) exp(rate (w^j - 1)),
    w = exp(2 pi i / 7)."""
    with mp.workdps(40):
        w = mp.expjpi(mp.mpf(2) / 7)
        on = [r for r in range(7) if (10 * r - 3) % 7 == 0]
        mass_on = sum(mp.re(sum(w ** (-j * r) * mp.exp(rate * (w**j - 1)) for j in range(7))) / 7 for r in on)
        return 1 - mass_on


@pytest.mark.xfail(strict=True, reason="contains takes a slack of 1e-9 |y|, which reaches the lattice's steps at large counts")
def test_the_offset_lattice_leaks_six_sevenths_at_large_rates():
    e = Evidence.lattice_support(0.3, math.inf, 0.7)
    for rate in (1e4, 1e8, 1e10):
        _assert_close(leakage(Poisson(rate), e).leakage, _mp_off_the_offset_lattice(rate))


def test_leakage_zero_and_never_falsifiable_are_different_questions():
    # the mass above a bounded lattice leaks, though every point is a count
    e = Evidence.lattice_support(0.0, 10.0, 1.0)
    assert never_falsifiable(Poisson(3.0), e) is True
    assert leakage(Poisson(3.0), e).leakage == pytest.approx(float(special.pdtrc(10.0, 3.0)), rel=1e-15)
