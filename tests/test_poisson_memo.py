"""Poisson's per-instance memo of F(k - 1), F(k), which the scalar CRPS
reads, and the quantile search on scalar pdtr calls: every value keeps the
bits of the array path."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from probleak import Evidence, Poisson, crps, leakage
from probleak import predictive

_rates = st.floats(-3.0, 5.0).map(lambda e: 10.0**e)


@st.composite
def _rate_and_outcomes(draw):
    rate = draw(_rates)
    reach = 12.0 * math.sqrt(rate) + 20.0
    ys = draw(st.lists(st.one_of(
        st.floats(-1e6, -1e-300),  # negative
        st.floats(0.0, rate + reach),  # between atoms
        st.floats(0.0, rate + reach).map(math.floor).map(float),  # on atoms
        st.floats(1e9, 1e300),  # past 1e9
        st.sampled_from([-2.0, -1.0, 0.0, 1.0]),
    ), min_size=1, max_size=12))
    return rate, ys


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(_rate_and_outcomes())
def test_scalar_crps_has_the_array_bits_on_a_memo_miss_and_on_the_hit(case):
    rate, ys = case
    dist = Poisson(rate)
    want = crps(dist, np.array(ys))
    first = [crps(dist, y) for y in ys]  # fills the memo
    again = [crps(dist, y) for y in ys]  # reads it
    assert all(type(score) is float for score in first + again)
    assert _bits(first) == _bits(want) == _bits(again)


@settings(max_examples=300, deadline=None)
@given(_rates, st.one_of(
    st.floats(1e-300, 1e-6),  # near 0
    st.floats(1e-6, 1.0 - 1e-6),
    st.floats(1e-16, 1e-6).map(lambda q: 1.0 - q),  # near 1
))
def test_quantile_is_the_smallest_count_whose_cdf_reaches_p(rate, p):
    dist = Poisson(rate)
    k = dist.quantile(p)
    assert k == math.floor(k) and k >= 0.0
    assert dist.cdf(k) >= p
    assert k == 0.0 or dist.cdf(k - 1.0) < p


@settings(max_examples=100, deadline=None)
@given(_rates, st.integers(1, 16), st.lists(st.integers(-3, 200), min_size=1, max_size=60))
def test_the_memo_stays_within_its_cap(rate, cap, counts):
    dist = Poisson(rate)
    with mock.patch.object(predictive, "_POISSON_CDF_MEMO", cap):
        for k in counts:
            assert crps(dist, float(k)) == crps(Poisson(rate), np.array([k], dtype=float))[0]
            assert len(dist._cdf_memo) <= cap
    assert len(dist._cdf_memo) == min(cap, len(set(counts)))
    for k, pair in dist._cdf_memo.items():
        assert tuple(pair) == tuple(float(special.pdtr(j, rate)) if j >= 0 else 0.0 for j in (k - 1, k))


def test_counts_past_the_cap_are_scored_and_not_kept():
    dist = Poisson(3000.0)
    ys = np.arange(predictive._POISSON_CDF_MEMO + 500, dtype=float)
    assert _bits([crps(dist, y) for y in ys.tolist()]) == _bits(crps(dist, ys))
    assert len(dist._cdf_memo) == predictive._POISSON_CDF_MEMO


@st.composite
def _rate_and_lattice(draw):
    # integer lattices, whose leakage is the mass below the first point plus
    # the mass above the last, and the offset decimal lattice 0.3, 0.4, ...,
    # whose first count is 1
    rate = draw(_rates)
    if draw(st.booleans()):
        return rate, (0.3, math.inf, 0.1), float(special.pdtr(0.0, rate))
    lo = float(draw(st.integers(0, int(rate + 6.0 * math.sqrt(rate)) + 2)))
    hi = draw(st.one_of(st.just(math.inf), st.integers(int(lo), int(lo) + 400).map(float)))
    below = float(special.pdtr(lo - 1.0, rate)) if lo >= 1.0 else 0.0
    above = 0.0 if math.isinf(hi) else float(special.pdtrc(hi, rate))
    return rate, (lo, hi, 1.0), below + above


@settings(max_examples=200, deadline=None)
@given(_rate_and_lattice())
def test_lattice_leakage_is_the_mass_off_the_lattice(case):
    rate, lattice, want = case
    got = leakage(Poisson(rate), Evidence.lattice_support(*lattice)).leakage
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
