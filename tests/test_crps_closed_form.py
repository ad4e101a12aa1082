"""Closed-form CRPS for the normal, Student t, truncated normal and Poisson.

The oracle for the continuous families is this file's own adaptive
quadrature of the CRPS integral over ``scipy.stats`` CDFs, split at the
observation and at the truncation bound. It integrates the standardised
family once per (shape, z) and scales the result, by the exact identity
CRPS(loc + scale X, loc + scale z) = scale * CRPS(X, z); the program is
still called at every location and scale. The Poisson closed form is held
to the exact step sum over its atoms, which ``crps`` used before it, and to
40-digit mpmath.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from probleak import Empirical, Mixture, Normal, Poisson, StudentT, TruncatedNormal, crps
from probleak import calibration

DFS = (1.5, 2.0, 3.0, 5.0, 30.0, 100.0, 1998.0, 19997.0)
LOCS = (-1.3, 0.0, 2.5)
SCALES = (0.3, 1.0, 4.2)
ZS = (-3.1, -0.4, 0.0, 0.9, 5.7)
LOWERS = (-math.inf, -1.0, 0.0, 1.0, 3.0, 6.0)


def _quad_crps(cdf, y, lower=-math.inf):
    """Integral of (cdf(t) - 1{t >= y})^2, split at y and at lower."""
    cuts = sorted({y, lower} - {-math.inf})
    edges = [-math.inf, *cuts, math.inf]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= y:
            def piece(t):
                return cdf(t) ** 2
        else:
            def piece(t):
                return (1.0 - cdf(t)) ** 2
        val, _ = integrate.quad(piece, a, b, epsabs=1e-14, epsrel=1e-12, limit=500)
        total += val
    return total


@pytest.mark.parametrize("df", DFS)
def test_student_t_closed_form_matches_quadrature(df):
    for z in ZS:
        want_std = _quad_crps(lambda t: stats.t.cdf(t, df), z)
        for loc in LOCS:
            for scale in SCALES:
                got = crps(StudentT(df, loc, scale), loc + scale * z)
                assert got == pytest.approx(scale * want_std, rel=1e-9), (df, loc, scale, z)


def _student_t_crps_inline(dist, y):
    """The t closed form with its df-only constants computed in the call."""
    v = dist.df
    z = (y - dist.loc) / dist.scale
    log_b = float(special.betaln(0.5, 0.5 * v))
    k = math.exp(math.log(2.0) + 0.5 * math.log(v) - math.log(v - 1.0) - log_b)
    ratio = math.exp(float(special.betaln(0.5, v - 0.5)) - log_b)
    decay = np.exp(-0.5 * (v - 1.0) * np.log1p(z * z / v))
    return dist.scale * (z * (2.0 * dist._cdf(y) - 1.0) + k * (decay - ratio))


@pytest.mark.parametrize("df", DFS)
def test_student_t_crps_with_cached_df_terms_is_bit_equal_to_the_inline_form(df):
    locs = np.tile(LOCS, len(SCALES))
    scales = np.repeat(SCALES, len(LOCS))
    ys = locs + scales * np.resize(ZS, locs.size)
    batch = StudentT(df, locs, scales)
    for _ in range(2):  # the second call reads the instance's cached terms
        assert crps(batch, ys).tobytes() == _student_t_crps_inline(batch, ys).tobytes()
    for loc, scale, y in zip(locs.tolist(), scales.tolist(), ys.tolist()):
        one = StudentT(df, loc, scale)
        for _ in range(2):
            assert crps(one, y).hex() == float(_student_t_crps_inline(one, y)).hex()


def test_normal_closed_form_matches_quadrature():
    for z in ZS:
        want_std = _quad_crps(stats.norm.cdf, z)
        for loc in LOCS:
            for scale in SCALES:
                got = crps(Normal(loc, scale), loc + scale * z)
                assert got == pytest.approx(scale * want_std, rel=1e-9), (loc, scale, z)


@pytest.mark.parametrize("a", LOWERS)
def test_truncated_normal_closed_form_matches_quadrature(a):
    zs = [a + d for d in (0.0, 0.05, 0.4, 1.5, 4.0)] if math.isfinite(a) else list(ZS)
    if math.isfinite(a):
        zs += [a - 1.3, a - 0.01]  # observations below the bound
    for z in zs:
        want_std = _quad_crps(lambda t: stats.truncnorm.cdf(t, a, math.inf), z, lower=a)
        for loc, scale in ((0.0, 1.0), (2.5, 0.4), (-1.0, 3.0)):
            lower = loc + scale * a if math.isfinite(a) else -math.inf
            got = crps(TruncatedNormal(loc, scale, lower), loc + scale * z)
            assert got == pytest.approx(scale * want_std, rel=1e-9), (a, loc, scale, z)


def test_quadrature_miss_is_pinned():
    # adaptive quadrature gets this case wrong in the sixth digit (0.3431721)
    d = StudentT(1998.0, 0.24504400345770666, 1.0122050532441245)
    assert crps(d, 0.770879314477644) == pytest.approx(0.343178138294, abs=1e-10)


def test_mixture_stays_on_quadrature(monkeypatch):
    calls = []
    real_quad = calibration.integrate.quad

    def counting_quad(*args, **kwargs):
        calls.append(1)
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(calibration.integrate, "quad", counting_quad)
    mix = Mixture([Normal(0.0, 1.0), StudentT(4.0, 2.0, 0.5)], [0.3, 0.7])
    assert not hasattr(mix, "_crps")
    y = 1.1

    def mix_cdf(t):
        return 0.3 * stats.norm.cdf(t) + 0.7 * stats.t.cdf(t, 4.0, 2.0, 0.5)

    got = crps(mix, y)
    assert len(calls) == 2
    assert got == pytest.approx(_quad_crps(mix_cdf, y), abs=1e-8)

    calls.clear()
    crps(Normal(0.0, 1.0), y)
    crps(StudentT(4.0, 2.0, 0.5), y)
    assert calls == []


# ---------------------------------------------------------------------------
# properties over random parameters
# ---------------------------------------------------------------------------

_locs = st.floats(-50.0, 50.0)
_scales = st.floats(0.01, 100.0)
_zs = st.floats(-40.0, 40.0)


def _family():
    t = st.floats(1.5, 1e5).map(lambda df: lambda loc, s, a: StudentT(df, loc, s))
    n = st.just(lambda loc, s, a: Normal(loc, s))
    tn = st.just(lambda loc, s, a: TruncatedNormal(loc, s, loc + s * a))
    return st.one_of(t, n, tn)


@settings(max_examples=300, deadline=None)
@given(_family(), _locs, _scales, _zs, st.floats(-8.0, 6.0))
def test_crps_closed_forms_are_finite_nonnegative_and_scale_equivariant(make, loc, scale, z, a):
    dist = make(loc, scale, a)
    std = make(0.0, 1.0, a)
    y = loc + scale * z
    got = crps(dist, y)
    assert math.isfinite(got) and got >= 0.0
    z_back = (y - loc) / scale
    assert got == pytest.approx(scale * crps(std, z_back), rel=1e-9, abs=1e-12 * scale)


# ---------------------------------------------------------------------------
# Poisson: closed form against the step sum and mpmath
# ---------------------------------------------------------------------------


def _step_sum_crps(dist, y):
    """Integral of (F(t) - 1{t >= y})^2 over the step function's breakpoints,
    dropping atoms past the 1e-13 and 1 - 1e-13 quantiles."""
    lo = min(float(dist.quantile(1e-13)), y)
    hi = max(float(dist.quantile(1.0 - 1e-13)), y)
    breaks = np.unique(np.concatenate([np.asarray(dist.atoms_between(lo, hi)), [y]]))
    step = np.asarray(dist.cdf(breaks[:-1]), dtype=float) - (breaks[:-1] >= y)
    return float(np.sum(step**2 * np.diff(breaks)))


def _mpmath_poisson_crps(rate, y):
    """E|X - y| - E|X - X'| / 2 in 40 digits, from the gamma function and
    Bessel functions, with the pmf term written out."""
    with mpmath.workdps(40):
        rate, y = mpmath.mpf(rate), mpmath.mpf(y)
        k = int(mpmath.floor(y))
        cdf = mpmath.gammainc(k + 1, rate, mpmath.inf, regularized=True) if k >= 0 else 0
        pmf = mpmath.exp(k * mpmath.log(rate) - rate - mpmath.loggamma(k + 1)) if k >= 0 else 0
        spread = rate * mpmath.exp(-2 * rate) * (mpmath.besseli(0, 2 * rate) + mpmath.besseli(1, 2 * rate))
        return (y - rate) * (2 * cdf - 1) + 2 * rate * pmf - spread


@st.composite
def _rate_and_outcome(draw):
    rate = 10.0 ** draw(st.floats(-3.0, 4.0))
    reach = 12.0 * math.sqrt(rate) + 20.0
    y = draw(st.floats(-reach, rate + reach))  # negative, between atoms, past the tail
    if draw(st.booleans()):
        y = float(math.floor(y))  # on an atom, or a negative integer
    return rate, y


@settings(max_examples=300, deadline=None)
@given(_rate_and_outcome())
def test_poisson_closed_form_matches_the_step_sum(case):
    rate, y = case
    dist = Poisson(rate)
    assert crps(dist, y) == pytest.approx(_step_sum_crps(dist, y), rel=1e-12, abs=0.0), case


@pytest.mark.parametrize("rate", [1e-3, 0.37, 3.0, 47.5, 1e3, 1e5, 1e6])
def test_poisson_closed_form_matches_mpmath(rate):
    sd = math.sqrt(rate)
    for y in (-2.5, 0.0, 0.5, math.floor(rate), rate + 0.25, math.floor(rate - 3.0 * sd),
              math.floor(rate + 4.0 * sd), 3.0 * rate + 40.0):
        want = float(_mpmath_poisson_crps(rate, y))
        assert crps(Poisson(rate), y) == pytest.approx(want, rel=1e-12, abs=0.0), (rate, y)


@pytest.mark.parametrize("rate", [1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.0499, 0.05, 0.1])
def test_poisson_closed_form_stays_relative_at_small_rates(rate):
    # at y < 1 the score is about rate**2 + y (1 - 2 rate): the Bessel form's
    # rate - rate (i0e + i1e) cancels there, so a series takes over
    got = crps(Poisson(rate), np.array([0.0, 0.5]))
    for y, score in zip((0.0, 0.5), got):
        want = float(_mpmath_poisson_crps(rate, y))
        assert score == pytest.approx(want, rel=1e-13, abs=0.0), (rate, y)


def test_poisson_closed_form_broadcasts_over_outcomes():
    dist = Poisson(6.5)
    ys = np.array([-1.0, 0.0, 2.5, 6.0, 7.0, 30.0])
    got = crps(dist, ys)
    assert got.shape == ys.shape
    np.testing.assert_array_equal(got, [crps(dist, float(y)) for y in ys])


# ---------------------------------------------------------------------------
# one outcome scores the same bits as an array of outcomes
# ---------------------------------------------------------------------------

CLOSED_FORMS = {
    "normal": Normal(1.0, 2.0),
    "student_t": StudentT(4.5, -1.0, 0.7),
    "student_t_df1998": StudentT(1998.0, 0.3, 1.1),
    "truncated_normal": TruncatedNormal(0.5, 1.2, lower=0.25),
    "poisson": Poisson(7.0),
    "poisson_series": Poisson(0.01),  # below rate 0.05, the power series
}
# negative, between atoms, on atoms, below the truncation and far out
OUTCOMES = np.concatenate([np.arange(-3.0, 20.0, 0.25), [-0.0, 0.3, 1e-300, -1e6, 1e6]])


def _same_bits(one, many):
    assert type(one) is float
    assert np.float64(one).tobytes() == np.float64(many).tobytes(), (one, many)


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_one_outcome_scores_the_same_bits_as_the_array_call(name):
    dist = CLOSED_FORMS[name]
    for y, want in zip(OUTCOMES, crps(dist, OUTCOMES)):
        for one in (float(y), np.float64(y), np.array(y)) + ((int(y),) if y == int(y) else ()):
            _same_bits(crps(dist, one), want)


@st.composite
def _dist_and_outcomes(draw):
    zs = draw(st.lists(_zs, min_size=1, max_size=6))
    if draw(st.booleans()):
        rate = 10.0 ** draw(st.floats(-3.0, 4.0))
        ys = [rate + math.sqrt(rate) * z for z in zs]  # some negative
        return Poisson(rate), ys + [float(math.floor(y)) for y in ys]
    loc, scale = draw(_locs), draw(_scales)
    return draw(_family())(loc, scale, draw(st.floats(-8.0, 6.0))), [loc + scale * z for z in zs]


@settings(max_examples=200, deadline=None)
@given(_dist_and_outcomes())
def test_one_outcome_scores_the_same_bits_as_an_array_over_random_parameters(case):
    dist, ys = case
    for y, want in zip(ys, crps(dist, np.array(ys))):
        for one in (y, np.float64(y), np.array(y)) + ((int(y),) if y == int(y) else ()):
            _same_bits(crps(dist, one), want)


@st.composite
def _poisson_rate_and_float(draw):
    # both sides of the rate-0.05 switch to the power series
    rate = draw(st.one_of(st.floats(1e-8, 0.0499), st.floats(0.05, 1e6)))
    reach = 40.0 * math.sqrt(rate) + 40.0
    y = draw(st.one_of(
        st.floats(-1e6, -1e-300),  # negative
        st.floats(0.0, rate + reach),  # between atoms
        st.just(0.0),
        st.floats(rate + reach, 1e300),  # past the far tail
    ))
    if draw(st.booleans()):
        y = float(math.floor(y))  # on an atom, or a negative integer
    return rate, y


@settings(max_examples=400, deadline=None)
@given(_poisson_rate_and_float())
def test_poisson_float_branch_scores_the_same_bits_as_the_array_path(case):
    rate, y = case
    dist = Poisson(rate)
    _same_bits(crps(dist, y), crps(dist, np.array([y]))[0])
    _same_bits(dist._crps(y), dist._crps(np.array([y]))[0])


def test_poisson_crps_enumerates_no_atoms():
    crps(Poisson(1e12), 1e12)  # first call outside the trace
    tracemalloc.start()
    try:
        score = crps(Poisson(1e12), 1e12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # about sd * (2 phi(0) - 1/sqrt(pi)), the normal limit, at sd = 1e6
    assert score == pytest.approx(1e6 * (math.sqrt(2.0 / math.pi) - 1.0 / math.sqrt(math.pi)), rel=1e-5)


def test_empirical_and_discrete_mixture_stay_on_the_step_sum():
    for dist in (Empirical([0.0, 2.0, 2.0, 7.5]), Mixture([Poisson(2.0), Poisson(9.0)], [0.25, 0.75])):
        assert not hasattr(dist, "_crps")
        for y in (-1.0, 0.0, 4.5, 9.0, 40.0):
            assert crps(dist, y) == pytest.approx(_step_sum_crps(dist, y), rel=1e-15)
