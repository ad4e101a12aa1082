"""Distribution families: CDFs against closed forms, quantile inversion, sampling."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from probleak import Empirical, Evidence, ForecastCase, Mixture, Normal, Poisson, StudentT, TruncatedNormal, leakage, pit
from probleak.predictive import _invert_cdf


def test_normal_cdf_matches_error_function():
    d = Normal(loc=1.0, scale=2.0)
    for y in (-3.0, 0.0, 1.0, 2.5, 8.0):
        # oracle: Phi(z) = (1 + erf(z / sqrt(2))) / 2
        z = (y - 1.0) / 2.0
        want = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        assert d.cdf(y) == pytest.approx(want, abs=1e-15)


def test_normal_density_integrates_to_one():
    d = Normal(loc=-0.5, scale=0.7)
    total, _ = integrate.quad(d.density, -12, 12)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_student_t_cdf_df2_closed_form():
    d = StudentT(df=2.0, loc=0.0, scale=1.0)
    ts = np.linspace(-10, 10, 1001)
    # oracle: F_2(t) = 1/2 + t / (2 sqrt(2 + t^2))
    want = 0.5 + ts / (2.0 * np.sqrt(2.0 + ts**2))
    got = d.cdf(ts)
    assert np.max(np.abs(got - want)) < 1e-12


def test_student_t_cdf_df1_arctan_form():
    d = StudentT(df=1.0, loc=0.0, scale=1.0)
    ts = np.linspace(-10, 10, 1001)
    # oracle: Cauchy CDF 1/2 + arctan(t) / pi
    want = 0.5 + np.arctan(ts) / np.pi
    got = d.cdf(ts)
    assert np.max(np.abs(got - want)) < 1e-12


def test_student_t_location_scale_shift():
    base = StudentT(df=5.0, loc=0.0, scale=1.0)
    moved = StudentT(df=5.0, loc=3.0, scale=2.0)
    for t in (-2.0, 0.0, 1.7):
        assert moved.cdf(3.0 + 2.0 * t) == pytest.approx(base.cdf(t), abs=1e-15)


def test_student_t_approaches_normal_for_large_df():
    t = StudentT(df=1e7, loc=0.0, scale=1.0)
    n = Normal(loc=0.0, scale=1.0)
    ys = np.linspace(-4, 4, 17)
    assert np.max(np.abs(t.cdf(ys) - n.cdf(ys))) < 1e-6


@pytest.mark.parametrize("df", [100.0, 1998.0, 19997.0])
def test_student_t_cdf_near_the_centre(df):
    # df / (df + t^2) rounds to 1 for |t| < sqrt(eps * df); the CDF must
    # still move off 1/2 there
    d = StudentT(df=df)
    mags = np.logspace(-10, -2, 161)
    ts = np.concatenate([-mags[::-1], mags])
    want = stats.t.cdf(ts, df)
    got = d.cdf(ts)
    assert np.all(np.abs(got - want) <= 1e-15 + 1e-12 * np.abs(want))
    scalar = np.array([d.cdf(float(t)) for t in ts])
    np.testing.assert_array_equal(scalar, got)


@pytest.mark.parametrize("df", [100.0, 1998.0, 19997.0])
def test_student_t_cdf_keeps_relative_accuracy_in_the_tails(df):
    # tails below 1e-16 must not be formed as 1/2 minus something near 1/2
    d = StudentT(df=df)
    ts = np.array([-30.0, -10.0, -5.0, -1.5, -1.0, -0.999])
    want = stats.t.cdf(ts, df)
    got = d.cdf(ts)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose([d.cdf(float(t)) for t in ts], want, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(1.0 - d.cdf(-ts), want, rtol=1e-10, atol=1e-16)


@pytest.mark.xfail(
    strict=True,
    reason="the CDF drops where it switches from the centre form to the tail form at |t| = 1",
)
@pytest.mark.parametrize("df", [1998.0, 1e5])
def test_student_t_cdf_is_monotone_across_the_branch_switch(df):
    # the 101 adjacent floats around t = -1 and t = 1; rounding alone moves
    # the CDF down by an ulp or two (~1e-16), the switch by 8.5e-15 at df 1998
    ulps = np.arange(-50, 51)
    one = (np.array(1.0).view(np.int64) + ulps).view(np.float64)
    d = StudentT(df=df)
    for ts in (-one[::-1], one):
        assert np.min(np.diff(d.cdf(ts))) >= -1e-15


def test_student_t_cdf_scalar_and_array_paths_agree():
    d = StudentT(df=2.5, loc=0.3, scale=1.7)
    ys = np.array([-np.inf, -1e6, -40.0, -2.0, 0.3, 0.30001, 1.9, 2.4, 60.0, 1e9, np.inf])
    scalar = [d.cdf(y) for y in ys]
    assert all(isinstance(v, float) for v in scalar)
    np.testing.assert_array_equal(scalar, d.cdf(ys))
    assert d.cdf(-np.inf) == 0.0 and d.cdf(np.inf) == 1.0


def test_student_t_density_closed_form():
    df, loc, scale = 3.0, 0.5, 1.5
    d = StudentT(df=df, loc=loc, scale=scale)
    # oracle: Gamma((v+1)/2) / (Gamma(v/2) sqrt(v pi) s) (1 + z^2/v)^-((v+1)/2)
    norm = math.gamma((df + 1) / 2) / (math.gamma(df / 2) * math.sqrt(df * math.pi) * scale)
    for y in (-2.0, 0.5, 3.0):
        z = (y - loc) / scale
        want = norm * (1.0 + z * z / df) ** (-(df + 1) / 2)
        assert d.density(y) == pytest.approx(want, rel=1e-13)


def test_quantile_inverts_cdf():
    dists = [
        Normal(loc=2.0, scale=0.5),
        StudentT(df=2.0, loc=-1.0, scale=3.0),
        StudentT(df=1.0, loc=0.0, scale=1.0),
    ]
    ps = [1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-6]
    for d in dists:
        for p in ps:
            q = d.quantile(p)
            assert abs(d.cdf(q) - p) < 1e-10


def test_quantile_rejects_endpoints():
    d = Normal(loc=0.0, scale=1.0)
    with pytest.raises(ValueError):
        d.quantile(0.0)
    with pytest.raises(ValueError):
        d.quantile(1.0)


@pytest.mark.parametrize(
    "dist", [Normal(0.0, 0.5), TruncatedNormal(0.0, 0.5, 0.0), StudentT(5.0, 0.0, 0.5)], ids=lambda d: d.family
)
def test_continuous_families_answer_past_float64s_range_without_a_warning(dist):
    # (y - loc) / scale overflows at a finite y far from loc, where F is 0 or 1 and f is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dist.cdf(1e308) == 1.0 and dist.cdf(-1e308) == 0.0
        assert dist.density(1e308) == 0.0 and dist.density(-1e308) == 0.0
        assert leakage(dist, Evidence.interval(0.0, 1e308)).leakage == pytest.approx(float(dist.cdf(0.0)))


def test_continuous_has_no_atoms():
    for d in (Normal(0.0, 1.0), StudentT(4.0, 0.0, 1.0)):
        assert not d.has_atom(0.0)
        assert d.cdf_left(0.3) == d.cdf(0.3)


def test_has_mass_continuous():
    d = Normal(0.0, 1.0)
    assert d.has_mass(-1.0, 1.0)
    assert d.has_mass(50.0, 51.0)  # mathematically positive however small
    assert not d.has_mass(1.0, 1.0)
    assert not d.has_mass(2.0, 1.0)


def test_scale_and_df_validation():
    with pytest.raises(ValueError):
        Normal(loc=0.0, scale=0.0)
    with pytest.raises(ValueError):
        StudentT(df=0.0, loc=0.0, scale=1.0)
    with pytest.raises(ValueError):
        StudentT(df=2.0, loc=0.0, scale=-1.0)


def test_sampling_is_seed_deterministic():
    d = StudentT(df=3.0, loc=1.0, scale=2.0)
    a = d.sample(100, 42)
    b = d.sample(100, 42)
    np.testing.assert_array_equal(a, b)
    c = d.sample(100, 43)
    assert not np.array_equal(a, c)


def test_sampling_accepts_generator_passthrough():
    d = Normal(loc=0.0, scale=1.0)
    rng = np.random.default_rng(7)
    first = d.sample(10, rng)
    second = d.sample(10, rng)  # same generator keeps advancing
    assert not np.array_equal(first, second)
    np.testing.assert_array_equal(
        np.concatenate([first, second]), d.sample(20, np.random.default_rng(7))[:20]
    )


# ---------------------------------------------------------------------------
# Poisson
# ---------------------------------------------------------------------------


def test_poisson_pmf_against_factorial_formula():
    d = Poisson(rate=3.0)
    for k in range(10):
        want = math.exp(-3.0) * 3.0**k / math.factorial(k)
        assert d.density(float(k)) == pytest.approx(want, rel=1e-12)
    assert d.density(2.5) == 0.0


def test_poisson_cdf_is_a_right_continuous_step():
    d = Poisson(rate=4.0)
    # oracle: sum of pmf terms 0..4
    want = sum(math.exp(-4.0) * 4.0**k / math.factorial(k) for k in range(5))
    assert d.cdf(4.0) == pytest.approx(want, rel=1e-12)
    assert d.cdf(4.7) == pytest.approx(want, rel=1e-12)
    assert d.cdf_left(4.0) == pytest.approx(want - d.density(4.0), rel=1e-12)
    assert d.cdf(-0.5) == 0.0


def test_poisson_atoms():
    d = Poisson(rate=2.0)
    assert d.has_atom(0.0)
    assert d.has_atom(17.0)
    assert not d.has_atom(1.5)
    assert not d.has_atom(-1.0)
    np.testing.assert_array_equal(d.atoms_between(1.2, 4.0), [2.0, 3.0, 4.0])
    assert d.has_mass(1.2, 4.0)
    assert not d.has_mass(1.2, 1.9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rate", [3.0, 20.0, 1e5, 1e300])
def test_poisson_at_the_largest_counts(rate):
    # scipy's pdtr and pdtrc give nan past about 3e305 counts (from 1.6e308
    # at rate 3), and k log(rate) - gammaln(k + 1) is inf - inf there: the
    # CDF is 1 that far above the rate, and the pmf 0
    top = float(np.finfo(float).max)
    d = Poisson(rate)
    assert d.density(1e308) == 0.0 and d.density(top) == 0.0
    np.testing.assert_array_equal(d.density(np.array([1e308, top, 4.0])), [0.0, 0.0, d.density(4.0)])
    assert d.cdf(top) == 1.0 and d.cdf_left(top) == 1.0 and d.cdf_left(math.inf) == 1.0
    np.testing.assert_array_equal(pit([ForecastCase(d, 1e308)], 0), [1.0])
    # each mass is the one with the largest double replaced by the double below it
    below = float(np.nextafter(top, 0.0))
    for make in (lambda hi: Evidence.lattice_support(0.0, hi, 1.0), lambda hi: Evidence.interval(0.0, hi)):
        assert leakage(d, make(top)).leakage == leakage(d, make(below)).leakage == 0.0
    sets = [Evidence.finite_set([0.0, 1.0, 2.0, hi]) for hi in (top, below)]
    assert leakage(d, sets[0]).leakage == leakage(d, sets[1]).leakage == pytest.approx(stats.poisson.sf(2, rate), rel=1e-14)


_ODD_POINTS = [-0.0, math.nan, math.inf, -math.inf, 2.0**53, 1e300]
_points = st.one_of(st.sampled_from(_ODD_POINTS), st.integers(-3, 12).map(float), st.floats())
_EVERY_FAMILY = [
    Normal(0.3, 2.0),
    Normal(np.array([0.0, 1.0, 2.0]), 1.0),
    StudentT(3.0, 1.0, 2.0),
    StudentT(4.0, np.array([0.0, 5.0, 9.0]), np.array([1.0, 2.0, 3.0])),
    TruncatedNormal(0.0, 1.0, 0.5),
    TruncatedNormal(np.array([0.0, 1.0, 3.0]), 1.0, 0.0),
    Mixture([Normal(0.0, 1.0), StudentT(3.0)], [0.3, 0.7]),
    Poisson(3.0),
    Poisson(1e-3),
    Empirical([0.0, 0.3, 1.0, 7.0, 2.0**53]),
    Mixture([Poisson(3.0), Empirical([0.3, 7.0])], [0.4, 0.6]),
    Mixture([Poisson(1.0), Empirical([0.5])], [1.0, 0.0]),
]


def _is_atom(dist, y: float) -> bool:
    """Whether P(Y = y) > 0, from each family's definition, one point at a time."""
    if dist.kind == "continuous":
        return False
    if isinstance(dist, Poisson):
        return math.isfinite(y) and y >= 0.0 and y == math.floor(y)
    if isinstance(dist, Empirical):
        return y in dist.observations
    return any(_is_atom(c, y) for w, c in zip(dist.weights, dist.components) if w > 0.0)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(range(len(_EVERY_FAMILY))),
    st.one_of(_points, st.lists(_points, min_size=3, max_size=3).map(np.array)),
)
@example(0, -0.0)
@example(7, 2.0**53)
@example(7, np.array([-0.0, math.nan, 1e300]))
@example(9, np.array([2.0**53, math.inf, 0.3]))
@example(11, 0.5)
def test_has_atom_is_has_mass_on_a_zero_width_window(i, y):
    dist = _EVERY_FAMILY[i]
    got = dist.has_atom(y)
    want = dist.has_mass(y, y)
    assert type(got) is type(want)
    np.testing.assert_array_equal(got, want)
    assert np.shape(got) == np.shape(y)
    np.testing.assert_array_equal(got, [_is_atom(dist, float(v)) for v in np.ravel(y)] if np.ndim(y) else _is_atom(dist, y))


_DBL_MAX = float(np.finfo(float).max)
_LEFT_POINTS = [0.0, -0.0, 5e-324, 2.0**53 + 2.0, 1e300, _DBL_MAX, -_DBL_MAX, math.inf, -math.inf, math.nan]
_left_points = st.one_of(st.sampled_from(_LEFT_POINTS), st.integers(-3, 40).map(float), st.floats())
_observations = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 2.0**53, 1e300, _DBL_MAX, -_DBL_MAX]),
              st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=6,
)
_count_models = st.one_of(
    st.one_of(st.sampled_from([1e-3, 1.0, 3.0, 3.5, 20.0, 1e5, 3e16, 2.0**60, 1e300, _DBL_MAX]),
              st.floats(1e-300, 1e300)).map(Poisson),
    _observations.map(Empirical),
)


def _mixture(parts, raw_weights):
    weights = np.array(raw_weights[: len(parts)])  # the first is positive, some others zero
    return Mixture(parts, weights / weights.sum())


_discrete_models = st.recursive(
    _count_models,
    lambda inner: st.builds(
        _mixture,
        st.lists(inner, min_size=1, max_size=3),
        st.tuples(st.sampled_from([0.2, 1.0, 3.0]), *[st.sampled_from([0.0, 0.2, 1.0, 3.0])] * 2).map(list),
    ),
    max_leaves=4,
)


def _left_limit(dist, y: float) -> float:
    """P(Y < y) by each family's rule, one point at a time: F(y - 1) at a
    Poisson count and F(y) elsewhere, the share of observations below y for
    an empirical law, and a mixture's weighted sum of its components' left
    limits."""
    if isinstance(dist, Poisson):
        return dist.cdf(y - 1.0 if _is_atom(dist, y) else y)
    if isinstance(dist, Empirical):
        return np.searchsorted(np.array(dist.observations), y, side="left") / len(dist.observations)
    return sum(w * _left_limit(c, y) for w, c in zip(np.array(dist.weights), dist.components))


def _bits(values) -> np.ndarray:
    """The int64 bits of each value, with every nan made one quiet nan."""
    values = np.array(values, dtype=float, ndmin=1)
    return np.where(np.isnan(values), math.nan, values).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(_discrete_models, st.lists(_left_points, min_size=1, max_size=4), st.data())
@example(Poisson(3.0), _LEFT_POINTS, None)
@example(Empirical([0.5, 0.5, _DBL_MAX, -_DBL_MAX, 5e-324]), [0.5, _DBL_MAX, -_DBL_MAX, 5e-324, 0.0], None)
@example(Mixture([Poisson(2.0), Empirical([0.5, 7.0])], [0.6, 0.4]), [*_LEFT_POINTS, 0.5, 7.0, 3.0], None)
@example(Mixture([Poisson(1e300), Poisson(1.0)], [0.5, 0.5]), [1e300, 2.0**60, 3e16 + 4.0], None)
@example(Poisson(_DBL_MAX), [_DBL_MAX, math.inf], None)
def test_cdf_left_has_each_family_s_left_limit_bits(dist, ys, data):
    # a point at an empirical atom, where the left limit and the CDF differ
    observations = [v for part in getattr(dist, "components", [dist]) for v in getattr(part, "observations", ())]
    if data is not None and observations:
        ys = [*ys, data.draw(st.sampled_from(observations), label="an atom")]
    want = [_left_limit(dist, y) for y in ys]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        one_by_one = [dist.cdf_left(y) for y in ys]
        batch = dist.cdf_left(np.array(ys))
    assert all(type(v) is float for v in one_by_one)
    np.testing.assert_array_equal(_bits(one_by_one), _bits(want))
    np.testing.assert_array_equal(_bits(batch), _bits(want))


def test_a_poisson_left_limit_keeps_the_counts_that_no_double_holds():
    # past 2**53 the double below a count y lies further below it than
    # y - 1, so F there would leave out the counts in between: at rate 1e300
    # they hold about half the mass
    d = Poisson(1e300)
    assert d.cdf_left(1e300) == pytest.approx(0.5, abs=1e-9)
    assert leakage(d, Evidence.interval(1e300, math.inf)).leakage == pytest.approx(0.5, abs=1e-9)
    assert Mixture([d, Poisson(1.0)], [0.5, 0.5]).cdf_left(1e300) == pytest.approx(0.75, abs=1e-9)
    assert Poisson(_DBL_MAX).cdf_left(math.inf) == 1.0


def test_has_atom_is_elementwise_on_arrays():
    d = Poisson(rate=2.0)
    got = d.has_atom(np.array([0.0, 2.0, 2.0000000001, -1.0, 1.5, 7.0]))
    np.testing.assert_array_equal(got, [True, True, False, False, False, True])
    assert d.has_atom(3.0) is True
    assert d.has_atom(-1.0) is False

    emp = Empirical([1.0, 2.0, 2.0])
    np.testing.assert_array_equal(emp.has_atom(np.array([1.0, 1.5, 2.0])), [True, False, True])
    assert emp.has_atom(2.0) is True

    mix = Mixture([Poisson(rate=1.0), Empirical([0.5])], [0.5, 0.5])
    np.testing.assert_array_equal(
        mix.has_atom(np.array([0.5, 1.0, 1.5, -1.0])), [True, True, False, False]
    )
    assert mix.has_atom(0.5) is True
    assert Mixture([Poisson(rate=1.0), Empirical([0.5])], [1.0, 0.0]).has_atom(0.5) is False


def test_poisson_quantile_is_smallest_atom_reaching_p():
    d = Poisson(rate=4.0)
    q = d.quantile(d.cdf(4.0))
    assert q == 4.0
    assert d.quantile(d.cdf(4.0) + 1e-12) == 5.0
    assert d.quantile(1e-12) == 0.0


def _bisection_quantile(d, p):
    """The smallest k with cdf(k) >= p by doubling and bisection: the oracle."""
    hi = max(1.0, d.rate)
    while float(d.cdf(hi)) < p:
        hi = 2.0 * hi + 1.0
    lo, hi = -1.0, math.floor(hi)  # cdf(-1) = 0 < p
    while hi - lo > 1.0:
        mid = math.floor(0.5 * (lo + hi))
        if float(d.cdf(mid)) >= p:
            hi = mid
        else:
            lo = mid
    return float(hi)


def test_poisson_quantile_matches_bisection_over_rates_and_levels():
    tails = np.array([1e-13, 1e-10, 1e-6, 1e-3])
    ps = np.concatenate([tails, np.linspace(0.01, 0.99, 25), 1.0 - tails])
    for rate in np.logspace(-2, 5, 29):
        d = Poisson(rate=float(rate))
        for p in ps:
            assert d.quantile(float(p)) == _bisection_quantile(d, float(p)), (rate, p)


def test_poisson_quantile_stays_exact_where_its_seed_gives_up():
    # the seed fails from rates near 1e11; the search still returns the
    # smallest k whose computed cdf reaches p
    for rate in (1e11, 1e12, 1e15):
        d = Poisson(rate=rate)
        for p in (1e-13, 0.5, 1.0 - 1e-13):
            k = d.quantile(p)
            assert d.cdf(k) >= p > d.cdf(k - 1.0)


def test_student_t_quantile_is_the_closed_form_inverse():
    for df in (1.0, 1.5, 2.0, 3.0, 10.0, 100.0, 1998.0, 19997.0):
        d = StudentT(df=df, loc=0.7, scale=2.5)
        tails = np.logspace(-13, -1, 13)
        for p in np.concatenate([tails, [0.3, 0.5, 0.8], 1.0 - tails]):
            q = d.quantile(float(p))
            assert isinstance(q, float)
            assert q == pytest.approx(0.7 + 2.5 * stats.t.ppf(p, df), rel=1e-9, abs=1e-12)
            assert abs(d.cdf(q) - p) <= 1e-11 * min(p, 1.0 - p)


def test_normal_quantile_is_the_closed_form_inverse():
    # the former bisection stopped 1.5e-9 relative short at p = 1 - 1e-9
    want = 0.3 + 2.0 * stats.norm.ppf(1.0 - 1e-9)
    assert Normal(0.3, 2.0).quantile(1.0 - 1e-9) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(12.295614039, rel=1e-10)
    tails = np.logspace(-300, -1, 300)
    levels = np.concatenate([tails, [0.3, 0.5, 0.8], 1.0 - np.logspace(-12, -1, 12)])
    for loc, scale in ((0.0, 1.0), (0.3, 2.0), (-40.0, 1e-3), (1e6, 7.5)):
        d = Normal(loc, scale)
        for p in levels:
            q = d.quantile(float(p))
            assert isinstance(q, float)
            assert q == pytest.approx(stats.norm.ppf(p, loc, scale), rel=1e-14)


def test_batched_student_t_broadcasts_and_scalars_stay_floats():
    d = StudentT(df=5.0, loc=np.array([0.0, 1.0, -2.0]), scale=np.array([1.0, 0.5, 3.0]))
    singles = [StudentT(5.0, 0.0, 1.0), StudentT(5.0, 1.0, 0.5), StudentT(5.0, -2.0, 3.0)]
    np.testing.assert_array_equal(d.cdf(0.3), [s.cdf(0.3) for s in singles])
    np.testing.assert_array_equal(d.density(0.3), [s.density(0.3) for s in singles])
    np.testing.assert_array_equal(d.quantile(0.2), [s.quantile(0.2) for s in singles])
    assert d.cdf(np.zeros((4, 1))).shape == (4, 3)
    assert isinstance(singles[0].cdf(np.float64(0.3)), float)
    assert isinstance(singles[0].cdf(np.array(0.3)), float)
    with pytest.raises(ValueError, match="scale"):
        StudentT(df=5.0, loc=np.zeros(2), scale=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="location"):
        StudentT(df=5.0, loc=np.array([0.0, np.nan]), scale=1.0)


def test_poisson_sampling_matches_mean():
    d = Poisson(rate=6.0)
    draws = d.sample(20_000, 11)
    assert np.all(draws == np.floor(draws))
    assert abs(draws.mean() - 6.0) < 0.1


# ---------------------------------------------------------------------------
# Empirical
# ---------------------------------------------------------------------------


def test_empirical_cdf_and_atoms():
    d = Empirical([3.0, 1.0, 1.0, 2.0])
    assert d.cdf(0.5) == 0.0
    assert d.cdf(1.0) == 0.5
    assert d.cdf_left(1.0) == 0.0
    assert d.cdf(2.0) == 0.75
    assert d.cdf(3.0) == 1.0
    assert d.has_atom(2.0)
    assert not d.has_atom(2.5)
    np.testing.assert_array_equal(d.atoms_between(1.5, 3.5), [2.0, 3.0])


def test_empirical_density_is_atom_weight():
    d = Empirical([1.0, 1.0, 4.0])
    assert d.density(1.0) == pytest.approx(2.0 / 3.0)
    assert d.density(4.0) == pytest.approx(1.0 / 3.0)
    assert d.density(2.0) == 0.0


def test_empirical_quantile_and_samples():
    d = Empirical([10.0, 20.0, 30.0])
    assert d.quantile(0.1) == 10.0
    assert d.quantile(0.5) == 20.0
    assert d.quantile(0.9) == 30.0
    draws = d.sample(500, 3)
    assert set(np.unique(draws)) <= {10.0, 20.0, 30.0}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-5, 5).map(float), min_size=1, max_size=40),
    st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
              st.tuples(st.integers(1, 39), st.integers(1, 40), st.sampled_from([-1e-10, 1e-10, 1e-16]))
              .map(lambda t: t[0] / t[1] + t[2]).filter(lambda p: 0.0 < p < 1.0)),
)
@example([0.0, 1.0, 2.0], 1.0 / 3.0 + 1e-10)
def test_empirical_quantile_is_the_smallest_atom_whose_cdf_reaches_p(obs, p):
    d = Empirical(obs)
    q = d.quantile(p)
    below = [y for y in d.observations if y < q]
    assert d.cdf(q) >= p
    assert not below or d.cdf(max(below)) < p


def test_empirical_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        Empirical([])
    with pytest.raises(ValueError):
        Empirical([1.0, math.inf])


# ---------------------------------------------------------------------------
# Mixture
# ---------------------------------------------------------------------------


def test_mixture_cdf_is_weighted_sum():
    parts = (Normal(0.0, 1.0), Normal(4.0, 2.0))
    mix = Mixture(parts, (0.3, 0.7))
    assert mix.kind == "continuous"
    for y in (-1.0, 0.0, 3.0):
        want = 0.3 * parts[0].cdf(y) + 0.7 * parts[1].cdf(y)
        assert mix.cdf(y) == pytest.approx(want, abs=1e-15)
        want_d = 0.3 * parts[0].density(y) + 0.7 * parts[1].density(y)
        assert mix.density(y) == pytest.approx(want_d, abs=1e-15)


def test_mixture_validation():
    with pytest.raises(ValueError, match="at least one"):
        Mixture([], [])
    with pytest.raises(ValueError, match="sum to 1"):
        Mixture([Normal(0.0, 1.0)], [0.5])
    with pytest.raises(ValueError, match="counts differ"):
        Mixture([Normal(0.0, 1.0)], [0.5, 0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        Mixture([Normal(0.0, 1.0), Normal(1.0, 1.0)], [1.5, -0.5])
    with pytest.raises(ValueError, match="mix continuous and discrete"):
        Mixture([Normal(0.0, 1.0), Poisson(rate=2.0)], [0.5, 0.5])


def test_discrete_mixture_atoms():
    mix = Mixture([Poisson(rate=1.0), Empirical([0.5])], [0.5, 0.5])
    assert mix.kind == "discrete"
    assert mix.has_atom(0.5)
    assert mix.has_atom(3.0)
    assert not mix.has_atom(0.7)
    np.testing.assert_array_equal(mix.atoms_between(0.0, 2.0), [0.0, 0.5, 1.0, 2.0])
    assert mix.density(0.5) == pytest.approx(0.5, abs=1e-12)
    # a component of weight zero has no atoms in the mixture, as has_atom says
    unweighted = Mixture([Poisson(rate=1.0), Empirical([0.5])], [1.0, 0.0])
    np.testing.assert_array_equal(unweighted.atoms_between(0.0, 2.0), [0.0, 1.0, 2.0])


def test_discrete_mixture_quantile_survives_a_weighted_cdf_that_rounds_below_p():
    # every component puts the p-quantile at atom 1, but the weighted sum of
    # their CDFs there rounds to just below p
    p = Poisson(0.5).cdf(1.0)
    mix = Mixture([Poisson(0.5)] * 3, [0.1, 0.2, 0.7])
    assert mix.cdf(1.0) < p
    assert mix.quantile(p) == 1.0


def test_mixture_sampling_and_quantile():
    mix = Mixture([Normal(-5.0, 1.0), Normal(5.0, 1.0)], [0.5, 0.5])
    draws = mix.sample(4000, 12)
    assert abs(np.mean(draws < 0) - 0.5) < 0.05
    q = mix.quantile(0.5)
    assert abs(mix.cdf(q) - 0.5) < 1e-10


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False).filter(lambda x: x > -math.inf))
@example(-0.0)
@example(5e-324)
def test_cdf_inversion_reaches_any_double_from_the_widest_bracket(x):
    # a step CDF at x: the smallest double where it reaches p is x itself
    # (0.0 for -0.0), found from (-inf, inf] in at most 64 CDF calls
    calls = []

    def cdf(y):
        calls.append(y)
        return float(y >= x)

    assert _invert_cdf(cdf, 0.5, -math.inf, math.inf) == x
    assert len(calls) <= 64


_CONTINUOUS_PARTS = st.one_of(
    st.builds(Normal, st.floats(-50.0, 50.0), st.floats(0.01, 50.0)),
    st.builds(StudentT, st.floats(0.5, 1e6), st.floats(-50.0, 50.0), st.floats(0.01, 50.0)),
    st.builds(
        lambda loc, scale, a: TruncatedNormal(loc, scale, lower=loc + a * scale),
        st.floats(-50.0, 50.0), st.floats(0.01, 50.0), st.floats(-5.0, 5.0),
    ),
)
_DISCRETE_PARTS = st.one_of(
    st.builds(Poisson, st.floats(0.01, 1e3)),
    st.builds(Empirical, st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6)),
)


@st.composite
def _mixtures(draw):
    """Mixtures of one to three parts of one kind, some weights zero."""
    parts = draw(st.sampled_from([_CONTINUOUS_PARTS, _DISCRETE_PARTS]).flatmap(
        lambda kind: st.lists(kind, min_size=1, max_size=3)))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=len(parts), max_size=len(parts)).filter(any))
    return Mixture(parts, [w / sum(raw) for w in raw])


@settings(max_examples=300, deadline=None)
@given(_mixtures(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
# the float below the value 64 halvings of the bracket [-2.63, 2.63] reached
# (-1.03e-16) also has cdf >= 0.5
@example(Mixture([StudentT(0.5), Normal(0.0, 1.0)], [0.5, 0.5]), 0.5)
# the weights sum to 1 - 1e-13 < p: no y has cdf(y) >= p, and the largest
# component quantile is the answer for either kind
@example(Mixture([StudentT(0.5), Normal(0.0, 1.0)], [0.5, 0.5 - 1e-13]), 1.0 - 1e-14)
@example(Mixture([Poisson(1.0), Empirical([0.5])], [0.5, 0.5 - 1e-13]), 1.0 - 1e-14)
# each component's CDF at 51 is below p, but their weighted sum rounds up to p
@example(Mixture([Poisson(13.0), Poisson(13.0)], [0.8, 0.2]), 0.9999999999999998)
def test_mixture_quantile_is_the_smallest_double_whose_cdf_reaches_p(mix, p):
    q = mix.quantile(p)
    if mix.cdf(q) >= p:
        assert mix.cdf(math.nextafter(q, -math.inf)) < p
    else:  # rounding keeps the weighted CDF below p
        assert q == max(c.quantile(p) for c in mix.components)
