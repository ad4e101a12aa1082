"""PIT, the three calibration notions, CRPS, and the KL distance to elicited opinion."""

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from probleak import (
    CalibrationReport,
    Empirical,
    ForecastCase,
    GridDensity,
    Mixture,
    ModelError,
    Normal,
    Poisson,
    StudentT,
    TruncatedNormal,
    calibration_report,
    crps,
    exceedance_calibration,
    kl_distance,
    ks_uniform,
    marginal_calibration,
    pit,
    probability_calibration,
)
from probleak import calibration


def _normal_cases(n, seed, loc=0.0, scale=1.0):
    rng = np.random.default_rng(seed)
    d = Normal(loc=loc, scale=scale)
    return [ForecastCase(d, float(y)) for y in rng.normal(loc, scale, size=n)]


# ---------------------------------------------------------------------------
# PIT
# ---------------------------------------------------------------------------


def test_pit_continuous_is_exact_cdf():
    d = Normal(loc=1.0, scale=2.0)
    cases = [ForecastCase(d, 1.0), ForecastCase(d, 3.0)]
    values = pit(cases, seed=0)
    assert values[0] == pytest.approx(d.cdf(1.0), abs=1e-15)
    assert values[1] == pytest.approx(d.cdf(3.0), abs=1e-15)


def test_pit_discrete_is_randomized_within_the_jump():
    d = Poisson(rate=3.0)
    cases = [ForecastCase(d, 2.0)] * 200
    values = pit(cases, seed=4)
    lo, hi = d.cdf_left(2.0), d.cdf(2.0)
    assert np.all(values >= lo) and np.all(values <= hi)
    assert np.std(values) > 0.0  # actually randomized, not pinned


def test_pit_is_seed_deterministic():
    d = Poisson(rate=3.0)
    cases = [ForecastCase(d, float(k)) for k in (0, 1, 2, 3)]
    np.testing.assert_array_equal(pit(cases, seed=8), pit(cases, seed=8))
    assert not np.array_equal(pit(cases, seed=8), pit(cases, seed=9))


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError), ("x", TypeError)])
def test_a_bad_seed_raises_though_no_case_draws(seed, error):
    # the generator is built at the first discrete case only; the seed is
    # checked where it enters, as default_rng checks it
    continuous = [ForecastCase(Normal(0.0, 1.0), 0.3)] * 3
    with pytest.raises(error):
        pit(continuous, seed)
    with pytest.raises(error):
        calibration_report(continuous, seed)


def test_a_generator_bit_generator_or_seed_sequence_seeds_the_same_stream():
    d = Poisson(rate=3.0)
    cases = [ForecastCase(Normal(0.0, 1.0), 0.3), *(ForecastCase(d, float(k)) for k in (0, 1, 2))]
    want = pit(cases, seed=8)
    for seed in (np.random.default_rng(8), np.random.PCG64(8), np.random.SeedSequence(8)):
        np.testing.assert_array_equal(pit(cases, seed), want)
    rng = np.random.default_rng(8)
    pit(cases, rng)  # a Generator is drawn from as given: the next call continues its stream
    assert rng.uniform() == np.random.default_rng(8).uniform(size=4)[3]


def _pit_case_by_case(cases, seed):
    """The per-case loop that the grouped ``pit`` replaced, kept as its oracle."""
    rng = np.random.default_rng(seed)
    out = []
    for case in cases:
        dist, y = case.predictive, case.observed
        if dist.kind == "continuous":
            out.append(np.ravel(dist.cdf(y)))
        else:
            left = float(dist.cdf_left(y))
            out.append([left + rng.uniform() * float(dist.density(y))])
    return np.clip(np.concatenate(out), 0.0, 1.0)


@st.composite
def _mixed_case_lists(draw):
    """Cases over a small pool of predictives, so runs share one object."""
    pool = [
        Poisson(draw(st.floats(0.05, 200.0))),
        Poisson(3.0),
        Poisson(3.0),  # equal to the one before, but another object
        Empirical(draw(st.lists(st.integers(-3, 6).map(float), min_size=1, max_size=8))),
        Mixture([Poisson(1.5), Poisson(draw(st.floats(0.5, 40.0)))], [0.4, 0.6]),
        Normal(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.1, 5.0))),
        StudentT(4.0, np.array([0.0, 1.0, 2.0]), 1.5),
    ]
    cases = []
    for i in draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=40)):
        dist = pool[i]
        if i == len(pool) - 1:
            y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)))
        elif dist.kind == "continuous":
            y = draw(st.floats(-10.0, 10.0))
        else:
            y = draw(st.one_of(st.integers(-2, 300).map(float), st.floats(-2.0, 300.0)))
        cases.append(ForecastCase(dist, y))
    return cases


@settings(max_examples=300, deadline=None)
@given(_mixed_case_lists(), st.integers(0, 2**32 - 1))
def test_grouped_pit_equals_the_case_by_case_loop(cases, seed):
    want = _pit_case_by_case(cases, seed)
    got = pit(cases, seed)
    assert got.tobytes() == want.tobytes()


def test_forecast_case_requires_finite_outcome():
    # a float, an np.float64 and a 0-d array each take the one-outcome path
    bad = (math.inf, -math.inf, math.nan, np.float64(math.nan), np.float64(-math.inf), np.array(-math.inf))
    for dist in (Normal(0.0, 1.0), Poisson(3.0), Empirical([0.0, 2.0])):
        for y in bad:
            with pytest.raises(ValueError, match="finite"):
                ForecastCase(dist, y)
            with pytest.raises(ValueError, match="finite"):
                crps(dist, y)


def test_perfect_forecaster_pits_look_uniform():
    values = pit(_normal_cases(5000, seed=2), seed=3)
    assert ks_uniform(values) < 1.36 / math.sqrt(5000)


# ---------------------------------------------------------------------------
# calibration curves
# ---------------------------------------------------------------------------


def test_probability_calibration_counts():
    pits = np.array([0.05, 0.1, 0.2, 0.7, 0.9])
    curve, max_dev = probability_calibration(pits, levels=[0.25, 0.5, 0.8])
    assert curve == [(0.25, 0.6), (0.5, 0.6), (0.8, 0.8)]
    assert max_dev == pytest.approx(0.35)


def test_ks_uniform_statistic():
    # oracle: D for the two-point sample {0.2, 0.6} against U(0,1) is 0.4
    assert ks_uniform([0.2, 0.6]) == pytest.approx(0.4, abs=1e-12)


def test_exceedance_calibration_perfect_forecasts():
    cases = _normal_cases(4000, seed=5)
    grid = np.linspace(-1.5, 1.5, 7)
    curve = exceedance_calibration(cases, grid)
    assert len(curve) == 7
    for y, pooled in curve:
        assert abs(pooled - y) < 0.08


def test_marginal_calibration_perfect_forecasts():
    cases = _normal_cases(4000, seed=6)
    curve = marginal_calibration(cases, y_grid=np.linspace(-2, 2, 9))
    for _, mean_cdf, empirical in curve:
        assert abs(mean_cdf - empirical) < 0.03


def test_marginal_calibration_detects_shifted_model():
    rng = np.random.default_rng(7)
    d = Normal(loc=1.0, scale=1.0)  # forecasts shifted up by 1
    cases = [ForecastCase(d, float(y)) for y in rng.normal(0.0, 1.0, size=4000)]
    curve = marginal_calibration(cases, y_grid=[0.5])
    _, mean_cdf, empirical = curve[0]
    assert mean_cdf < empirical - 0.2


# ---------------------------------------------------------------------------
# CRPS
# ---------------------------------------------------------------------------


def test_crps_normal_closed_form():
    # oracle: CRPS(N(mu, s), mu) = s (sqrt(2) - 1) / sqrt(pi)
    want = (math.sqrt(2.0) - 1.0) / math.sqrt(math.pi)
    assert crps(Normal(0.0, 1.0), 0.0) == pytest.approx(want, abs=1e-9)
    assert crps(Normal(3.0, 2.0), 3.0) == pytest.approx(2.0 * want, abs=1e-9)


def test_crps_normal_off_center():
    # oracle: CRPS(N(0,1), y) = y(2 Phi(y) - 1) + 2 phi(y) - 1/sqrt(pi)
    y = 1.3
    phi = math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * (1.0 + math.erf(y / math.sqrt(2.0)))
    want = y * (2.0 * cdf - 1.0) + 2.0 * phi - 1.0 / math.sqrt(math.pi)
    assert crps(Normal(0.0, 1.0), y) == pytest.approx(want, abs=1e-9)


def test_crps_point_mass_is_zero():
    from probleak import Empirical

    assert crps(Empirical([2.0]), 2.0) == pytest.approx(0.0, abs=1e-12)


def test_crps_two_point_empirical_by_hand():
    from probleak import Empirical

    d = Empirical([0.0, 1.0])
    # oracle: P = 1/2 on [0,1); integral of (1/2 - 1)^2 over [0,1) = 1/4
    assert crps(d, 0.0) == pytest.approx(0.25, abs=1e-12)
    assert crps(d, 1.0) == pytest.approx(0.25, abs=1e-12)
    # y = 2: (1/2)^2 on [0,1) plus (1-1{t>=2})^2 = 1 on [1,2)
    assert crps(d, 2.0) == pytest.approx(0.25 + 1.0, abs=1e-12)


def test_crps_poisson_against_monte_carlo_identity():
    d = Poisson(rate=3.0)
    y = 2.0
    exact = crps(d, y)
    # oracle: CRPS = E|X - y| - E|X - X'| / 2 by a seeded Monte Carlo estimate
    rng = np.random.default_rng(10)
    a = d.sample(400_000, rng)
    b = d.sample(400_000, rng)
    approx = np.mean(np.abs(a - y)) - 0.5 * np.mean(np.abs(a - b))
    assert exact == pytest.approx(float(approx), abs=5e-3)


def test_crps_undefined_for_heavy_tails():
    with pytest.raises(ModelError, match="CRPS undefined: infinite mean"):
        crps(StudentT(df=1.0, loc=0.0, scale=1.0), 0.0)
    with pytest.raises(ModelError, match="CRPS undefined"):
        crps(Mixture([StudentT(df=0.8), Normal(0.0, 1.0)], [0.5, 0.5]), 0.0)
    # df just above 1 has a mean, so the score exists
    assert crps(StudentT(df=1.2, loc=0.0, scale=1.0), 0.0) > 0.0


def test_crps_is_minimized_at_the_true_model():
    rng = np.random.default_rng(11)
    ys = rng.normal(0.0, 1.0, size=400)
    truth = Normal(0.0, 1.0)
    shifted = Normal(0.7, 1.0)
    mean_true = float(np.mean([crps(truth, float(y)) for y in ys]))
    mean_shift = float(np.mean([crps(shifted, float(y)) for y in ys]))
    assert mean_true < mean_shift


# ---------------------------------------------------------------------------
# elicited opinions and KL
# ---------------------------------------------------------------------------


def _grid_normal(loc=0.0, scale=1.0, lo=-8.0, hi=8.0, n=1601):
    grid = np.linspace(lo, hi, n)
    vals = np.exp(-0.5 * ((grid - loc) / scale) ** 2) / (scale * math.sqrt(2 * math.pi))
    vals = vals / np.trapezoid(vals, grid)
    return GridDensity(grid, vals)


def test_grid_density_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        GridDensity([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="matching 1-d"):
        GridDensity([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        GridDensity([0.0, 1.0], [2.0, -1.0])
    with pytest.raises(ValueError, match="integrate to 1"):
        GridDensity([0.0, 1.0], [3.0, 3.0])


def test_grid_density_interpolates():
    g = GridDensity([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert g.density(0.5) == pytest.approx(0.5)
    assert g.density(1.0) == pytest.approx(1.0)
    assert g.density(-0.5) == 0.0
    assert g.density(2.5) == 0.0


def test_kl_distance_normal_pair():
    # oracle: KL(N(1,1) || N(0,1)) = 1/2
    assert kl_distance(Normal(1.0, 1.0), Normal(0.0, 1.0)) == pytest.approx(0.5, abs=1e-8)


def test_kl_distance_identity_is_zero():
    assert abs(kl_distance(Normal(0.3, 1.2), Normal(0.3, 1.2))) < 1e-10
    g = _grid_normal()
    assert abs(kl_distance(g, g)) < 1e-8


def test_kl_distance_grid_vs_analytic():
    # a finely gridded standard normal against the analytic shifted one
    g = _grid_normal(0.0, 1.0)
    got = kl_distance(g, Normal(1.0, 1.0))
    assert got == pytest.approx(0.5, abs=5e-4)


def test_kl_distance_disjoint_supports_is_infinite():
    left = GridDensity([0.0, 1.0], [1.0, 1.0])
    right = GridDensity([2.0, 3.0], [1.0, 1.0])
    assert kl_distance(left, right) == math.inf
    assert kl_distance(right, left) == math.inf


def test_kl_distance_escaping_mass_is_infinite():
    # elicited density puts mass where the model has none
    wide = GridDensity([-1.0, 3.0], [0.25, 0.25])
    narrow = GridDensity([0.0, 1.0], [1.0, 1.0])
    assert kl_distance(wide, narrow) == math.inf
    # the other direction is finite: narrow lives inside wide
    assert math.isfinite(kl_distance(narrow, wide))


def test_kl_distance_sees_truncated_support():
    # the normal puts half its mass below the truncated model's floor
    assert kl_distance(Normal(0.0, 1.0), TruncatedNormal(0.0, 1.0, lower=0.0)) == math.inf
    # the reverse escapes nothing: on [0, inf) q = 2 p, so KL = log 2
    back = kl_distance(TruncatedNormal(0.0, 1.0, lower=0.0), Normal(0.0, 1.0))
    assert back == pytest.approx(math.log(2.0), abs=1e-8)


def test_kl_distance_is_infinite_for_any_elicited_mass_outside_the_model_hull():
    # 3.2e-14 of N(7.5, 1) lies below the truncation point 0; mass below
    # 1e-12 outside the hull was once forgiven, giving 27.43
    assert kl_distance(Normal(7.5, 1.0), TruncatedNormal(0.0, 1.0, lower=0.0)) == math.inf


def test_kl_distance_rejects_discrete_inputs():
    with pytest.raises(ModelError):
        kl_distance(Poisson(rate=2.0), Normal(0.0, 1.0))
    with pytest.raises(ModelError):
        kl_distance(Normal(0.0, 1.0), Poisson(rate=2.0))


def test_kl_distance_keeps_a_model_tail_that_underflows():
    # the normal's density underflows where t(5) still has mass; the log
    # densities do not. Oracle: quad over scipy.stats logpdfs, split at 0.
    q, p = stats.t(5), stats.norm()
    want = sum(
        integrate.quad(lambda t: q.pdf(t) * (q.logpdf(t) - p.logpdf(t)), a, b, epsabs=1e-14)[0]
        for a, b in ((-np.inf, 0.0), (0.0, np.inf))
    )
    assert want == pytest.approx(0.12476919412, abs=1e-11)
    assert kl_distance(StudentT(5.0), Normal(0.0, 1.0)) == pytest.approx(want, rel=1e-12)


def test_kl_distance_is_finite_where_the_model_density_underflows():
    # uniform on [30, 40] against N(0, 1): KL = E[t^2]/2 + log(2 pi)/2 + log(0.1)
    # with E[t^2] = (40^3 - 30^3) / 30 = 3700/3
    want = 0.5 * 3700.0 / 3.0 + 0.5 * math.log(2.0 * math.pi) + math.log(0.1)
    assert want == 615.2830201068773
    got = kl_distance(GridDensity([30.0, 40.0], [0.1, 0.1]), Normal(0.0, 1.0))
    assert got == pytest.approx(want, rel=1e-14)


def test_kl_distance_is_infinite_where_the_model_density_vanishes_inside_its_hull():
    # the model's support hull is [0, 3], but its density is 0 on [1, 2]
    uniform = GridDensity([0.0, 3.0], [1.0 / 3.0, 1.0 / 3.0])
    gapped = GridDensity([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 1.0])
    assert kl_distance(uniform, gapped) == math.inf


# -- property: kl_distance against closed forms and a quadrature oracle ------

_locs = st.floats(-3.0, 3.0)
_log_scales = st.floats(-1.0, 1.5)
_dfs = st.floats(3.0, 30.0)  # below ~3 the oracle's quad loses the t^2 tail


@st.composite
def _analytic(draw, lower=None):
    """Normal, Student t, truncated normal or a two-part mixture; with
    ``lower``, a truncated normal whose floor is at or above ``lower``."""
    loc, scale = draw(_locs), math.exp(draw(_log_scales))
    kind = "truncated" if lower is not None else draw(
        st.sampled_from(["normal", "t", "truncated", "mixture"])
    )
    if kind == "normal":
        return Normal(loc, scale)
    if kind == "t":
        return StudentT(draw(_dfs), loc, scale)
    if kind == "truncated":
        floor = loc + scale * draw(st.floats(-2.0, 1.0))
        if lower is not None and floor < lower:  # shift the law up onto the floor
            loc, floor = loc + (lower - floor), lower
        return TruncatedNormal(loc, scale, lower=floor)
    other = StudentT(draw(_dfs), draw(_locs), math.exp(draw(_log_scales)))
    w = draw(st.floats(0.1, 0.9))
    return Mixture([Normal(loc, scale), other], [w, 1.0 - w])


def _frozen_parts(d):
    """(weight, scipy.stats frozen law) for each part of a density."""
    if isinstance(d, Mixture):
        return [(w, law) for c, w in zip(d.components, d.weights) for _, law in _frozen_parts(c)]
    if isinstance(d, Normal):
        return [(1.0, stats.norm(d.loc, d.scale))]
    if isinstance(d, StudentT):
        return [(1.0, stats.t(d.df, d.loc, d.scale))]
    a = (d.lower - d.loc) / d.scale
    return [(1.0, stats.truncnorm(a, np.inf, d.loc, d.scale))]


def _quad_oracle(elicited, dist):
    """Integral of q (log q - log p) by tanh-sinh quadrature over scipy.stats
    logpdfs, split at quantiles of every part of both densities and at the
    floor of every truncated part, where a density jumps."""
    q_parts, p_parts = _frozen_parts(elicited), _frozen_parts(dist)

    def logpdf(parts, t):
        if len(parts) == 1:
            return parts[0][1].logpdf(t)
        weights = np.reshape([w for w, _ in parts], (-1,) + (1,) * np.ndim(t))
        return special.logsumexp([law.logpdf(t) for _, law in parts], b=weights, axis=0)

    def integrand(t):
        # far out on an infinite segment q underflows to 0 while log p may
        # overflow to -inf; q log(q/p) is 0 there, not 0 * inf
        log_q = logpdf(q_parts, t)
        q = np.exp(log_q)
        with np.errstate(invalid="ignore"):
            return np.where(q > 0.0, q * (log_q - logpdf(p_parts, t)), 0.0)

    levels = [1e-9, 1e-4, 0.1, 0.5, 0.9, 1.0 - 1e-4, 1.0 - 1e-9]
    cuts = np.concatenate([np.append(law.ppf(levels), law.support()[0]) for _, law in q_parts + p_parts])
    lo = getattr(elicited, "lower", -np.inf)
    edges = np.unique(np.concatenate([[lo, np.inf], cuts[cuts > lo]]))
    # tanh-sinh gives nan on a segment a few ulp wide, where the cut points
    # of two near-identical parts all but coincide: drop such a segment
    ulp = np.spacing(np.minimum(np.abs(edges[:-1]), np.abs(edges[1:])))
    edges = edges[np.append(True, np.diff(edges) > 64.0 * ulp)]
    # from level 4 on: at the default level 2 the error estimate can pass a
    # segment that is still 1e-12 off
    res = integrate.tanhsinh(integrand, edges[:-1], edges[1:], minlevel=4, atol=1e-14, rtol=1e-13)
    assert np.all(res.success), res.status
    return float(np.sum(res.integral))


@settings(max_examples=200, deadline=None)
@given(_locs, _log_scales, _locs, _log_scales)
def test_kl_distance_matches_the_normal_closed_form(m1, ls1, m2, ls2):
    s1, s2 = math.exp(ls1), math.exp(ls2)
    want = math.log(s2 / s1) + (s1 * s1 + (m1 - m2) ** 2) / (2.0 * s2 * s2) - 0.5
    assert kl_distance(Normal(m1, s1), Normal(m2, s2)) == pytest.approx(want, rel=1e-10, abs=1e-14)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_kl_distance_matches_quadrature_over_logpdfs(data):
    dist = data.draw(_analytic())
    lower = dist.lower if isinstance(dist, TruncatedNormal) else None
    elicited = data.draw(_analytic(lower))
    want = _quad_oracle(elicited, dist)
    assert kl_distance(elicited, dist) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize(
    "elicited, model",
    [
        # narrow model components inside one quartile span of the mixture:
        # edges cut only at the mixture's own quartiles were 1.1e-9 off
        (Normal(0.8, 2.0), Mixture([Normal(0.5, 0.28), StudentT(3.1, 2.1, 0.16)], [0.4, 0.6])),
        # where one component's tail overtakes the other's, log p bends
        # sharply: edges whose widths double at every step were 1.3e-9 off
        (StudentT(20.0, -3.0, 2.4), Mixture([Normal(2.5, 0.5), StudentT(15.0, 0.9, 0.2)], [0.4, 0.6])),
        # a density jumps at each part's floor: segments that did not end
        # there were 8e-3 and 5e-3 off
        (
            Mixture([TruncatedNormal(0.5, 1.0, lower=0.0), TruncatedNormal(2.0, 0.7, lower=1.3)], [0.4, 0.6]),
            Normal(1.0, 2.0),
        ),
        (
            TruncatedNormal(1.0, 1.0, lower=0.5),
            Mixture([TruncatedNormal(0.5, 1.0, lower=0.0), TruncatedNormal(2.0, 0.7, lower=1.0)], [0.4, 0.6]),
        ),
    ],
)
def test_kl_distance_resolves_mixture_models(elicited, model):
    assert kl_distance(elicited, model) == pytest.approx(_quad_oracle(elicited, model), rel=1e-11)


@st.composite
def _grid_density(draw):
    """A piecewise-linear density on 2-6 knots, some values possibly 0.

    The knots lie on a lattice of step 1/4, so a stretch between knots holds
    either no mass or a whole linear piece of it.
    """
    n = draw(st.integers(2, 6))
    steps = draw(st.lists(st.integers(1, 8), min_size=n - 1, max_size=n - 1))
    grid = 0.25 * (draw(st.integers(-12, 12)) + np.concatenate([[0], np.cumsum(steps)]))
    values = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=n, max_size=n)))
    if np.trapezoid(values, grid) == 0.0:
        values[0] = 1.0
    return GridDensity(grid, values / np.trapezoid(values, grid))


@settings(max_examples=150, deadline=None)
@given(_grid_density(), _grid_density())
def test_kl_distance_is_infinite_iff_elicited_mass_escapes(elicited, model):
    # elicited mass escapes exactly when some stretch between knots has
    # q > 0 while p = 0; both being piecewise linear, the midpoints of the
    # pieces between all knots show it
    knots = np.union1d(elicited.grid, model.grid)
    mid = 0.5 * (knots[:-1] + knots[1:])
    escapes = bool(np.any((elicited.density(mid) > 0.0) & (model.density(mid) == 0.0)))
    assert (kl_distance(elicited, model) == math.inf) == escapes


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------


def test_calibration_report_fields_and_determinism():
    cases = _normal_cases(200, seed=20)
    rep = calibration_report(cases, seed=21)
    assert len(rep.pit_values) == 200
    assert len(rep.probability_curve) == 19  # default levels 0.05 .. 0.95
    assert rep.max_probability_deviation >= 0.0
    assert rep.mean_crps is not None and rep.mean_crps > 0.0
    assert rep.seed == 21
    again = calibration_report(cases, seed=21)
    assert again.pit_values == rep.pit_values
    assert again.mean_crps == rep.mean_crps


def test_calibration_report_can_skip_crps():
    cases = [ForecastCase(StudentT(df=1.0), 0.0)]  # CRPS undefined here
    rep = calibration_report(cases, seed=0)
    assert rep.mean_crps is None


@settings(max_examples=150, deadline=None)
@given(
    df=st.one_of(st.floats(1.0001, 50.0), st.sampled_from([1998.0, 1e5])),
    size=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_calibration_report_mean_crps_is_the_mean_of_crps(df, size, seed):
    # the report takes each t CRPS from the CDF its PIT evaluated; the
    # scores keep the bits of crps itself
    rng = np.random.default_rng(seed)
    batch = StudentT(df=df, loc=rng.normal(size=size), scale=rng.uniform(0.1, 3.0, size=size))
    y = batch.loc + batch.scale * rng.standard_t(df, size=size) * rng.uniform(0.5, 2.0)
    cases = [ForecastCase(batch, y)]
    report = calibration_report(cases, seed=seed)
    assert report.mean_crps == float(np.mean(crps(batch, y)))
    assert report.pit_values == pit(cases, seed).tolist()


def test_calibration_report_mean_crps_over_cases_sharing_one_t():
    shared, other = StudentT(df=4.0, loc=0.5, scale=2.0), Normal(0.0, 1.0)
    ys = np.random.default_rng(3).normal(size=30).tolist()
    cases = [ForecastCase(shared, y) for y in ys[:20]] + [ForecastCase(other, y) for y in ys[20:]]
    scores = [crps(case.predictive, case.observed) for case in cases]
    assert calibration_report(cases, seed=0).mean_crps == float(np.mean(scores))


def test_calibration_report_mean_crps_over_runs_is_the_per_case_mean():
    # runs of Poisson, truncated normal and empirical cases, one crps call
    # per case: the mean has the bits of the mean of those calls
    rng = np.random.default_rng(5)
    runs = {
        Poisson(17.5): [-2.0, 0.0, 3.5, 1e9, *rng.poisson(17.5, size=40).astype(float).tolist()],
        TruncatedNormal(1.0, 2.0, lower=0.0): rng.uniform(0.0, 5.0, size=30).tolist(),
        Empirical([0.0, 2.0, 2.0, 7.5]): [0.0, 2.0, 4.5],
    }
    cases = [ForecastCase(dist, y) for dist, ys in runs.items() for y in ys]
    want = float(np.mean([crps(case.predictive, case.observed) for case in cases]))
    assert calibration_report(cases, seed=0).mean_crps == want


def test_forecast_case_refuses_an_outcome_that_is_not_finite_or_misses_the_batch():
    # a float against one predictive skips the shape check; these still
    # meet the finite and batch checks, with their messages
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^observed value must be finite, got {bad}$"):
            ForecastCase(Poisson(3.0), bad)
    batch = Normal(np.zeros(3), 1.0)
    with pytest.raises(ValueError, match=r"^observed has shape \(\), the predictive's batch has shape \(3,\)$"):
        ForecastCase(batch, 0.5)
    for dist in (Poisson(3.0), Normal(0.0, 1.0)):
        for y in (0.5, np.float64(0.5), 1, np.array(0.5)):
            assert type(ForecastCase(dist, y).observed) is float


def test_calibration_report_json_and_curves():
    rep = calibration_report(_normal_cases(50, seed=22), seed=23)
    doc = rep.to_json()
    assert set(doc) >= {
        "pit_values",
        "probability_curve",
        "exceedance_curve",
        "marginal_curve",
        "max_probability_deviation",
        "mean_crps",
        "falsification",
        "seed",
    }
    csv_text = rep.curve_csv("probability")
    assert csv_text.splitlines()[0] == "p,frequency"
    assert rep.curve_csv("exceedance").startswith("y,")
    assert rep.curve_csv("marginal").startswith("y,")
    with pytest.raises(ValueError, match="unknown curve"):
        rep.curve_csv("bogus")


# ---------------------------------------------------------------------------
# one pass per report: the code that built each curve's table on its own,
# kept as the oracle, bit for bit
# ---------------------------------------------------------------------------


def _parent_pooled(cases):
    return np.sort(np.concatenate([np.ravel(c.observed) for c in cases]).astype(float))


def _parent_pit(cases, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _, run in itertools.groupby(cases, key=lambda case: id(case.predictive)):
        run = list(run)
        dist = run[0].predictive
        if dist.kind == "continuous":
            out.extend(np.ravel(dist.cdf(case.observed)) for case in run)
        else:
            y = np.array([case.observed for case in run], dtype=float)
            left = np.asarray(dist.cdf_left(y), dtype=float)
            out.append(left + rng.uniform(size=y.size) * np.asarray(dist.density(y), dtype=float))
    return np.clip(np.concatenate(out), 0.0, 1.0)


def _parent_empirical_quantile(pool, p):
    idx = np.ceil(np.asarray(p) * pool.size - 1e-9).astype(np.int64) - 1
    return pool[np.clip(idx, 0, pool.size - 1)]


def _parent_mean_over_cases(cases, ys, of=None):
    n = sum(np.size(c.observed) for c in cases)
    step = max(1, calibration._TABLE_CELLS // n)
    out = np.empty(ys.size)
    for start in range(0, ys.size, step):
        block = ys[start : start + step, None]
        table = np.concatenate(
            [np.reshape(c.predictive.cdf(block), (block.shape[0], -1)) for c in cases], axis=1
        )
        out[start : start + step] = np.mean(table if of is None else of(table), axis=1)
    return out


def _parent_exceedance(cases, levels):
    pool = _parent_pooled(cases)
    levels = np.sort(np.asarray(levels, dtype=float))
    means = _parent_mean_over_cases(cases, levels, lambda p: _parent_empirical_quantile(pool, p))
    return list(zip(levels.tolist(), means.tolist()))


def _parent_default_grid(pool):
    return np.unique(_parent_empirical_quantile(pool, np.linspace(0.0, 1.0, 101)))


def _parent_marginal(cases, y_grid=None):
    pool = _parent_pooled(cases)
    grid = _parent_default_grid(pool) if y_grid is None else np.asarray(y_grid, dtype=float)
    emp = np.searchsorted(pool, grid, side="right") / pool.size
    return list(zip(grid.tolist(), _parent_mean_over_cases(cases, grid).tolist(), emp.tolist()))


def _parent_report(cases, seed, include_crps=True):
    pits = _parent_pit(cases, seed)
    prob = probability_calibration(pits)
    grid = _parent_default_grid(_parent_pooled(cases))
    mean_crps = None
    if include_crps:
        scores = [np.ravel(crps(c.predictive, c.observed)) for c in cases]
        mean_crps = float(np.mean(np.concatenate(scores)))
    return CalibrationReport(
        pit_values=[float(v) for v in pits],
        probability_curve=prob.curve,
        exceedance_curve=_parent_exceedance(cases, grid),
        marginal_curve=_parent_marginal(cases, grid),
        max_probability_deviation=prob.max_deviation,
        mean_crps=mean_crps,
        seed=seed if isinstance(seed, int) else None,
    )


@st.composite
def _report_case_lists(draw):
    """Scalar and batch cases of every family, runs sharing one object, and
    now and then a t with df <= 1, whose CRPS is undefined."""
    loc, scale = st.floats(-5.0, 5.0), st.floats(0.1, 5.0)
    size = draw(st.integers(1, 6))
    locs = st.lists(loc, min_size=size, max_size=size).map(np.array)
    lower = st.sampled_from([-math.inf, 0.0])
    pool = [
        Normal(draw(loc), draw(scale)),
        StudentT(draw(st.sampled_from([0.5, 1.0, 1.5, 4.0, 60.0])), draw(loc), draw(scale)),
        # scale >= 0.25 keeps the cut at 0 within 4 sd of loc >= -1, so the
        # kept mass never falls below the constructor's feasibility floor
        TruncatedNormal(draw(st.floats(-1.0, 3.0)), draw(st.floats(0.25, 5.0)), lower=draw(lower)),
        Mixture([Normal(0.0, 1.0), StudentT(3.0, draw(loc), 0.5)], [0.3, 0.7]),
        Poisson(draw(st.floats(0.05, 60.0))),
        Empirical(draw(st.lists(st.integers(-3, 6).map(float), min_size=1, max_size=8))),
        Mixture([Poisson(1.5), Empirical([0.5, 7.0])], [0.6, 0.4]),
        StudentT(draw(st.sampled_from([1.0, 2.5])), draw(locs), 1.5),
        Normal(draw(locs), draw(scale)),
    ]
    outcomes = st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size).map(np.array)
    cases = []
    for i in draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=25)):
        dist = pool[i]
        if np.ndim(getattr(dist, "loc", 0.0)):
            y = draw(outcomes)
        elif dist.kind == "continuous":
            y = draw(st.floats(-10.0, 10.0))
        else:
            y = draw(st.one_of(st.integers(-2, 80).map(float), st.floats(-2.0, 80.0)))
        cases.append(ForecastCase(dist, y))
    return cases


@settings(max_examples=150, deadline=None)
@given(
    _report_case_lists(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 50, 1 << 20]),
    st.lists(st.floats(-12.0, 12.0), max_size=30),
)
def test_one_pass_report_equals_the_two_table_report_bit_for_bit(cases, seed, cells, ys):
    with mock.patch.object(calibration, "_TABLE_CELLS", cells):
        try:
            want = _parent_report(cases, seed)
        except ModelError:  # a t with df <= 1: the old report was asked to skip the CRPS
            want = _parent_report(cases, seed, include_crps=False)
        got = calibration_report(cases, seed)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        assert pit(cases, seed).tobytes() == _parent_pit(cases, seed).tobytes()
        assert repr(exceedance_calibration(cases, ys)) == repr(_parent_exceedance(cases, ys))
        grid = sorted(ys)
        assert repr(marginal_calibration(cases, grid)) == repr(_parent_marginal(cases, grid))
        assert repr(marginal_calibration(cases)) == repr(_parent_marginal(cases))


class _CountingT(StudentT):
    """A t that records the shape of every ``cdf`` call; the report's PIT
    and CRPS reach the CDF through ``_cdf``, so only the curve tables count."""

    calls: list = []

    def cdf(self, y):
        _CountingT.calls.append(np.shape(y))
        return super().cdf(y)


@pytest.mark.parametrize("cells", [1 << 20, 2000])
def test_a_report_builds_one_cdf_table_per_block(monkeypatch, cells):
    monkeypatch.setattr(calibration, "_TABLE_CELLS", cells)
    monkeypatch.setattr(_CountingT, "calls", [])
    rng = np.random.default_rng(31)
    batch = _CountingT(5.0, rng.normal(size=200), np.full(200, 1.3))
    rep = calibration_report([ForecastCase(batch, rng.normal(size=200))], seed=32)
    step = cells // 200
    blocks = math.ceil(len(rep.marginal_curve) / step)
    assert len(_CountingT.calls) == blocks
    assert sum(shape[0] for shape in _CountingT.calls) == len(rep.marginal_curve) == 101
