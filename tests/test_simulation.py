"""Seeded generators with known truths, and the impossibility experiment."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from probleak import (
    DEFAULT_CONTROL_CONFIG,
    DEFAULT_TRUNCATED_CONFIG,
    CallCenterConfig,
    DataError,
    Evidence,
    ForecastCase,
    ModelError,
    ModelSpec,
    Normal,
    SimConfig,
    TruncatedNormal,
    crps,
    fit_model,
    gen_callcenter_like,
    gen_truncated_regression,
    impossibility_experiment,
    ks_uniform,
    leakage,
    pit,
    predictive_rows,
    probability_calibration,
)
from probleak import predictive


# ---------------------------------------------------------------------------
# TruncatedNormal
# ---------------------------------------------------------------------------


def test_truncated_normal_reduces_to_normal_without_bound():
    t = TruncatedNormal(loc=1.0, scale=2.0)
    n = Normal(loc=1.0, scale=2.0)
    ys = np.linspace(-6, 8, 15)
    np.testing.assert_allclose(t.cdf(ys), n.cdf(ys), atol=1e-14)
    np.testing.assert_allclose(t.density(ys), n.density(ys), atol=1e-14)


def test_truncated_normal_cdf_and_density():
    t = TruncatedNormal(loc=0.0, scale=1.0, lower=0.0)
    assert t.cdf(-0.5) == 0.0
    assert t.density(-0.5) == 0.0
    # oracle: renormalized upper half of the standard normal
    assert t.cdf(0.0) == pytest.approx(0.0, abs=1e-15)
    z = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))  # Phi(1)
    assert t.cdf(1.0) == pytest.approx((z - 0.5) / 0.5, abs=1e-12)
    assert t.density(0.5) == pytest.approx(
        2.0 * math.exp(-0.125) / math.sqrt(2 * math.pi), abs=1e-12
    )


def test_truncated_normal_keeps_precision_under_deep_truncation():
    from scipy import stats

    # oracle: scipy's truncnorm; 1 - Phi(6) would keep only ~7 digits of the
    # kept mass Phi(-6) ~ 1e-9
    t = TruncatedNormal(loc=0.0, scale=1.0, lower=6.0)
    assert t.cdf(6.1) == pytest.approx(stats.truncnorm.cdf(6.1, 6.0, np.inf), rel=1e-12)
    assert t.density(6.01) == pytest.approx(stats.truncnorm.pdf(6.01, 6.0, np.inf), rel=1e-12)
    ys = np.array([6.0, 6.001, 6.5, 7.0, 9.0])
    want = stats.truncnorm.cdf(ys, 6.0, np.inf)
    np.testing.assert_allclose(t.cdf(ys), want, rtol=1e-12, atol=0.0)
    # a bound below the mean keeps the lower tail's relative accuracy
    low = TruncatedNormal(loc=0.0, scale=1.0, lower=-3.0)
    ys = np.array([-2.999, -2.5, 0.0, 3.0])
    want = stats.truncnorm.cdf(ys, -3.0, np.inf)
    np.testing.assert_allclose(low.cdf(ys), want, rtol=1e-12, atol=0.0)


def test_truncated_normal_batch_broadcasts():
    locs = np.array([-1.0, 0.0, 2.0])
    batch = TruncatedNormal(loc=locs, scale=1.5, lower=0.0)
    for i, loc in enumerate(locs):
        one = TruncatedNormal(loc=float(loc), scale=1.5, lower=0.0)
        assert batch.cdf(0.7)[i] == one.cdf(0.7)
        assert batch.density(0.7)[i] == one.density(0.7)
    with pytest.raises(DataError, match="mass"):
        TruncatedNormal(loc=np.array([0.0, -30.0]), scale=1.0, lower=0.0)


def test_truncated_normal_samples_respect_bound():
    t = TruncatedNormal(loc=-1.0, scale=1.0, lower=0.0)
    draws = t.sample(50_000, 13)
    assert draws.min() >= 0.0
    # oracle: mean of N(-1,1) truncated at 0 is -1 + phi(1)/(1 - Phi(1))
    phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
    tail = 1.0 - 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    want = -1.0 + phi1 / tail
    assert draws.mean() == pytest.approx(want, abs=0.01)


def test_truncated_normal_sampling_is_seeded():
    t = TruncatedNormal(loc=0.5, scale=1.0, lower=0.0)
    np.testing.assert_array_equal(t.sample(100, 3), t.sample(100, 3))


def test_truncated_normal_infeasible_raises():
    # the kept region is ~24 sigma out: mass below the feasibility floor
    with pytest.raises(DataError, match="mass"):
        TruncatedNormal(loc=0.0, scale=1.0, lower=24.0)


def test_truncated_normal_has_mass_respects_bound():
    t = TruncatedNormal(loc=0.0, scale=1.0, lower=0.0)
    assert t.has_mass(1.0, 2.0)
    assert not t.has_mass(-3.0, -1.0)
    assert t.has_mass(-3.0, 1.0)


def test_truncated_normal_quantile_roundtrip():
    t = TruncatedNormal(loc=0.2, scale=1.3, lower=0.0)
    for p in (0.01, 0.5, 0.99):
        assert t.cdf(t.quantile(p)) == pytest.approx(p, abs=1e-10)


def _mpmath_standard_quantile(a, p):
    """z with P(Z <= z | Z >= a) = p in 60 digits, by Newton from scipy's answer,
    on whichever tail of the standard normal holds z. Where scipy's answer
    overflows (p within an ulp of 1), Newton starts from the upper-tail inverse."""
    start = stats.truncnorm.ppf(p, a, math.inf)
    if not math.isfinite(start):
        start = stats.norm.isf((1.0 - p) * stats.norm.sf(a))
    with mpmath.workdps(60):
        a, p, z = mpmath.mpf(a), mpmath.mpf(p), mpmath.mpf(start)
        below = mpmath.ncdf(a) + p * mpmath.ncdf(-a)
        for _ in range(100):
            if below < 0.5:
                step = (mpmath.ncdf(z) - below) / mpmath.npdf(z)
            else:
                step = ((1 - p) * mpmath.ncdf(-a) - mpmath.ncdf(-z)) / mpmath.npdf(z)
            z -= step
            if abs(step) < mpmath.mpf(10) ** -40 * max(1, abs(z)):
                return float(z)
    raise AssertionError("Newton did not converge")


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-10.0, 30.0),
    st.floats(-10.0, 7.0),  # standardised bound; Q(7) is near the 1e-12 feasibility floor
    st.floats(0.05, 20.0),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
@example(lower=0.0, a=-0.0625, scale=1.0, p=0.9999999999999999)
def test_truncated_normal_quantile_matches_mpmath(lower, a, scale, p):
    loc = lower - a * scale
    dist = TruncatedNormal(loc, scale, lower)
    a = (lower - loc) / scale  # the bound the object sees
    z = _mpmath_standard_quantile(a, p)
    got = dist.quantile(p)
    assert got >= lower
    assert got == pytest.approx(loc + scale * z, rel=0.0, abs=1e-12 * (abs(loc) + scale * max(1.0, abs(z))))


def test_truncated_normal_quantile_is_closed_form(monkeypatch):
    def no_bisection(*args):
        raise AssertionError("bisection called")

    monkeypatch.setattr(predictive, "_invert_cdf", no_bisection)
    for lower in (-math.inf, -1.0, 0.0, 5.0):
        t = TruncatedNormal(loc=0.2, scale=1.3, lower=lower)
        assert t.cdf(t.quantile(0.3)) == pytest.approx(0.3, abs=1e-12)
    batch = TruncatedNormal(loc=np.array([0.0, 1.0, 9.0]), scale=1.0, lower=2.0)
    np.testing.assert_allclose(batch.cdf(batch.quantile(0.7)), 0.7, rtol=1e-12)


# ---------------------------------------------------------------------------
# truncated regression generator
# ---------------------------------------------------------------------------


def test_sim_config_validation():
    with pytest.raises(ValueError, match="n >= 4"):
        SimConfig(n=3, coefficients=(0.0, 1.0), noise_sd=1.0, covariate_ranges=((0, 1),))
    with pytest.raises(ValueError, match="noise_sd"):
        SimConfig(n=10, coefficients=(0.0, 1.0), noise_sd=0.0, covariate_ranges=((0, 1),))
    with pytest.raises(ValueError, match="coefficients"):
        SimConfig(n=10, coefficients=(0.0,), noise_sd=1.0, covariate_ranges=((0, 1),))
    with pytest.raises(ValueError, match="range"):
        SimConfig(n=10, coefficients=(0.0, 1.0), noise_sd=1.0, covariate_ranges=((1, 0),))


def test_gen_truncated_regression_columns_and_determinism():
    cfg = SimConfig(
        n=50,
        coefficients=(0.5, 1.0, -0.5),
        noise_sd=0.7,
        covariate_ranges=((0.0, 1.0), (2.0, 3.0)),
        support_lower=0.0,
        seed=5,
    )
    a = gen_truncated_regression(cfg)
    b = gen_truncated_regression(cfg)
    assert a.names == ("y", "x1", "x2")
    assert a.n == 50
    np.testing.assert_array_equal(a.column("y"), b.column("y"))
    assert a.column("y").min() >= 0.0
    assert a.column("x1").min() >= 0.0 and a.column("x1").max() <= 1.0
    assert a.column("x2").min() >= 2.0 and a.column("x2").max() <= 3.0


def test_gen_truncated_regression_unbounded_can_go_negative():
    cfg = SimConfig(
        n=200,
        coefficients=(0.0, 0.1),
        noise_sd=1.0,
        covariate_ranges=((0.0, 1.0),),
        seed=6,
    )
    data = gen_truncated_regression(cfg)
    assert data.column("y").min() < 0.0


def test_gen_truncated_regression_infeasible_row():
    cfg = SimConfig(
        n=10,
        coefficients=(-40.0, 0.0),
        noise_sd=1.0,
        covariate_ranges=((0.0, 1.0),),
        support_lower=0.0,
        seed=0,
    )
    with pytest.raises(DataError, match="infeasible config"):
        gen_truncated_regression(cfg)


def test_default_configs_differ_only_in_truncation():
    assert DEFAULT_TRUNCATED_CONFIG.support_lower == 0.0
    assert DEFAULT_CONTROL_CONFIG.support_lower == -math.inf
    assert DEFAULT_TRUNCATED_CONFIG.n == DEFAULT_CONTROL_CONFIG.n
    assert DEFAULT_TRUNCATED_CONFIG.coefficients == DEFAULT_CONTROL_CONFIG.coefficients
    assert DEFAULT_TRUNCATED_CONFIG.seed == DEFAULT_CONTROL_CONFIG.seed


# ---------------------------------------------------------------------------
# call-center-like generator
# ---------------------------------------------------------------------------


def test_callcenter_config_validation():
    with pytest.raises(ValueError, match="two rows"):
        CallCenterConfig(per_location_n=1)
    with pytest.raises(ValueError, match="calls range"):
        CallCenterConfig(calls_range=(100, 50))
    with pytest.raises(ValueError, match="absentee range"):
        CallCenterConfig(absentee_range=(5, 1))


def test_callcenter_dataset_shape():
    data = gen_callcenter_like()
    assert data.names == ("abandonment", "calls", "absentees", "location")
    assert data.n == 104
    loc = data.column("location")
    assert sorted(set(loc)) == ["A", "B"]
    assert int(np.sum(loc == "A")) == 52
    assert int(np.sum(loc == "B")) == 52
    assert data.column("abandonment").min() >= 0.0


def test_callcenter_extremes_hit_configured_ranges():
    cfg = CallCenterConfig()
    data = gen_callcenter_like(cfg)
    calls = data.column("calls")
    absentees = data.column("absentees")
    assert calls.min() == cfg.calls_range[0]
    assert calls.max() == cfg.calls_range[1]
    assert absentees.min() == cfg.absentee_range[0]
    assert absentees.max() == cfg.absentee_range[1]
    # the pinned extreme rows sit in location B, so A never samples the
    # low corner and a fit must extrapolate there
    loc = data.column("location")
    at_min = (calls == calls.min()) & (absentees == absentees.min())
    assert set(loc[at_min]) == {"B"}


def test_callcenter_is_deterministic_per_seed():
    a = gen_callcenter_like(CallCenterConfig(seed=2))
    b = gen_callcenter_like(CallCenterConfig(seed=2))
    c = gen_callcenter_like(CallCenterConfig(seed=3))
    np.testing.assert_array_equal(a.column("abandonment"), b.column("abandonment"))
    assert not np.array_equal(a.column("abandonment"), c.column("abandonment"))


def test_callcenter_integer_covariates():
    data = gen_callcenter_like()
    calls = data.column("calls")
    absentees = data.column("absentees")
    np.testing.assert_array_equal(calls, np.rint(calls))
    np.testing.assert_array_equal(absentees, np.rint(absentees))


# ---------------------------------------------------------------------------
# impossibility experiment
# ---------------------------------------------------------------------------


def test_impossibility_experiment_small_smoke():
    cfg = SimConfig(
        n=400,
        coefficients=(0.2, 0.3),
        noise_sd=1.0,
        covariate_ranges=((0.0, 1.0),),
        support_lower=0.0,
        seed=71,
    )
    rep = impossibility_experiment(cfg, holdout_n=800, compute_crps=False)
    assert rep.truncated is True
    assert rep.ell_min > 0.0
    assert len(rep.pits) == 800
    assert rep.ks_critical == pytest.approx(1.36 / math.sqrt(800), abs=1e-12)
    assert 0.0 < rep.p_star < rep.ell_min
    # no PIT can land below the minimum leakage, so the frequency there is 0
    assert rep.frequency_at_p_star == 0.0
    assert rep.deviation_at_p_star == pytest.approx(rep.p_star, abs=1e-15)
    assert rep.mean_crps_model is None and rep.mean_crps_oracle is None
    doc = rep.to_json()
    assert doc["truncated"] is True
    assert doc["ell_min"] == rep.ell_min


def test_impossibility_experiment_control_smoke():
    cfg = SimConfig(
        n=400,
        coefficients=(0.2, 0.3),
        noise_sd=1.0,
        covariate_ranges=((0.0, 1.0),),
        seed=71,
    )
    rep = impossibility_experiment(cfg, holdout_n=800, compute_crps=False)
    assert rep.truncated is False
    assert rep.ell_min == 0.0
    assert rep.ks_stat < rep.ks_critical  # well-specified model passes


def _assembled_report(cfg, holdout_n):
    """impossibility_experiment's fields, assembled from the public calls:
    ``gen_truncated_regression``, ``pit`` and ``crps`` among them."""
    fit = fit_model(gen_truncated_regression(cfg), ModelSpec("y", cfg.covariate_names))
    holdout = gen_truncated_regression(dataclasses.replace(cfg, n=holdout_n, seed=cfg.seed + 1))
    dist = predictive_rows(fit, fit.column_coding.encode_rows(holdout.columns))
    y = holdout.column("y")
    leak = leakage(dist, Evidence.interval(cfg.support_lower, math.inf)).leakage
    leakages = np.broadcast_to(leak, y.shape)
    pits = pit([ForecastCase(dist, y)], seed=cfg.seed + 2)
    prob = probability_calibration(pits)
    truncated = math.isfinite(cfg.support_lower)
    ell_min, mean_leak = float(np.min(leakages)), float(np.mean(leakages))
    p_star = freq = dev = gap = None
    if truncated and ell_min > 0.0:
        p_star = 0.5 * ell_min
        freq = float(np.mean(pits <= p_star))
        dev = abs(freq - p_star)
    if truncated:
        gap = mean_leak - float(np.mean(y < cfg.support_lower))
    try:
        crps_model = float(np.mean(crps(dist, y)))
    except ModelError:  # a t with df <= 1 has no CRPS
        crps_model = None
    x = np.column_stack([holdout.column(name) for name in cfg.covariate_names])
    oracle = TruncatedNormal(cfg.mean_at(x), cfg.noise_sd, cfg.support_lower)
    return {
        "truncated": truncated,
        "ell_min": ell_min,
        "mean_leakage": mean_leak,
        "pits": tuple(pits.tolist()),
        "ks_stat": ks_uniform(pits),
        "ks_critical": 1.36 / math.sqrt(holdout_n),
        "probability_curve": prob.curve,
        "max_probability_deviation": prob.max_deviation,
        "p_star": p_star,
        "frequency_at_p_star": freq,
        "deviation_at_p_star": dev,
        "marginal_gap_at_bound": gap,
        "mean_crps_model": crps_model,
        "mean_crps_oracle": float(np.mean(crps(oracle, y))),
        "fit": fit,
    }


@st.composite
def _sim_configs(draw):
    covariates = draw(st.integers(1, 3))
    floats = st.floats(-2.0, 2.0, allow_nan=False)
    ranges = []
    for _ in range(covariates):
        a = draw(floats)
        ranges.append((a, a + draw(st.sampled_from([0.0, 0.5, 3.0]))))
    return SimConfig(
        n=draw(st.integers(4, 400)),
        coefficients=tuple(draw(floats) for _ in range(covariates + 1)),
        noise_sd=draw(st.floats(0.1, 3.0)),
        covariate_ranges=tuple(ranges),
        support_lower=draw(st.sampled_from([-math.inf, -1.0, 0.0])),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=60, deadline=None)
@given(_sim_configs(), st.integers(4, 300))
@example(  # df = 1: the t has no mean, so the report has no CRPS of the model
    SimConfig(4, (0.2, 0.3, -0.1), 1.0, ((0.0, 1.0), (0.0, 2.0)), support_lower=0.0, seed=3), 40
)
@example(DEFAULT_TRUNCATED_CONFIG, 40)
@example(DEFAULT_CONTROL_CONFIG, 40)
def test_impossibility_report_equals_the_one_assembled_from_public_calls(cfg, holdout_n):
    try:
        expected = _assembled_report(cfg, holdout_n)
    except (DataError, ModelError):  # an infeasible floor, a singular design
        with pytest.raises((DataError, ModelError)):
            impossibility_experiment(cfg, holdout_n=holdout_n)
        return
    report = impossibility_experiment(cfg, holdout_n=holdout_n)
    assert [f.name for f in dataclasses.fields(report)] == list(expected)
    for name, value in expected.items():
        got = getattr(report, name)
        if name == "fit":
            for part in ("beta_hat", "xtx_inverse"):
                assert getattr(got, part).tobytes() == getattr(value, part).tobytes()
            assert (got.s2, got.n, got.p) == (value.s2, value.n, value.p)
        else:
            assert got == value, name
