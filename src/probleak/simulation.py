"""Synthetic data generators and the calibration-impossibility experiment.

Everything here is a pure function of its config, seed included, so whole
experiments are replayable bit for bit. Truncated-normal draws use CDF
inversion rather than rejection so the number of generator draws consumed is
fixed by the config alone.

The call-center generator produces data with the same shape as a two-site
abandonment-rate study: 52 rows per site, call volumes in the low thousands,
single-digit absentee counts, and an abandonment percentage that physically
cannot go below zero while an untruncated linear model fitted to it happily
predicts that it will.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy import special

from .calibration import (
    ForecastCase,
    _pit_and_mean_crps,
    crps,
    ks_uniform,
    probability_calibration,
)
from .exceptions import DataError
from .leakage import Evidence, leakage
from .predictive import (
    _MIN_FEASIBLE_MASS,
    TruncatedNormal,
    _scalar_or_array,
    _truncnorm_inverse,
)
from .regression import Dataset, FitResult, ModelSpec, fit_model, predictive_rows

__all__ = [
    "CallCenterConfig",
    "DEFAULT_CONTROL_CONFIG",
    "DEFAULT_TRUNCATED_CONFIG",
    "ImpossibilityReport",
    "SimConfig",
    "gen_callcenter_like",
    "gen_truncated_regression",
    "impossibility_experiment",
]


def _truncated_draws(rng, mu, sd, lower):
    """One Normal(mu_i, sd | Y >= lower) draw per mean, from one uniform each.

    Raises when some row's truncation region holds less than 1e-12 mass, or
    when a draw is not finite (a mean or sd that overflowed float64), since
    ``load_dataset`` would refuse such a table.
    """
    fa = None
    if math.isfinite(lower):
        fa = special.ndtr((lower - mu) / sd)
        if 1.0 - float(np.max(fa)) < _MIN_FEASIBLE_MASS:
            idx = int(np.argmax(fa))
            raise DataError(
                f"infeasible config: truncation region has mass < {_MIN_FEASIBLE_MASS} "
                f"at row {idx} (mean {mu[idx]:.6g}, bound {lower})"
            )
    y = _truncnorm_inverse(rng.uniform(size=mu.size), mu, sd, lower, fa)
    if not np.isfinite(y).all():  # the covariates are finite by the configs' domains
        raise DataError("simulated values are not finite: the config's scales overflow float64")
    return y


def _range(what: str, pair) -> tuple:
    """``pair`` as floats ``lo <= hi``, both finite and ``hi - lo`` finite,
    as a uniform draw over the range needs."""
    lo, hi = (float(v) for v in pair)
    if not (lo <= hi and math.isfinite(hi - lo)):
        raise ValueError(f"malformed {what} ({lo}, {hi})")
    return lo, hi


def _check_seed_and_floor(seed, name: str, floor: float) -> None:
    """numpy seeds its generators from an integer >= 0; a NaN floor bounds nothing."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if math.isnan(floor):
        raise ValueError(f"{name} must be a number or -inf, got nan")


@dataclass(frozen=True)
class SimConfig:
    """Truncated linear-regression truth: y ~ Normal(x.beta, noise_sd | y >= support_lower).

    ``coefficients`` holds the intercept first, then one slope per covariate;
    covariates are uniform over ``covariate_ranges``. Columns come out named
    y, x1, x2, ...
    """

    n: int
    coefficients: tuple
    noise_sd: float
    covariate_ranges: tuple
    support_lower: float = -math.inf
    seed: int = 0

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"need n >= 4, got {self.n}")
        if not 0.0 < self.noise_sd < math.inf:
            raise ValueError(f"noise_sd must be positive and finite, got {self.noise_sd}")
        coefs = tuple(float(c) for c in self.coefficients)
        ranges = tuple(_range("covariate range", pair) for pair in self.covariate_ranges)
        if not ranges:
            raise ValueError("need at least one covariate range")
        if len(coefs) != len(ranges) + 1:
            raise ValueError(
                f"{len(ranges)} covariates need {len(ranges) + 1} coefficients "
                f"(intercept first), got {len(coefs)}"
            )
        if not all(map(math.isfinite, coefs)):
            raise ValueError(f"coefficients must be finite, got {coefs}")
        _check_seed_and_floor(self.seed, "support_lower", self.support_lower)
        object.__setattr__(self, "coefficients", coefs)
        object.__setattr__(self, "covariate_ranges", ranges)

    @property
    def covariate_names(self) -> tuple:
        return tuple(f"x{i + 1}" for i in range(len(self.covariate_ranges)))

    def mean_at(self, x):
        """True mean at a covariate row, or at each row of a matrix."""
        slopes = np.asarray(self.coefficients[1:])
        return _scalar_or_array(self.coefficients[0] + np.asarray(x) @ slopes)


@np.errstate(over="ignore", invalid="ignore")  # an overflow reaches y, which _truncated_draws refuses
def gen_truncated_regression(cfg: SimConfig) -> Dataset:
    """Draw a dataset from the config's truncated-regression truth.

    Draw order is fixed (each covariate column in turn, then the uniforms
    feeding the inversion), so equal configs give equal datasets. Raises
    when some row's truncation region holds less than 1e-12 mass, or when a
    value is not finite.
    """
    rng = np.random.default_rng(cfg.seed)
    cols: dict = {}
    for name, (a, b) in zip(cfg.covariate_names, cfg.covariate_ranges):
        cols[name] = rng.uniform(a, b, size=cfg.n) if a < b else np.full(cfg.n, a)
    mu = cfg.coefficients[0] + sum(c * col for c, col in zip(cfg.coefficients[1:], cols.values()))
    data = {"y": _truncated_draws(rng, mu, cfg.noise_sd, cfg.support_lower)}
    data.update(cols)
    return Dataset(data)


# ---------------------------------------------------------------------------
# call-center-like generator
# ---------------------------------------------------------------------------


class CallCenterCoefs(NamedTuple):
    intercept: float
    calls: float
    absentees: float
    location_b: float
    noise_sd: float


# Tuned by tools/tune_callcenter.py so the fitted model's leakage profile
# lands inside the documented audit windows; see that script for the search.
# Valid only together with the CallCenterConfig defaults below (seed included):
# the windows are properties of the one dataset those defaults generate.
_CC_COEFS = CallCenterCoefs(
    intercept=-21.7,
    calls=0.00463,
    absentees=0.641,
    location_b=11.6,
    noise_sd=3.09,
)


@dataclass(frozen=True)
class CallCenterConfig:
    """Two-site abandonment study shape: 52 rows per site by default."""

    per_location_n: int = 52
    calls_range: tuple = (110, 2995)
    absentee_range: tuple = (1, 14)
    y_floor: float = 0.0
    seed: int = 846

    def __post_init__(self):
        if self.per_location_n < 2:
            raise ValueError("need at least two rows per location")
        calls = _range("calls range", self.calls_range)
        absentees = _range("absentee range", self.absentee_range)
        if not all(v.is_integer() and abs(v) <= 2**53 for v in absentees):
            raise ValueError(f"absentee range needs whole numbers within 2**53, got {absentees}")
        _check_seed_and_floor(self.seed, "y_floor", self.y_floor)
        object.__setattr__(self, "calls_range", calls)
        object.__setattr__(self, "absentee_range", absentees)


def _draw_covariates(cfg: CallCenterConfig, rng) -> tuple:
    """Covariate columns for the two-site design, independent of the effects.

    Call volumes are left-skewed (a capacity-limited center spends most days
    near the top of its range), drawn as the cube root of a uniform mapped
    onto the range; absentee counts are uniform integers. Two location-B
    rows are pinned to the range endpoints so the sample extremes equal the
    configured ranges exactly; location A never samples the low corner, so
    a fit extrapolates there.
    """
    m = cfg.per_location_n
    c_lo, c_hi = cfg.calls_range
    a_lo, a_hi = cfg.absentee_range
    calls = np.rint(c_lo + (c_hi - c_lo) * np.cbrt(rng.uniform(size=2 * m)))
    absentees = rng.integers(a_lo, a_hi, size=2 * m, endpoint=True).astype(float)
    calls[m], absentees[m] = c_lo, a_lo
    calls[-1], absentees[-1] = c_hi, a_hi
    is_b = np.repeat([0.0, 1.0], m)
    return calls, absentees, is_b


@np.errstate(over="ignore", invalid="ignore")  # an overflow reaches y, which _truncated_draws refuses
def _gen_callcenter(cfg: CallCenterConfig, coefs: CallCenterCoefs) -> Dataset:
    rng = np.random.default_rng(cfg.seed)
    calls, absentees, is_b = _draw_covariates(cfg, rng)
    mu = (
        coefs.intercept
        + coefs.calls * calls
        + coefs.absentees * absentees
        + coefs.location_b * is_b
    )
    y = _truncated_draws(rng, mu, coefs.noise_sd, cfg.y_floor)
    location = np.where(is_b > 0.0, "B", "A")
    return Dataset(
        {
            "abandonment": y,
            "calls": calls,
            "absentees": absentees,
            "location": location,
        }
    )


def gen_callcenter_like(cfg: CallCenterConfig = CallCenterConfig()) -> Dataset:
    """Synthetic two-site abandonment dataset with the tuned default effects.

    Positive call-volume and absentee effects, a site offset, and a hard
    floor at zero; columns abandonment, calls, absentees, location.
    """
    return _gen_callcenter(cfg, _CC_COEFS)


# ---------------------------------------------------------------------------
# impossibility experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImpossibilityReport:
    """Everything the truncated-truth experiment demonstrates, in one record.

    When the truth is truncated and the fitted model leaks at least ell_min
    everywhere, the PIT can never dip below ell_min, so the probability
    calibration frequency at p_star = ell_min/2 is identically zero and the
    marginal curves split at the support bound by the mean leakage.
    """

    truncated: bool
    ell_min: float
    mean_leakage: float
    pits: tuple
    ks_stat: float
    ks_critical: float
    probability_curve: list
    max_probability_deviation: float
    p_star: float | None
    frequency_at_p_star: float | None
    deviation_at_p_star: float | None
    marginal_gap_at_bound: float | None
    mean_crps_model: float | None
    mean_crps_oracle: float | None
    fit: FitResult

    def to_json(self) -> dict:
        return {
            "truncated": self.truncated,
            "ell_min": self.ell_min,
            "mean_leakage": self.mean_leakage,
            "ks_stat": self.ks_stat,
            "ks_critical": self.ks_critical,
            "probability_curve": [[p, f] for p, f in self.probability_curve],
            "max_probability_deviation": self.max_probability_deviation,
            "p_star": self.p_star,
            "frequency_at_p_star": self.frequency_at_p_star,
            "deviation_at_p_star": self.deviation_at_p_star,
            "marginal_gap_at_bound": self.marginal_gap_at_bound,
            "mean_crps_model": self.mean_crps_model,
            "mean_crps_oracle": self.mean_crps_oracle,
        }


def impossibility_experiment(
    cfg: SimConfig, holdout_n: int = 5000, compute_crps: bool = True
) -> ImpossibilityReport:
    """Fit the flat-prior regression to data from cfg and audit it on holdout.

    Training data comes from cfg; the holdout redraws holdout_n rows from the
    same truth with seed + 1. Per-case leakage is the fitted predictive's
    mass below the support bound, one ``leakage`` call over the holdout
    batch. The probability curve is read at p = 0.05, 0.10, ..., 0.95. With
    a finite bound the report carries the frequency at p_star = ell_min/2
    (zero whenever ell_min > 0). With ``compute_crps`` it carries the mean
    CRPS of the fitted model, from the same t CDF values as the PITs, next
    to that of the true truncated oracle; the model's is None where its t
    has df <= 1, and so no mean.
    """
    train = gen_truncated_regression(cfg)
    spec = ModelSpec("y", cfg.covariate_names)
    fit = fit_model(train, spec)

    holdout = gen_truncated_regression(replace(cfg, n=holdout_n, seed=cfg.seed + 1))

    evidence = Evidence.interval(cfg.support_lower, math.inf)
    dist = predictive_rows(fit, fit.column_coding.encode_rows(holdout.columns))
    y_hold = holdout.column("y")
    leakages = np.broadcast_to(leakage(dist, evidence).leakage, y_hold.shape)

    pits, crps_model = _pit_and_mean_crps([ForecastCase(dist, y_hold)], cfg.seed + 2, compute_crps)
    ks = ks_uniform(pits)
    ks_crit = 1.36 / math.sqrt(holdout_n)
    prob = probability_calibration(pits)

    ell_min = float(np.min(leakages))
    mean_leak = float(np.mean(leakages))
    truncated = math.isfinite(cfg.support_lower)

    p_star = freq_star = dev_star = gap = None
    if truncated and ell_min > 0.0:
        p_star = 0.5 * ell_min
        freq_star = float(np.mean(pits <= p_star))
        dev_star = abs(freq_star - p_star)
    if truncated:
        # the mean predictive CDF at the bound is the mean leakage below it
        gap = mean_leak - float(np.mean(y_hold < cfg.support_lower))

    crps_oracle = None
    if compute_crps:
        x_rows = np.column_stack([holdout.column(nm) for nm in cfg.covariate_names])
        oracle = TruncatedNormal(
            loc=cfg.mean_at(x_rows), scale=cfg.noise_sd, lower=cfg.support_lower
        )
        crps_oracle = float(np.mean(crps(oracle, y_hold)))

    return ImpossibilityReport(
        truncated=truncated,
        ell_min=ell_min,
        mean_leakage=mean_leak,
        pits=tuple(float(v) for v in pits),
        ks_stat=ks,
        ks_critical=ks_crit,
        probability_curve=prob.curve,
        max_probability_deviation=prob.max_deviation,
        p_star=p_star,
        frequency_at_p_star=freq_star,
        deviation_at_p_star=dev_star,
        marginal_gap_at_bound=gap,
        mean_crps_model=crps_model,
        mean_crps_oracle=crps_oracle,
        fit=fit,
    )


# Shipped experiment arms: the truncated config keeps the linear mean low
# enough that the fitted model leaks > 0.05 at every holdout point; the
# control arm is the same truth with the floor removed.
DEFAULT_TRUNCATED_CONFIG = SimConfig(
    n=2000,
    coefficients=(0.2, 0.3),
    noise_sd=1.0,
    covariate_ranges=((0.0, 1.0),),
    support_lower=0.0,
    seed=71,
)

DEFAULT_CONTROL_CONFIG = replace(DEFAULT_TRUNCATED_CONFIG, support_lower=-math.inf)
