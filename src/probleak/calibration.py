"""Forecast calibration diagnostics, CRPS scoring, and KL distance.

Three senses of calibration are computed over a collection of forecast
cases, each a predictive distribution paired with the value that actually
happened:

  probability  empirical frequency of PIT values at or below p, vs p;
  exceedance   mean pooled-empirical quantile at the model's CDF level, vs y;
  marginal     mean predictive CDF vs the pooled empirical CDF.

Per-instance truth distributions are unobservable with one outcome per case,
so the diagnostics use the standard empirical surrogates: the probability
integral transform for the first, the pooled empirical distribution of the
outcomes for the other two. A predictive that puts mass below the true
support floor shows up directly: every PIT is pushed up by at least the
leaked mass, so low-level frequencies are exactly zero, and the mean
predictive CDF sits strictly above the empirical CDF at the floor.

All three are averages over cases (Gneiting, Balabdaoui & Raftery 2007,
JRSS-B 69). A ``ForecastCase`` may hold a whole batch: a predictive with
array parameters, as ``predictive_rows`` gives, and one outcome per row.
The exceedance and marginal curves read one (y x case) table of CDF values,
which a report builds once for both.

CRPS uses the family's closed form where one exists (normal, Student t,
truncated normal, Poisson), which is exact to rounding, costs O(1) per
score and scores a batch, or a Poisson against an array of outcomes, in one
call. Continuous mixtures fall back to adaptive quadrature over the CDF, the
one use of quadrature here; empirical distributions and discrete mixtures
are integrated exactly over the steps.

KL distance has one path for every pair of densities, analytic or gridded:
fixed-order Gauss-Legendre over q (log q - log p) on segments cut at grid
knots and at each density's own scale, in log densities so that neither
tail underflows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy import special

from .exceptions import ModelError
from .predictive import Mixture, PredictiveDistribution, StudentT, _batch_shape, _scalar_or_array
from .predictive import _empirical_quantile  # one order-statistic rule, shared with Empirical
from .regression import _csv_text

__all__ = [
    "CalibrationReport",
    "ForecastCase",
    "GridDensity",
    "ProbabilityCalibration",
    "calibration_report",
    "crps",
    "exceedance_calibration",
    "kl_distance",
    "ks_uniform",
    "marginal_calibration",
    "pit",
    "probability_calibration",
]

_CRPS_EPSABS = 1e-10  # per-piece quadrature budget, well under the 1e-8 contract
_DISCRETE_TAIL = 1e-13  # pmf mass beyond the enumerated atoms, ignored
_TABLE_CELLS = 1 << 20  # CDF values held at once by the calibration curves
_LEVELS = np.linspace(0.05, 0.95, 19)  # probability-curve levels of every report


@dataclass(frozen=True)
class ForecastCase:
    """One forecast instance: the predictive issued and the outcome observed.

    A case may also be a batch of instances: a continuous predictive with
    array parameters and an array of outcomes of the same shape, one per
    row. Every function here treats it as that many cases, in row order.
    ``observed`` is kept as a Python float for one outcome and as a float
    array for a batch.
    """

    predictive: PredictiveDistribution
    observed: float | np.ndarray

    def __post_init__(self):
        observed = _finite_outcome(self.observed, "observed value")
        object.__setattr__(self, "observed", observed)
        shape = _batch_shape(self.predictive)
        if getattr(observed, "shape", ()) != shape:
            raise ValueError(
                f"observed has shape {np.shape(observed)}, "
                f"the predictive's batch has shape {shape}"
            )


def _finite_outcome(y, what: str):
    """``y`` as a Python float if 0-d, else as a float array; all finite.

    One outcome is checked with ``math.isfinite``, which costs a fraction
    of the array check; a Python float skips the array conversion too.
    """
    if type(y) is float:
        if not math.isfinite(y):
            raise ValueError(f"{what} must be finite, got {y}")
        return y
    y = np.asarray(y, dtype=float)
    if y.ndim == 0:
        y = float(y)
        finite = math.isfinite(y)
    else:
        finite = np.all(np.isfinite(y))
    if not finite:
        raise ValueError(f"{what} must be finite, got {y}")
    return y


def _pooled(cases: Sequence[ForecastCase]) -> np.ndarray:
    if not cases:
        raise ValueError("need at least one forecast case")
    return np.sort(np.concatenate([np.ravel(c.observed) for c in cases]).astype(float))


def pit(cases: Sequence[ForecastCase], seed) -> np.ndarray:
    """Probability integral transform of each case, in case order.

    Continuous predictives give P_i(y_i). Discrete predictives get the
    randomized transform P_i(y_i-) + V_i * pmf_i(y_i) with V_i uniform from
    the seeded generator, which restores exact uniformity under the true
    model. One V_i is consumed per discrete case, in order. Consecutive
    cases that share one predictive object are scored in one call.
    """
    return _pit_and_mean_crps(cases, seed, mean_crps=False)[0]


def _pit_and_mean_crps(cases: Sequence[ForecastCase], seed, mean_crps: bool = True):
    """``pit(cases, seed)`` and, with ``mean_crps``, the mean CRPS over every
    case, else None.

    The mean is None also where it is undefined: where some predictive is,
    or mixes in, a Student t with df <= 1, which has no finite mean. A
    Student t's CRPS takes the F(y) its PIT evaluated, so each batch's t
    CDF is evaluated once; the scores have the bits ``crps`` gives them.
    """
    if not cases:
        raise ValueError("need at least one forecast case")
    rng = np.random.default_rng(seed)
    out, scores = [], [] if mean_crps else None
    for _, run in itertools.groupby(cases, key=lambda case: id(case.predictive)):
        run = list(run)
        dist = run[0].predictive
        y = np.array([case.observed for case in run], dtype=float)
        u = np.asarray(dist.cdf_left(y), dtype=float)  # P(y) itself for a continuous one
        if scores is not None and isinstance(dist, StudentT) and dist.df > 1.0:
            scores.append(np.ravel(dist._crps_given_cdf(y, u)))
        elif scores is not None:
            try:
                scores += [np.ravel(crps(case.predictive, case.observed)) for case in run]
            except ModelError:  # raised only by _require_finite_mean
                scores = None
        if dist.kind == "discrete":
            u = u + rng.uniform(size=y.size) * np.asarray(dist.density(y), dtype=float)
        out.append(np.ravel(u))
    mean = float(np.mean(np.concatenate(scores))) if scores is not None else None
    return np.clip(np.concatenate(out), 0.0, 1.0), mean


class ProbabilityCalibration(NamedTuple):
    curve: list  # (level p, empirical frequency of PIT <= p)
    max_deviation: float


def probability_calibration(pits, levels=_LEVELS) -> ProbabilityCalibration:
    """Empirical frequency of PIT <= p at each level, with the worst |freq - p|.

    The default levels, p = 0.05, 0.10, ..., 0.95, are those of every report.
    """
    pits = np.asarray(pits, dtype=float)
    levels = np.sort(np.asarray(levels, dtype=float))
    if pits.size == 0:
        raise ValueError("need at least one PIT value")
    if levels.size == 0 or np.any((levels <= 0.0) | (levels >= 1.0)):
        raise ValueError("levels must lie strictly inside (0, 1)")
    freqs = np.searchsorted(np.sort(pits), levels, side="right") / pits.size
    curve = [(float(p), float(f)) for p, f in zip(levels, freqs)]
    return ProbabilityCalibration(curve, float(np.max(np.abs(freqs - levels))))


def _curves(cases: Sequence[ForecastCase], pool: np.ndarray, ys: np.ndarray) -> tuple[list, list]:
    """The exceedance and the marginal curve at ys, from one table of CDF values.

    The CDF values P_i(y) come as (y x case) tables, one per block of
    consecutive ys, each sized to about 2**20 values however many cases
    there are. Each table gives both means over cases: of P_i(y), and of
    the sorted ``pool``'s quantile at P_i(y).
    """
    step = max(1, _TABLE_CELLS // pool.size)
    mean_cdf, mean_quantile = np.empty(ys.size), np.empty(ys.size)
    for start in range(0, ys.size, step):
        block = ys[start : start + step, None]
        table = np.concatenate(
            [np.reshape(c.predictive.cdf(block), (block.shape[0], -1)) for c in cases], axis=1
        )
        mean_cdf[start : start + step] = np.mean(table, axis=1)
        mean_quantile[start : start + step] = np.mean(_empirical_quantile(pool, table), axis=1)
    emp = np.searchsorted(pool, ys, side="right") / pool.size
    ys = ys.tolist()
    return list(zip(ys, mean_quantile.tolist())), list(zip(ys, mean_cdf.tolist(), emp.tolist()))


def exceedance_calibration(cases: Sequence[ForecastCase], levels) -> list:
    """Curve of (y, mean over cases of pooledQ^{-1}(P_i(y))).

    Calibration in exceedance means the curve hugs the identity: the pooled
    outcomes, read back at the model's own CDF level, land near y itself.
    """
    return _curves(cases, _pooled(cases), np.sort(np.asarray(levels, dtype=float)))[0]


def _default_marginal_grid(pool: np.ndarray) -> np.ndarray:
    return np.unique(_empirical_quantile(pool, np.linspace(0.0, 1.0, 101)))


def marginal_calibration(cases: Sequence[ForecastCase], y_grid=None) -> list:
    """Curve of (y, mean predictive CDF, pooled empirical CDF).

    The default grid is 101 equally spaced quantiles of the pooled outcomes
    (duplicates dropped), so it adapts to the outcome scale.
    """
    pool = _pooled(cases)
    if y_grid is None:
        grid = _default_marginal_grid(pool)
    else:
        grid = np.asarray(y_grid, dtype=float)
        if np.any(np.diff(grid) < 0):
            raise ValueError("y_grid must be sorted")
    return _curves(cases, pool, grid)[1]


def ks_uniform(values) -> float:
    """Kolmogorov-Smirnov distance of the values from Uniform(0,1).

    Compare against 1.36/sqrt(n) for a 5% test.
    """
    u = np.sort(np.asarray(values, dtype=float))
    n = u.size
    if n == 0:
        raise ValueError("need at least one value")
    hi = np.max(np.arange(1, n + 1) / n - u)
    lo = np.max(u - np.arange(0, n) / n)
    return float(max(hi, lo))


# ---------------------------------------------------------------------------
# CRPS
# ---------------------------------------------------------------------------


def _require_finite_mean(dist: PredictiveDistribution) -> None:
    if isinstance(dist, StudentT) and dist.df <= 1.0:
        raise ModelError(f"CRPS undefined: infinite mean (t with df = {dist.df})")
    if isinstance(dist, Mixture):
        for comp in dist.components:
            _require_finite_mean(comp)


def crps(dist: PredictiveDistribution, y):
    """Continuous ranked probability score: integral of (P(t) - 1{t >= y})^2.

    A family that defines ``_crps`` (Normal, StudentT, TruncatedNormal,
    Poisson) is scored by its closed form, which broadcasts: a batch of
    predictives with an array of outcomes, or a Poisson with an array of
    outcomes, gives an array of scores. Other continuous families, mixtures
    among them, integrate the two squared tails by adaptive quadrature
    (absolute tolerance 1e-8). The step sum serves only Empirical and
    discrete Mixture: it integrates exactly over the step function's
    breakpoints, dropping atoms that carry less than 1e-13 total tail mass,
    which perturbs the integral by far less than that. These two score one
    outcome per call. A closed form scores one outcome with the same bits as
    in a batch.
    """
    y = _finite_outcome(y, "observation")
    _require_finite_mean(dist)
    closed_form = getattr(dist, "_crps", None)
    if closed_form is not None:
        return _scalar_or_array(closed_form(y))
    y = float(y)
    if dist.kind == "continuous":
        from scipy import integrate

        below, _ = integrate.quad(
            lambda t: float(dist.cdf(t)) ** 2, -np.inf, y, epsabs=_CRPS_EPSABS
        )
        above, _ = integrate.quad(
            lambda t: (1.0 - float(dist.cdf(t))) ** 2, y, np.inf, epsabs=_CRPS_EPSABS
        )
        return float(below + above)

    lo = min(float(dist.quantile(_DISCRETE_TAIL)), y)
    hi = max(float(dist.quantile(1.0 - _DISCRETE_TAIL)), y)
    breaks = np.unique(np.concatenate([np.asarray(dist.atoms_between(lo, hi)), [y]]))
    step = np.asarray(dist.cdf(breaks[:-1]), dtype=float) - (breaks[:-1] >= y)
    return float(np.sum(step**2 * np.diff(breaks)))


# ---------------------------------------------------------------------------
# KL distance to an elicited density
# ---------------------------------------------------------------------------


class GridDensity:
    """Continuous density given by values on a grid, linearly interpolated.

    The mass (trapezoid rule over the grid) must be 1 within 1e-6; values
    are zero outside the grid. This is the shape an elicited opinion
    usually arrives in.
    """

    kind = "continuous"
    family = "grid"

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or grid.shape != values.shape:
            raise ValueError("grid and values must be matching 1-d arrays (length >= 2)")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite and nonnegative")
        mass = float(np.trapezoid(values, grid))
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"density must integrate to 1 within 1e-6, got {mass!r}")
        self.grid = grid
        self.values = values

    def density(self, y):
        y = np.asarray(y, dtype=float)
        out = np.interp(y, self.grid, self.values, left=0.0, right=0.0)
        return float(out) if y.ndim == 0 else out

    def _logdensity(self, y):
        with np.errstate(divide="ignore"):
            return np.log(np.interp(y, self.grid, self.values, left=0.0, right=0.0))

    def support(self) -> tuple[float, float]:
        """Smallest closed interval containing all positive density."""
        pos = np.nonzero(self.values > 0.0)[0]  # not empty: the mass is 1
        lo = self.grid[max(pos[0] - 1, 0)]
        hi = self.grid[min(pos[-1] + 1, self.grid.size - 1)]
        return float(lo), float(hi)


def _check_continuous(obj, name: str) -> None:
    if getattr(obj, "kind", None) != "continuous":
        raise ModelError(f"kl_distance needs continuous densities; {name} is not")


def kl_distance(elicited, dist) -> float:
    """KL distance of dist from the elicited density: integral of q log(q/p).

    Both arguments may be analytic families or GridDensity objects. The
    integral runs over the elicited density's hull by 20-point
    Gauss-Legendre per segment. The segment edges are every grid knot and,
    for an analytic density or each component of a mixture, the finite ends
    of its support, its quartiles and from them edges stepping outward by
    widths that double every second step, so every bulk and tail is cut at
    its own scale and every truncation point is an edge. Edges past the last point where the elicited
    density is positive are dropped. Both densities are smooth inside each
    segment (linear or analytic), so fixed-order Gauss-Legendre converges to
    machine precision, and log densities keep p's far tail from
    underflowing. A node with q > 0 and p = 0, outside dist's hull or inside
    it, makes the distance the +inf sentinel: the verdict "no amount of data
    could reconcile them".
    """
    _check_continuous(elicited, "elicited")
    _check_continuous(dist, "dist")
    lo, hi = elicited.support()
    pieces = []
    growth = np.exp2(np.arange(0.0, 1024.0, 0.5)) - 1.0  # offsets, in quartile spans
    for obj in (elicited, dist):
        if isinstance(obj, GridDensity):
            pieces.append(obj.grid)
            continue
        for part in getattr(obj, "components", (obj,)):
            q1, q2, q3 = (part.quantile(p) for p in (0.25, 0.5, 0.75))
            with np.errstate(over="ignore"):
                steps = (q3 - q1) * growth
            pieces += [part.support(), [q2], q1 - steps, q3 + steps]
    edges = np.unique(np.concatenate(pieces))
    edges = edges[np.isfinite(edges) & (edges >= lo) & (edges <= hi)]
    with np.errstate(over="ignore"):
        positive = np.flatnonzero(np.exp(elicited._logdensity(edges)) > 0.0)
    if positive.size:
        edges = edges[max(positive[0] - 1, 0) : positive[-1] + 2]

    nodes, weights = special.roots_legendre(20)
    half = 0.5 * np.diff(edges)[:, None]
    t = edges[:-1][:, None] + half * (nodes[None, :] + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        log_q = elicited._logdensity(t)
        log_p = dist._logdensity(t)
        q = np.exp(log_q)
        vals = np.where(q > 0.0, q * (log_q - log_p), 0.0)
    total = float(np.sum(half * vals * weights[None, :]))
    return max(total, 0.0)


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationReport:
    """PIT values, the three calibration curves, and summary scores."""

    pit_values: list
    probability_curve: list  # (p, frequency)
    exceedance_curve: list  # (y, mean pooled quantile at P-level)
    marginal_curve: list  # (y, mean predictive CDF, pooled empirical CDF)
    max_probability_deviation: float
    mean_crps: float | None
    seed: int | None = None

    def to_json(self) -> dict:
        doc = {
            "pit_values": [float(v) for v in self.pit_values],
            "probability_curve": [[p, f] for p, f in self.probability_curve],
            "exceedance_curve": [[y, v] for y, v in self.exceedance_curve],
            "marginal_curve": [[y, m, e] for y, m, e in self.marginal_curve],
            "max_probability_deviation": self.max_probability_deviation,
            "mean_crps": self.mean_crps,
            "falsification": None,
            "seed": self.seed,
        }
        return doc

    def curve_csv(self, which: str) -> str:
        """CSV text for one curve; columns are abscissa then value(s)."""
        if which == "probability":
            names, rows = ["p", "frequency"], self.probability_curve
        elif which == "exceedance":
            names, rows = ["y", "mean_pooled_quantile"], self.exceedance_curve
        elif which == "marginal":
            names, rows = ["y", "mean_predictive_cdf", "pooled_empirical_cdf"], self.marginal_curve
        else:
            raise ValueError(f"unknown curve {which!r}")
        return _csv_text(names, np.array(rows, dtype=float).T)


def calibration_report(cases: Sequence[ForecastCase], seed) -> CalibrationReport:
    """Assemble every diagnostic into one report.

    The probability curve is read at the 19 levels p = 0.05, 0.10, ..., 0.95,
    the exceedance and marginal curves at 101 quantiles of the pooled
    outcomes, both from one table of CDF values. ``mean_crps`` is None where
    the CRPS is undefined (see ``_pit_and_mean_crps``).
    """
    pits, mean_crps = _pit_and_mean_crps(cases, seed)
    prob = probability_calibration(pits)
    pool = _pooled(cases)
    exceed, marginal = _curves(cases, pool, _default_marginal_grid(pool))
    return CalibrationReport(
        pit_values=[float(v) for v in pits],
        probability_curve=prob.curve,
        exceedance_curve=exceed,
        marginal_curve=marginal,
        max_probability_deviation=prob.max_deviation,
        mean_crps=mean_crps,
        seed=seed if isinstance(seed, int) else None,
    )
