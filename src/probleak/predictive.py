"""Predictive distributions with numerically reliable CDF, quantile, density, sampling.

Distribution objects are the common currency of the package: regression fits
produce them, leakage audits and calibration diagnostics consume them. The
family list is deliberately short (normal, Student t, Poisson, finite
mixtures, empirical step functions). Every family exposes the same small
surface, so downstream code never branches on family:

    cdf(y)        P(Y <= y), including the atom at y for discrete families
    cdf_left(y)   P(Y < y); equals cdf for continuous families
    density(y)    pdf for continuous families, pmf for discrete
    quantile(p)   smallest y with cdf(y) >= p, for p in (0, 1)
    sample(n, rng)  n seeded draws

Student-t CDFs go through the regularized incomplete beta function so tail
probabilities keep relative accuracy. Normal and Student-t quantiles are
closed forms (``ndtri``, ``stdtrit``); quantiles of a continuous mixture are
found by bracketed bisection on the CDF refined with Newton steps.

Normal and Student t also take array ``loc``/``scale``: such an object is a
batch with one predictive per row, and ``cdf``, ``density``, ``quantile`` and
the closed-form CRPS broadcast the argument against the parameters.

All objects are immutable after construction and safe to share across
threads. Sampling takes its generator (or an integer seed) explicitly; there
is no global random state anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

__all__ = [
    "PredictiveDistribution",
    "Normal",
    "StudentT",
    "Poisson",
    "Mixture",
    "Empirical",
]

_QUANTILE_PROB_TOL = 1e-12  # stop Newton polish below this CDF error


def _as_rng(rng) -> np.random.Generator:
    """Accept an integer seed or an existing Generator."""
    return np.random.default_rng(rng)


def _scalar_or_array(values):
    """A 0-d result comes back as a Python float, anything else as an array."""
    return float(values) if np.ndim(values) == 0 else values


def _bool_or_array(values):
    """A 0-d answer comes back as a bool, anything else as an array."""
    return bool(values) if np.ndim(values) == 0 else values


class PredictiveDistribution:
    """Base interface shared by every predictive family.

    ``kind`` is "continuous" or "discrete"; ``family`` names the concrete
    family. Subclasses implement ``cdf``/``density``/``sample``, the
    quantile hook ``_quantile`` (``quantile`` checks p first), and the
    structural support queries ``has_atom`` and ``has_mass`` used by the
    falsification semantics (those must reflect exact support knowledge,
    never numerical underflow).
    """

    kind: str = ""
    family: str = ""

    def cdf(self, y):
        raise NotImplementedError

    def cdf_left(self, y):
        """P(Y < y). Continuous families have no atoms, so this is cdf."""
        if self.kind == "continuous":
            return self.cdf(y)
        raise NotImplementedError

    def density(self, y):
        raise NotImplementedError

    def sample(self, n: int, rng) -> np.ndarray:
        raise NotImplementedError

    def quantile(self, p: float) -> float:
        if not (isinstance(p, (int, float, np.floating)) and 0.0 < p < 1.0):
            raise ValueError(f"quantile level must lie in (0, 1), got {p!r}")
        return self._quantile(float(p))

    def _quantile(self, p: float) -> float:
        raise NotImplementedError

    # -- structural support queries -------------------------------------

    def has_atom(self, y):
        """True iff P(Y = y) > 0, decided from the family's exact support.

        Discrete families answer elementwise for an array of points; a
        scalar point gets a bool.
        """
        if self.kind == "continuous":
            return False
        raise NotImplementedError

    def has_mass(self, lo, hi):
        """True iff P(lo <= Y <= hi) > 0, decided structurally.

        Every family answers elementwise for arrays of bounds; scalar bounds
        get a bool.
        """
        raise NotImplementedError


def _expand_bracket(cdf, p, lo, hi):
    """Grow [lo, hi] geometrically until cdf(lo) < p <= cdf(hi)."""
    width = max(hi - lo, 1e-8)
    for _ in range(200):
        if cdf(hi) >= p:
            break
        hi += width
        width *= 2.0
    else:
        raise RuntimeError("failed to bracket quantile from above")
    width = max(hi - lo, 1e-8)
    for _ in range(200):
        if cdf(lo) < p:
            break
        lo -= width
        width *= 2.0
    else:
        raise RuntimeError("failed to bracket quantile from below")
    return lo, hi


def _invert_cdf(cdf, pdf, p, lo, hi):
    """Bisection on a monotone CDF refined by Newton steps.

    Maintains cdf(lo) < p <= cdf(hi); the returned point satisfies
    |cdf(y) - p| <= 1e-12 whenever the density is not vanishingly small.
    """
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval collapsed to adjacent floats
            break
        if cdf(mid) >= p:
            hi = mid
        else:
            lo = mid
    y = hi
    for _ in range(4):
        err = cdf(y) - p
        if abs(err) <= _QUANTILE_PROB_TOL:
            break
        slope = pdf(y)
        if not np.isfinite(slope) or slope <= 0.0:
            break
        step = err / slope
        y_new = y - step
        if not (lo <= y_new <= hi):
            break
        y = y_new
    return float(y)


# ---------------------------------------------------------------------------
# continuous families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Normal(PredictiveDistribution):
    loc: float = 0.0
    scale: float = 1.0

    kind = "continuous"
    family = "normal"

    def __post_init__(self):
        if not (np.all(np.isfinite(self.loc)) and np.all(np.isfinite(self.scale))):
            raise ValueError("normal parameters must be finite")
        if np.any(np.asarray(self.scale) <= 0.0):
            raise ValueError(f"scale must be positive, got {self.scale}")

    def cdf(self, y):
        return _scalar_or_array(special.ndtr((np.asarray(y, dtype=float) - self.loc) / self.scale))

    def _logdensity(self, y):
        z = (np.asarray(y, dtype=float) - self.loc) / self.scale
        return -0.5 * z * z - np.log(self.scale * math.sqrt(2.0 * math.pi))

    def _crps(self, y):
        """Closed-form CRPS (Gneiting, Raftery, Westveld & Goldman 2005, MWR 133):
        scale * (z (2 Phi(z) - 1) + 2 phi(z) - 1/sqrt(pi)) at z = (y - loc) / scale.
        """
        z = (np.asarray(y, dtype=float) - self.loc) / self.scale
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        std = z * special.erf(z / math.sqrt(2.0)) + 2.0 * pdf - 1.0 / math.sqrt(math.pi)
        return _scalar_or_array(self.scale * std)

    def density(self, y):
        return _scalar_or_array(np.exp(self._logdensity(y)))

    def sample(self, n, rng):
        return _as_rng(rng).normal(self.loc, self.scale, size=int(n))

    def has_mass(self, lo, hi):
        return _bool_or_array(np.less(lo, hi))

    def _quantile(self, p):
        return _scalar_or_array(self.loc + self.scale * special.ndtri(p))


@dataclass(frozen=True)
class StudentT(PredictiveDistribution):
    """Location-scale Student t; the predictive family of flat-prior regression.

    ``df`` may be any positive real. The CDF uses the tail form of the
    regularized incomplete beta function, which keeps relative accuracy deep
    into the tails where leakage probabilities live.
    """

    df: float
    loc: float = 0.0
    scale: float = 1.0

    kind = "continuous"
    family = "student_t"

    def __post_init__(self):
        if not (self.df > 0.0 and np.isfinite(self.df)):
            raise ValueError(f"df must be positive, got {self.df}")
        scale = np.asarray(self.scale)
        if not np.all((scale > 0.0) & np.isfinite(scale)):
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not np.all(np.isfinite(self.loc)):
            raise ValueError("location must be finite")

    def cdf(self, y):
        # The tail P(T > |t|) is betainc(df/2, 1/2, df / (df + t^2)), but near
        # the centre that argument rounds to 1. For t^2 < min(df, 1), where the
        # tail is above 0.15 and nothing cancels, it is taken as
        # 1/2 - P(|T| < |t|)/2 instead. Either way one betainc call per point.
        df, half_df = self.df, 0.5 * self.df
        t = (np.asarray(y, dtype=float) - self.loc) / self.scale
        t2 = t * t
        near = t2 < min(df, 1.0)
        ib = special.betainc(
            np.where(near, 0.5, half_df),
            np.where(near, half_df, 0.5),
            np.where(near, t2, df) / (df + t2),
        )
        tail = np.where(near, 0.5 - 0.5 * ib, 0.5 * ib)
        return _scalar_or_array(np.where(t <= 0.0, tail, 1.0 - tail))

    def _crps(self, y):
        """Closed-form CRPS; df > 1, which ``calibration.crps`` checks first.

        Jordan, Krueger & Lerch (2019, J. Stat. Softw. 90(12)), for the
        standard t with df v scored at z = (y - loc) / scale:

            z (2 F(z) - 1) + 2 f(z) (v + z^2) / (v - 1)
                - 2 sqrt(v) B(1/2, v - 1/2) / ((v - 1) B(1/2, v/2)^2),

        times scale. With f(z) = (1 + z^2/v)^(-(v+1)/2) / (sqrt(v) B(1/2, v/2))
        the last two terms share the factor k = 2 sqrt(v) / ((v - 1) B(1/2, v/2)),
        which is built from betaln so nothing overflows at large df.
        """
        v = self.df
        y = np.asarray(y, dtype=float)
        z = (y - self.loc) / self.scale
        log_b = float(special.betaln(0.5, 0.5 * v))
        k = math.exp(math.log(2.0) + 0.5 * math.log(v) - math.log(v - 1.0) - log_b)
        ratio = math.exp(float(special.betaln(0.5, v - 0.5)) - log_b)
        decay = np.exp(-0.5 * (v - 1.0) * np.log1p(z * z / v))
        return _scalar_or_array(self.scale * (z * (2.0 * self.cdf(y) - 1.0) + k * (decay - ratio)))

    def _logdensity(self, y):
        t = (np.asarray(y, dtype=float) - self.loc) / self.scale
        lognorm = (
            special.gammaln(0.5 * (self.df + 1.0))
            - special.gammaln(0.5 * self.df)
            - 0.5 * math.log(self.df * math.pi)
            - np.log(self.scale)
        )
        return lognorm - 0.5 * (self.df + 1.0) * np.log1p(t * t / self.df)

    def density(self, y):
        return _scalar_or_array(np.exp(self._logdensity(y)))

    def sample(self, n, rng):
        draws = _as_rng(rng).standard_t(self.df, size=int(n))
        return self.loc + self.scale * draws

    def has_mass(self, lo, hi):
        return _bool_or_array(np.less(lo, hi))

    def _quantile(self, p):
        return _scalar_or_array(self.loc + self.scale * special.stdtrit(self.df, p))


# ---------------------------------------------------------------------------
# discrete families
# ---------------------------------------------------------------------------


def _is_integral(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    return np.isfinite(y) & (np.floor(y) == y)


# coefficients of rate^(m+1), m = 10 down to 1, in Poisson._crps's small-rate series
_POISSON_EXCESS_SERIES = [
    (-1) ** (m + 1) * math.comb(2 * m, m) / math.factorial(m + 1) for m in range(10, 0, -1)
]


@dataclass(frozen=True)
class Poisson(PredictiveDistribution):
    rate: float

    kind = "discrete"
    family = "poisson"

    def __post_init__(self):
        if not (self.rate > 0.0 and np.isfinite(self.rate)):
            raise ValueError(f"rate must be positive, got {self.rate}")

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        k = np.floor(y)
        with np.errstate(invalid="ignore"):
            out = np.where(k < 0.0, 0.0, special.pdtr(np.maximum(k, 0.0), self.rate))
        out = np.where(np.isposinf(y), 1.0, out)
        return _scalar_or_array(out)

    def cdf_left(self, y):
        y = np.asarray(y, dtype=float)
        at_atom = _is_integral(y) & (y >= 0.0)
        out = self.cdf(np.where(at_atom, y - 1.0, y))
        return _scalar_or_array(np.asarray(out))

    def density(self, y):
        y = np.asarray(y, dtype=float)
        ok = _is_integral(y) & (y >= 0.0)
        k = np.where(ok, y, 0.0)
        logpmf = k * math.log(self.rate) - self.rate - special.gammaln(k + 1.0)
        out = np.where(ok, np.exp(logpmf), 0.0)
        return _scalar_or_array(out)

    def _crps(self, y):
        """Closed-form CRPS, E|X - y| - E|X - X'| / 2 (Wei & Held 2014, TEST 23).

        Written without the pmf, at k = floor(y):

            rate - y + 2 (y F(k) - rate F(k - 1)) - rate (i0e(2 rate) + i1e(2 rate)),

        where i0e, i1e are the exponentially scaled Bessel functions, so
        nothing overflows at large rates. F(k) = 0 for k < 0 makes the form
        exact for any real y: negative, between atoms or past the tail.
        Below rate 0.05, rate - rate (i0e + i1e), about rate², would cancel,
        so its power series sum_m (-1)^(m+1) C(2m, m) rate^(m+1) / (m+1)!
        is summed instead (ten terms reach 1e-16 relative).
        """
        y = np.asarray(y, dtype=float)
        rate = self.rate
        k = np.floor(y)
        at = np.where(k >= 0.0, special.pdtr(np.maximum(k, 0.0), rate), 0.0)
        below = np.where(k >= 1.0, special.pdtr(np.maximum(k - 1.0, 0.0), rate), 0.0)
        steps = 2.0 * (y * at - rate * below)
        if rate < 0.05:
            excess = rate * rate * np.polyval(_POISSON_EXCESS_SERIES, rate)
            return _scalar_or_array(excess - y + steps)
        spread = rate * (special.i0e(2.0 * rate) + special.i1e(2.0 * rate))
        # rate - y first: it is exact for y near rate, where the score is small
        return _scalar_or_array(rate - y + steps - spread)

    def sample(self, n, rng):
        return _as_rng(rng).poisson(self.rate, size=int(n)).astype(float)

    def has_atom(self, y):
        y = np.asarray(y, dtype=float)
        return _bool_or_array(_is_integral(y) & (y >= 0.0))

    def has_mass(self, lo, hi):
        return _bool_or_array(np.ceil(np.maximum(lo, 0.0)) <= np.floor(hi))

    def atoms_between(self, lo: float, hi: float) -> np.ndarray:
        """Integer support points in [lo, hi]; both bounds must be finite."""
        lo = max(math.ceil(lo), 0)
        hi = math.floor(hi)
        if hi < lo:
            return np.empty(0)
        return np.arange(lo, hi + 1, dtype=float)

    def _quantile(self, p):
        # pdtrik inverts the CDF continued in k (the regularized upper gamma
        # function), so its ceiling is the answer or next to it: two cdf
        # calls confirm it. Where it is off (pdtrik gives up from rates near
        # 1e11, and the CDF gets coarse there), a galloping search brackets
        # cdf(lo) < p <= cdf(hi) and bisection finishes, so the result is
        # always the smallest k with cdf(k) >= p.
        seed = special.pdtrik(p, self.rate)
        if not math.isfinite(seed):
            seed = self.rate + math.sqrt(self.rate) * special.ndtri(p)
        hi = max(math.ceil(seed), 0)
        lo, step = hi - 1, 1
        while lo >= 0 and self.cdf(lo) >= p:
            hi, lo = lo, lo - step
            step *= 2
        lo = max(lo, -1)  # cdf(-1) = 0 < p
        while self.cdf(hi) < p:
            lo, hi = hi, hi + step
            step *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.cdf(mid) >= p:
                hi = mid
            else:
                lo = mid
        return float(hi)


@dataclass(frozen=True)
class Empirical(PredictiveDistribution):
    """Step-function distribution of observed values (each atom gets mass 1/n)."""

    observations: tuple[float, ...]

    kind = "discrete"
    family = "empirical"

    def __init__(self, observations: Sequence[float]):
        obs = np.sort(np.asarray(observations, dtype=float))
        if obs.size == 0:
            raise ValueError("empirical distribution needs at least one observation")
        if not np.all(np.isfinite(obs)):
            raise ValueError("observations must be finite")
        object.__setattr__(self, "observations", tuple(obs.tolist()))
        object.__setattr__(self, "_obs", obs)

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        out = np.searchsorted(self._obs, y, side="right") / self._obs.size
        return _scalar_or_array(out.astype(float))

    def cdf_left(self, y):
        y = np.asarray(y, dtype=float)
        out = np.searchsorted(self._obs, y, side="left") / self._obs.size
        return _scalar_or_array(out.astype(float))

    def density(self, y):
        y = np.asarray(y, dtype=float)
        hi = np.searchsorted(self._obs, y, side="right")
        lo = np.searchsorted(self._obs, y, side="left")
        out = (hi - lo) / self._obs.size
        return _scalar_or_array(out.astype(float))

    def sample(self, n, rng):
        idx = _as_rng(rng).integers(0, self._obs.size, size=int(n))
        return self._obs[idx]

    def has_atom(self, y):
        lo = np.searchsorted(self._obs, y, side="left")
        hi = np.searchsorted(self._obs, y, side="right")
        return _bool_or_array(hi > lo)

    def has_mass(self, lo, hi):
        i = np.searchsorted(self._obs, lo, side="left")
        j = np.searchsorted(self._obs, hi, side="right")
        return _bool_or_array(j > i)

    def atoms_between(self, lo, hi):
        uniq = np.unique(self._obs)
        return uniq[(uniq >= lo) & (uniq <= hi)]

    def _quantile(self, p):
        n = self._obs.size
        idx = int(math.ceil(p * n - 1e-9)) - 1
        return float(self._obs[min(max(idx, 0), n - 1)])


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mixture(PredictiveDistribution):
    """Finite mixture of same-kind components; CDF and density are exact weighted sums."""

    components: tuple[PredictiveDistribution, ...]
    weights: tuple[float, ...]

    family = "mixture"

    def __init__(self, components: Sequence[PredictiveDistribution], weights: Sequence[float]):
        comps = tuple(components)
        w = np.asarray(weights, dtype=float)
        if len(comps) == 0:
            raise ValueError("mixture needs at least one component")
        if w.size != len(comps):
            raise ValueError("component and weight counts differ")
        if np.any(w < 0.0):
            raise ValueError("mixture weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
        kinds = {c.kind for c in comps}
        if len(kinds) != 1:
            raise ValueError("cannot mix continuous and discrete components")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", tuple(w.tolist()))
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "kind", kinds.pop())

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        out = sum(w * np.asarray(c.cdf(y)) for w, c in zip(self._w, self.components))
        return _scalar_or_array(np.asarray(out))

    def cdf_left(self, y):
        y = np.asarray(y, dtype=float)
        out = sum(w * np.asarray(c.cdf_left(y)) for w, c in zip(self._w, self.components))
        return _scalar_or_array(np.asarray(out))

    def density(self, y):
        y = np.asarray(y, dtype=float)
        out = sum(w * np.asarray(c.density(y)) for w, c in zip(self._w, self.components))
        return _scalar_or_array(np.asarray(out))

    def _logdensity(self, y):
        with np.errstate(divide="ignore"):
            log_w = np.log(self._w)
        terms = [lw + np.asarray(c._logdensity(y)) for lw, c in zip(log_w, self.components)]
        return np.logaddexp.reduce(terms, axis=0)

    def sample(self, n, rng):
        rng = _as_rng(rng)
        n = int(n)
        idx = rng.choice(len(self.components), size=n, p=self._w)
        out = np.empty(n)
        for c_i, comp in enumerate(self.components):
            mask = idx == c_i
            cnt = int(mask.sum())
            if cnt:
                out[mask] = comp.sample(cnt, rng)
        return out

    def has_atom(self, y):
        out = np.zeros(np.shape(y), dtype=bool)
        for w, c in zip(self._w, self.components):
            if w > 0.0:
                out |= c.has_atom(y)
        return _bool_or_array(out)

    def has_mass(self, lo, hi):
        out = np.zeros(np.broadcast_shapes(np.shape(lo), np.shape(hi)), dtype=bool)
        for w, c in zip(self._w, self.components):
            if w > 0.0:
                out |= c.has_mass(lo, hi)
        return _bool_or_array(out)

    def atoms_between(self, lo, hi):
        pieces = [c.atoms_between(lo, hi) for c in self.components]
        return np.unique(np.concatenate(pieces)) if pieces else np.empty(0)

    def _quantile(self, p):
        # The mixture p-quantile lies between the smallest and largest
        # component p-quantiles: a bracket for bisection, a window of
        # candidate atoms for a discrete mixture.
        qs = [c.quantile(p) for c in self.components]
        if self.kind == "continuous":
            lo, hi = _expand_bracket(self.cdf, p, min(qs), max(qs))
            return _invert_cdf(self.cdf, self.density, p, lo, hi)
        atoms = self.atoms_between(min(qs), max(qs))
        cdf_vals = np.asarray(self.cdf(atoms))
        hit = np.nonzero(cdf_vals >= p)[0]
        if hit.size == 0:  # numerical guard; the bound argument makes this unreachable
            return float(max(qs))
        return float(atoms[hit[0]])
