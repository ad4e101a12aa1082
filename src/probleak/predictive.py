"""Predictive distributions with numerically reliable CDF, quantile, density, sampling.

Distribution objects are the common currency of the package: regression fits
produce them, leakage audits and calibration diagnostics consume them. The
family list is deliberately short (normal, Student t, lower-truncated normal,
Poisson, finite mixtures, empirical step functions). The base class owns the
public surface, so downstream code never branches on family:

    cdf(y)        P(Y <= y), including the atom at y for discrete families
    cdf_left(y)   P(Y < y); the CDF itself for continuous families
    density(y)    pdf for continuous families, pmf for discrete
    quantile(p)   smallest y with cdf(y) >= p, for p in (0, 1)
    support()     smallest closed interval holding all the mass
    has_mass(lo, hi)  P(lo <= Y <= hi) > 0, decided from the support, never by underflow
    has_atom(y)   P(Y = y) > 0: has_mass(y, y), a window of zero width

The base class converts the points once to a float array, calls a hook
that works on arrays, and gives a 0-d answer back as a float or a bool. A
family supplies ``_cdf``, ``_logdensity`` (``density`` is its exp, unless
the family overrides ``_density``, as the mixture's weighted sum and the
empirical counts do), ``_quantile`` and ``_sample``; a discrete family also
``_cdf_left``, ``_has_mass`` and ``_mass_off`` (the mass of the atoms that
discrete evidence rules out, summed directly, never as one minus the mass
on it), and may decide ``_atoms_on_lattice`` (is every point of lattice
evidence an atom?) without listing the points, as Poisson does, and a
mixture from its weighted components. Poisson sums its mass off the
evidence over the gaps between the counts that ``Evidence._held_counts``
says the evidence holds, so neither a finite set nor a lattice of every
count from its lower end up lists a count. A continuous family has no
atoms, and has mass exactly where a window meets ``support()`` with
positive length, so it overrides ``support()`` only where that is narrower
than the whole line.
Families with a closed-form CRPS
define ``_crps``, which ``calibration.crps`` calls with a float array or, for
one outcome, a Python float: one body serves both and gives the same bits for
a value either way.

Student-t CDFs go through the regularized incomplete beta function so tail
probabilities keep relative accuracy. Normal and Student-t quantiles are
closed forms (``ndtri``, ``stdtrit``). A continuous mixture's quantile is
found by bisection between its components' quantiles on the order of the
doubles, not on their values, so it ends at adjacent floats: the smallest
double whose CDF reaches p.

Normal, Student t and the truncated normal also take array ``loc`` (and the
first two array ``scale``): such an object is a batch with one predictive per
row, and ``cdf``, ``density``, ``quantile`` and the closed-form CRPS
broadcast the argument against the parameters. ``sample`` refuses a batch,
since one draw count cannot serve every row.

All objects are immutable after construction and safe to share across
threads. The memos, the CRPS terms that depend on Poisson's rate or Student
t's df alone and the Poisson CDF pair F(k - 1), F(k) at each count the
scalar CRPS reads, are computed on first use from those immutable fields
and stored on that instance only; two threads that race to fill one store
equal values. The pair memo holds at most ``_POISSON_CDF_MEMO`` counts
(threads that race at the cap can add one each past it) and computes any
count that finds it full without keeping it. Sampling takes its generator
(or an integer seed) explicitly; there is no global random state anywhere
in the package.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import special

from .exceptions import DataError

__all__ = [
    "PredictiveDistribution",
    "Normal",
    "StudentT",
    "TruncatedNormal",
    "Poisson",
    "Mixture",
    "Empirical",
]

_MIN_FEASIBLE_MASS = 1e-12  # least kept mass of a truncated normal
_POISSON_CDF_MEMO = 4096  # most counts whose CDF pair one Poisson keeps


def _scalar_or_array(values):
    """A 0-d result comes back as a Python float, anything else as an array."""
    # getattr, not np.ndim: this runs on every scalar call of the surface
    return values if getattr(values, "ndim", 0) else float(values)


def _bool_or_array(values):
    """A 0-d answer comes back as a bool, anything else as an array."""
    return values if getattr(values, "ndim", 0) else bool(values)


def _batch_shape(dist) -> tuple:
    """() for one predictive; the shape of ``loc``/``scale`` for a batch."""
    if dist.kind != "continuous" or not hasattr(dist, "loc"):
        return ()
    loc, scale = dist.loc, dist.scale
    if type(loc) is float and type(scale) is float:  # one predictive, at scalar cost
        return ()
    return np.broadcast_shapes(np.shape(loc), np.shape(scale))


class PredictiveDistribution:
    """Base of every predictive family; it owns the public surface.

    ``kind`` is "continuous" or "discrete"; ``family`` names the concrete
    family. The module docstring lists the hooks a family supplies.
    """

    kind: str = ""
    family: str = ""

    def cdf(self, y):
        return _scalar_or_array(self._cdf(np.asarray(y, dtype=float)))

    def cdf_left(self, y):
        y = np.asarray(y, dtype=float)
        return _scalar_or_array(self._cdf(y) if self.kind == "continuous" else self._cdf_left(y))

    def density(self, y):
        return _scalar_or_array(self._density(np.asarray(y, dtype=float)))

    def _density(self, y):
        return np.exp(self._logdensity(y))

    def quantile(self, p: float):
        if not (isinstance(p, (int, float, np.floating)) and 0.0 < p < 1.0):
            raise ValueError(f"quantile level must lie in (0, 1), got {p!r}")
        return _scalar_or_array(self._quantile(float(p)))

    def sample(self, n, rng) -> np.ndarray:
        """n independent draws; ``rng`` is a Generator or an integer seed."""
        shape = _batch_shape(self)
        if shape:
            raise ValueError(
                f"cannot sample a batch of predictives with shape {shape}: "
                "one draw count cannot serve every row"
            )
        return self._sample(int(n), np.random.default_rng(rng))

    def support(self) -> tuple[float, float]:
        """Smallest closed interval holding all the mass."""
        return -math.inf, math.inf

    def has_atom(self, y):
        """True iff P(Y = y) > 0, elementwise: ``has_mass(y, y)``."""
        return self.has_mass(y, y)

    def has_mass(self, lo, hi):
        """True iff P(lo <= Y <= hi) > 0, elementwise, decided structurally.

        A continuous family has mass exactly where the window meets its
        support with positive length.
        """
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if self.kind == "continuous":
            s_lo, s_hi = self.support()
            return _bool_or_array(np.maximum(lo, s_lo) < np.minimum(hi, s_hi))
        return _bool_or_array(self._has_mass(lo, hi))

    def _atoms_on_lattice(self, e) -> bool | None:
        """Whether the float points lo + step * k that bounded lattice
        evidence ``e`` lists are all atoms, decided without listing them;
        None leaves it to the enumeration.

        A family says False only where the first point, lo, is no atom, so
        a mixture whose components all say False has no atom there either.
        """
        return None


def _order_key(bits: int) -> int:
    """Map a double's bits, read as an int64, to a key that sorts as the
    doubles compare, with adjacent doubles on adjacent keys (-0.0 and 0.0
    share key 0). The map is its own inverse: it takes a key back to bits.
    """
    return bits if bits >= 0 else -(2**63) - bits


def _invert_cdf(cdf, p, lo, hi):
    """The smallest double y <= hi with cdf(y) >= p, given cdf(lo) < p (lo
    may be -inf), or hi itself where cdf stays below p up to hi.

    The bisection halves the interval of order keys, not of values, so at
    most 64 halvings reach adjacent floats from any bracket, however wide.
    """

    def double(key):
        return struct.unpack("<d", struct.pack("<q", _order_key(key)))[0]

    a, b = (_order_key(struct.unpack("<q", struct.pack("<d", x))[0]) for x in (lo, hi))
    while b - a > 1:
        mid = (a + b) // 2
        if cdf(double(mid)) >= p:
            b = mid
        else:
            a = mid
    return double(b)


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

    @np.errstate(over="ignore")  # a z past float64's range is infinite, and F is 0 or 1 there
    def _cdf(self, y):
        return special.ndtr((y - self.loc) / self.scale)

    @np.errstate(over="ignore")  # a z past float64's range is infinite, and f is 0 there
    def _logdensity(self, y):
        z = (y - self.loc) / self.scale
        return -0.5 * z * z - np.log(self.scale * math.sqrt(2.0 * math.pi))

    def _crps(self, y):
        """Closed-form CRPS (Gneiting, Raftery, Westveld & Goldman 2005, MWR 133):
        scale * (z (2 Phi(z) - 1) + 2 phi(z) - 1/sqrt(pi)) at z = (y - loc) / scale.
        """
        z = (y - self.loc) / self.scale
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        std = z * special.erf(z / math.sqrt(2.0)) + 2.0 * pdf - 1.0 / math.sqrt(math.pi)
        return self.scale * std

    def _sample(self, n, rng):
        return rng.normal(self.loc, self.scale, size=n)

    def _quantile(self, p):
        return self.loc + self.scale * special.ndtri(p)


@dataclass(frozen=True)
class StudentT(PredictiveDistribution):
    """Location-scale Student t; the predictive family of flat-prior regression.

    ``df`` may be any positive real. The CDF takes the regularized
    incomplete beta function in its tail form, which keeps relative accuracy
    deep into the tails where leakage probabilities live, and in a centre
    form for t^2 < min(df, 1), where the tail form's argument rounds to 1.
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

    @np.errstate(over="ignore")  # a t past float64's range is infinite, and F is 0 or 1 there
    def _cdf(self, y):
        # The tail P(T > |t|) is betainc(df/2, 1/2, df / (df + t^2)), but near
        # the centre that argument rounds to 1. For t^2 < min(df, 1), where the
        # tail is above 0.15 and nothing cancels, it is taken as
        # 1/2 - P(|T| < |t|)/2 instead. Either way one betainc call per point.
        df, half_df = self.df, 0.5 * self.df
        t = (y - self.loc) / self.scale
        t2 = t * t
        near = t2 < min(df, 1.0)
        ib = special.betainc(
            np.where(near, 0.5, half_df),
            np.where(near, half_df, 0.5),
            np.where(near, t2, df) / (df + t2),
        )
        tail = np.where(near, 0.5 - 0.5 * ib, 0.5 * ib)
        return np.where(t <= 0.0, tail, 1.0 - tail)

    def _crps(self, y):
        """Closed-form CRPS; df > 1, which ``calibration.crps`` checks first.

        Jordan, Krueger & Lerch (2019, J. Stat. Softw. 90(12)), for the
        standard t with df v scored at z = (y - loc) / scale:

            z (2 F(z) - 1) + 2 f(z) (v + z^2) / (v - 1)
                - 2 sqrt(v) B(1/2, v - 1/2) / ((v - 1) B(1/2, v/2)^2),

        times scale. With f(z) = (1 + z^2/v)^(-(v+1)/2) / (sqrt(v) B(1/2, v/2))
        the last two terms share the factor k = 2 sqrt(v) / ((v - 1) B(1/2, v/2)),
        which is built from betaln so nothing overflows at large df. k and
        the ratio B(1/2, v - 1/2) / B(1/2, v/2) come from ``_crps_df_terms``.
        """
        return self._crps_given_cdf(y, self._cdf(y))

    def _crps_given_cdf(self, y, cdf):
        """The closed-form CRPS at y, given cdf = F(y), which a batch's PIT
        has evaluated already."""
        v = self.df
        z = (y - self.loc) / self.scale
        k, ratio = self._crps_df_terms
        decay = np.exp(-0.5 * (v - 1.0) * np.log1p(z * z / v))
        return self.scale * (z * (2.0 * cdf - 1.0) + k * (decay - ratio))

    @cached_property
    def _crps_df_terms(self) -> tuple[float, float]:
        """(k, ratio) of the CRPS, which depend on df alone; per instance."""
        v = self.df
        log_b = float(special.betaln(0.5, 0.5 * v))
        k = math.exp(math.log(2.0) + 0.5 * math.log(v) - math.log(v - 1.0) - log_b)
        return k, math.exp(float(special.betaln(0.5, v - 0.5)) - log_b)

    @np.errstate(over="ignore")  # a t past float64's range is infinite, and f is 0 there
    def _logdensity(self, y):
        t = (y - self.loc) / self.scale
        lognorm = (
            special.gammaln(0.5 * (self.df + 1.0))
            - special.gammaln(0.5 * self.df)
            - 0.5 * math.log(self.df * math.pi)
            - np.log(self.scale)
        )
        return lognorm - 0.5 * (self.df + 1.0) * np.log1p(t * t / self.df)

    def _sample(self, n, rng):
        return self.loc + self.scale * rng.standard_t(self.df, size=n)

    def _quantile(self, p):
        return self.loc + self.scale * special.stdtrit(self.df, p)


@dataclass(frozen=True)
class TruncatedNormal(PredictiveDistribution):
    """Normal(loc, scale) conditioned on Y >= lower.

    Serves as the support-respecting oracle in experiments; lower = -inf
    gives back the plain normal. ``loc`` may be an array, one oracle per row;
    the CDF, density and closed-form CRPS then broadcast.
    """

    loc: float
    scale: float
    lower: float = -math.inf

    kind = "continuous"
    family = "truncated_normal"

    def __post_init__(self):
        if not (self.scale > 0.0 and np.isfinite(self.scale)):
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not np.all(np.isfinite(self.loc)):
            raise ValueError("location must be finite")
        if np.any(self._tail_mass() < _MIN_FEASIBLE_MASS):
            raise DataError(
                f"truncation region has mass < {_MIN_FEASIBLE_MASS} "
                f"(loc={self.loc}, scale={self.scale}, lower={self.lower})"
            )

    def _standard_lower(self):
        return (self.lower - self.loc) / self.scale

    def _tail_mass(self):
        """Kept mass Q(a) = Phi(-a), which keeps its relative accuracy however deep."""
        return special.ndtr(-self._standard_lower())

    @np.errstate(over="ignore")  # a z past float64's range is infinite, and F is 0 or 1 there
    def _cdf(self, y):
        # (Phi(z) - Phi(a)) / Q(a) cancels to nothing when both are near 1,
        # so a truncation point above the mean takes (Q(a) - Q(z)) / Q(a)
        a, z = self._standard_lower(), (y - self.loc) / self.scale
        m = special.ndtr(-a)
        kept = np.where(a < 0.0, special.ndtr(z) - special.ndtr(a), m - special.ndtr(-z))
        return np.clip(np.where(y < self.lower, 0.0, kept / m), 0.0, 1.0)

    def _crps(self, y):
        """Closed-form CRPS of the lower-truncated normal.

        The form of Thorarinsdottir & Gneiting (2010, JRSS-A 173) and of
        scoringRules' crps_tnorm (Jordan, Krueger & Lerch 2019), written
        with upper tails Q = 1 - Phi so that deep truncation keeps its
        precision. With a = (lower - loc) / scale, kept mass m = Q(a) and
        z = (max(y, lower) - loc) / scale, the standardised score is

            z + 2 (phi(z) - z Q(z)) / m - Q(sqrt(2) a) / (sqrt(pi) m^2);

        it is scaled by scale, and an observation below lower adds the
        exact (lower - y). lower = -inf gives the normal form.
        """
        a = self._standard_lower()
        m = special.ndtr(-a)
        z = (np.maximum(y, self.lower) - self.loc) / self.scale
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        std = (
            z
            + 2.0 * (pdf - z * special.ndtr(-z)) / m
            - special.ndtr(-math.sqrt(2.0) * a) / (math.sqrt(math.pi) * m * m)
        )
        return self.scale * std + np.maximum(self.lower - y, 0.0)

    @np.errstate(over="ignore")  # a z past float64's range is infinite, and f is 0 there
    def _logdensity(self, y):
        z = (y - self.loc) / self.scale
        log_base = -0.5 * z * z - np.log(self.scale * math.sqrt(2.0 * math.pi) * self._tail_mass())
        return np.where(y < self.lower, -np.inf, log_base)

    def _sample(self, n, rng):
        return _truncnorm_inverse(rng.uniform(size=n), self.loc, self.scale, self.lower)

    def support(self) -> tuple[float, float]:
        return float(self.lower), math.inf

    def _quantile(self, p):
        # Phi(z) = Phi(a) + p Q(a) when the quantile lies below the centre,
        # Q(z) = (1 - p) Q(a) above it: each form keeps the relative accuracy
        # of its own tail, the second however deep the truncation
        a = self._standard_lower()
        kept = special.ndtr(-a)
        below = special.ndtr(a) + p * kept
        z = np.where(below < 0.5, special.ndtri(below), -special.ndtri((1.0 - p) * kept))
        return np.maximum(self.loc + self.scale * z, self.lower)


def _truncnorm_inverse(u, loc, scale, lower, fa=None):
    """Map uniforms to Normal(loc, scale | Y >= lower) by CDF inversion.

    ``fa`` is Phi((lower - loc) / scale), where the caller has it already.
    """
    if fa is None:
        fa = 0.0 if math.isinf(lower) else special.ndtr((lower - loc) / scale)
    q = fa + u * (1.0 - fa)
    # a generator can emit u = 0 exactly; keep the probit argument interior
    q = np.clip(q, 1e-16, 1.0 - 1e-16)
    y = loc + scale * special.ndtri(q)
    # rounding in fa + u*(1-fa) can land half an ulp below fa; pin the floor
    return np.maximum(y, lower)


# ---------------------------------------------------------------------------
# discrete families
# ---------------------------------------------------------------------------


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
        # {count: (F(count - 1), F(count))} for _crps; made here, where a
        # cached_property's first read would cost about a microsecond more
        object.__setattr__(self, "_cdf_memo", {})

    def _cdf(self, y):
        k = np.floor(y)
        with np.errstate(invalid="ignore"):
            out = np.where(k < 0.0, 0.0, special.pdtr(np.maximum(k, 0.0), self.rate))
        return np.where(np.isposinf(y), 1.0, out)

    def _cdf_left(self, y):
        return self._cdf(np.where(self._has_mass(y, y), y - 1.0, y))

    def _logdensity(self, y):
        atom = self._has_mass(y, y)
        k = np.where(atom, y, 0.0)
        return np.where(atom, k * math.log(self.rate) - self.rate - special.gammaln(k + 1.0), -np.inf)

    def _crps(self, y):
        """Closed-form CRPS, E|X - y| - E|X - X'| / 2 (Wei & Held 2014, TEST 23).

        Written without the pmf, at k = floor(y):

            rate - y + 2 (y F(k) - rate F(k - 1)) - rate (i0e(2 rate) + i1e(2 rate)),

        where i0e, i1e are the exponentially scaled Bessel functions, so
        nothing overflows at large rates. F(k) = 0 for k < 0 makes the form
        exact for any real y: negative, between atoms or past the tail; the
        factor (k >= 0) sets it, and pdtr sees no negative k, where it gives
        nan. The terms that depend on the rate alone come from
        ``_crps_rate_terms``, which this instance computes once.

        One outcome as a Python float takes a float branch with the same
        bits: F(k - 1) and F(k) come from one pdtr call on two points when
        k >= 1, F(0) alone when k = 0 and no call below. The pair is kept
        per count on this instance, up to ``_POISSON_CDF_MEMO`` counts, so a
        count that outcomes repeat costs one dict lookup; the rest is the
        same arithmetic in the same order on floats.
        """
        rate = self.rate
        if type(y) is float:
            k = float(math.floor(y))
            memo = self._cdf_memo
            pair = memo.get(k)
            if pair is None:
                if k >= 1.0:
                    pair = special.pdtr([k - 1.0, k], rate).tolist()
                else:
                    pair = 0.0, (float(special.pdtr(0.0, rate)) if k == 0.0 else 0.0)
                if len(memo) < _POISSON_CDF_MEMO:
                    memo[k] = pair
            below, at = pair
        else:
            k = np.floor(y)
            at = special.pdtr(np.maximum(k, 0.0), rate) * (k >= 0.0)
            below = special.pdtr(np.maximum(k - 1.0, 0.0), rate) * (k >= 1.0)
        steps = 2.0 * (y * at - rate * below)
        lead, spread = self._crps_rate_terms
        # lead - y first: with lead = rate it is exact for y near rate, where the score is small
        return lead - y + steps - spread

    @cached_property
    def _crps_rate_terms(self) -> tuple[float, float]:
        """(lead, spread) of the CRPS, lead - y + steps - spread; per instance.

        lead is the rate and spread = rate (i0e(2 rate) + i1e(2 rate)) is
        E|X - X'| / 2. Below rate 0.05 their difference, about rate², would
        cancel, so lead is its power series sum_m (-1)^(m+1) C(2m, m)
        rate^(m+1) / (m+1)! (ten terms reach 1e-16 relative) and spread is 0,
        whose subtraction changes no bit.
        """
        rate = self.rate
        if rate < 0.05:
            return float(rate * rate * np.polyval(_POISSON_EXCESS_SERIES, rate)), 0.0
        return rate, float(rate * (special.i0e(2.0 * rate) + special.i1e(2.0 * rate)))

    def _sample(self, n, rng):
        return rng.poisson(self.rate, size=n).astype(float)

    def _has_mass(self, lo, hi):
        first = np.ceil(np.maximum(lo, 0.0))  # the first count in the window, if finite
        return np.isfinite(first) & (first <= np.floor(hi))

    def _atoms_on_lattice(self, e):
        # The first point is lo itself. With an integer lo >= 0 and an
        # integer step every point is a count: exact integer arithmetic up
        # to 2**53, and every double above 2**53 is an integer.
        lo, _, step = e.lattice
        if not (lo >= 0.0 and lo == math.floor(lo)):
            return False
        return True if step == math.floor(step) else None

    def _mass_off(self, e):
        """P(Y is a count that the discrete evidence ``e`` rejects): the
        mass of the gaps between the counts ``e._held_counts`` gives, each
        gap's from pdtr or pdtrc, whichever side of it holds less, so no
        term cancels against 1.

        Where the held counts are every count from first to last, the gaps
        are the counts below and above them: two scalar calls, and no count
        listed. A lattice that lists its counts lists those between the
        2**-53 and the 1 - 2**-53 quantiles; the mass outside, at most
        2**-52, counts as off.
        """
        rate = self.rate
        held = e._held_counts(lambda: (self._quantile(2.0**-53), self._quantile(1.0 - 2.0**-53)))
        if type(held) is tuple:
            first, last = held
            below = float(special.pdtr(first - 1, rate)) if first >= 1 else 0.0
            return below + (float(special.pdtrc(last, rate)) if last < math.inf else 0.0)
        # gap i holds the counts strictly between under[i] and over[i], which
        # stand for -1 below the first held count and +inf above the last
        under, over = np.concatenate(([-1.0], held)), np.concatenate((held, [math.inf]))
        gap = over - under > 1.0
        below, end = under[gap], over[gap] - 1.0  # the count under each gap, and its last
        at_below = np.maximum(below, 0.0)
        cdf_below = np.where(below >= 0.0, special.pdtr(at_below, rate), 0.0)
        sf_below = np.where(below >= 0.0, special.pdtrc(at_below, rate), 1.0)
        cdf_end, sf_end = special.pdtr(end, rate), special.pdtrc(end, rate)  # 1 and 0 at inf
        mass = np.where(cdf_end <= sf_below, cdf_end - cdf_below, sf_below - sf_end)
        return float(np.sum(mass))

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
        # always the smallest k with cdf(k) >= p. Every probe is a count
        # k >= 0, so it calls pdtr on one float, not the array surface.
        rate = self.rate

        def cdf(k):
            return special.pdtr(float(k), rate)

        seed = special.pdtrik(p, rate)
        if not math.isfinite(seed):
            seed = rate + math.sqrt(rate) * special.ndtri(p)
        hi = max(math.ceil(seed), 0)
        lo, step = hi - 1, 1
        while lo >= 0 and cdf(lo) >= p:
            hi, lo = lo, lo - step
            step *= 2
        lo = max(lo, -1)  # cdf(-1) = 0 < p
        while cdf(hi) < p:
            lo, hi = hi, hi + step
            step *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if cdf(mid) >= p:
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

    def _cdf(self, y):
        return np.searchsorted(self._obs, y, side="right") / self._obs.size

    def _cdf_left(self, y):
        return np.searchsorted(self._obs, y, side="left") / self._obs.size

    def _density(self, y):
        counts = np.searchsorted(self._obs, y, side="right") - np.searchsorted(self._obs, y, side="left")
        return counts / self._obs.size

    def _sample(self, n, rng):
        return self._obs[rng.integers(0, self._obs.size, size=n)]

    def _has_mass(self, lo, hi):
        return np.searchsorted(self._obs, hi, side="right") > np.searchsorted(self._obs, lo, side="left")

    def atoms_between(self, lo, hi):
        uniq = np.unique(self._obs)
        return uniq[(uniq >= lo) & (uniq <= hi)]

    def _mass_off(self, e):
        return np.count_nonzero(~e.contains(self._obs)) / self._obs.size

    def _quantile(self, p):
        # the atom at the least i with i / n >= p, in floats as _cdf divides:
        # its CDF reaches p, and no smaller atom's does
        n = self._obs.size
        i = math.ceil(p * n)  # that i, or next to it where p * n rounds across an integer
        if i / n < p:
            i += 1
        elif (i - 1) / n >= p:
            i -= 1
        return float(self._obs[i - 1])


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

    def _weighted_sum(self, method: str, y):
        """Sum over components of weight times the component's ``method`` at y."""
        return sum(w * getattr(c, method)(y) for w, c in zip(self._w, self.components))

    def _cdf(self, y):
        return self._weighted_sum("cdf", y)

    def _cdf_left(self, y):
        return self._weighted_sum("cdf_left", y)

    def _density(self, y):
        return self._weighted_sum("density", y)

    def _logdensity(self, y):
        with np.errstate(divide="ignore"):
            log_w = np.log(self._w)
        terms = [lw + c._logdensity(y) for lw, c in zip(log_w, self.components)]
        return np.logaddexp.reduce(terms, axis=0)

    def _sample(self, n, rng):
        idx = rng.choice(len(self.components), size=n, p=self._w)
        out = np.empty(n)
        for c_i, comp in enumerate(self.components):
            mask = idx == c_i
            cnt = int(mask.sum())
            if cnt:
                out[mask] = comp.sample(cnt, rng)
        return out

    def _weighted_parts(self) -> list[PredictiveDistribution]:
        return [c for w, c in zip(self._w, self.components) if w > 0.0]

    def support(self) -> tuple[float, float]:
        """Hull of the supports of the components with positive weight."""
        los, his = zip(*(c.support() for c in self._weighted_parts()))
        return min(los), max(his)

    def _has_mass(self, lo, hi):
        return np.any([c.has_mass(lo, hi) for c in self._weighted_parts()], axis=0)

    def _atoms_on_lattice(self, e):
        # A point is an atom of the mixture when it is an atom of any
        # weighted component, and a component's False means lo is none.
        verdicts = {c._atoms_on_lattice(e) for c in self._weighted_parts()}
        if True in verdicts:
            return True
        return False if verdicts == {False} else None

    def atoms_between(self, lo, hi):
        return np.unique(np.concatenate([c.atoms_between(lo, hi) for c in self._weighted_parts()]))

    def _mass_off(self, e):
        return math.fsum(w * c._mass_off(e) for w, c in zip(self.weights, self.components) if w > 0.0)

    def _quantile(self, p):
        # The mixture p-quantile lies between the smallest and largest
        # component p-quantiles: a bracket for bisection, a window of
        # candidate atoms for a discrete mixture. Rounding in the weighted
        # CDF can put it below the smallest (the bracket then opens to -inf)
        # or keep the CDF below p at the largest, which is then the answer.
        qs = [c.quantile(p) for c in self.components]
        lo, hi = min(qs), max(qs)
        if self.cdf_left(lo) >= p:
            return _invert_cdf(self.cdf, p, -math.inf, hi)
        if self.kind == "continuous":
            return _invert_cdf(self.cdf, p, lo, hi)
        atoms = self.atoms_between(lo, hi)
        hit = np.nonzero(np.asarray(self.cdf(atoms)) >= p)[0]
        return float(atoms[hit[0]] if hit.size else hi)
