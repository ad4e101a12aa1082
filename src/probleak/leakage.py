"""Evidence declarations and probability leakage.

Evidence states which values of the observable are possible at all: either a
union of closed intervals on the continuum or a discrete set (an explicit
finite set, or a lattice lower + k*step up to an upper bound). Leakage is the
probability a predictive distribution assigns to values the evidence rules
out; 0 is the ideal and 1 means the model has no overlap with the declared
reality.

Kind mismatches follow one hard rule: a continuous predictive measured
against discrete evidence leaks completely (leakage exactly 1), because a
continuous law puts zero probability on every individual representable
value. The report carries a ``complete`` flag for that case.

A batch of continuous predictives (array ``loc``/``scale``, as
``predictive_rows`` gives) is scored in one call: the masses of the report
are then arrays. ``leakage_profile`` scores a fit at the points of named
covariate columns that way.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .predictive import PredictiveDistribution, _scalar_or_array
from .regression import FitResult, _encode_columns, predictive_rows

__all__ = [
    "Evidence",
    "LeakageProfile",
    "LeakageReport",
    "MCLeakage",
    "leakage",
    "leakage_profile",
    "mc_leakage",
    "parse_support",
]

_LATTICE_RTOL = 1e-9  # membership slack for float lattice arithmetic
_ENUMERATE_LIMIT = 10_000_000  # most lattice points or counts listed at once


@dataclass(frozen=True)
class Evidence:
    """Support declaration the observable is known to obey.

    kind "continuous_support": ``intervals`` is an ordered tuple of disjoint
    closed ``(lower, upper)`` pairs, with +-inf allowed at the ends.
    kind "discrete_support": exactly one of ``values`` (explicit finite set)
    or ``lattice`` (``(lower, upper, step)``; upper may be +inf).
    """

    kind: str
    intervals: tuple = ()
    values: tuple | None = None
    lattice: tuple | None = None
    description: str = ""

    def __post_init__(self):
        if self.kind == "continuous_support":
            if not self.intervals:
                raise ValueError("continuous evidence needs at least one interval")
            ivals = tuple((float(a), float(b)) for a, b in self.intervals)
            for a, b in ivals:  # each interval holds at least one real number
                if not (a <= b and a < math.inf and b > -math.inf):
                    raise ValueError(f"malformed interval ({a}, {b})")
            for (_, b0), (a1, _) in zip(ivals, ivals[1:]):
                if a1 <= b0:
                    raise ValueError("intervals must be disjoint and ordered")
            object.__setattr__(self, "intervals", ivals)
        elif self.kind == "discrete_support":
            if (self.values is None) == (self.lattice is None):
                raise ValueError("discrete evidence needs exactly one of values/lattice")
            if self.values is not None:
                vals = np.unique(np.asarray(self.values, dtype=float))
                if vals.size == 0 or not np.all(np.isfinite(vals)):
                    raise ValueError("values must be a nonempty finite set")
                object.__setattr__(self, "values", tuple(vals.tolist()))
            else:
                lo, hi, step = (float(v) for v in self.lattice)
                if not (step > 0.0 and math.isfinite(step) and math.isfinite(lo)):
                    raise ValueError("lattice needs finite lower and step > 0")
                if not hi >= lo:  # a NaN upper bound bounds nothing
                    raise ValueError("lattice upper bound below lower bound")
                object.__setattr__(self, "lattice", (lo, hi, step))
        else:
            raise ValueError(f"unknown evidence kind {self.kind!r}")

    # -- constructors ----------------------------------------------------

    @classmethod
    def interval(cls, lower: float, upper: float, description: str = "") -> "Evidence":
        return cls("continuous_support", intervals=((lower, upper),), description=description)

    @classmethod
    def interval_union(cls, intervals: Sequence, description: str = "") -> "Evidence":
        return cls("continuous_support", intervals=tuple(intervals), description=description)

    @classmethod
    def finite_set(cls, values: Sequence[float], description: str = "") -> "Evidence":
        return cls("discrete_support", values=tuple(values), description=description)

    @classmethod
    def lattice_support(
        cls, lower: float, upper: float, step: float, description: str = ""
    ) -> "Evidence":
        return cls("discrete_support", lattice=(lower, upper, step), description=description)

    # -- queries ----------------------------------------------------------

    @property
    def is_single_interval(self) -> bool:
        return self.kind == "continuous_support" and len(self.intervals) == 1

    def contains(self, y):
        """Vectorized membership test; lattice membership uses a small
        relative tolerance to survive float step arithmetic."""
        y = np.asarray(y, dtype=float)
        if self.kind == "continuous_support":
            mask = np.zeros(y.shape, dtype=bool)
            for a, b in self.intervals:
                mask |= (y >= a) & (y <= b)
        elif self.values is not None:
            mask = np.isin(y, self.values)
        else:
            lo, hi, step = self.lattice
            k = np.round((y - lo) / step)
            atol = self._lattice_atol()
            on_grid = np.abs(y - (lo + k * step)) <= atol + _LATTICE_RTOL * np.abs(y)
            mask = on_grid & (k >= 0) & (y <= hi + atol)
        if y.ndim == 0:
            return bool(mask)
        return mask

    def _lattice_atol(self) -> float:
        """The absolute part of a lattice's membership slack."""
        lo, _, step = self.lattice
        return _LATTICE_RTOL * max(1.0, abs(lo), step)

    def _held_counts(self, bulk):
        """The counts, integers >= 0, that ``contains`` accepts: a pair
        ``(first, last)`` where they are every count from first to last
        (last may be inf), else a sorted float array.

        A finite set gives its members that are counts. A lattice holds
        every count from lo up where exact integer arithmetic says so: an
        integer lo, |lo| <= 2**53, with step 1, or step the double nearest
        1/m and lo the double nearest j/m (integers m >= 1 and j,
        |j| <= 2**52). A count is then a few ulps from its lattice point,
        far inside the membership slack, and a count below lo lies a whole
        step below it. Any other lattice lists the counts ``contains``
        accepts between the ends of ``bulk()``, outside which the caller
        takes every count as rejected, and raises for more than 1e7 counts
        to test. ``contains`` accepts no count below lo - 3 atol, since a
        point sits within atol + 1e-9 |y| of some lo + k step, k >= 0, and
        1e-9 |y| is at most atol there, and none above hi + atol, the bound
        it tests.
        """
        if self.values is not None:
            members = np.asarray(self.values)
            return members[(members >= 0.0) & (members == np.floor(members))]
        lo, hi, step = self.lattice
        atol = self._lattice_atol()
        last = math.floor(hi + atol) if math.isfinite(hi) else math.inf
        m = round(1.0 / step) if step >= 2.0**-52 else 0
        every = abs(lo) <= 2.0**53 and (
            (lo == math.floor(lo) and step == 1.0)
            or (m >= 1 and step == 1.0 / m and abs(lo * m) <= 2.0**52 and round(lo * m) / m == lo)
        )
        first = max(math.ceil(lo if every else lo - 3.0 * atol), 0)
        if last < first:
            return np.empty(0)
        if every:
            return first, last
        q_lo, q_hi = bulk()
        start = min(last, max(first, q_lo))
        top = min(last, max(start, q_hi))
        if top - start >= _ENUMERATE_LIMIT:
            raise ValueError(
                f"lattice has {int(top - start) + 1} counts to test, above the {_ENUMERATE_LIMIT} limit"
            )
        counts = np.arange(float(start), top + 1.0)  # float: start may be an int past int64
        return counts[self.contains(counts)]

    def possible_values(self) -> np.ndarray:
        """Enumerate a finite discrete support; raises for continuous evidence,
        an unbounded lattice or one of more than 1e7 points."""
        if self.kind != "discrete_support":
            raise ValueError("enumerate only finite supports (evidence is continuous)")
        if self.values is not None:
            return np.asarray(self.values)
        lo, _, step = self.lattice
        return lo + step * np.arange(self._lattice_count())

    def _lattice_count(self) -> int:
        """The number of points ``possible_values`` lists for a lattice; raises
        for an unbounded lattice or one of more than 1e7 points."""
        lo, hi, step = self.lattice
        if math.isinf(hi):
            raise ValueError("enumerate only finite supports (lattice is unbounded)")
        count = int(math.floor((hi - lo) / step + _LATTICE_RTOL)) + 1
        if count > _ENUMERATE_LIMIT:
            raise ValueError(f"lattice has {count} points, above the {_ENUMERATE_LIMIT} limit")
        return count

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.kind == "continuous_support":
            doc["intervals"] = [
                [None if math.isinf(a) else a, None if math.isinf(b) else b]
                for a, b in self.intervals
            ]
        elif self.values is not None:
            doc["values"] = list(self.values)
        else:
            lo, hi, step = self.lattice
            doc["lattice"] = {
                "lower": lo,
                "upper": None if math.isinf(hi) else hi,
                "step": step,
            }
        if self.description:
            doc["description"] = self.description
        return doc


_SUPPORT_RE = re.compile(
    r"^\s*[\[\(]\s*(?P<lo>[^,\s]+)\s*,\s*(?P<hi>[^,\s\]\)]+)\s*[\]\)]\s*$"
)
_LATTICE_RE = re.compile(
    r"^\s*lattice\(\s*(?P<lo>[^,\s]+)\s*,\s*(?P<hi>[^,\s]+)\s*,\s*(?P<step>[^,\s\)]+)\s*\)\s*$",
    re.IGNORECASE,
)


def parse_support(text: str) -> Evidence:
    """Parse compact support notation: "[a,b]", "[0,inf)", "lattice(l,u,step)".

    Interval endpoints are treated as closed; for continuous predictives the
    distinction is measure-zero, and lattice evidence carries its own bounds.
    """
    m = _LATTICE_RE.match(text)
    if m:
        return Evidence.lattice_support(
            float(m["lo"]), float(m["hi"]), float(m["step"]), description=text.strip()
        )
    m = _SUPPORT_RE.match(text)
    if m:
        return Evidence.interval(float(m["lo"]), float(m["hi"]), description=text.strip())
    raise ValueError(f"cannot parse support {text!r}")


# ---------------------------------------------------------------------------
# leakage computation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeakageReport:
    """Leakage of one predictive against one evidence declaration.

    For single-interval evidence ``below_mass``/``above_mass`` split the
    leakage and ``outside_mass_other`` is 0.0; any other shape, a union of
    intervals included, carries the total in ``outside_mass_other`` with
    the other two 0.0. The three parts sum to ``leakage`` exactly. For a
    batch of predictives the masses are arrays, or a float where they do
    not depend on the predictive (an infinite interval end, the
    complete-leakage rule).
    """

    leakage: float
    below_mass: float
    above_mass: float
    outside_mass_other: float
    evidence: Evidence
    x_star: object = None
    complete: bool = False

    def to_json(self) -> dict:
        doc = {
            "leakage": self.leakage,
            "below_mass": self.below_mass,
            "above_mass": self.above_mass,
            "outside_mass_other": self.outside_mass_other,
            "complete": self.complete,
            "evidence": self.evidence.to_json(),
        }
        if self.x_star is not None:
            doc["x_star"] = self.x_star
        return doc


def _clip_unit(x):
    return _scalar_or_array(np.clip(x, 0.0, 1.0))


def leakage(dist: PredictiveDistribution, e: Evidence, x_star=None) -> LeakageReport:
    """Probability the predictive assigns outside the evidence's support.

    Against continuous evidence, for either kind of predictive, leakage is
    the mass below the first interval, plus the mass in each gap between
    intervals, plus the mass above the last, all from CDF values (an atom on
    an interval end counts as inside). One interval is the case with no
    gaps. Continuous predictive vs discrete evidence: exactly 1 with the
    complete flag set. Discrete vs a finite set or a lattice: the mass of
    the atoms that ``Evidence.contains`` rejects, summed directly by the
    family (for a Poisson, from pdtr and pdtrc over the gaps between the
    counts the evidence holds), so nothing cancels against 1: evidence that
    holds every count gives exactly 0. A Poisson against a lattice whose
    counts are listed (any lattice that does not hold every count from its
    lower end up) raises where more than 1e7 counts lie in its bulk.
    """
    if dist.kind == "continuous" and e.kind == "discrete_support":
        return LeakageReport(
            leakage=1.0,
            below_mass=0.0,
            above_mass=0.0,
            outside_mass_other=1.0,
            evidence=e,
            x_star=x_star,
            complete=True,
        )

    if e.kind == "continuous_support":
        (a, _), (_, b) = e.intervals[0], e.intervals[-1]
        below = 0.0 if math.isinf(a) else _clip_unit(dist.cdf_left(a))
        above = 0.0 if math.isinf(b) else _clip_unit(1.0 - dist.cdf(b))
        outside = below + above
        for (_, gap_lo), (gap_hi, _) in zip(e.intervals, e.intervals[1:]):
            outside = outside + np.maximum(dist.cdf_left(gap_hi) - dist.cdf(gap_lo), 0.0)
        total = _clip_unit(outside)
        if e.is_single_interval:
            return LeakageReport(total, below, above, 0.0, e, x_star)
    else:  # discrete predictive vs discrete evidence
        total = min(max(dist._mass_off(e), 0.0), 1.0)  # a float: np.clip costs more than the mass
    return LeakageReport(total, 0.0, 0.0, total, e, x_star)


class LeakageProfile(Sequence):
    """Leakage of a batch of predictives at the points of covariate columns.

    ``predictive`` is the batch (array ``loc``/``scale``, one entry per
    point), ``batch`` its leakage report, with masses as arrays in point
    order, and ``leakage`` the array of totals. Indexing or iterating gives
    one point's ``LeakageReport``, built when asked for; its ``x_star`` maps
    each column's name to that point's entry as a Python scalar.
    """

    def __init__(self, predictive: PredictiveDistribution, e: Evidence, columns: Mapping):
        self.predictive = predictive
        self.batch = leakage(predictive, e)
        self._columns = {name: np.asarray(col) for name, col in columns.items()}
        self._n = len(predictive.loc)

    @property
    def leakage(self) -> np.ndarray:
        return np.broadcast_to(self.batch.leakage, (self._n,))

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> LeakageReport:
        i = range(self._n)[i]  # bounds check and negative indices
        masses = (
            float(np.broadcast_to(getattr(self.batch, name), (self._n,))[i])
            for name in ("leakage", "below_mass", "above_mass", "outside_mass_other")
        )
        x_star = {name: col.item(i) for name, col in self._columns.items()}
        return LeakageReport(
            *masses, evidence=self.batch.evidence, x_star=x_star, complete=self.batch.complete
        )

    def to_json(self) -> list:
        return [report.to_json() for report in self]


def leakage_profile(fit: FitResult, e: Evidence, columns: Mapping) -> LeakageProfile:
    """Leakage of the fit's predictive at each point of named covariate
    columns, in row order.

    Every point is scored in one batch; an error about one point names it
    as ``grid point i``. An empty mapping is the one point of a model
    without covariates. Design rows already encoded are scored with
    ``leakage(predictive_rows(fit, X), e)``.
    """
    if not isinstance(columns, Mapping):
        raise TypeError(
            "leakage_profile takes a mapping of covariate columns; for encoded "
            "design rows X use leakage(predictive_rows(fit, X), e)"
        )
    X = _encode_columns(fit, columns, label="grid point")
    return LeakageProfile(predictive_rows(fit, X), e, columns)


class MCLeakage(NamedTuple):
    estimate: float
    stderr: float
    n: int


def mc_leakage(dist: PredictiveDistribution, e: Evidence, n: int, seed) -> MCLeakage:
    """Monte Carlo leakage estimate: the fraction of seeded draws outside the
    declared support, with a binomial standard error.

    Kept deliberately independent of the analytic path so the two can audit
    each other.
    """
    n = int(n)
    if n < 10_000:
        raise ValueError(f"need at least 1e4 draws for a usable estimate, got {n}")
    draws = dist.sample(n, np.random.default_rng(seed))
    outside = ~e.contains(draws)
    est = float(np.mean(outside))
    se = math.sqrt(est * (1.0 - est) / n)
    return MCLeakage(estimate=est, stderr=se, n=n)
