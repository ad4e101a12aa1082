"""Strict falsification semantics.

A model is falsified when an event it declared impossible actually happens:
probability exactly zero, not merely tiny. The probability-zero test is
structural (does the family's support contain the value at all), never a
numerical-underflow check, so a Poisson model survives an observed count of
10^6 even though its pmf there underflows to 0.0 in floats.

Two readings of "an event" are offered. The default point reading treats a
recorded value as the exact real number, under which any continuous model is
falsified by the first observation of any kind. The interval reading widens
each value by the recording device's resolution and asks whether the model
puts mass anywhere in that window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .leakage import Evidence
from .predictive import PredictiveDistribution

__all__ = ["Observation", "FalsificationVerdict", "is_falsified", "never_falsifiable"]


@dataclass(frozen=True)
class Observation:
    """A recorded outcome; resolution is the measurement step of the device."""

    value: float
    resolution: float | None = None

    def __post_init__(self):
        if self.resolution is not None and not self.resolution > 0.0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")

    def window(self) -> tuple[float, float]:
        if self.resolution is None:
            raise ValueError("interval_event mode requires observations with a resolution")
        half = 0.5 * self.resolution
        return self.value - half, self.value + half


@dataclass(frozen=True)
class FalsificationVerdict:
    falsified: bool
    mode: str
    witness: Observation | None = None

    def __post_init__(self):
        if self.falsified and self.witness is None:
            raise ValueError("a falsified verdict must carry its witness")

    def to_json(self) -> dict:
        doc: dict = {"falsified": self.falsified, "mode": self.mode}
        if self.witness is not None:
            doc["witness"] = {"value": self.witness.value}
            if self.witness.resolution is not None:
                doc["witness"]["resolution"] = self.witness.resolution
        return doc


def _as_arrays(obs, resolution):
    """Values and resolutions (NaN for none) as float arrays, plus the input items
    when some of them are Observations (None otherwise).

    Bare numbers, a whole float array among them, take ``resolution``; an
    Observation keeps its own.
    """
    items = obs if isinstance(obs, np.ndarray) else list(obs)
    try:
        values = np.asarray(items, dtype=float).ravel()
    except TypeError:  # Observation objects among the items
        pairs = [(o.value, o.resolution) if isinstance(o, Observation) else (o, resolution) for o in items]
        values, resolutions = np.array(pairs, dtype=float).T
        return values, resolutions, items
    return values, np.full(values.size, resolution, dtype=float), None


def is_falsified(
    dist: PredictiveDistribution,
    obs: Sequence,
    mode: str = "point_event",
    resolution: float | None = None,
) -> FalsificationVerdict:
    """Verdict on whether any observation is a probability-zero event for dist.

    Observations may be Observation objects, bare numbers, or one array of
    values; bare numbers take ``resolution``. The witness is the first
    probability-zero event in input order. point_event asks P(Y = value) = 0;
    interval_event asks P(value +- resolution/2) = 0 and requires every
    observation up to the witness to carry a resolution. ``dist`` may be a
    batch of a continuous family (array parameters, one predictive per
    observation): the support of those families, and so the verdict, does
    not depend on the parameters.

    An input Observation is returned as the witness itself.
    """
    if resolution is not None and not resolution > 0.0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    values, resolutions, items = _as_arrays(obs, resolution)
    if not values.size:
        raise ValueError("need at least one observation")
    if mode == "point_event":
        held = dist.has_atom(values)
    elif mode == "interval_event":
        half = 0.5 * resolutions
        held = dist.has_mass(values - half, values + half) & ~np.isnan(resolutions)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected point_event or interval_event")
    zero = ~held
    i = int(np.argmax(zero))
    if not zero[i]:
        return FalsificationVerdict(falsified=False, mode=mode)
    if np.isnan(resolutions[i]) and mode == "interval_event":
        raise ValueError("interval_event mode requires observations with a resolution")
    if items is not None and isinstance(items[i], Observation):
        witness = items[i]
    else:
        witness = Observation(float(values[i]), resolution)
    return FalsificationVerdict(falsified=True, mode=mode, witness=witness)


def never_falsifiable(dist: PredictiveDistribution, e: Evidence) -> bool:
    """True when no observation the evidence permits can ever falsify the model.

    Requires a discrete model and finitely enumerable discrete evidence: the
    model must put an atom on every value ``e.possible_values()`` lists. A
    Poisson against a lattice is decided without listing them, from the
    lattice's lower end, step and point count, wherever every listed point
    is sure to be a nonnegative integer or the first one is not; other
    families, finite sets and the remaining lattices are checked point by
    point. Either way the verdict, and every error (continuous evidence, an
    unbounded lattice, one above the enumeration limit), is the one the
    exhaustive check gives. A continuous model is falsifiable by any point
    observation, so it returns False immediately.
    """
    if dist.kind == "continuous":
        return False
    if e.lattice is not None:
        lo, _, step = e.lattice
        verdict = dist._atoms_on_lattice(lo, step, e._lattice_count())
        if verdict is not None:
            return verdict
    return bool(np.all(dist.has_atom(e.possible_values())))
