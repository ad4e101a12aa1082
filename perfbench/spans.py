"""In-memory spans around the program's public functions, for the traced run.

``Tracer.install`` wraps every public function of every probleak module,
at every module that imported it by name (``from .calibration import crps``
binds ``probleak.cli.crps`` and ``probleak.simulation.crps`` too), and the
methods every predictive family defines. Each call records one span: a name,
a start, an end and the index of the enclosing span. A layer's self time is
its spans' durations minus the time their direct children cover.

Spans of the op in progress live in flat arrays. ``end_op`` folds them into
per-name totals and keeps them as the last op's spans, so memory holds one
op's spans however long the run; ``save`` writes those out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

_PREDICTIVE_METHODS = (
    "cdf", "cdf_left", "density", "quantile", "has_atom", "has_mass", "atoms_between", "sample",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.points = 0  # values passed to predictive cdf calls
        self.last: dict = {}

    def _span(self, name: str, fn, count_points: bool = False):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack,
        )
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            if count_points:
                tracer.points += np.size(args[1])
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap the program's public functions and predictive methods."""
        mods = {n: m for n, m in sys.modules.items() if n == "probleak" or n.startswith("probleak.")}
        for mod_name, mod in mods.items():
            layer = mod_name.rsplit(".", 1)[-1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod_name:
                    continue
                wrapped = self._span(f"{layer}.{attr}", fn)
                for other in mods.values():
                    for key, val in list(vars(other).items()):
                        if val is fn:
                            setattr(other, key, wrapped)
        base = mods["probleak.predictive"].PredictiveDistribution
        for cls in [base, *_subclasses(base)]:
            for meth in _PREDICTIVE_METHODS:
                fn = cls.__dict__.get(meth)
                if fn is not None:
                    setattr(cls, meth, self._span(f"predictive.{meth}", fn, meth == "cdf"))
        self.self_s = np.zeros(len(self.names))
        self.calls = np.zeros(len(self.names), dtype=np.int64)

    def end_op(self) -> None:
        """Fold the finished op's spans into the totals and keep them as the last op's."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        nid = np.array(self.name_id, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self.self_s += np.bincount(nid, weights=dur - child, minlength=len(self.names))
        self.calls += np.bincount(nid, minlength=len(self.names))
        self.last = {
            "name_id": nid, "parent": parent,
            "start": np.array(self.start), "end": np.array(self.end),
        }
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]

    def totals(self) -> tuple[dict, dict]:
        """Per-name self seconds and calls over every finished op."""
        return (
            {name: float(v) for name, v in zip(self.names, self.self_s)},
            {name: int(v) for name, v in zip(self.names, self.calls)},
        )

    def save(self, path) -> None:
        """Write the last op's spans: names, name_id, parent, start, end."""
        np.savez(path, names=np.array(self.names), **self.last)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
