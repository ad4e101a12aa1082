"""Self-test of the benchmark's oracles, without the program.

Checks each closed form in ``oracles.py`` against adaptive quadrature over
``scipy.stats`` CDFs, and the exact lattice arithmetic against hand cases,
so a wrong oracle can neither pass nor fail the program. Run it from the
repository root whenever ``oracles.py`` changes:

    python3 perfbench/selftest.py

It prints one line per family and exits 1 on the first disagreement.
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

import numpy as np
from scipy import integrate, stats

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402

_CRPS_RTOL = 1e-7


def _quad_crps(cdf, sf, y, loc, scale, lower=-np.inf):
    # finite pieces around the bulk, infinite tails only beyond it: one
    # adaptive rule over a whole half-line can accept a wrong first estimate
    lo, hi = loc - 40.0 * scale, loc + 40.0 * scale
    cuts = sorted({max(lower, min(lo, y)), y, max(hi, y)})
    pieces = [(lower, cuts[0])] + list(zip(cuts[:-1], cuts[1:])) + [(cuts[-1], np.inf)]
    total = 0.0
    for a, b in pieces:
        if b <= a:
            continue
        f = (lambda t: cdf(t) ** 2) if b <= y else (lambda t: sf(t) ** 2)
        total += integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=500)[0]
    return total


def _close(got, want, rtol, what):
    if not math.isclose(got, want, rel_tol=rtol, abs_tol=1e-12):
        raise SystemExit(f"selftest: {what}: oracle {got!r} vs reference {want!r}")


def check_crps_t() -> int:
    n = 0
    cases = [
        (df, loc, scale, loc + scale * z)
        for df, loc, scale, z in itertools.product(
            (1.5, 2.5, 4.0, 12.0, 101.0, 1998.0), (-3.0, 0.0, 7.5), (0.2, 1.0, 3.09), (-6.0, -0.7, 0.0, 1.3, 9.0)
        )
    ]
    # one adaptive rule over (-inf, y] misses this case by 6e-6
    cases.append((1998.0, 0.24504400345770666, 1.0122050532441245, 0.770879314477644))
    for df, loc, scale, y in cases:
        dist = stats.t(df, loc, scale)
        want = _quad_crps(dist.cdf, dist.sf, y, loc, scale)
        _close(float(oracles.crps_t(y, df, loc, scale)), want, _CRPS_RTOL, f"crps_t df={df} loc={loc} scale={scale} y={y}")
        n += 1
    return n


def check_crps_tnorm() -> int:
    n = 0
    for loc, scale, lower, dz in itertools.product(
        (-2.0, 0.2, 0.5, 3.0), (0.3, 1.0, 2.0), (0.0, -1.0, -np.inf), (0.0, 0.1, 0.8, 2.5, 7.0)
    ):
        base = loc - 3.0 * scale if math.isinf(lower) else lower
        y = base + dz * scale
        if math.isinf(lower):
            dist = stats.norm(loc, scale)
        else:
            dist = stats.truncnorm((lower - loc) / scale, np.inf, loc=loc, scale=scale)
        want = _quad_crps(dist.cdf, dist.sf, y, loc, scale, lower)
        _close(float(oracles.crps_tnorm(y, loc, scale, lower)), want, _CRPS_RTOL,
               f"crps_tnorm loc={loc} scale={scale} lower={lower} y={y}")
        n += 1
    return n


def check_lattice() -> int:
    cases = [
        # (lo, hi, step, cap, integers on the lattice)
        (0.3, 10.3, 0.1, 1000, list(range(1, 11))),
        (0.0, math.inf, 1.0, 5, list(range(0, 6))),
        (0.5, 20.0, 1.0, 1000, []),
        (0.5, 20.0, 0.25, 1000, list(range(1, 21))),
        (-2.0, 9.0, 3.0, 1000, [-2, 1, 4, 7]),
        (0.3, math.inf, 0.7, 20, [1, 8, 15]),
    ]
    # brute force over m with exact fractions, small lattices only
    for lo, step in itertools.product((0.0, 0.3, 0.25, 1.7, -0.4), (0.1, 0.2, 0.5, 1.0, 0.3)):
        flo, fstep = oracles._exact(lo), oracles._exact(step)
        pts = [flo + m * fstep for m in range(oracles.lattice_size(lo, 12.0, step))]
        cases.append((lo, 12.0, step, 10**6, [int(p) for p in pts if p.denominator == 1]))
    for lo, hi, step, cap, want in cases:
        got = oracles.lattice_integers(lo, hi, step, cap).tolist()
        if got != want:
            raise SystemExit(f"selftest: lattice({lo}, {hi}, {step}): {got} vs {want}")
    if oracles.lattice_size(0.3, 10.3, 0.1) != 101:
        raise SystemExit("selftest: lattice(0.3, 10.3, 0.1) must hold 101 points")
    # Poisson(3) on lattice(0.3, 10.3, 0.1): mass outside 1..10 is P(0) + P(>10)
    want = stats.poisson.pmf(0, 3.0) + stats.poisson.sf(10, 3.0)
    _close(oracles.poisson_lattice_leakage(3.0, 0.3, 10.3, 0.1), want, 1e-12, "poisson leakage, hand lattice")
    _close(oracles.poisson_lattice_leakage(20.0, 0.3, math.inf, 0.1), stats.poisson.pmf(0, 20.0), 1e-6,
           "poisson leakage, unbounded offset lattice")
    return len(cases) + 3


def check_poisson_crps() -> int:
    n = 0
    for rate, y in itertools.product((0.7, 3.0, 10.0, 29.5), (0, 1, 4, 12, 40)):
        dist = stats.poisson(rate)
        want = _quad_step_crps(dist.cdf, y, dist.ppf(1 - 1e-16) + 2)
        _close(oracles.poisson_crps(y, rate), want, 1e-10, f"poisson_crps rate={rate} y={y}")
        n += 1
    return n


def _quad_step_crps(cdf, y, top):
    # integrate the squared step function piecewise between its breakpoints
    edges = np.arange(0.0, max(float(y), top) + 1.0)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(lambda t: (cdf(t) - (t >= y)) ** 2, a, b, points=[y] if a < y < b else None)
        total += val
    return total


def main() -> int:
    counts = {
        "crps_t vs quad": check_crps_t(),
        "crps_tnorm vs quad": check_crps_tnorm(),
        "lattice arithmetic": check_lattice(),
        "poisson crps vs quad": check_poisson_crps(),
    }
    for name, n in counts.items():
        print(f"selftest ok: {name} ({n} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
