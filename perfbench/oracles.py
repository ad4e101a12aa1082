"""Independent reference computations for checking the program's outputs.

Nothing here imports probleak. Every quantity is computed from numpy, scipy
and closed forms written out below, so an agreement with the program is an
agreement with something other than itself. ``selftest.py`` checks these
oracles against numerical integration and hand cases.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import special, stats


# ---------------------------------------------------------------------------
# flat-prior regression, refitted by least squares
# ---------------------------------------------------------------------------


def refit(X: np.ndarray, y: np.ndarray) -> dict:
    """OLS by ``numpy.linalg.lstsq`` plus the flat-prior predictive pieces."""
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    n, p = X.shape
    if rank < p:
        raise ValueError("reference design is rank-deficient")
    resid = y - X @ beta
    df = n - p
    return {
        "beta": beta,
        "df": df,
        "s2": float(resid @ resid) / df,
        "xtx_inv": np.linalg.inv(X.T @ X),
    }


def t_params(ref: dict, rows: np.ndarray) -> tuple:
    """(df, loc, scale) of the Student-t predictive at each design row."""
    rows = np.atleast_2d(rows)
    loc = rows @ ref["beta"]
    lev = np.einsum("ij,jk,ik->i", rows, ref["xtx_inv"], rows)
    return ref["df"], loc, np.sqrt(ref["s2"] * (1.0 + lev))


def truncated_regression_draw(seed, n, coefficients, noise_sd, ranges, lower):
    """Replay a seeded truncated-regression dataset from its documented draw
    order: each covariate column uniform over its range, then one uniform per
    row mapped through the truncated-normal quantile function (here
    ``scipy.stats``). Returns the covariates (n x k), the response and the
    true means."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.uniform(a, b, size=n) for a, b in ranges])
    mu = coefficients[0] + x @ np.asarray(coefficients[1:], dtype=float)
    u = rng.uniform(size=n)
    if math.isinf(lower):
        y = stats.norm.ppf(u, mu, noise_sd)
    else:
        y = stats.truncnorm.ppf(u, (lower - mu) / noise_sd, np.inf, loc=mu, scale=noise_sd)
    return x, y, mu


# ---------------------------------------------------------------------------
# closed-form CRPS
# ---------------------------------------------------------------------------


def crps_t(y, df, loc, scale):
    """CRPS of a location-scale Student t with df > 1 (scoringRules ``crps_t``;
    Jordan, Krueger & Lerch 2019)."""
    z = (np.asarray(y, dtype=float) - loc) / scale
    c1 = z * (2.0 * stats.t.cdf(z, df) - 1.0)
    c2 = 2.0 * stats.t.pdf(z, df) * (df + z * z) / (df - 1.0)
    c3 = (
        2.0 * math.sqrt(df) * special.beta(0.5, df - 0.5)
        / ((df - 1.0) * special.beta(0.5, 0.5 * df) ** 2)
    )
    return scale * (c1 + c2 - c3)


def _k(x):
    # antiderivative of Phi(t)^2 that vanishes at -inf
    return x * special.ndtr(x) ** 2 + 2.0 * special.ndtr(x) * stats.norm.pdf(x) - (
        special.ndtr(math.sqrt(2.0) * x) / math.sqrt(math.pi)
    )


def _l(x):
    # antiderivative of Phi(t) that vanishes at -inf
    return x * special.ndtr(x) + stats.norm.pdf(x)


def crps_tnorm(y, loc, scale, lower):
    """CRPS of Normal(loc, scale) truncated to [lower, inf), for y >= lower.

    The same quantity as scoringRules ``crps_tnorm`` with an infinite upper
    bound, written from the two squared-tail integrals of the standard form.
    With a = (lower - loc)/scale and S = Phi(-a) the CDF is 1 - Phi(-t)/S
    on [a, inf), and the integrals reduce to
    (z - a) - 2 (L(-a) - L(-z)) / S + K(-a) / S^2. Everything is written in
    upper-tail terms, so a deep truncation (S near 0) loses no precision.
    """
    z = (np.asarray(y, dtype=float) - loc) / scale
    if np.any(z < (lower - loc) / scale):
        raise ValueError("observation below the truncation point")
    if math.isinf(lower):
        return scale * (z * (2.0 * special.ndtr(z) - 1.0) + 2.0 * stats.norm.pdf(z)
                        - 1.0 / math.sqrt(math.pi))
    a = (lower - loc) / scale
    s = special.ndtr(-a)
    return scale * ((z - a) - 2.0 * (_l(-a) - _l(-z)) / s + _k(-a) / (s * s))


# ---------------------------------------------------------------------------
# exact lattice arithmetic and discrete references
# ---------------------------------------------------------------------------


def _exact(x: float) -> Fraction:
    # a lattice is declared in decimal, so read each float back by its
    # shortest repr: 0.1 means 1/10, not the binary double nearest to it
    return Fraction(repr(float(x)))


def lattice_integers(lo: float, hi: float, step: float, cap: int):
    """Integers on the lattice lo + m*step (m >= 0, point <= hi), up to cap.

    Decided exactly: with lo = A/D and step = B/D over a common denominator
    D, the point is an integer iff A + m*B = 0 (mod D), a linear congruence
    whose solutions form one arithmetic progression in m. Returns the
    integers as an int64 array in increasing order.
    """
    flo, fstep = _exact(lo), _exact(step)
    d = math.lcm(flo.denominator, fstep.denominator)
    a = int(flo * d)
    b = int(fstep * d)
    g = math.gcd(b, d)
    if a % g:
        return np.empty(0, dtype=np.int64)
    period = d // g
    # smallest m >= 0 with m*(b/g) = -a/g (mod period)
    m0 = (-(a // g) * pow(b // g, -1, period)) % period
    first = Fraction(a + m0 * b, d)
    inc = b // g
    top = cap if math.isinf(hi) else min(cap, math.floor(_exact(hi)))
    if first > top:
        return np.empty(0, dtype=np.int64)
    return np.arange(int(first), top + 1, inc, dtype=np.int64)


def lattice_size(lo: float, hi: float, step: float) -> int:
    """Number of points lo + m*step <= hi of a bounded lattice, exactly."""
    return math.floor((_exact(hi) - _exact(lo)) / _exact(step)) + 1


def poisson_tail_cap(rate: float) -> int:
    """An integer beyond which Poisson(rate) holds less than 1e-50 mass."""
    return int(rate + 40.0 * math.sqrt(rate) + 60.0)


def poisson_lattice_leakage(rate: float, lo: float, hi: float, step: float) -> float:
    """1 - sum of Poisson pmf over the integers on the lattice."""
    ks = lattice_integers(lo, hi, step, poisson_tail_cap(rate))
    ks = ks[ks >= 0]
    return 1.0 - math.fsum(stats.poisson.pmf(ks, rate))


def poisson_crps(y: int, rate: float) -> float:
    """CRPS of Poisson(rate) at integer y as the sum over unit steps of
    (F(k) - 1{k >= y})^2; the terms beyond the cap sum to below 1e-100."""
    ks = np.arange(0, max(int(y), poisson_tail_cap(rate)) + 1)
    step = stats.poisson.cdf(ks, rate) - (ks >= y)
    return math.fsum(step * step)
