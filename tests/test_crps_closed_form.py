"""Closed-form CRPS for the normal, Student t and truncated normal.

The oracle is this file's own adaptive quadrature of the CRPS integral over
``scipy.stats`` CDFs, split at the observation and at the truncation bound.
It integrates the standardised family once per (shape, z) and scales the
result, by the exact identity CRPS(loc + scale X, loc + scale z) =
scale * CRPS(X, z); the program is still called at every location and scale.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from probleak import Mixture, Normal, StudentT, TruncatedNormal, crps
from probleak import calibration

DFS = (1.5, 2.0, 3.0, 5.0, 30.0, 100.0, 1998.0, 19997.0)
LOCS = (-1.3, 0.0, 2.5)
SCALES = (0.3, 1.0, 4.2)
ZS = (-3.1, -0.4, 0.0, 0.9, 5.7)
LOWERS = (-math.inf, -1.0, 0.0, 1.0, 3.0, 6.0)


def _quad_crps(cdf, y, lower=-math.inf):
    """Integral of (cdf(t) - 1{t >= y})^2, split at y and at lower."""
    cuts = sorted({y, lower} - {-math.inf})
    edges = [-math.inf, *cuts, math.inf]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= y:
            def piece(t):
                return cdf(t) ** 2
        else:
            def piece(t):
                return (1.0 - cdf(t)) ** 2
        val, _ = integrate.quad(piece, a, b, epsabs=1e-14, epsrel=1e-12, limit=500)
        total += val
    return total


@pytest.mark.parametrize("df", DFS)
def test_student_t_closed_form_matches_quadrature(df):
    for z in ZS:
        want_std = _quad_crps(lambda t: stats.t.cdf(t, df), z)
        for loc in LOCS:
            for scale in SCALES:
                got = crps(StudentT(df, loc, scale), loc + scale * z)
                assert got == pytest.approx(scale * want_std, rel=1e-9), (df, loc, scale, z)


def test_normal_closed_form_matches_quadrature():
    for z in ZS:
        want_std = _quad_crps(stats.norm.cdf, z)
        for loc in LOCS:
            for scale in SCALES:
                got = crps(Normal(loc, scale), loc + scale * z)
                assert got == pytest.approx(scale * want_std, rel=1e-9), (loc, scale, z)


@pytest.mark.parametrize("a", LOWERS)
def test_truncated_normal_closed_form_matches_quadrature(a):
    zs = [a + d for d in (0.0, 0.05, 0.4, 1.5, 4.0)] if math.isfinite(a) else list(ZS)
    if math.isfinite(a):
        zs += [a - 1.3, a - 0.01]  # observations below the bound
    for z in zs:
        want_std = _quad_crps(lambda t: stats.truncnorm.cdf(t, a, math.inf), z, lower=a)
        for loc, scale in ((0.0, 1.0), (2.5, 0.4), (-1.0, 3.0)):
            lower = loc + scale * a if math.isfinite(a) else -math.inf
            got = crps(TruncatedNormal(loc, scale, lower), loc + scale * z)
            assert got == pytest.approx(scale * want_std, rel=1e-9), (a, loc, scale, z)


def test_quadrature_miss_is_pinned():
    # adaptive quadrature gets this case wrong in the sixth digit (0.3431721)
    d = StudentT(1998.0, 0.24504400345770666, 1.0122050532441245)
    assert crps(d, 0.770879314477644) == pytest.approx(0.343178138294, abs=1e-10)


def test_mixture_stays_on_quadrature(monkeypatch):
    calls = []
    real_quad = calibration.integrate.quad

    def counting_quad(*args, **kwargs):
        calls.append(1)
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(calibration.integrate, "quad", counting_quad)
    mix = Mixture([Normal(0.0, 1.0), StudentT(4.0, 2.0, 0.5)], [0.3, 0.7])
    assert not hasattr(mix, "_crps")
    y = 1.1

    def mix_cdf(t):
        return 0.3 * stats.norm.cdf(t) + 0.7 * stats.t.cdf(t, 4.0, 2.0, 0.5)

    got = crps(mix, y)
    assert len(calls) == 2
    assert got == pytest.approx(_quad_crps(mix_cdf, y), abs=1e-8)

    calls.clear()
    crps(Normal(0.0, 1.0), y)
    crps(StudentT(4.0, 2.0, 0.5), y)
    assert calls == []


# ---------------------------------------------------------------------------
# properties over random parameters
# ---------------------------------------------------------------------------

_locs = st.floats(-50.0, 50.0)
_scales = st.floats(0.01, 100.0)
_zs = st.floats(-40.0, 40.0)


def _family():
    t = st.floats(1.5, 1e5).map(lambda df: lambda loc, s, a: StudentT(df, loc, s))
    n = st.just(lambda loc, s, a: Normal(loc, s))
    tn = st.just(lambda loc, s, a: TruncatedNormal(loc, s, loc + s * a))
    return st.one_of(t, n, tn)


@settings(max_examples=300, deadline=None)
@given(_family(), _locs, _scales, _zs, st.floats(-8.0, 6.0))
def test_crps_closed_forms_are_finite_nonnegative_and_scale_equivariant(make, loc, scale, z, a):
    dist = make(loc, scale, a)
    std = make(0.0, 1.0, a)
    y = loc + scale * z
    got = crps(dist, y)
    assert math.isfinite(got) and got >= 0.0
    z_back = (y - loc) / scale
    assert got == pytest.approx(scale * crps(std, z_back), rel=1e-9, abs=1e-12 * scale)
