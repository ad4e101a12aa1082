"""One contract, checked the same way for every predictive family.

Each case carries its support as the test's own oracle: the smallest closed
interval holding every draw and all positive density, written down by hand.
``GridDensity`` is no predictive family, but ``kl_distance`` asks it the same
support and density questions, so it takes the checks that apply to it.
"""

import math

import numpy as np
import pytest

from probleak import Empirical, GridDensity, Mixture, Normal, Poisson, StudentT, TruncatedNormal
from probleak import Evidence, mc_leakage

INF = math.inf
DBL_MAX = float(np.finfo(float).max)

CASES = {
    "normal": (Normal(1.0, 2.0), (-INF, INF)),
    "normal_batch": (Normal(np.array([0.0, 1.0, -2.0]), 1.5), (-INF, INF)),
    "student_t": (StudentT(4.5, -1.0, 0.7), (-INF, INF)),
    "student_t_batch": (
        StudentT(6.0, np.array([0.0, 1.0, -2.0]), np.array([1.0, 0.5, 2.0])),
        (-INF, INF),
    ),
    "truncated_normal": (TruncatedNormal(0.5, 1.2, lower=0.25), (0.25, INF)),
    "truncated_normal_batch": (TruncatedNormal(np.array([0.5, 1.0, 2.0]), 1.2, lower=0.25), (0.25, INF)),
    "poisson": (Poisson(3.5), (0.0, INF)),
    "empirical": (Empirical([2.5, 0.5, 1.0, 1.0]), (0.5, 2.5)),
    "mixture_continuous": (Mixture([Normal(0.0, 1.0), StudentT(3.0, 2.0, 0.5)], [0.3, 0.7]), (-INF, INF)),
    "mixture_truncated": (
        Mixture([TruncatedNormal(0.5, 1.0, lower=0.0), TruncatedNormal(2.0, 0.7, lower=1.0)], [0.4, 0.6]),
        (0.0, INF),
    ),
    "mixture_discrete": (Mixture([Poisson(2.0), Empirical([0.5, 7.0])], [0.6, 0.4]), (0.0, INF)),
}
CONTINUOUS = [k for k, (d, _) in CASES.items() if d.kind == "continuous"]
DISCRETE = [k for k, (d, _) in CASES.items() if d.kind == "discrete"]

# a quarter lattice, so integers and the empirical atoms lie on it exactly
GRID = np.arange(-24, 41) / 4.0
# every bound of every case, adjacent floats on both sides, and wide windows
EDGES = np.array([-INF, -6.0, -0.1, 0.0, 0.25, 0.5, 1.0, 2.5, 3.0, 1e6, INF])
EDGES = np.unique(np.concatenate([EDGES, np.nextafter(EDGES, -INF), np.nextafter(EDGES, INF)]))


def _batch_shape(dist):
    return np.broadcast_shapes(np.shape(getattr(dist, "loc", 0.0)), np.shape(getattr(dist, "scale", 1.0)))


def _column(y, dist):
    """y as a column, so a batch of predictives spreads it along axis 1."""
    return np.asarray(y, dtype=float).reshape((-1,) + (1,) * len(_batch_shape(dist)))


def _has_logdensity(dist):
    return all(hasattr(part, "_logdensity") for part in getattr(dist, "components", (dist,)))


LOG_DENSITY = [k for k, (d, _) in CASES.items() if _has_logdensity(d)]


@pytest.mark.parametrize("name", CASES)
def test_zero_d_input_gives_a_float_or_bool_and_arrays_broadcast(name):
    dist, _ = CASES[name]
    batch = _batch_shape(dist)
    scalar = float if batch == () else np.ndarray  # np.float64 is no float here
    for method in (dist.cdf, dist.cdf_left, dist.density):
        assert type(method(0.5)) is scalar
        assert type(method(np.float64(0.5))) is scalar
        got = method(GRID.reshape(5, 13, 1))
        assert type(got) is np.ndarray
        assert got.shape == np.broadcast_shapes((5, 13, 1), batch)
    assert type(dist.quantile(0.3)) is scalar
    # the support, and so these two answers, never depend on the parameters
    assert type(dist.has_atom(1.0)) is bool
    assert type(dist.has_mass(0.0, 1.0)) is bool
    assert dist.has_atom(GRID.reshape(5, 13)).shape == (5, 13)
    assert dist.has_mass(GRID.reshape(5, 13), GRID[:13] + 1.0).shape == (5, 13)


@pytest.mark.parametrize("name", CASES)
def test_cdf_left_never_exceeds_cdf_and_both_are_monotone(name):
    dist, _ = CASES[name]
    y = _column(np.concatenate([[-INF, -DBL_MAX], np.linspace(-6.0, 10.0, 2001), GRID, [1e6, DBL_MAX, INF]]), dist)
    y = np.sort(y, axis=0)
    right, left = dist.cdf(y), dist.cdf_left(y)
    assert np.all(left <= right)
    assert np.all(np.diff(right, axis=0) >= 0.0)
    assert np.all(np.diff(left, axis=0) >= 0.0)
    assert np.all((right >= 0.0) & (right <= 1.0))


@pytest.mark.parametrize("name", LOG_DENSITY)
def test_density_is_the_exp_of_the_log_density(name):
    dist, _ = CASES[name]
    y = _column(np.concatenate([GRID, [-40.0, 60.0, 1e6]]), dist)
    dens, log_d = dist.density(y), dist._logdensity(y)
    keep = dens > 1e-300
    np.testing.assert_allclose(np.log(dens[keep]), log_d[keep], rtol=1e-12, atol=1e-13)
    assert np.all(np.exp(log_d[~keep]) <= 1e-300)


@pytest.mark.parametrize("name", CONTINUOUS)
def test_support_is_the_stated_interval(name):
    dist, support = CASES[name]
    assert dist.support() == support


@pytest.mark.parametrize("name", CONTINUOUS)
def test_continuous_has_mass_is_the_support_meeting_the_window_with_length(name):
    dist, (s_lo, s_hi) = CASES[name]
    lo, hi = np.meshgrid(EDGES, EDGES, indexing="ij")
    want = np.maximum(lo, s_lo) < np.minimum(hi, s_hi)
    np.testing.assert_array_equal(dist.has_mass(lo, hi), want)
    assert [dist.has_mass(a, b) for a, b in zip(lo.ravel(), hi.ravel())] == want.ravel().tolist()
    assert dist.has_mass(math.nan, 1.0) is False


@pytest.mark.parametrize("name", CONTINUOUS)
def test_continuous_families_have_no_atoms(name):
    dist, _ = CASES[name]
    assert not np.any(dist.has_atom(GRID))
    np.testing.assert_array_equal(dist.cdf_left(_column(GRID, dist)), dist.cdf(_column(GRID, dist)))


# the atoms of each discrete case at or below the finite edges: the counts
# run to past 1e6 and, as every float above 2**53 is an integer, take in the
# largest float too
COUNTS = np.append(np.arange(0.0, 1e6 + 2.0), DBL_MAX)
ATOMS = {
    "poisson": COUNTS,
    "empirical": np.array([0.5, 1.0, 2.5]),
    "mixture_discrete": np.union1d(COUNTS, [0.5, 7.0]),
}


@pytest.mark.parametrize("name", DISCRETE)
def test_discrete_has_mass_is_an_atom_in_the_window(name):
    # EDGES holds both infinities, so the windows [inf, inf] and [-inf, -inf],
    # which hold no atom, are among these
    dist, _ = CASES[name]
    atoms = ATOMS[name]
    lo, hi = np.meshgrid(EDGES, EDGES, indexing="ij")
    want = np.searchsorted(atoms, hi, side="right") > np.searchsorted(atoms, lo, side="left")
    np.testing.assert_array_equal(dist.has_mass(lo, hi), want)
    assert [dist.has_mass(a, b) for a, b in zip(lo.ravel(), hi.ravel())] == want.ravel().tolist()
    assert dist.has_mass(INF, INF) is False


@pytest.mark.parametrize("name", DISCRETE)
def test_discrete_atoms_and_pmf_agree(name):
    dist, _ = CASES[name]
    y = np.concatenate([GRID, [-0.0, 1e6, 1e300, INF, -INF, math.nan, DBL_MAX, -DBL_MAX]])
    atom, pmf = dist.has_atom(y), dist.density(y)
    assert np.all((pmf >= 0.0) & (pmf <= 1.0))
    assert np.all(pmf[~atom] == 0.0)
    assert np.all(atom[pmf > 0.0])
    assert not np.any(atom[~np.isfinite(y)])
    # the atom at y is the step of the CDF there
    step = dist.cdf(y) - dist.cdf_left(y)
    np.testing.assert_allclose(step[~np.isnan(y)], pmf[~np.isnan(y)], rtol=0.0, atol=1e-15)
    if name != "empirical":  # a Poisson atom far in the tail, where its pmf underflows
        assert atom[GRID.size + 1] and pmf[GRID.size + 1] == 0.0
    assert [dist.has_atom(v) for v in y] == atom.tolist()


@pytest.mark.parametrize("name", CASES)
def test_samples_lie_in_the_support(name):
    dist, (s_lo, s_hi) = CASES[name]
    if _batch_shape(dist) != ():
        # one draw count cannot serve every row, not even one equal to the batch size
        for n in (2000, 3):
            with pytest.raises(ValueError, match=r"batch of predictives with shape \(3,\)"):
                dist.sample(n, 7)
        with pytest.raises(ValueError, match=r"batch of predictives with shape \(3,\)"):
            mc_leakage(dist, Evidence.interval(0.0, INF), 10_000, 7)
        return
    draws = dist.sample(2000, 7)
    assert np.all((draws >= s_lo) & (draws <= s_hi))
    if dist.kind == "discrete":
        assert np.all(dist.has_atom(draws))


@pytest.mark.parametrize("name", CONTINUOUS)
def test_continuous_quantile_round_trips(name):
    dist, _ = CASES[name]
    for p in (1e-6, 0.01, 0.3, 0.5, 0.9, 0.999):
        np.testing.assert_allclose(dist.cdf(dist.quantile(p)), p, rtol=1e-9, atol=0.0)
    if _batch_shape(dist) == ():
        for y in np.linspace(dist.quantile(0.001), dist.quantile(0.999), 41):
            assert dist.quantile(dist.cdf(y)) == pytest.approx(y, rel=1e-9, abs=1e-9)


def test_grid_density_support_and_density_pair():
    g = GridDensity([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.5, 0.0, 0.5, 0.0])
    lo, hi = g.support()
    assert (lo, hi) == (0.0, 4.0)
    y = np.linspace(-2.0, 6.0, 801)
    dens = g.density(y)
    assert isinstance(g.density(1.5), float) and dens.shape == y.shape
    assert np.all(dens[(y < lo) | (y > hi)] == 0.0)
    keep = dens > 1e-300
    log_d = g._logdensity(y)
    np.testing.assert_allclose(np.log(dens[keep]), log_d[keep], rtol=1e-12, atol=1e-13)
    assert np.all(log_d[~keep] == -INF)
