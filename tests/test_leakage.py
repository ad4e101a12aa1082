"""Evidence declarations and the leakage computations built on them."""

import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from probleak import (
    Empirical,
    Evidence,
    ModelError,
    ModelSpec,
    Normal,
    Poisson,
    StudentT,
    fit_model,
    leakage,
    leakage_profile,
    load_dataset_text,
    mc_leakage,
    parse_support,
)


# ---------------------------------------------------------------------------
# Evidence
# ---------------------------------------------------------------------------


def test_interval_evidence_contains():
    e = Evidence.interval(0.0, math.inf)
    assert e.kind == "continuous_support"
    got = e.contains(np.array([-1.0, 0.0, 5.0]))
    np.testing.assert_array_equal(got, [False, True, True])
    assert bool(e.contains(-0.001)) is False


def test_interval_union_must_be_disjoint_and_ordered():
    e = Evidence.interval_union([(0.0, 1.0), (2.0, 3.0)])
    assert e.contains(0.5) and e.contains(2.5)
    assert not e.contains(1.5)
    with pytest.raises(ValueError):
        Evidence.interval_union([(0.0, 2.0), (1.0, 3.0)])
    with pytest.raises(ValueError):
        Evidence.interval_union([(2.0, 3.0), (0.0, 1.0)])
    with pytest.raises(ValueError):
        Evidence.interval(3.0, 1.0)


@pytest.mark.parametrize(
    "lower, upper",
    [(math.nan, 1.0), (0.0, math.nan), (math.inf, math.inf), (-math.inf, -math.inf),
     (math.inf, -math.inf)],
)
def test_an_interval_with_no_real_point_is_malformed(lower, upper):
    # evidence that holds no real number rules out every outcome, so it is
    # refused rather than scored with a leakage of 0
    with pytest.raises(ValueError, match="malformed interval"):
        Evidence.interval(lower, upper)
    with pytest.raises(ValueError, match="malformed interval"):
        Evidence.interval_union([(-5.0, -4.0), (lower, upper)])
    with pytest.raises(ValueError, match="malformed interval"):
        parse_support(f"[{lower},{upper}]")


def test_finite_set_evidence():
    e = Evidence.finite_set([3.0, 1.0, 2.0])
    assert e.kind == "discrete_support"
    np.testing.assert_array_equal(e.possible_values(), [1.0, 2.0, 3.0])
    assert e.contains(2.0)
    assert not e.contains(2.5)
    # duplicates collapse: the declaration is a set
    assert Evidence.finite_set([1.0, 1.0]).values == (1.0,)
    with pytest.raises(ValueError):
        Evidence.finite_set([1.0, math.nan])
    with pytest.raises(ValueError):
        Evidence.finite_set([])


def test_lattice_evidence():
    e = Evidence.lattice_support(0.0, 10.0, 1.0)
    np.testing.assert_array_equal(e.possible_values(), np.arange(11.0))
    assert e.contains(7.0)
    assert not e.contains(7.5)
    assert not e.contains(-1.0)
    assert not e.contains(11.0)
    with pytest.raises(ValueError):
        Evidence.lattice_support(0.0, 10.0, -1.0)
    with pytest.raises(ValueError):
        Evidence.lattice_support(10.0, 0.0, 1.0)


def test_a_lattice_with_a_nan_upper_bound_is_refused():
    with pytest.raises(ValueError, match="upper bound"):
        Evidence.lattice_support(0.0, math.nan, 1.0)


def test_lattice_membership_tolerates_float_noise():
    e = Evidence.lattice_support(0.0, math.inf, 0.1)
    # 0.3 is not exactly representable; 3 * 0.1 must still count as on-lattice
    assert e.contains(0.1 * 3)
    assert e.contains(0.7000000000000001)
    assert not e.contains(0.35)


def test_unbounded_lattice_cannot_be_enumerated():
    e = Evidence.lattice_support(0.0, math.inf, 1.0)
    with pytest.raises(ValueError, match="finite supports"):
        e.possible_values()


def test_evidence_json_documents():
    # an infinite end is null, a lattice is an object, and a description
    # appears only when it is set
    cases = [
        (Evidence.interval(0.0, math.inf), {"kind": "continuous_support", "intervals": [[0.0, None]]}),
        (
            Evidence.interval(-math.inf, 2.0, description="upper bounded"),
            {"kind": "continuous_support", "intervals": [[None, 2.0]], "description": "upper bounded"},
        ),
        (
            Evidence.interval_union([(0.0, 1.0), (5.0, math.inf)]),
            {"kind": "continuous_support", "intervals": [[0.0, 1.0], [5.0, None]]},
        ),
        (Evidence.finite_set([4.0, 1.0]), {"kind": "discrete_support", "values": [1.0, 4.0]}),
        (
            Evidence.lattice_support(0.0, math.inf, 1.0),
            {"kind": "discrete_support", "lattice": {"lower": 0.0, "upper": None, "step": 1.0}},
        ),
        (
            Evidence.lattice_support(0.0, 12.0, 0.5),
            {"kind": "discrete_support", "lattice": {"lower": 0.0, "upper": 12.0, "step": 0.5}},
        ),
    ]
    for e, doc in cases:
        assert e.to_json() == doc


def test_parse_support_forms():
    e = parse_support("[0,inf)")
    assert e.intervals == ((0.0, math.inf),)
    e = parse_support("(-inf,inf)")
    assert e.intervals == ((-math.inf, math.inf),)
    e = parse_support("[1.5,2.5]")
    assert e.intervals == ((1.5, 2.5),)
    e = parse_support("lattice(0, 10, 1)")
    assert e.kind == "discrete_support"
    assert e.lattice == (0.0, 10.0, 1.0)
    for bad in ("", "nonsense", "[1 2]", "lattice(1,2)"):
        with pytest.raises(ValueError):
            parse_support(bad)


# ---------------------------------------------------------------------------
# leakage
# ---------------------------------------------------------------------------


def test_leakage_single_interval_decomposition():
    d = Normal(loc=1.0, scale=1.0)
    rep = leakage(d, Evidence.interval(0.0, 3.0))
    # oracle: Phi(-1) below, 1 - Phi(2) above
    below = 0.5 * (1.0 + math.erf(-1.0 / math.sqrt(2.0)))
    above = 1.0 - 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0)))
    assert rep.below_mass == pytest.approx(below, abs=1e-12)
    assert rep.above_mass == pytest.approx(above, abs=1e-12)
    assert rep.outside_mass_other == 0.0
    assert rep.leakage == pytest.approx(below + above, abs=1e-12)
    assert not rep.complete


def test_leakage_full_support_is_zero():
    rep = leakage(StudentT(df=3.0), Evidence.interval(-math.inf, math.inf))
    assert rep.leakage == 0.0
    assert rep.below_mass == 0.0 and rep.above_mass == 0.0


def test_leakage_interval_union_uses_other_bucket():
    d = Normal(loc=0.0, scale=1.0)
    e = Evidence.interval_union([(-1.0, 0.0), (1.0, 2.0)])
    rep = leakage(d, e)
    inside = (d.cdf(0.0) - d.cdf(-1.0)) + (d.cdf(2.0) - d.cdf(1.0))
    assert rep.outside_mass_other == pytest.approx(1.0 - inside, abs=1e-12)
    assert rep.leakage == rep.outside_mass_other
    assert rep.below_mass == 0.0 and rep.above_mass == 0.0


@st.composite
def _union(draw):
    """1-4 disjoint closed intervals with ends on a 1/4 lattice (so atoms
    of a count model fall on them), the outer ends possibly infinite."""
    k = draw(st.integers(1, 4))
    ticks = draw(st.lists(st.integers(-40, 120), min_size=2 * k, max_size=2 * k, unique=True))
    ends = [0.25 * t for t in sorted(ticks)]
    if draw(st.booleans()):
        ends[0] = -math.inf
    if draw(st.booleans()):
        ends[-1] = math.inf
    return list(zip(ends[::2], ends[1::2]))


def _mpmath_t_cdf(df, loc, scale, y):
    """P(T <= y) for a location-scale t in 30 digits, from the float inputs taken exactly."""
    if math.isinf(y):
        return 0.0 if y < 0 else 1.0
    with mpmath.workdps(30):
        t = (mpmath.mpf(y) - mpmath.mpf(loc)) / mpmath.mpf(scale)
        tail = mpmath.betainc(df / 2, 0.5, 0, df / (df + t * t), regularized=True) / 2
        return float(tail if t <= 0 else 1 - tail)


@st.composite
def _model_and_law(draw):
    """A Normal, Student t or Poisson predictive and its CDF from outside probleak:
    scipy.stats for the normal and the Poisson, mpmath for the t, where
    scipy's CDF is some 4e-12 off near the centre at df 1."""
    kind = draw(st.sampled_from(["normal", "t", "poisson"]))
    if kind == "poisson":
        rate = draw(st.floats(0.1, 25.0))
        return Poisson(rate), stats.poisson(rate).cdf
    loc, scale = draw(st.floats(-3.0, 10.0)), math.exp(draw(st.floats(-1.0, 1.5)))
    if kind == "normal":
        return Normal(loc, scale), stats.norm(loc, scale).cdf
    df = draw(st.floats(1.0, 30.0))
    return StudentT(df, loc, scale), functools.partial(_mpmath_t_cdf, df, loc, scale)


@settings(max_examples=300, deadline=None)
@given(_model_and_law(), _union())
@example((StudentT(1.0, 1e-05, math.e), functools.partial(_mpmath_t_cdf, 1.0, 1e-05, math.e)), [(0.0, 0.25)])
def test_leakage_over_interval_unions_matches_one_minus_scipy_inside(model_and_law, intervals):
    dist, cdf = model_and_law
    rep = leakage(dist, Evidence.interval_union(intervals))
    inside = 0.0
    for a, b in intervals:
        # P(a <= Y <= b); for counts the atom at a is inside, so step below it
        below_a = a if math.isinf(a) or dist.kind == "continuous" else math.ceil(a) - 1
        inside += cdf(b) - cdf(below_a)
    assert rep.leakage == pytest.approx(1.0 - inside, abs=1e-12)
    if len(intervals) == 1:
        assert rep.outside_mass_other == 0.0
    else:
        assert rep.leakage == rep.outside_mass_other
        assert rep.below_mass == 0.0 and rep.above_mass == 0.0


def test_leakage_kind_mismatch_is_complete():
    for d in (Normal(0.0, 1.0), StudentT(2.0, 0.0, 1.0)):
        for e in (
            Evidence.lattice_support(0.0, math.inf, 1.0),
            Evidence.finite_set([0.0, 1.0, 2.0]),
        ):
            rep = leakage(d, e)
            assert rep.leakage == 1.0
            assert rep.complete is True
            assert rep.outside_mass_other == 1.0


def test_discrete_model_against_discrete_evidence():
    d = Poisson(rate=3.0)
    full = leakage(d, Evidence.lattice_support(0.0, math.inf, 1.0))
    assert full.leakage == pytest.approx(0.0, abs=1e-12)
    bounded = leakage(d, Evidence.lattice_support(0.0, 5.0, 1.0))
    # oracle: P(X > 5) for Poisson(3)
    tail = 1.0 - sum(math.exp(-3.0) * 3.0**k / math.factorial(k) for k in range(6))
    assert bounded.leakage == pytest.approx(tail, rel=1e-10)
    assert not bounded.complete


def test_offset_lattice_counts_the_integers_on_it():
    # lattice(0.3, 10.3, 0.1) holds the integers 1 ... 10 exactly; lo + k*step
    # misses several of them by an ulp
    d = Poisson(rate=3.0)
    e = Evidence.lattice_support(0.3, 10.3, 0.1)
    got = leakage(d, e).leakage
    assert got == pytest.approx(0.0500794053185, abs=1e-12)
    # oracle: P(X = 0) + P(X >= 11)
    want = 1.0 - sum(math.exp(-3.0) * 3.0**k / math.factorial(k) for k in range(1, 11))
    assert got == pytest.approx(want, abs=1e-12)
    est = mc_leakage(d, e, n=200_000, seed=3)
    assert abs(est.estimate - got) <= 5.0 * est.stderr


def test_fine_unbounded_lattice_enumerates_atoms_not_points():
    d = Poisson(rate=1000.0)
    e = Evidence.lattice_support(0.0, math.inf, 1e-3)
    tracemalloc.start()
    try:
        rep = leakage(d, e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert rep.leakage == pytest.approx(0.0, abs=1e-12)


def test_discrete_model_against_continuous_evidence():
    d = Poisson(rate=3.0)
    rep = leakage(d, Evidence.interval(0.0, math.inf))
    assert rep.leakage == pytest.approx(0.0, abs=1e-12)
    rep = leakage(d, Evidence.interval(2.0, math.inf))
    # atoms at 0 and 1 fall outside
    outside = math.exp(-3.0) * (1.0 + 3.0)
    assert rep.leakage == pytest.approx(outside, rel=1e-10)


def test_empirical_model_leakage():
    d = Empirical([1.0, 2.0, 3.0, 4.0])
    rep = leakage(d, Evidence.finite_set([1.0, 2.0]))
    assert rep.leakage == pytest.approx(0.5, abs=1e-12)


def test_leakage_carries_x_star():
    rep = leakage(Normal(0.0, 1.0), Evidence.interval(0.0, math.inf), x_star={"x": 1.0})
    assert rep.x_star == {"x": 1.0}
    doc = rep.to_json()
    assert doc["x_star"] == {"x": 1.0}
    assert 0.0 <= doc["leakage"] <= 1.0


def test_leakage_report_parts_sum():
    rep = leakage(StudentT(df=4.0, loc=0.4, scale=1.2), Evidence.interval(0.0, 2.0))
    assert rep.below_mass + rep.above_mass + rep.outside_mass_other == pytest.approx(
        rep.leakage, abs=1e-15
    )


# ---------------------------------------------------------------------------
# profile and Monte Carlo
# ---------------------------------------------------------------------------


def test_leakage_profile_orders_and_reports():
    data = load_dataset_text("x,y\n0,0\n1,1\n2,3\n3,4\n")
    result = fit_model(data, ModelSpec("y", ("x",)))
    e = Evidence.interval(0.0, math.inf)
    reports = leakage_profile(result, e, {"x": [0.0, 1.0, 2.0]})
    assert [r.x_star for r in reports] == [{"x": v} for v in (0.0, 1.0, 2.0)]
    # leakage shrinks as the predictive mean climbs away from the bound
    assert reports[0].leakage > reports[1].leakage > reports[2].leakage


def test_leakage_profile_labels_failing_point():
    data = load_dataset_text("x,y\n0,0\n1,1\n2,3\n3,4\n")
    result = fit_model(data, ModelSpec("y", ("x",)))
    e = Evidence.interval(0.0, math.inf)
    with pytest.raises(ModelError, match="grid point 1:"):
        leakage_profile(result, e, {"x": [0.0, "bogus"]})
    # numpy makes every entry of a list that holds one text a text; the
    # number 0.5 is still no text
    with pytest.raises(ModelError, match="^grid point 1: covariate 'x' needs a finite number, got '3'$"):
        leakage_profile(result, e, {"x": [0.5, "3"]})


def test_mc_leakage_agrees_with_analytic():
    d = StudentT(df=2.0, loc=2.0, scale=math.sqrt(4.0 / 3.0))
    e = Evidence.interval(0.0, math.inf)
    exact = leakage(d, e).leakage
    est = mc_leakage(d, e, n=200_000, seed=9)
    assert est.n == 200_000
    assert abs(est.estimate - exact) <= 4.0 * est.stderr
    assert est.stderr == pytest.approx(
        math.sqrt(est.estimate * (1 - est.estimate) / est.n), abs=1e-12
    )


def test_mc_leakage_is_seeded():
    d = Normal(0.0, 1.0)
    e = Evidence.interval(0.0, math.inf)
    a = mc_leakage(d, e, n=10_000, seed=1)
    b = mc_leakage(d, e, n=10_000, seed=1)
    assert a == b


def test_mc_leakage_rejects_small_n():
    with pytest.raises(ValueError, match="1e4"):
        mc_leakage(Normal(0.0, 1.0), Evidence.interval(0.0, math.inf), n=100, seed=0)
