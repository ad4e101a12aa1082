"""Strict falsification: only probability-zero events falsify, never small ones."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probleak import (
    Empirical,
    Evidence,
    FalsificationVerdict,
    Mixture,
    Normal,
    Observation,
    Poisson,
    StudentT,
    TruncatedNormal,
    is_falsified,
    never_falsifiable,
)
from probleak import falsification


def test_observation_resolution_must_be_positive():
    with pytest.raises(ValueError):
        Observation(2.0, resolution=0.0)
    with pytest.raises(ValueError):
        Observation(2.0, resolution=-1.0)


def test_verdict_requires_witness_when_falsified():
    with pytest.raises(ValueError, match="witness"):
        FalsificationVerdict(falsified=True, mode="point_event")
    ok = FalsificationVerdict(falsified=True, mode="point_event", witness=Observation(1.0))
    assert ok.to_json() == {
        "falsified": True,
        "mode": "point_event",
        "witness": {"value": 1.0},
    }
    none = FalsificationVerdict(falsified=False, mode="interval_event")
    assert "witness" not in none.to_json()


def test_continuous_model_falsified_by_any_exact_point():
    d = StudentT(df=3.0, loc=0.0, scale=1.0)
    v = is_falsified(d, [0.0])
    assert v.falsified and v.mode == "point_event"
    assert v.witness.value == 0.0


def test_point_mode_on_discrete_model():
    d = Poisson(rate=2.0)
    assert not is_falsified(d, [0.0, 3.0, 10.0]).falsified
    v = is_falsified(d, [1.0, 2.5, 3.0])
    # 2.5 is the first probability-zero event in input order
    assert v.falsified
    assert v.witness.value == 2.5


def test_interval_mode_requires_resolution():
    d = Normal(0.0, 1.0)
    with pytest.raises(ValueError, match="resolution"):
        is_falsified(d, [Observation(0.0)], mode="interval_event")


def test_interval_mode_verdicts():
    d = Normal(0.0, 1.0)
    # any window has positive normal mass, so never falsified
    v = is_falsified(d, [Observation(50.0, resolution=0.01)], mode="interval_event")
    assert not v.falsified
    emp = Empirical([1.0, 2.0])
    hit = is_falsified(emp, [Observation(1.0, resolution=0.1)], mode="interval_event")
    assert not hit.falsified
    miss = is_falsified(emp, [Observation(5.0, resolution=0.1)], mode="interval_event")
    assert miss.falsified
    assert miss.witness.value == 5.0


@pytest.mark.parametrize("dist", [Poisson(3.0), Mixture([Poisson(3.0), Poisson(8.0)], [0.5, 0.5])])
def test_an_infinite_count_falsifies_in_either_mode(dist):
    # the window around +inf is [inf, inf], which holds no count
    assert is_falsified(dist, [math.inf]).falsified
    assert is_falsified(dist, [math.inf], mode="interval_event", resolution=1.0).falsified


def test_bare_numbers_are_accepted():
    v = is_falsified(Normal(0.0, 1.0), [1.5])
    assert v.falsified and isinstance(v.witness, Observation)


def test_input_validation():
    d = Normal(0.0, 1.0)
    with pytest.raises(ValueError, match="at least one"):
        is_falsified(d, [])
    with pytest.raises(ValueError, match="unknown mode"):
        is_falsified(d, [1.0], mode="bogus")


def test_never_falsifiable_poisson_on_bounded_counts():
    d = Poisson(rate=4.0)
    e = Evidence.lattice_support(0.0, 20.0, 1.0)
    assert never_falsifiable(d, e) is True
    # exhaustive cross-check straight from the definition
    assert all(d.has_atom(v) for v in e.possible_values())


def test_never_falsifiable_fails_on_uncovered_value():
    d = Poisson(rate=4.0)
    assert never_falsifiable(d, Evidence.finite_set([0.0, 1.0, 2.5])) is False
    assert never_falsifiable(d, Evidence.finite_set([0.0, 2.0, 2.0000000001])) is False
    assert never_falsifiable(d, Evidence.finite_set([-1.0, 0.0, 1.0])) is False
    emp = Empirical([1.0, 2.0])
    assert never_falsifiable(emp, Evidence.finite_set([1.0, 2.0])) is True
    assert never_falsifiable(emp, Evidence.finite_set([1.0, 2.0, 3.0])) is False


def test_continuous_model_is_always_falsifiable():
    d = Normal(0.0, 1.0)
    assert never_falsifiable(d, Evidence.finite_set([0.0, 1.0])) is False
    assert never_falsifiable(d, Evidence.interval(0.0, math.inf)) is False


def test_never_falsifiable_needs_enumerable_evidence():
    d = Poisson(rate=4.0)
    with pytest.raises(ValueError, match="finite supports"):
        never_falsifiable(d, Evidence.lattice_support(0.0, math.inf, 1.0))


def _enumerated_verdict(dist, e):
    """The exhaustive check, or the error it raises."""
    try:
        return bool(np.all(dist.has_atom(e.possible_values())))
    except ValueError as exc:
        return str(exc)


def _decided_verdict(dist, e):
    try:
        return never_falsifiable(dist, e)
    except ValueError as exc:
        return str(exc)


_INTEGRAL = st.integers(0, 50).map(float)
_STEPS = st.one_of(_INTEGRAL.filter(bool), st.floats(0.01, 5.0), st.sampled_from([0.1, 0.5, 1.0 + 2.0**-40]))


@st.composite
def _lattices(draw):
    """(lo, hi, step) with counts the reference can list, plus the raise cases."""
    lo = draw(st.one_of(
        _INTEGRAL,
        st.floats(-20.0, 20.0),  # negative and non-integer
        st.floats(2.0**52 - 64, 2.0**53 + 64),  # where floats stop holding fractions
        st.sampled_from([-0.0, 2.0**53, 2.0**53 - 1, 1e300]),
    ))
    step = draw(_STEPS)
    count = draw(st.one_of(st.just(1), st.integers(1, 400)))
    hi = draw(st.one_of(
        st.just(lo + step * (count - 1)),
        st.just(lo + step * (count - 0.5)),
        st.sampled_from([math.inf, lo + 2e7 * step]),  # unbounded, above the limit
    ))
    return lo, hi, step


@settings(max_examples=500, deadline=None)
@given(_lattices(), st.floats(0.01, 1e6))
@example((0.0, 100_000.0, 1.0), 3.0)
@example((2.0**53 - 2, 2.0**53 + 6, 2.0), 3.0)
@example((2.0**52 - 1, 2.0**52 + 1, 0.5), 3.0)
@example((4.0, 4.9, 0.25), 3.0)
def test_poisson_lattice_verdict_matches_the_enumeration(lattice, rate):
    try:
        e = Evidence.lattice_support(*lattice)
    except ValueError:
        return
    dist = Poisson(rate)
    assert _decided_verdict(dist, e) == _enumerated_verdict(dist, e), lattice


def test_poisson_on_a_lattice_is_decided_without_listing_it(monkeypatch):
    def refuse(self):
        raise AssertionError("possible_values was called")

    monkeypatch.setattr(Evidence, "possible_values", refuse)
    assert never_falsifiable(Poisson(3.0), Evidence.lattice_support(0.0, 9e6, 1.0)) is True
    assert never_falsifiable(Poisson(3.0), Evidence.lattice_support(0.5, 9e6, 1.0)) is False
    with pytest.raises(ValueError, match="above the 10000000 limit"):
        never_falsifiable(Poisson(3.0), Evidence.lattice_support(0.0, 2e7, 1.0))


_EMPIRICAL_ATOMS = [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 2.0**53]
_PARTS = st.one_of(
    st.floats(0.01, 100.0).map(Poisson),
    st.lists(st.sampled_from(_EMPIRICAL_ATOMS), min_size=1, max_size=6).map(Empirical),
)
# lattices on the empirical atoms, where a Poisson that decides False (at a
# negative or fractional lo) shares the mixture with a part that has atoms there
_ATOM_LATTICES = st.tuples(
    st.sampled_from([-1.0, -0.5, 0.5]), st.sampled_from([0.5, 1.0, 1.5]), st.integers(1, 4)
).map(lambda t: (t[0], t[0] + t[1] * (t[2] - 1), t[1]))


@st.composite
def _mixtures(draw):
    """Discrete mixtures of one to three parts (one may be a mixture itself),
    some weights zero."""
    inner = st.lists(_PARTS, min_size=1, max_size=2).map(lambda cs: Mixture(cs, [1.0 / len(cs)] * len(cs)))
    parts = draw(st.lists(st.one_of(_PARTS, inner), min_size=1, max_size=3))
    raw = draw(st.lists(st.integers(0, 3), min_size=len(parts), max_size=len(parts)).filter(any))
    return Mixture(parts, [w / sum(raw) for w in raw])


@settings(max_examples=500, deadline=None)
@given(_mixtures(), st.one_of(_lattices(), _ATOM_LATTICES))
# a zero weight decides nothing
@example(Mixture([Poisson(2.0), Empirical([0.5])], [0.0, 1.0]), (0.0, 3.0, 1.0))
@example(Mixture([Poisson(2.0), Poisson(9.0)], [0.5, 0.5]), (0.5, 3.5, 1.0))
@example(Mixture([Poisson(2.0), Empirical([0.0, 1.0])], [0.5, 0.5]), (0.0, 1.0, 0.5))
@example(Mixture([Poisson(2.0), Empirical([-1.0, 0.0])], [0.5, 0.5]), (-1.0, 0.0, 1.0))
def test_mixture_lattice_verdict_matches_the_enumeration(mix, lattice):
    try:
        e = Evidence.lattice_support(*lattice)
    except ValueError:
        return
    assert _decided_verdict(mix, e) == _enumerated_verdict(mix, e), lattice


def test_a_poisson_mixture_on_a_lattice_is_decided_without_listing_it(monkeypatch):
    def refuse(self):
        raise AssertionError("possible_values was called")

    monkeypatch.setattr(Evidence, "possible_values", refuse)
    counts = Evidence.lattice_support(0.0, 9e6, 1.0)
    assert never_falsifiable(Mixture([Poisson(2.0), Poisson(9.0)], [0.5, 0.5]), counts) is True
    assert never_falsifiable(Mixture([Poisson(2.0), Empirical([0.5])], [0.5, 0.5]), counts) is True
    assert never_falsifiable(
        Mixture([Poisson(2.0), Poisson(9.0)], [0.5, 0.5]), Evidence.lattice_support(0.5, 9e6, 1.0)
    ) is False


def test_other_discrete_families_still_enumerate_the_lattice():
    e = Evidence.lattice_support(0.0, 3.0, 1.0)
    assert never_falsifiable(Empirical([0.0, 1.0, 2.0, 3.0]), e) is True
    assert never_falsifiable(Empirical([0.0, 1.0, 3.0]), e) is False
    mix = Mixture([Poisson(2.0), Empirical([0.5])], [0.5, 0.5])
    assert never_falsifiable(mix, Evidence.lattice_support(0.0, 5.0, 0.5)) is False
    assert never_falsifiable(mix, e) is True


_BLOCK = falsification._LATTICE_BLOCK


@st.composite
def _long_lattice_cases(draw):
    """(dist, lattice, index of the first point with no atom, or inf) on
    lattices two to four blocks long, which no family hook decides."""
    count = draw(st.integers(2, 4)) * _BLOCK + draw(st.integers(-1, 1))
    kind = draw(st.sampled_from(["empirical", "mixture", "poisson"]))
    if kind == "poisson":
        # past 2**52 the points lo + 0.5 k round to integers, so every one is a count
        lo = draw(st.sampled_from([2.0**52, 2.0**52 + 6]))
        return Poisson(draw(st.floats(0.01, 50.0))), (lo, lo + 0.5 * (count - 1), 0.5), math.inf
    miss = draw(st.one_of(st.integers(0, count), st.just(count), st.integers(count - _BLOCK, count)))
    extra = draw(st.lists(st.integers(1, 3 * count), max_size=3))
    if kind == "empirical":
        lo = draw(st.sampled_from([-7.0, 0.0, 3.0]))
        atoms = lo + np.arange(miss, dtype=float)
        dist = Empirical(np.concatenate([atoms, [lo - 1.5], [lo + miss + x + 0.25 for x in extra]]))
        return dist, (lo, lo + (count - 1), 1.0), miss
    # a Poisson holds the integers, an empirical the halves below a cut (and
    # -1, off the lattice, so that it is never empty)
    halves = miss // 2
    empirical = Empirical(np.concatenate([0.5 + np.arange(halves, dtype=float), [-1.0]]))
    dist = Mixture([Poisson(draw(st.floats(0.01, 50.0))), empirical], [0.5, 0.5])
    return dist, (0.0, 0.5 * (count - 1), 0.5), min(2 * halves + 1, count)


@settings(max_examples=60, deadline=None)
@given(_long_lattice_cases())
def test_a_lattice_is_checked_block_by_block_as_the_enumeration_checks_it(case):
    dist, lattice, miss = case
    e = Evidence.lattice_support(*lattice)
    want = bool(np.all(dist.has_atom(e.possible_values())))
    assert want == (miss >= e._lattice_count())
    assert never_falsifiable(dist, e) is want


def test_an_uncovered_lattice_stops_at_its_first_block():
    e = Evidence.lattice_support(0.0, 9e6, 1.0)
    tracemalloc.start()
    try:
        verdict = never_falsifiable(Empirical([0.0, 1.0, 2.0]), e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict is False
    assert peak < 8e6


# ---------------------------------------------------------------------------
# the array verdict against the per-observation loop
# ---------------------------------------------------------------------------


def _loop_verdict(dist, obs, mode, resolution=None):
    """One Observation and one scalar support query per value, in input order:
    the loop is_falsified ran before it judged all values in one call."""
    observations = [o if isinstance(o, Observation) else Observation(float(o), resolution) for o in obs]
    if not observations:
        raise ValueError("need at least one observation")
    if mode == "point_event":
        for o in observations:
            if dist.kind == "continuous" or not dist.has_atom(o.value):
                return FalsificationVerdict(falsified=True, mode=mode, witness=o)
        return FalsificationVerdict(falsified=False, mode=mode)
    for o in observations:
        if o.resolution is None:
            raise ValueError("interval_event mode requires observations with a resolution")
        if not dist.has_mass(o.value - o.resolution / 2, o.value + o.resolution / 2):
            return FalsificationVerdict(falsified=True, mode=mode, witness=o)
    return FalsificationVerdict(falsified=False, mode=mode)


def _outcome(judge, *args):
    try:
        return judge(*args)
    except ValueError as err:
        return f"ValueError: {err}"


_VALUES = st.sampled_from([-1.0, 0.0, 0.3, 1.0, 2.0, 2.5, 3.0, 4.0, 7.0, 11.0, 50.0])
_RESOLUTIONS = st.sampled_from([None, 0.1, 0.5, 1.0, 3.0])
_DISTS = st.sampled_from([
    Poisson(2.0),
    Empirical([0.0, 1.0, 1.0, 4.0, 7.0]),
    Mixture([Poisson(1.0), Empirical([2.5, 50.0])], [0.5, 0.5]),
    Normal(0.0, 1.0),
    TruncatedNormal(1.0, 2.0, lower=0.5),
    StudentT(4.0, np.linspace(-1.0, 1.0, 6), np.full(6, 2.0)),  # a batch
])


@st.composite
def _observations(draw):
    items = draw(st.lists(st.one_of(_VALUES, st.builds(Observation, _VALUES, _RESOLUTIONS)), min_size=1, max_size=6))
    if all(isinstance(o, float) for o in items) and draw(st.booleans()):
        return np.array(items)
    return items


@settings(max_examples=400, deadline=None)
@given(_DISTS, _observations(), st.sampled_from(["point_event", "interval_event"]), _RESOLUTIONS)
def test_array_verdict_matches_the_per_observation_loop(dist, obs, mode, resolution):
    want = _outcome(_loop_verdict, dist, obs, mode, resolution)
    got = _outcome(is_falsified, dist, obs, mode, resolution)
    assert got == want
    if isinstance(want, FalsificationVerdict) and want.falsified and isinstance(obs, list):
        # an input Observation comes back as the witness itself, as in the loop
        assert any(o is got.witness for o in obs) == any(o is want.witness for o in obs)


def test_array_verdict_builds_one_observation_at_most(monkeypatch):
    import probleak.falsification as falsification

    built = []

    class Counting(Observation):
        def __post_init__(self):
            built.append(self.value)
            super().__post_init__()

    monkeypatch.setattr(falsification, "Observation", Counting)
    counts = np.arange(1000.0)
    assert not is_falsified(Poisson(3.0), counts).falsified
    assert not is_falsified(Poisson(3.0), counts, mode="interval_event", resolution=0.5).falsified
    assert built == []
    verdict = is_falsified(Poisson(3.0), np.append(counts, [2.5, 3.5]))
    assert built == [2.5] and verdict.witness.value == 2.5


def test_resolution_must_be_positive():
    with pytest.raises(ValueError, match="resolution must be positive"):
        is_falsified(Poisson(3.0), [1.0], mode="interval_event", resolution=0.0)


@settings(max_examples=200, deadline=None)
@example(Poisson(2.0), [(-3.0, 2.0), (-0.5, 0.5), (2.2, 0.5), (-1.0, 0.0)])
@given(
    _DISTS,
    st.lists(st.tuples(st.floats(-5.0, 60.0), st.floats(0.0, 6.0)), min_size=1, max_size=8),
)
def test_has_mass_answers_elementwise_as_it_answers_each_window(dist, windows):
    lo = np.array([a for a, _ in windows])
    hi = lo + np.array([w for _, w in windows])
    got = dist.has_mass(lo, hi)
    assert isinstance(got, np.ndarray) and got.dtype == bool and got.shape == lo.shape
    each = [dist.has_mass(float(a), float(b)) for a, b in zip(lo, hi)]
    assert all(type(v) is bool for v in each)
    assert got.tolist() == each
    if isinstance(dist, Poisson):  # the integer-count rule, written out
        assert each == [math.ceil(max(a, 0.0)) <= math.floor(b) for a, b in zip(lo, hi)]
