"""Strict falsification: only probability-zero events falsify, never small ones."""

import math

import pytest

from probleak import (
    Empirical,
    Evidence,
    FalsificationVerdict,
    Normal,
    Observation,
    Poisson,
    StudentT,
    is_falsified,
    never_falsifiable,
)


def test_observation_window():
    obs = Observation(2.0, resolution=0.5)
    assert obs.window() == (1.75, 2.25)
    with pytest.raises(ValueError, match="resolution"):
        Observation(2.0).window()
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
