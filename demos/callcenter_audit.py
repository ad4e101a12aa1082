"""
Auditing a call-center abandonment model.

Two locations, a year of weekly observations each: incoming calls,
absent agents, and the percentage of callers who hung up before an agent
answered. Abandonment percentages cannot be negative, yet a normal-theory
regression will happily predict that they are.

The audit asks four questions:
  1. How much probability does the fitted model place on impossible
     abandonment values, and where?
  2. Does ignoring the covariates (the null model) leak too?
  3. Is the model strictly falsified by the data it was fit to?
  4. Do the usual calibration diagnostics even notice?

Run:  python3 demos/callcenter_audit.py
"""

import numpy as np

from probleak import (
    Evidence,
    ForecastCase,
    ModelSpec,
    calibration_report,
    fit_model,
    gen_callcenter_like,
    is_falsified,
    ks_uniform,
    leakage,
    leakage_profile,
    predictive_at,
    predictive_rows,
)
from probleak.falsification import Observation


def main():
    data = gen_callcenter_like()
    print(f"dataset: {data.n} weekly rows, columns {', '.join(data.names)}")

    spec = ModelSpec(
        response="abandonment", covariates=("calls", "absentees", "location")
    )
    result = fit_model(data, spec)
    for name, value in result.coefficients().items():
        print(f"  {name:12s} {value:+.5f}")

    support = Evidence.interval(0.0, np.inf, description="abandonment >= 0")
    calls = data.column("calls")
    absentees = data.column("absentees")

    med = {"calls": float(np.median(calls)), "absentees": float(np.median(absentees))}
    lo = {"calls": float(calls.min()), "absentees": float(absentees.min())}

    print("\nleakage: predictive mass on impossible (negative) abandonment")
    # each week at both locations: four points, scored in one batch
    points = [(label, {**week, "location": loc})
              for label, week in (("typical week", med), ("best week", lo)) for loc in ("A", "B")]
    columns = {name: [point[name] for _, point in points] for name in ("calls", "absentees", "location")}
    for (label, point), rep in zip(points, leakage_profile(result, support, columns)):
        print(f"  location {point['location']}, {label:12s} leakage = {rep.leakage:.3f}")

    null_fit = fit_model(data, ModelSpec(response="abandonment", covariates=()))
    null_rep = leakage(predictive_at(null_fit, {}), support)
    print(f"  covariate-free model        leakage = {null_rep.leakage:.3f}")

    print("\nLocation A's 'best week' is an extrapolation: its easy corner")
    print("was never observed, so the model is asked to predict far from")
    print("its data and nearly all of its mass lands below zero.")

    # strict falsification: has an event of probability zero occurred?
    first_y = float(data.column("abandonment")[0])
    dist0 = predictive_at(
        result,
        {"calls": float(calls[0]), "absentees": float(absentees[0]),
         "location": str(data.column("location")[0])},
    )
    exact = is_falsified(dist0, [Observation(first_y)], mode="point_event")
    coarse = is_falsified(
        dist0, [Observation(first_y, resolution=0.1)], mode="interval_event"
    )
    print(f"\nstrict falsification on the first training row (y = {first_y:.3f}):")
    print(f"  exact observation:    falsified = {exact.falsified}")
    print(f"  observed to +-0.05:   falsified = {coarse.falsified}")
    print("A continuous model is falsified by any exact value (every point")
    print("has probability zero) but never by an interval it overlaps.")

    # in-sample calibration: the textbook diagnostics, every training row
    # one case of a single batch
    rows = predictive_rows(result, result.column_coding.encode_rows(data.columns))
    report = calibration_report([ForecastCase(rows, data.column("abandonment"))], seed=0)
    ks = ks_uniform(report.pit_values)
    critical = 1.36 / np.sqrt(data.n)
    print(f"\nin-sample calibration: KS = {ks:.4f} (5% critical {critical:.4f})")
    print(f"mean CRPS = {report.mean_crps:.4f}")
    verdict = "looks fine" if ks < critical else "rejects"
    print(f"The PIT histogram {verdict}; leakage is invisible to it unless")
    print("you know to look at the support bound.")


if __name__ == "__main__":
    main()
