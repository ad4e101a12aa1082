"""
A three-point regression that leaks.

Fit y on x for x = (0, 1, 2), y = (0, 1, 3) under a flat prior. The
predictive at a new x is a Student t, and with n = 3 and two coefficients
it has a single degree of freedom: a Cauchy. If y is known to be
nonnegative (a count of defects, a waiting time, a concentration), the
model still pours probability below zero. This script measures how much.

Run:  python3 demos/leaky_regression.py
"""

import numpy as np

from probleak import (
    Dataset,
    Evidence,
    ModelSpec,
    fit_model,
    leakage,
    leakage_profile,
    mc_leakage,
    predictive_at,
)


def main():
    data = Dataset(
        columns={"y": np.array([0.0, 1.0, 3.0]), "x": np.array([0.0, 1.0, 2.0])}
    )
    spec = ModelSpec(response="y", covariates=("x",))
    result = fit_model(data, spec)

    print("fitted coefficients:", result.coefficients())
    print(f"n = {result.n}, p = {result.p}, residual df = {result.df}")

    support = Evidence.interval(0.0, np.inf, description="y is nonnegative")

    dist = predictive_at(result, {"x": 1.0})
    print(f"\npredictive at x* = 1: t(df={dist.df}, loc={dist.loc:.4f}, "
          f"scale={dist.scale:.4f})")

    report = leakage(dist, support, x_star={"x": 1.0})
    print(f"leakage at x* = 1: {report.leakage:.6f}")
    print(f"  mass below 0: {report.below_mass:.6f}")
    print(f"  mass above the support: {report.above_mass:.6f}")

    # the analytic number should survive a blunt simulation
    est = mc_leakage(dist, support, n=10**6, seed=0)
    print(f"Monte Carlo cross-check: {est.estimate:.6f} "
          f"(stderr {est.stderr:.2e}, n = {est.n})")

    # leakage is a function of where you predict, not a single number
    print("\nleakage along the covariate axis:")
    grid = {"x": np.linspace(-1.0, 3.0, 9)}
    for rep in leakage_profile(result, support, grid):
        x = rep.x_star["x"]
        print(f"  x* = {x:+.1f}   leakage = {rep.leakage:.4f}")

    print("\nThe leak grows as the predicted center slides toward the")
    print("impossible region: extrapolating left of the data, most of the")
    print("predictive mass lands below zero.")


if __name__ == "__main__":
    main()
