"""
When calibration is impossible by construction.

Generate data whose true responses are nonnegative (a truncated-normal
truth), fit the standard flat-prior regression, and score it on a large
holdout. Because every predictive in the family leaks at least ell_min
of its mass below zero, no probability-calibration curve can reach the
diagonal: the forecast says "5% chance below zero" week after week and
the event never happens.

The control run repeats everything with an untruncated truth; the same
model family then passes every check. The failure is not sampling noise
and not a bug in the fitting; it is the model family contradicting the
evidence.

Run:  python3 demos/impossible_calibration.py   (about 1 s on a 2-core Xeon)
"""

from probleak import (
    DEFAULT_CONTROL_CONFIG,
    DEFAULT_TRUNCATED_CONFIG,
    impossibility_experiment,
)


def describe(tag, rep):
    print(f"\n--- {tag} ---")
    print(f"minimum leakage over the holdout: ell_min = {rep.ell_min:.4f}")
    print(f"mean leakage: {rep.mean_leakage:.4f}")
    ks_verdict = "REJECTS" if rep.ks_stat > rep.ks_critical else "passes"
    print(f"PIT KS = {rep.ks_stat:.4f} vs critical {rep.ks_critical:.4f} "
          f"-> {ks_verdict}")
    if rep.p_star is not None:
        print(f"probability calibration at p* = ell_min/2 = {rep.p_star:.4f}:")
        print(f"  observed frequency = {rep.frequency_at_p_star:.4f} "
              f"(deviation {rep.deviation_at_p_star:.4f})")
        print(f"marginal CDF gap at the support bound: "
              f"{rep.marginal_gap_at_bound:.4f}")
    if rep.mean_crps_model is not None:
        print(f"mean CRPS: fitted model {rep.mean_crps_model:.4f} vs "
              f"oracle knowing the truth {rep.mean_crps_oracle:.4f}")


def main():
    print("truth: y = 0.2 + 0.3 x + e, e ~ N(0, 1), y resampled until y >= 0")
    print(f"training n = {DEFAULT_TRUNCATED_CONFIG.n}, holdout n = 5000, "
          f"seed = {DEFAULT_TRUNCATED_CONFIG.seed}")

    rep = impossibility_experiment(DEFAULT_TRUNCATED_CONFIG)
    describe("truncated truth", rep)

    print("\nNo PIT value can fall below ell_min, so the low-p end of the")
    print("probability-calibration curve is pinned at zero frequency. The")
    print("deviation there equals p itself: the forecast can never be right.")

    ctrl = impossibility_experiment(DEFAULT_CONTROL_CONFIG)
    describe("untruncated control", ctrl)

    print("\nSame family, same fitting code, same seeds; the only change is")
    print("that the truth no longer respects a support bound the model")
    print("ignores. The diagnostics all pass. Leakage was the problem.")


if __name__ == "__main__":
    main()
