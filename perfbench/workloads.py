"""The benchmark's four workloads.

Each workload makes its seeded inputs at set-up, then offers three steps per
op: ``prepare(i)`` picks op i's input (untimed), ``op(inp)`` runs the program
on it (timed), and ``check(inp, out)`` compares the outputs with the
independent computations in ``oracles.py`` (untimed) and returns the names
of the checks that failed. Op -1 is the untimed warm-up. The checks import
``oracles`` (and with it ``scipy.stats``) only when first called, so the
set-up probes time just what a user's first op needs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

import probleak
from probleak import cli

def _seed(*key: int) -> int:
    """A program seed below 2**31 derived from the run seed and an input key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0] >> 1)


def _close(tags: list, tag: str, got, want, rtol: float, atol: float = 1e-12) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=rtol, atol=atol):
        tags.append(tag)


def _close_prob(tags: list, tag: str, got, want, df: float) -> None:
    # probabilities from the program's Student-t CDF: its tail form rounds
    # df / (df + t^2) to 1 near t = 0 and loses up to about 0.4 sqrt(eps df)
    # there (README, "Known faults"); elsewhere it keeps relative accuracy
    _close(tags, tag, got, want, 1e-7, math.sqrt(np.finfo(float).eps * df))


def _read_csv(path: Path) -> tuple[list, list]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class Workload:
    name = ""
    rows_per_op = 0  # units of work in one op, for rows_per_s
    round_ops = 1  # a run attempts whole rounds of this many ops
    known_faults: frozenset = frozenset()  # check names that fail from a known program fault

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.outputs: list[Path] = []  # files one op writes
        self.crps_gap = 0.0  # largest relative gap of a quadrature CRPS from the closed form

    def _note_crps(self, got: float, want: float) -> None:
        # recorded, not a check: the program's quadrature CRPS misses by up to
        # ~1e-5 on rare inputs, so a check at its accuracy would fail on some
        # seeds only (README, "Known faults")
        self.crps_gap = max(self.crps_gap, abs(got - want) / abs(want))

    def prepare(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# cli_audit: the analyst's report + calibrate session on a two-site table
# ---------------------------------------------------------------------------


class CliAudit(Workload):
    name = "cli_audit"
    per_site = 52  # the paper's two-site shape: 52 rows per location
    rows_per_op = 2 * per_site
    # op time depends on the table (quadrature effort varies with the data),
    # so a run spreads its ops over many small tables
    pool = 40

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.inputs = []
        for j in range(self.pool):
            path = workdir / f"callcenter-{j}.csv"
            cfg = probleak.CallCenterConfig(per_location_n=self.per_site, seed=_seed(seed, j))
            probleak.gen_callcenter_like(cfg).to_csv(path)
            self.inputs.append(path)
        self.report, self.curves, self.calib = (
            workdir / "report.json", workdir / "curves.csv", workdir / "calibrate.json",
        )
        self.outputs = [self.report, self.curves, self.calib]
        self._refs: dict = {}

    def prepare(self, i):
        return i % self.pool

    def op(self, j):
        model = ["--data", str(self.inputs[j]), "--response", "abandonment",
                 "--covariates", "calls,absentees,location"]
        return (
            cli.main(["report", *model, "--support", "[0,inf)", "--resolution", "0.01",
                      "--out-curves", str(self.curves), "--out", str(self.report)]),
            cli.main(["calibrate", *model, "--holdout", "0.25", "--out", str(self.calib)]),
        )

    def _reference(self, j):
        if j in self._refs:
            return self._refs[j]
        import oracles

        header, rows = _read_csv(self.inputs[j])
        cols = {name: [r[k] for r in rows] for k, name in enumerate(header)}
        y = np.array(cols["abandonment"], dtype=float)
        calls = np.array(cols["calls"], dtype=float)
        absent = np.array(cols["absentees"], dtype=float)
        site_b = np.array([v == "B" for v in cols["location"]], dtype=float)
        X = np.column_stack([np.ones(y.size), calls, absent, site_b])
        n = y.size
        n_hold = int(round(0.25 * n))
        perm = np.random.default_rng(0).permutation(n)  # the calibrate split at --seed 0
        hold, train = np.sort(perm[:n_hold]), np.sort(perm[n_hold:])
        ref = {
            "y": y, "X": X, "fit": oracles.refit(X, y),
            "null": oracles.refit(np.ones((n, 1)), y),
            "at_medians": np.array([[1.0, np.median(calls), np.median(absent), b] for b in (0.0, 1.0)]),
            "at_minima": np.array([[1.0, calls.min(), absent.min(), b] for b in (0.0, 1.0)]),
            "hold": hold, "train_fit": oracles.refit(X[train], y[train]),
        }
        self._refs[j] = ref
        return ref

    def check(self, j, codes):
        import oracles
        from scipy import stats

        if codes != (0, 0):
            return ["exit-code"]
        tags: list = []
        ref = self._reference(j)
        y, X, fit = ref["y"], ref["X"], ref["fit"]
        rep = json.loads(self.report.read_text())

        _close(tags, "report.coefficients", list(rep["model"]["coefficients"].values()), fit["beta"], 1e-8)
        _close(tags, "report.s2", rep["model"]["s2"], fit["s2"], 1e-8)
        null = oracles.t_params(ref["null"], np.ones((1, 1)))
        _close_prob(tags, "report.leakage.null_x", rep["leakage"]["null_x"]["leakage"],
                    stats.t.cdf(0.0, *null)[0], null[0])
        for key in ("at_medians", "at_minima"):
            got = [r["leakage"] for r in rep["leakage"][key]]
            _close_prob(tags, f"report.leakage.{key}", got,
                        stats.t.cdf(0.0, *oracles.t_params(fit, ref[key])), fit["df"])
        if rep["falsification"] != {"falsified": False, "mode": "interval_event"}:
            tags.append("report.falsification")

        df, loc, scale = oracles.t_params(fit, X)
        pits = stats.t.cdf(y, df, loc, scale)
        cal = rep["calibration"]
        if cal["n_cases"] != y.size:
            tags.append("report.n_cases")
        _close_prob(tags, "report.ks_stat", cal["ks_stat"], stats.kstest(pits, "uniform").statistic, df)
        self._note_crps(cal["mean_crps"], np.mean(oracles.crps_t(y, df, loc, scale)))

        header, rows = _read_csv(self.curves)
        if header != ["y", "density_null", "density_A", "density_B", "marker"]:
            tags.append("curves.header")
        else:
            grid = np.array([r[0] for r in rows], dtype=float)
            dens = np.array([r[1:4] for r in rows], dtype=float)
            want = np.column_stack(
                [stats.t.pdf(grid, *null)]
                + [stats.t.pdf(grid, *oracles.t_params(fit, row)) for row in ref["at_medians"]]
            )
            _close(tags, "curves.density", dens, want, 1e-9, 1e-300)
            if [(float(r[0]), r[4]) for r in rows if r[4]] != [(0.0, "support_bound")]:
                tags.append("curves.support_bound")

        doc = json.loads(self.calib.read_text())
        hold = ref["hold"]
        if (doc["n_holdout"], doc["n_train"]) != (hold.size, y.size - hold.size):
            tags.append("calibrate.split")
            return tags
        df, loc, scale = oracles.t_params(ref["train_fit"], X[hold])
        y_hold = y[hold]
        _close_prob(tags, "calibrate.pit", doc["pit_values"], stats.t.cdf(y_hold, df, loc, scale), df)
        self._note_crps(doc["mean_crps"], np.mean(oracles.crps_t(y_hold, df, loc, scale)))
        curve = np.array(doc["marginal_curve"], dtype=float)
        mean_cdf = stats.t.cdf(curve[:, :1], df, loc, scale).mean(axis=1)
        emp = (y_hold[None, :] <= curve[:, :1]).mean(axis=1)
        _close_prob(tags, "calibrate.marginal_curve", curve[:, 1:], np.column_stack([mean_cdf, emp]), df)
        return tags


# ---------------------------------------------------------------------------
# leak_scan: a leakage profile and a point audit on a large table
# ---------------------------------------------------------------------------


class LeakScan(Workload):
    name = "leak_scan"
    n = 20_000
    grid = (-2.0, 3.0, 5001)  # x1 from below to above the data's [0, 1]
    rows_per_op = n
    pool = 4  # op time hardly depends on the table, and each takes 0.15 s to make

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.inputs = []
        for j in range(self.pool):
            path = workdir / f"truncated-{j}.csv"
            cfg = probleak.SimConfig(
                n=self.n, coefficients=(0.2, 0.3, 0.4), noise_sd=1.0,
                covariate_ranges=((0.0, 1.0), (0.0, 1.0)), support_lower=0.0, seed=_seed(seed, j),
            )
            probleak.gen_truncated_regression(cfg).to_csv(path)
            self.inputs.append(path)
        self.profile, self.leak = workdir / "profile.csv", workdir / "leak.json"
        self.outputs = [self.profile, self.leak]
        self._refs: dict = {}

    def prepare(self, i):
        return i % self.pool

    def op(self, j):
        lo, hi, count = self.grid
        model = ["--data", str(self.inputs[j]), "--response", "y", "--covariates", "x1,x2",
                 "--support", "[0,inf)"]
        return (
            cli.main(["leak-profile", *model, "--grid", f"x1={lo}:{hi}:{count}", "--out", str(self.profile)]),
            cli.main(["leak", *model, "--at", "minima", "--out", str(self.leak)]),
        )

    def _reference(self, j):
        if j not in self._refs:
            import oracles

            header, rows = _read_csv(self.inputs[j])
            data = np.array(rows, dtype=float)
            cols = {name: data[:, k] for k, name in enumerate(header)}
            X = np.column_stack([np.ones(self.n), cols["x1"], cols["x2"]])
            self._refs[j] = (X, oracles.refit(X, cols["y"]))
        return self._refs[j]

    def check(self, j, codes):
        import oracles
        from scipy import stats

        if codes != (0, 0):
            return ["exit-code"]
        tags: list = []
        X, fit = self._reference(j)
        header, rows = _read_csv(self.profile)
        prof = np.array(rows, dtype=float)
        grid = np.linspace(*self.grid)
        if header != ["x1", "leakage"] or prof.shape != (grid.size, 2):
            return ["profile.shape"]
        _close(tags, "profile.grid", prof[:, 0], grid, 1e-15, 0.0)
        rows_at = np.column_stack([np.ones(grid.size), grid, np.full(grid.size, np.median(X[:, 2]))])
        _close_prob(tags, "profile.leakage", prof[:, 1], stats.t.cdf(0.0, *oracles.t_params(fit, rows_at)),
                    fit["df"])

        reports = json.loads(self.leak.read_text())["reports"]
        want = stats.t.cdf(0.0, *oracles.t_params(fit, X.min(axis=0)))
        if len(reports) != 1:
            return tags + ["leak.reports"]
        rep = reports[0]
        _close_prob(tags, "leak.minima", [rep["leakage"], rep["below_mass"]], [want[0], want[0]], fit["df"])
        if rep["above_mass"] != 0.0 or rep["complete"]:
            tags.append("leak.parts")
        return tags


# ---------------------------------------------------------------------------
# count_audit: a Poisson model through the discrete paths of the library
# ---------------------------------------------------------------------------


class CountAudit(Workload):
    name = "count_audit"
    n_counts = 200
    never_n = 100_000
    rows_per_op = n_counts
    # even ops use the integer lattice, odd ops the offset decimal lattice
    # lattice(0.3, inf, 0.1), whose integers are 1, 2, 3, ...
    lattices = ((0.0, math.inf, 1.0), (0.3, math.inf, 0.1))
    round_ops = len(lattices)
    known_faults = frozenset({"leakage:lattice(0.3,inf,0.1)"})

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.evidence = [probleak.Evidence.lattice_support(*lat) for lat in self.lattices]
        self.integers = probleak.Evidence.lattice_support(0.0, float(self.never_n), 1.0)

    def prepare(self, i):
        rng = np.random.default_rng([self.seed, i + 1])
        rate = float(rng.uniform(10.0, 30.0))
        counts = rng.poisson(rate, size=self.n_counts).astype(float).tolist()
        return rate, counts, i % len(self.lattices), i + 1

    def op(self, inp):
        rate, counts, k, pit_seed = inp
        dist = probleak.Poisson(rate)
        return (
            probleak.leakage(dist, self.evidence[k]).leakage,
            probleak.never_falsifiable(dist, self.integers),
            probleak.is_falsified(dist, counts).falsified,
            probleak.pit([probleak.ForecastCase(dist, y) for y in counts], pit_seed),
            [probleak.crps(dist, y) for y in counts],
        )

    def check(self, inp, out):
        import oracles
        from scipy import stats

        rate, counts, k, _ = inp
        leak, never, falsified, pits, scores = out
        tags: list = []
        lo, hi, step = self.lattices[k]
        _close(tags, f"leakage:lattice({lo:g},{hi},{step:g})", leak,
               oracles.poisson_lattice_leakage(rate, lo, hi, step), 0.0, 1e-10)
        on_lattice = oracles.lattice_integers(0.0, self.never_n, 1.0, self.never_n)
        # a Poisson has an atom at every lattice point iff they are all counts
        want_never = on_lattice.size == oracles.lattice_size(0.0, self.never_n, 1.0) and on_lattice[0] >= 0
        if never != bool(want_never):
            tags.append("never_falsifiable")
        y = np.asarray(counts)
        if falsified != bool(np.any((y < 0) | (y != np.floor(y)))):
            tags.append("is_falsified")
        pits = np.asarray(pits)
        if not np.all((pits >= stats.poisson.cdf(y - 1, rate) - 1e-12) & (pits <= stats.poisson.cdf(y, rate) + 1e-12)):
            tags.append("pit")
        _close(tags, "crps", scores, [oracles.poisson_crps(int(v), rate) for v in counts], 1e-9)
        return tags


# ---------------------------------------------------------------------------
# impossibility: the paper's calibration-failure experiment, both arms
# ---------------------------------------------------------------------------


class Impossibility(Workload):
    name = "impossibility"
    holdout = 40  # per arm
    arms = (probleak.DEFAULT_TRUNCATED_CONFIG, probleak.DEFAULT_CONTROL_CONFIG)
    rows_per_op = holdout * len(arms)

    def prepare(self, i):
        return [dataclasses.replace(arm, seed=_seed(self.seed, i + 1, k)) for k, arm in enumerate(self.arms)]

    def op(self, cfgs):
        return [probleak.impossibility_experiment(cfg, holdout_n=self.holdout, compute_crps=True) for cfg in cfgs]

    def check(self, cfgs, reports):
        import oracles
        from scipy import stats

        tags: list = []
        for cfg, rep in zip(cfgs, reports):
            arm = "truncated" if math.isfinite(cfg.support_lower) else "control"
            draw = (cfg.coefficients, cfg.noise_sd, cfg.covariate_ranges, cfg.support_lower)
            x, y, _ = oracles.truncated_regression_draw(cfg.seed, cfg.n, *draw)
            fit = oracles.refit(np.column_stack([np.ones(cfg.n), x]), y)
            xh, yh, mu = oracles.truncated_regression_draw(cfg.seed + 1, self.holdout, *draw)
            df, loc, scale = oracles.t_params(fit, np.column_stack([np.ones(self.holdout), xh]))
            pits = stats.t.cdf(yh, df, loc, scale)
            _close_prob(tags, f"{arm}.ks_stat", rep.ks_stat, stats.kstest(pits, "uniform").statistic, df)
            if rep.truncated != (arm == "truncated"):
                tags.append(f"{arm}.truncated")
            if arm == "truncated":
                _close_prob(tags, f"{arm}.ell_min", rep.ell_min,
                            np.min(stats.t.cdf(cfg.support_lower, df, loc, scale)), df)
                if rep.ell_min > 0.0 and rep.frequency_at_p_star != 0.0:
                    tags.append(f"{arm}.frequency_at_p_star")
            self._note_crps(rep.mean_crps_model, np.mean(oracles.crps_t(yh, df, loc, scale)))
            self._note_crps(rep.mean_crps_oracle,
                            np.mean(oracles.crps_tnorm(yh, mu, cfg.noise_sd, cfg.support_lower)))
        return tags


WORKLOADS = {cls.name: cls for cls in (CliAudit, LeakScan, CountAudit, Impossibility)}
