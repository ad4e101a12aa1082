"""Time and size this checkout (head) against another tree of the repository
(base), such as a ``git archive`` of the parent commit; print markdown tables.

Run:  python3 tools/bench.py BASE_CHECKOUT > report.md

One process holds both packages, the base's copied as ``probleak_base``. As
in perfbench, BLAS gets one thread there unless the caller set the thread
variables; the start-up rows run in subprocesses with the caller's
environment, as a user runs the CLI.
"""

import ast
import gc
import json
import math
import os
import re
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HEAD_SRC = Path(__file__).resolve().parent.parent / "src"


def code_lines(text: str) -> int:
    """The lines of Python ``text`` that are not blank, not comment-only and
    not part of a module, class or function docstring."""
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if i not in doc and line.strip() and not line.lstrip().startswith("#"))


def quartile_times(base, head, rounds: int, reps: int = 1) -> tuple[list, list]:
    """The quartiles [q1, median, q3] of the seconds per call of ``base()``
    and of ``head()`` over ``rounds`` interleaved rounds: each round times
    ``reps`` calls of one side after a ``gc.collect()``, then the other's,
    and the side that goes first alternates, base first in round 0."""
    calls, times = (base, head), ([], [])
    for i in range(rounds):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            gc.collect()
            start = time.perf_counter()
            for _ in range(reps):
                calls[side]()
            times[side].append((time.perf_counter() - start) / reps)
    return tuple(statistics.quantiles(side, n=4, method="inclusive") for side in times)


def table(title: str, header, rows) -> None:
    """Print a markdown table: a left-aligned first column, the rest right."""
    print(f"### {title}\n")
    print("| " + " | ".join(header) + " |")
    print("| --- |" + " ---: |" * (len(header) - 1))
    for row in rows:
        print("| " + " | ".join(map(str, row)) + " |")
    print()


def timing_table(title, unit, rounds, calls, base, head, reps=None) -> None:
    """Time each row of ``calls(pkg)``, {row: call}, on both packages with
    ``quartile_times``, ``reps[row]`` calls at a time, and print each side's
    median in ``unit`` with its quartiles, and the ratio of the medians."""
    scale, digits = {"ms": (1e3, 3), "µs": (1e6, 1)}[unit]

    def cell(q1, median, q3):
        return f"{median * scale:.{digits}f} ({q1 * scale:.{digits}f}–{q3 * scale:.{digits}f})"

    rows, head_calls = [], calls(head)
    for what, call in calls(base).items():
        b, h = quartile_times(call, head_calls[what], rounds, (reps or {}).get(what, 1))
        rows.append([what, cell(*b), cell(*h), f"{h[1] / b[1]:.3f}"])
    table(f"{title}: median (q1–q3) of {rounds} interleaved timings per call",
          ["call", f"base, {unit}", f"head, {unit}", "head / base"], rows)


def line_counts(base_src: Path) -> None:
    rows, totals = [], [0, 0, 0, 0]
    for name in sorted({p.name for src in (base_src, HEAD_SRC) for p in (src / "probleak").glob("*.py")}):
        paths = [src / "probleak" / name for src in (base_src, HEAD_SRC)]
        texts = [path.read_text() if path.exists() else "" for path in paths]
        counts = [text.count("\n") for text in texts] + [code_lines(text) for text in texts]
        totals = [t + c for t, c in zip(totals, counts)]
        rows.append([f"`src/probleak/{name}`", *counts])
    table("`src/probleak/*.py` lines", ["file", "base", "head", "base code", "head code"],
          [*rows, ["total", *totals]])


def start_up(base_src: Path, env: dict) -> None:
    # three interleaved runs a side of `-X importtime`: the module count is
    # exact; the import time is the least of three, summed over the top-level
    # imports' cumulative column (one space before the name: not nested)
    top = re.compile(r"^import time: +\d+ \| +(\d+) \| [^ ]", re.M)
    code = "import sys, probleak.cli; print(len(sys.modules))"
    runs = ([], [])
    for _ in range(3):
        for src, side in zip((base_src, HEAD_SRC), runs):
            side.append(subprocess.run([sys.executable, "-X", "importtime", "-c", code], capture_output=True,
                                       env={**env, "PYTHONPATH": str(src)}, text=True, check=True))
    table("Start-up: `import probleak.cli`", ["measure", "base", "head"], [
        ["modules in `sys.modules`", *(int(side[0].stdout) for side in runs)],
        ["`-X importtime` cumulative total, µs (least of 3)",
         *(min(sum(map(int, top.findall(run.stderr))) for run in side) for side in runs)],
    ])


def input_and_output(base, head, work: Path) -> None:
    # each side's loader on the same 50,000-row file, its writer from the
    # same table into a file of its own, and its CSV formatter on the CLI's
    # two CSV shapes, the leak profile (5,001 x 2) and the density curves
    # (2,002 x 4 and the marker), and on the profile with one cell in
    # 1e-5 <= |v| < 1e-4, which a float table writes a column at a time
    # rather than from one flat dump. Then each side's CLI on the cli_audit
    # benchmark's op, report and calibrate on one call-center table into the
    # same three files, so that every write after the first lands on an
    # existing file; its file writer alone, on the curve CSV over an existing
    # file; and its JSON text of the calibrate document. Last, each loader
    # under tracemalloc
    import numpy as np

    path, cc = work / "load-50k.csv", work / "callcenter.csv"
    table50k = head.gen_truncated_regression(head.SimConfig(
        n=50_000, coefficients=(1.0, 0.5, -0.3), noise_sd=1.0,
        covariate_ranges=((0.0, 5.0), (0.0, 3.0)), support_lower=0.0, seed=1,
    ))
    table50k.to_csv(path)
    x = np.linspace(-2.0, 3.0, 5001)
    profile = [x, head.StudentT(97.0, 0.2 + 0.3 * x, 1.0).cdf(0.0)]
    banded = [x, np.where(np.arange(x.size) == 2500, 3e-5, profile[1])]
    y = np.unique(np.append(np.linspace(-4.0, 9.0, 2001), 0.0))
    dens = [head.StudentT(df, loc, 1.5).density(y) for df, loc in ((101.0, 2.0), (99.0, 1.0), (99.0, 3.0))]
    marker = np.where(y == 0.0, "support_bound", "")
    head.gen_callcenter_like(head.CallCenterConfig(per_location_n=52, seed=1)).to_csv(cc)
    model = ["--data", str(cc), "--response", "abandonment", "--covariates", "calls,absentees,location"]
    report, curves, calib = (str(work / name) for name in ("report.json", "curves.csv", "calibrate.json"))

    argvs = (["report", *model, "--support", "[0,inf)", "--resolution", "0.01", "--out-curves", curves,
              "--out", report], ["calibrate", *model, "--holdout", "0.25", "--out", calib])

    def op(pkg):
        if [pkg.cli.main(argv) for argv in argvs] != [0, 0]:
            raise RuntimeError(f"{pkg.__name__}: report and calibrate did not both exit 0")

    op(head)
    text, doc = Path(curves).read_text(), json.loads(Path(calib).read_text())
    target = work / "writer.csv"
    target.write_text(text)

    def calls(pkg):
        csv_text, data = pkg._text._csv_text, pkg.Dataset(table50k.columns)
        return {
            "`load_dataset`, 50,000 rows": lambda: pkg.load_dataset(path),
            "`Dataset.to_csv`, 50,000 rows": lambda: data.to_csv(work / f"{pkg.__name__}.csv"),
            "CSV formatter, 5,001 x 2 (leak profile)": lambda: csv_text(["x1", "leakage"], profile),
            "CSV formatter, 2,002 x 4 and marker (density curves)":
                lambda: csv_text(["y", "a", "b", "c", "marker"], [y, *dens, marker]),
            "CSV formatter, 5,001 x 2 with one band cell (per-column path)":
                lambda: csv_text(["x1", "leakage"], banded),
            "`report` + `calibrate` (the `cli_audit` op)": lambda: op(pkg),
            f"file writer, {len(text) / 1e3:.0f} kB curve CSV over an existing file":
                lambda: pkg._text._write_text(target, (text,)),
            "JSON text of the calibrate document": lambda: pkg._text._json_text(doc),
        }

    timing_table("CSV I/O and the CLI's output stage", "ms", 15, calls, base, head)
    peaks = []
    for pkg in (base, head):
        tracemalloc.start()
        pkg.load_dataset(path)
        peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        tracemalloc.stop()
    table("`load_dataset` memory", ["call", "base peak, MB", "head peak, MB", "head / base"], [
        ["`load_dataset` (tracemalloc)", f"{peaks[0]:.2f}", f"{peaks[1]:.2f}", f"{peaks[1] / peaks[0]:.3f}"],
    ])


POISSON_RATES = (0.01, 20.0, 3000.0, 1e5)  # both sides of the CRPS's small-rate series, and far past count_audit's


def poisson_values(pkg, counts) -> bytes:
    """The bits of Poisson scores and quantiles over ``POISSON_RATES``;
    each value from a fresh instance and again from one that has scored
    the others."""
    values = []
    for rate in POISSON_RATES:
        ys = [-2.0, 0.5, *(math.floor(rate + (y - 20.0) * rate**0.5 / 4.5) for y in counts), 1e9]
        ps = (1e-13, 0.3, 0.5, 1.0 - 1e-13)
        dist = pkg.Poisson(rate)
        values += [pkg.crps(pkg.Poisson(rate), float(y)) for y in ys] + [pkg.crps(dist, float(y)) for y in ys]
        values += [pkg.Poisson(rate).quantile(p) for p in ps] + [dist.quantile(p) for p in ps]
    return struct.pack(f"{len(values)}d", *values)


def mp_mass_off(rate: float, contains):
    """The Poisson(rate) mass of the counts that ``contains`` rejects, as a
    40-digit mpmath sum over every count whose pmf can reach 1e-330, each
    pmf carried from the first by a recurrence."""
    import mpmath as mp
    import numpy as np

    with mp.workdps(40):
        r = mp.mpf(rate)
        first = max(0, math.floor(rate - 40.0 * math.sqrt(rate) - 40.0))
        last = math.ceil(rate + 45.0 * math.sqrt(rate) + 200.0)
        off = ~contains(np.arange(first, last + 1, dtype=float))
        pmf, total = mp.exp(first * mp.log(r) - r - mp.loggamma(first + 1)), mp.mpf(0)
        for count, is_off in zip(range(first, last + 1), off):
            if is_off:
                total += pmf
            pmf = pmf * r / (count + 1)
        return total


def count_leakages(base, head) -> None:
    """Each side's Poisson leakage at ``POISSON_RATES`` on four lattices:
    every count, the counts from 1 (as lattice(0.3, inf, 0.1)), the counts
    within a few standard deviations of the rate, and the even counts; then
    on two finite sets that hold the whole bulk, range(400) at rate 20 and
    range(2000) at rate 700. Each is shown as its error from a 40-digit
    mpmath sum: relative, or absolute where the exact value rounds to 0.0
    as a double."""
    cases = []
    for rate in POISSON_RATES:
        near = (float(max(math.floor(rate - 2.0 * rate**0.5), 0)), math.floor(rate + 3.0 * rate**0.5) + 1.0, 1.0)
        for lattice in ((0.0, math.inf, 1.0), (0.3, math.inf, 0.1), near, (0.0, math.inf, 2.0)):
            cases.append((rate, f"lattice{lattice}", lambda pkg, lattice=lattice: pkg.Evidence.lattice_support(*lattice)))
    for rate, n in ((20.0, 400), (700.0, 2000)):
        cases.append((rate, f"finite_set(range({n}))", lambda pkg, n=n: pkg.Evidence.finite_set(range(n))))
    rows = []
    for rate, name, evidence in cases:
        exact = mp_mass_off(rate, evidence(head).contains)
        errors = []
        for pkg in (base, head):
            got = pkg.leakage(pkg.Poisson(rate), evidence(pkg)).leakage
            errors.append(f"{float(abs(got - exact) / exact if float(exact) else abs(got - exact)):.1e}")
        rows.append([f"{rate:g}", name, f"{float(exact):.6e}", *errors])
    table("Poisson leakage on lattices and finite sets against 40-digit mpmath "
          "(error: relative, or absolute where the exact value rounds to 0)",
          ["rate", "evidence", "exact", "base error", "head error"], rows)


def scoring_and_fit(base, head) -> None:
    # the scalar paths count_audit runs per op, each on a fresh Poisson as
    # its op builds one, so that a memo on the instance is timed filling up;
    # one fresh Poisson at rate 3000, where work set up per instance rather
    # than per count would show; lattice leakage at rate 20,000, where a
    # cost that grows with the counts a lattice holds would show; a
    # two-component continuous mixture's quantile at four levels, each a
    # search over the mixture's CDF; fit at three design shapes (the
    # call-center table's, an experiment arm's, leak_scan's) and one
    # truncated experiment arm at the impossibility benchmark's holdout;
    # then whether both sides give the same bits, and each side's count
    # leakages on lattices and finite sets against mpmath
    import numpy as np

    counts = np.random.default_rng(1).poisson(20.0, size=200).astype(float).tolist()
    mixture_row = "`Mixture([Normal, StudentT]).quantile(p)`, p in {0.001, 0.3, 0.5, 0.999}"
    rng = np.random.default_rng(1)
    designs, fit_reps = {}, {}
    for n, p, count in ((104, 4, 200), (2000, 2, 200), (20000, 3, 20)):
        X = np.column_stack([np.ones(n), rng.uniform(0.0, 3000.0, size=(n, p - 1))])
        what = f"`fit`, {n:,} x {p}"
        designs[what], fit_reps[what] = (X, X @ rng.normal(size=p) + rng.normal(size=n)), count

    def calls(pkg):
        dist, normal = pkg.Poisson(20.0), pkg.Normal(0.3, 1.2)
        mixture = pkg.Mixture([pkg.Normal(0.0, 1.0), pkg.StudentT(3.0, 2.0, 0.5)], [0.3, 0.7])
        lattice = pkg.Evidence.lattice_support(0.0, 1e5, 1.0)
        decimal = pkg.Evidence.lattice_support(0.3, math.inf, 0.1)
        integers = pkg.Evidence.lattice_support(0.0, math.inf, 1.0)

        def scores():
            fresh = pkg.Poisson(20.0)
            return [pkg.crps(fresh, y) for y in counts]

        return {
            "200 `crps(Poisson, float)`, one fresh `Poisson(20.0)`": scores,
            "`Poisson(20.0).quantile(1 - 1e-13)`, fresh": lambda: pkg.Poisson(20.0).quantile(1.0 - 1e-13),
            "`leakage(Poisson(20.0), lattice(0.3, inf, 0.1))`, fresh":
                lambda: pkg.leakage(pkg.Poisson(20.0), decimal),
            "`leakage(Poisson(20000.0), lattice(0, inf, 1))`, fresh":
                lambda: pkg.leakage(pkg.Poisson(20000.0), integers),
            "`crps(Poisson(3000.0), 3000.0)`, fresh": lambda: pkg.crps(pkg.Poisson(3000.0), 3000.0),
            "`ForecastCase(Normal, float)`": lambda: pkg.ForecastCase(normal, 0.7),
            mixture_row: lambda: [mixture.quantile(p) for p in (0.001, 0.3, 0.5, 0.999)],
            "`never_falsifiable(Poisson, lattice(0, 1e5, 1))`":
                lambda: pkg.never_falsifiable(dist, lattice),
            **{what: (lambda X=X, y=y: pkg.fit(X, y)) for what, (X, y) in designs.items()},
            "`impossibility_experiment`, truncated arm, holdout 40":
                lambda: pkg.impossibility_experiment(pkg.DEFAULT_TRUNCATED_CONFIG, holdout_n=40),
        }

    reps = {**dict.fromkeys(calls(head), 20), "`ForecastCase(Normal, float)`": 2000, mixture_row: 5, **fit_reps}
    timing_table("Scalar scoring, `fit` and one impossibility arm", "µs", 21, calls, base, head, reps)
    identical = True
    for X, y in designs.values():
        b, h = base.fit(X, y), head.fit(X, y)
        identical &= b.s2 == h.s2 and all(getattr(b, part).tobytes() == getattr(h, part).tobytes()
                                          for part in ("beta_hat", "xtx_inverse"))
    for config in ("DEFAULT_TRUNCATED_CONFIG", "DEFAULT_CONTROL_CONFIG"):
        b, h = (pkg.impossibility_experiment(getattr(pkg, config), holdout_n=40) for pkg in (base, head))
        identical &= json.dumps(b.to_json()) == json.dumps(h.to_json()) and b.pits == h.pits
    identical &= poisson_values(base, counts) == poisson_values(head, counts)
    print("Identical β, s², `xtx_inverse`, report JSON and Poisson scores and quantiles on both sides:",
          "yes" if identical else "**no**")
    print()
    count_leakages(base, head)


def main(base_tree: Path) -> None:
    caller_env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")  # before numpy is first imported
    line_counts(base_tree / "src")
    start_up(base_tree / "src", caller_env)
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(base_tree / "src" / "probleak", Path(tmp) / "probleak_base")
        sys.path[:0] = [str(HEAD_SRC), tmp]
        import probleak.cli
        import probleak_base.cli

        input_and_output(probleak_base, probleak, Path(tmp))
        scoring_and_fit(probleak_base, probleak)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: bench.py BASE_CHECKOUT")
    main(Path(sys.argv[1]))
