"""Write the default output of every probleak subcommand into one directory.

Two checkouts' file sets can then be compared with ``diff -r``: a change that
is meant to keep the CLI's default output byte-identical shows no difference.

Run:  PYTHONPATH=<checkout>/src python3 tools/cli_outputs.py OUTDIR

probleak is imported from PYTHONPATH, so one copy of this script writes the
file set of any checkout. It works inside OUTDIR with relative file names, so
fields that echo a path (``curves_file`` in a report) compare too. The inputs
are ``simulate`` outputs and part of the set: the call-center table and two
truncated-regression tables of 500 and 20,000 rows. ``exit_codes.txt`` holds
each command's exit code and anything it wrote to stderr.

BLAS gets one thread, as in perfbench, so that the file set does not depend
on the core count: a least-squares fit of a large table gives other last
digits with another number of BLAS threads.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")  # before numpy is first imported

from probleak.cli import main  # noqa: E402

TRUNCATED = {
    "coefficients": [1.0, 0.5, -0.3],
    "noise_sd": 1.0,
    "covariate_ranges": [[0.0, 5.0], [0.0, 3.0]],
    "support_lower": 0.0,
}
SIM_MODEL = ["--response", "y", "--covariates", "x1,x2"]
SIM_POINT = {"x1": 2.5, "x2": 1.0}
# name: (simulate arguments, model arguments, JSON point, leak-profile grid, falsify value)
TABLES = {
    "callcenter": (
        ["callcenter"],
        ["--response", "abandonment", "--covariates", "calls,absentees,location"],
        {"calls": 1500.0, "absentees": 5.0, "location": "B"},
        "calls=0:3000:201",
        "0.5",
    ),
    "sim500": (["truncated", "--config", "sim500.json"], SIM_MODEL, SIM_POINT, "x1=-2:7:201", "2.0"),
    "sim20000": (["truncated", "--config", "sim20000.json"], SIM_MODEL, SIM_POINT, "x1=-2:7:5001", "2.0"),
}


def _commands(name, sim, model, point, grid, value):
    data = ["--data", f"{name}.csv", *model]
    at_point = ["--at", json.dumps(point)]
    # the same point with its whole-number values as JSON integers, which
    # x_star must echo as integers
    int_point = {k: int(v) if isinstance(v, float) and v.is_integer() else v for k, v in point.items()}
    # the call-center table has a categorical covariate, so falsify and the
    # profile's fixed covariates need the JSON point rather than medians
    pinned = at_point if name == "callcenter" else []
    support = ["--support", "[0,inf)"]
    yield "simulate", ["simulate", *sim, "--out", f"{name}.csv"]
    yield "fit", ["fit", *data, "--out", f"{name}_fit.json"]
    for at in ("medians", "minima"):
        yield f"leak_{at}", ["leak", *data, *support, "--at", at, "--out", f"{name}_leak_{at}.json"]
    yield "leak_point", ["leak", *data, *support, *at_point, "--out", f"{name}_leak_point.json"]
    yield "leak_point_int", ["leak", *data, *support, "--at", json.dumps(int_point),
                             "--out", f"{name}_leak_point_int.json"]
    yield "leak_profile", [
        "leak-profile", *data, *support, "--grid", grid, *pinned, "--out", f"{name}_profile.csv",
    ]
    yield "falsify_point", ["falsify", *data, "--value", value, *pinned,
                            "--out", f"{name}_falsify_point.json"]
    yield "falsify_interval", ["falsify", *data, "--value", value, *pinned, "--mode", "interval",
                               "--resolution", "0.01", "--out", f"{name}_falsify_interval.json"]
    yield "calibrate", ["calibrate", *data, "--holdout", "0.25", "--curves", f"{name}_curves",
                        "--out", f"{name}_calibrate.json"]
    yield "report", ["report", *data, *support, "--out-curves", f"{name}_report_curves.csv",
                     "--out", f"{name}_report.json"]
    yield "report_resolution", [
        "report", *data, *support, "--resolution", "0.01",
        "--out-curves", f"{name}_report_resolution_curves.csv",
        "--out", f"{name}_report_resolution.json",
    ]
    yield "report_point", ["report", *data, *support, *at_point,
                           "--out-curves", f"{name}_report_point_curves.csv",
                           "--out", f"{name}_report_point.json"]


def write_outputs(outdir: Path) -> int:
    """Write the file set into ``outdir``; return the number of failed commands."""
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    for n in (500, 20000):
        Path(f"sim{n}.json").write_text(json.dumps({**TRUNCATED, "n": n}) + "\n")
    log, failed = [], 0
    for name, spec in TABLES.items():
        for label, argv in _commands(name, *spec):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            failed += code != 0
            log.append(f"{name} {label} {code}\n{err.getvalue()}")
    Path("exit_codes.txt").write_text("".join(log))
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: cli_outputs.py OUTDIR")
    sys.exit(1 if write_outputs(Path(sys.argv[1])) else 0)
