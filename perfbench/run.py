"""Benchmark of the probleak audit pipeline; see perfbench/README.md.

Run from the root of a probleak checkout:

    python3 perfbench/run.py --workload cli_audit --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Exits 2 when the checkout holds no ``src/probleak``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
MIN_OPS = 40  # so the tail percentile, the 75th, has ten ops beyond it
SETUP_PROBES = 3
# one BLAS thread: one process, one op at a time on a 2-core machine
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Reported times are wall times scaled by REF_S / (the reference's wall time
# next to them): the host's CPU speed swings by up to 70% within seconds to
# minutes, and a fixed computation timed beside each op swings with it
# (README, "Host-speed correction"). REF_S is about the reference's median
# time on a 2-vCPU Xeon VM, so corrected times read as seconds there.
REF_S = 0.030


def _ref_term(x: float) -> float:
    return math.exp(-x * x) * math.log1p(x)


def _ref_integrand(x: float) -> float:
    return math.exp(-0.5 * x * x) / (1.0 + x * x)


def _reference_seconds() -> float:
    """Wall time of a fixed computation that calls no probleak code.

    It does the program's kinds of work, scalar Python calls into ``math``
    and adaptive ``quad`` over a Python callable, so host slowdowns hit it
    about as hard as they hit an op.
    """
    from scipy import integrate

    t0 = time.perf_counter()
    total = 0.0
    for i in range(60_000):
        total += _ref_term(i * 1e-4)
    for _ in range(240):
        total += integrate.quad(_ref_integrand, -math.inf, math.inf)[0]
    return time.perf_counter() - t0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def _set_up(workloads, name: str, seed: int, workdir: Path):
    """Make the workload's seeded inputs and run one untimed warm-up op."""
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.op(wl.prepare(-1))
    return wl


def _setup_seconds(args, ref_s: float) -> float:
    """Median time for a fresh interpreter to be ready for its first op.

    The median of the raw probes is corrected by the run's median reference
    time ``ref_s``: a probe is one start, and the reference times next to a
    single start swing more than the start itself does.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
    print("perfbench: set-up probes " + " ".join(f"{t:.3f}" for t in times) + " s raw", file=sys.stderr)
    return statistics.median(times) * REF_S / ref_s


def _run_ops(wl, seconds: float, tracer):
    """Closed loop of whole rounds until both the time and MIN_OPS are reached.

    Returns the raw op times, the reference times taken before each op and
    after the last, each op's failed checks and the bytes the ops wrote.
    """
    times, refs, failures, out_bytes = [], [], [], 0
    deadline = time.perf_counter() + seconds
    i = 0
    while len(times) < MIN_OPS or time.perf_counter() < deadline:
        for _ in range(wl.round_ops):
            inp = wl.prepare(i)
            gc.collect()
            refs.append(_reference_seconds())
            t0 = time.perf_counter()
            try:
                out = wl.op(inp)
            except Exception:  # an op that raises is a failed op; the run goes on
                times.append(time.perf_counter() - t0)
                traceback.print_exc()
                failures.append(["raised"])
            else:
                times.append(time.perf_counter() - t0)
                failures.append(wl.check(inp, out))
            if tracer is not None:
                tracer.end_op()
                out_bytes += sum(p.stat().st_size for p in wl.outputs if p.exists())
            i += 1
    refs.append(_reference_seconds())
    return times, refs, failures, out_bytes


def _corrected(times, refs):
    """Each op's time scaled by REF_S over the reference's time around it."""
    return [t * REF_S / math.sqrt(before * after) for t, before, after in zip(times, refs, refs[1:])]


def _layer_metrics(tracer, times, out_bytes, crps_gap) -> dict:
    n = len(times)
    self_s, calls = tracer.totals()

    def s(*names):
        return sum(self_s.get(name, 0.0) for name in names) / n

    def c(name):
        return calls.get(name, 0) / n

    values = {
        "calibration.crps.s": (s("calibration.crps"), "s"),
        "calibration.crps.calls": (c("calibration.crps"), "count"),
        "predictive.cdf.calls": (c("predictive.cdf"), "count"),
        "predictive.cdf.points": (tracer.points / n, "count"),
        "predictive.cdf.s": (s("predictive.cdf"), "s"),
        "calibration.curves.s": (s("calibration.probability_calibration", "calibration.exceedance_calibration",
                                   "calibration.marginal_calibration"), "s"),
        "calibration.pit.s": (s("calibration.pit"), "s"),
        "regression.predictive_at.calls": (c("regression.predictive_at"), "count"),
        "regression.predictive_at.s": (s("regression.predictive_at"), "s"),
        "leakage.leakage_profile.s": (s("leakage.leakage_profile"), "s"),
        "regression.load_dataset.s": (s("regression.load_dataset"), "s"),
        "regression.fit_model.s": (s("regression.fit_model", "regression.build_design", "regression.fit"), "s"),
        "falsification.never_falsifiable.s": (s("falsification.never_falsifiable"), "s"),
        "predictive.has_atom.calls": (c("predictive.has_atom"), "count"),
        "leakage.leakage.s": (s("leakage.leakage"), "s"),
        "leakage.leakage.calls": (c("leakage.leakage"), "count"),
        "falsification.is_falsified.calls": (c("falsification.is_falsified"), "count"),
        "falsification.is_falsified.s": (s("falsification.is_falsified"), "s"),
        "predictive.quantile.calls": (c("predictive.quantile"), "count"),
        "predictive.quantile.s": (s("predictive.quantile"), "s"),
        "predictive.density.s": (s("predictive.density"), "s"),
        "simulation.generate.s": (s("simulation.gen_truncated_regression", "simulation.gen_callcenter_like"), "s"),
        "simulation.impossibility_experiment.s": (s("simulation.impossibility_experiment"), "s"),
        "cli.main.s": (s("cli.main"), "s"),
        "cli.output_bytes": (out_bytes / n, "bytes"),
        "calibration.crps.max_rel_gap": (crps_gap, "ratio"),
        "traced.op_p50_s": (statistics.median(times), "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "probleak" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'probleak'} is missing; run from a probleak checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 1
    workdir = WORK / f"{'probe' if args.setup_probe else 'run'}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = _set_up(workloads, args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        raw_times, refs, failures, out_bytes = _run_ops(wl, args.seconds, tracer)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = _corrected(raw_times, refs)
    print(f"perfbench: {len(times)} ops, op median {statistics.median(raw_times):.4f} s raw, "
          f"{statistics.median(times):.4f} s corrected; reference median {statistics.median(refs):.4f} s",
          file=sys.stderr)
    tags = [tag for op_tags in failures for tag in op_tags]
    for tag in sorted(set(tags)):
        known = " (known fault)" if tag in wl.known_faults else ""
        print(f"perfbench: check {tag} failed on {tags.count(tag)} ops{known}", file=sys.stderr)
    if wl.crps_gap:
        print(f"perfbench: largest relative gap of a quadrature CRPS from the closed form: {wl.crps_gap:.3g}",
              file=sys.stderr)
    if tracer is not None:
        metrics = _layer_metrics(tracer, times, out_bytes, wl.crps_gap)
        tracer.save(WORK / f"spans-{args.workload}.npz")
        (WORK / f"layers-{args.workload}.json").write_text(json.dumps(metrics, indent=1) + "\n")
    else:
        setup_s = _setup_seconds(args, statistics.median(refs))
        metrics = {
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "op_tail_s": {"value": statistics.quantiles(times, n=4, method="inclusive")[2], "unit": "s"},
            "rows_per_s": {"value": wl.rows_per_op * len(times) / sum(times), "unit": "rows/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": all(tag in wl.known_faults for tag in tags),
        "attempted": len(times),
        "failed": sum(1 for op_tags in failures if op_tags),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
