"""Command-line audit front end.

Subcommands mirror the library: ingest a CSV, fit the flat-prior regression,
report leakage against declared evidence, check strict falsification, run
calibration diagnostics on a held-out split, generate simulated datasets, and
emit the plot data behind the leakage figure (predictive density curves with
the support bound marked).

Exit codes: 0 success; 1 usage error (message on stderr); 2 data or model
error, or an output file that cannot be written (message on stderr, or a
machine-readable {"error": ...} document on stdout when --json-errors is
set).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from ._text import _csv_text, _json_text, _parse_cell, _write_text
from .calibration import (
    ForecastCase,
    _pit_and_mean_crps,
    calibration_report,
    ks_uniform,
    probability_calibration,
)
from .exceptions import DataError, ModelError
from .falsification import is_falsified
from .leakage import Evidence, LeakageProfile, leakage, leakage_profile, parse_support
from .regression import (
    Dataset,
    ModelSpec,
    _encode_columns,
    _finite_floats,
    fit_model,
    load_dataset,
    predictive_at,
    predictive_rows,
)
from .simulation import (
    DEFAULT_TRUNCATED_CONFIG,
    CallCenterConfig,
    gen_callcenter_like,
    gen_truncated_regression,
)

__all__ = ["main"]


# the most points a --grid or --grid-points curve may have: every point is one
# float per column and one output row, so a mistyped count is refused up front
_MAX_GRID_POINTS = 10**6
_AT_KEYWORDS = ("medians", "minima")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; the contract reserves 2
    # for data/model errors, so usage problems are rerouted to status 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage().rstrip()}")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _emit(output, target) -> None:
    """Write ``output``, text or a JSON document, to the file ``target``, or
    to stdout when there is none.

    A document is indented as ``json.dumps(doc, indent=2)`` indents it. A
    file is rewritten in place (see ``_text._write_text``), so a failed
    write leaves only what it wrote."""
    text = output if isinstance(output, str) else _json_text(output)
    _write_text(target or sys.stdout, (text,))


def _load_data(path: str) -> Dataset:
    try:
        return load_dataset(path)
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from None
    except csv.Error as err:  # e.g. a cell past csv's field size limit
        raise DataError(f"cannot parse {path}: {err}") from None


def _load_and_spec(args):
    data = _load_data(args.data)
    covariates = tuple(c.strip() for c in args.covariates.split(",") if c.strip())
    spec = ModelSpec(args.response, covariates, intercept=not args.no_intercept)
    return data, spec


def _load_and_fit(args):
    data, spec = _load_and_spec(args)
    return data, spec, fit_model(data, spec)


def _parse_support_arg(text: str) -> Evidence:
    try:
        return parse_support(text)
    except ValueError as err:
        raise _UsageError(f"probleak: error: {err}") from None


def _check_resolution(resolution) -> None:
    if resolution is not None and not 0.0 < resolution < math.inf:
        raise _UsageError(f"probleak: error: --resolution must be positive and finite, got {resolution}")


def _parse_at(text: str, data: Dataset, spec: ModelSpec) -> dict:
    """--at as covariate columns: training medians/minima, or a JSON point as
    one-row object columns, which keep each value as given for the encoder to
    check and ``x_star`` to echo. A name not in --covariates is refused."""
    if text in _AT_KEYWORDS:
        return _training_points(data, spec, text)
    try:
        point = json.loads(text)
    except json.JSONDecodeError:
        raise _UsageError(
            f"probleak: error: --at must be medians, minima, or a JSON object, got {text!r}"
        ) from None
    if not isinstance(point, dict):
        raise _UsageError("probleak: error: a JSON --at point must be an object")
    unknown = set(point) - set(spec.covariates)
    if unknown:
        raise ModelError(f"unknown covariate(s) in --at point: {sorted(unknown)}")
    return {name: np.fromiter([value], dtype=object, count=1) for name, value in point.items()}


def _training_points(data: Dataset, spec: ModelSpec, how: str) -> dict:
    """Covariate columns at training medians or minima.

    A categorical covariate has no median or minimum, so it expands to one
    row per observed level (levels in sorted order) and the numeric
    summaries are shared across the expansion.
    """
    numeric = [name for name in spec.covariates if data.is_numeric(name)]
    categorical = [name for name in spec.covariates if name not in numeric]
    combos = list(itertools.product(*(np.unique(data.column(name)) for name in categorical)))
    summary = np.median if how == "medians" else np.min
    columns = {name: np.full(len(combos), float(summary(data.column(name)))) for name in numeric}
    columns.update((name, np.array(levels)) for name, levels in zip(categorical, zip(*combos)))
    return columns


def _fit_summary(spec: ModelSpec, result) -> dict:
    return {
        "response": spec.response,
        "covariates": list(spec.covariates),
        "intercept": spec.intercept,
        "n": result.n,
        "p": result.p,
        "df": result.df,
        "coefficients": result.coefficients(),
        "s2": result.s2,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_fit(args) -> int:
    data, spec, result = _load_and_fit(args)
    doc = {"version": __version__, **_fit_summary(spec, result)}
    _emit(doc, args.out)
    return 0


def _cmd_leak(args) -> int:
    data, spec, result = _load_and_fit(args)
    evidence = _parse_support_arg(args.support)
    label = args.at if args.at in _AT_KEYWORDS else "point"
    doc = {
        "version": __version__,
        "at": label,
        "support": args.support,
        "reports": leakage_profile(result, evidence, _parse_at(args.at, data, spec)).to_json(),
    }
    _emit(doc, args.out)
    return 0


def _parse_grid(text: str):
    try:
        name, span = text.split("=", 1)
        lo_s, hi_s, count_s = span.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError:
        raise _UsageError(
            f'probleak: error: --grid must look like "x=0:2:21", got {text!r}'
        ) from None
    # linspace steps by hi - lo: an infinite end, or a span that overflows, gives NaNs
    if not 2 <= count <= _MAX_GRID_POINTS or not lo < hi or not math.isfinite(hi - lo):
        raise _UsageError(
            f"probleak: error: grid needs finite lo < hi and 2 to {_MAX_GRID_POINTS} points"
        )
    return name.strip(), np.linspace(lo, hi, count)


def _cmd_leak_profile(args) -> int:
    name, grid = _parse_grid(args.grid)
    data, spec, result = _load_and_fit(args)
    evidence = _parse_support_arg(args.support)
    if name not in spec.covariates:
        raise _UsageError(f"probleak: error: grid covariate {name!r} is not in --covariates")
    if not data.is_numeric(name):
        raise _UsageError(f"probleak: error: grid covariate {name!r} must be numeric")
    fixed = {}
    if args.at is not None:
        if args.at in _AT_KEYWORDS:
            raise _UsageError("probleak: error: leak-profile --at takes a JSON object")
        fixed = _parse_at(args.at, data, spec)
    if name in fixed:  # the grid replaces this value, but a bad one is still refused
        _finite_floats(fixed[name], name, "point")
    columns = {name: grid}
    for other in spec.covariates:
        if other == name:
            continue
        if other in fixed:
            columns[other] = np.repeat(fixed[other], grid.size)
        elif data.is_numeric(other):
            columns[other] = np.full(grid.size, float(np.median(data.column(other))))
        else:
            raise _UsageError(
                f"probleak: error: categorical covariate {other!r} must be pinned "
                f'via --at, e.g. --at \'{{"{other}": "<level>"}}\''
            )
    profile = leakage_profile(result, evidence, columns)
    _emit(_csv_text([name, "leakage"], [grid, profile.leakage]), args.out)
    return 0


def _cmd_falsify(args) -> int:
    _check_resolution(args.resolution)
    data, spec, result = _load_and_fit(args)
    X = _encode_columns(result, _parse_at(args.at, data, spec), "point")
    if len(X) != 1:
        raise _UsageError(
            "probleak: error: falsify needs a single covariate point; pin "
            "categorical levels via a JSON --at"
        )
    mode = {"point": "point_event", "interval": "interval_event"}[args.mode]
    if mode == "interval_event" and args.resolution is None:
        raise _UsageError("probleak: error: --mode interval requires --resolution")
    dist = predictive_rows(result, X)
    verdict = is_falsified(dist, [args.value], mode=mode, resolution=args.resolution)
    doc = {"version": __version__, **verdict.to_json()}
    _emit(doc, args.out)
    return 0


def _subset(data: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset({name: data.column(name)[idx] for name in data.names})


def _cmd_calibrate(args) -> int:
    data, spec = _load_and_spec(args)
    frac = args.holdout
    if not 0.0 < frac < 1.0:
        raise _UsageError("probleak: error: --holdout must be a fraction in (0, 1)")
    n_hold = int(round(frac * data.n))
    if n_hold < 1 or data.n - n_hold < 2:
        raise DataError(
            f"holdout fraction {frac} leaves an unusable split of {data.n} rows"
        )
    perm = np.random.default_rng(args.seed).permutation(data.n)
    hold = _subset(data, np.sort(perm[:n_hold]))
    train = _subset(data, np.sort(perm[n_hold:]))
    result = fit_model(train, spec)
    batch = predictive_rows(result, _encode_columns(result, hold.columns))
    case = ForecastCase(batch, hold.column(spec.response))
    report = calibration_report([case], seed=args.seed)
    doc = {
        "version": __version__,
        "holdout_fraction": frac,
        "n_train": train.n,
        "n_holdout": hold.n,
        **report.to_json(),
    }
    # the curves first, as in report: a curve file that cannot be written
    # then leaves stdout empty for the error
    if args.curves:
        for which in ("probability", "exceedance", "marginal"):
            _emit(report.curve_csv(which), f"{args.curves}_{which}.csv")
    _emit(doc, args.out)
    return 0


def _simulate_config(base, doc: dict):
    """``base`` with the fields a simulate config sets, each value converted
    to the type of ``base``'s own; a null support_lower means no floor."""
    fields = [f.name for f in dataclasses.fields(base)]
    unknown = set(doc) - set(fields)
    if unknown:
        raise DataError(f"unknown simulate config keys: {sorted(unknown)}")
    if doc.get("support_lower", 0.0) is None:
        doc = {**doc, "support_lower": -math.inf}
    try:
        values = {
            name: _config_value(name, getattr(base, name), doc[name])
            for name in fields
            if name in doc
        }
        return dataclasses.replace(base, **values)
    except (TypeError, ValueError) as err:
        raise DataError(f"bad simulate config: {err}") from None


def _config_value(name: str, default, value):
    """``value`` as the type of ``default``. An integer field takes no
    fraction, which int() would drop, and a seed is, as --seed is, >= 0."""
    if isinstance(default, int) and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    converted = type(default)(value)
    if name == "seed" and converted < 0:
        raise ValueError(f"seed must be a non-negative integer, got {value!r}")
    return converted


def _cmd_simulate(args) -> int:
    doc: dict = {}
    if args.config:
        try:
            with open(args.config) as handle:
                doc = json.load(handle)
        except OSError as err:
            raise DataError(f"cannot read {args.config}: {err}") from None
        except json.JSONDecodeError as err:
            raise DataError(f"bad JSON in {args.config}: {err}") from None
        if not isinstance(doc, dict):
            raise DataError(f"simulate config must be a JSON object, got {type(doc).__name__}")
    if args.seed is not None:
        doc = {**doc, "seed": args.seed}
    if args.kind == "truncated":
        dataset = gen_truncated_regression(_simulate_config(DEFAULT_TRUNCATED_CONFIG, doc))
    else:
        dataset = gen_callcenter_like(_simulate_config(CallCenterConfig(), doc))
    dataset.to_csv(args.out or sys.stdout)
    return 0


def _finite_bounds(evidence: Evidence) -> list[float]:
    if evidence.kind == "continuous_support":
        return [b for iv in evidence.intervals for b in iv if math.isfinite(b)]
    if evidence.values is not None:
        return [min(evidence.values), max(evidence.values)]
    lo, hi, _ = evidence.lattice
    return [b for b in (lo, hi) if math.isfinite(b)]


def _density_curves(dists: list, evidence: Evidence, grid_points: int) -> str:
    """CSV text: y, one density column per distribution, and a marker column
    flagging the rows pinned at the evidence's finite support bounds."""
    q = 5e-5
    lo = min(d.quantile(q) for _, d in dists)
    hi = max(d.quantile(1.0 - q) for _, d in dists)
    grid = np.linspace(lo, hi, grid_points)
    bounds = _finite_bounds(evidence)
    if bounds:
        grid = np.unique(np.concatenate([grid, np.asarray(bounds, dtype=float)]))
    marker = np.where(np.isin(grid, bounds), "support_bound", "")
    names = ["y", *(f"density_{label}" for label, _ in dists), "marker"]
    return _csv_text(names, [grid, *(d.density(grid) for _, d in dists), marker])


def _cmd_report(args) -> int:
    _check_resolution(args.resolution)
    if not 2 <= args.grid_points <= _MAX_GRID_POINTS:
        raise _UsageError(
            f"probleak: error: --grid-points needs at least 2 points and at most "
            f"{_MAX_GRID_POINTS}, got {args.grid_points}"
        )
    data, spec, result = _load_and_fit(args)
    evidence = _parse_support_arg(args.support)
    null_fit = fit_model(data, ModelSpec(spec.response, ()))
    null_dist = predictive_at(null_fit, {})

    parts = {f"at_{how}": _training_points(data, spec, how) for how in _AT_KEYWORDS}
    if args.at is not None:
        if args.at in _AT_KEYWORDS:
            raise _UsageError("probleak: error: report --at takes a JSON object")
        parts["at_point"] = _parse_at(args.at, data, spec)
    # one batch for every part: design rows are stacked, since the one point
    # of a model without covariates is an empty mapping, which has no length
    designs = [_encode_columns(result, columns, key) for key, columns in parts.items()]
    at_dists = predictive_rows(result, np.concatenate(designs))
    first = parts["at_medians"]
    columns = {name: np.concatenate([part[name] for part in parts.values()]) for name in first}
    reports = iter(LeakageProfile(at_dists, evidence, columns).to_json())
    leak_section = {"null_x": leakage(null_dist, evidence).to_json()}
    for key, X in zip(parts, designs):
        leak_section[key] = list(itertools.islice(reports, len(X)))

    # strict falsification of the fitted model against its own training rows:
    # exact observations falsify any continuous predictive, so pass
    # --resolution to ask the finite-precision (interval) question instead
    mode = "interval_event" if args.resolution is not None else "point_event"
    y_train = data.column(spec.response)
    batch = predictive_rows(result, _encode_columns(result, data.columns))
    verdict = is_falsified(batch, y_train, mode=mode, resolution=args.resolution)

    pits, mean_crps = _pit_and_mean_crps([ForecastCase(batch, y_train)], args.seed)
    calibration = {
        "seed": args.seed,
        "n_cases": data.n,
        "ks_stat": ks_uniform(pits),
        "max_probability_deviation": probability_calibration(pits).max_deviation,
        "mean_crps": mean_crps,
    }

    categorical = [name for name in spec.covariates if not data.is_numeric(name)]
    dists = [("null", null_dist)]
    for report, row in zip(leak_section["at_medians"], designs[0]):
        label = "_".join(report["x_star"][name] for name in categorical) or "model"
        dists.append((label, predictive_at(result, row)))
    _emit(_density_curves(dists, evidence, args.grid_points), args.out_curves)

    doc = {
        "version": __version__,
        "model": _fit_summary(spec, result),
        "support": args.support,
        "evidence": evidence.to_json(),
        "leakage": leak_section,
        "falsification": verdict.to_json(),
        "calibration": calibration,
        "curves_file": args.out_curves,
    }
    _emit(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    """A --seed value: numpy seeds its generators from any integer >= 0."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _finite(text: str) -> float:
    """A --value: an observation, which no NaN or infinity can be."""
    value = _parse_cell(text)
    if value is None or not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_common(p) -> None:
    p.add_argument("--out", help="write the main output to this file instead of stdout")
    p.add_argument(
        "--json-errors",
        action="store_true",
        help='report data/model errors as {"error": ...} JSON on stdout',
    )


def _add_model_args(p) -> None:
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument("--response", required=True, help="response column name")
    p.add_argument(
        "--covariates",
        default="",
        help="comma-separated covariate columns (empty for the intercept-only model)",
    )
    p.add_argument(
        "--no-intercept", action="store_true", help="drop the intercept column"
    )


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="probleak", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"probleak {__version__}"
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("fit", help="fit the regression and print a summary")
    _add_model_args(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("leak", help="probability leakage at covariate points")
    _add_model_args(p)
    p.add_argument("--support", required=True, help='evidence, e.g. "[0,inf)"')
    p.add_argument(
        "--at",
        default="medians",
        help="medians, minima, or a JSON covariate point (categorical covariates "
        "expand medians/minima to one report per level)",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_leak)

    p = sub.add_parser("leak-profile", help="leakage along a covariate grid, as CSV")
    _add_model_args(p)
    p.add_argument("--support", required=True, help='evidence, e.g. "[0,inf)"')
    p.add_argument("--grid", required=True, help='grid spec "name=lo:hi:count"')
    p.add_argument(
        "--at", help="JSON object pinning the non-grid covariates (numeric default: medians)"
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_leak_profile)

    p = sub.add_parser("falsify", help="strict falsification verdict for one observation")
    _add_model_args(p)
    p.add_argument("--value", type=_finite, required=True, help="observed value")
    p.add_argument(
        "--mode",
        choices=("point", "interval"),
        default="point",
        help="point: exact observation; interval: value +- resolution/2",
    )
    p.add_argument("--resolution", type=float, help="measurement resolution (interval mode)")
    p.add_argument("--at", default="medians", help="covariate point (medians or JSON)")
    _add_common(p)
    p.set_defaults(handler=_cmd_falsify)

    p = sub.add_parser("calibrate", help="calibration diagnostics on a held-out split")
    _add_model_args(p)
    p.add_argument(
        "--holdout", type=float, required=True, help="held-out fraction in (0, 1)"
    )
    p.add_argument("--seed", type=_seed, default=0, help="split and PIT seed (default 0)")
    p.add_argument(
        "--curves", help="prefix: also write <prefix>_{probability,exceedance,marginal}.csv"
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("simulate", help="generate a dataset from a known truth, as CSV")
    p.add_argument("kind", choices=("truncated", "callcenter"))
    p.add_argument("--config", help="JSON config file (defaults are the shipped configs)")
    p.add_argument("--seed", type=_seed, help="override the config seed")
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "report", help="full audit document plus predictive density curve CSV"
    )
    _add_model_args(p)
    p.add_argument("--support", required=True, help='evidence, e.g. "[0,inf)"')
    p.add_argument(
        "--out-curves", required=True, help="write density curves CSV to this file"
    )
    p.add_argument(
        "--grid-points", type=int, default=2001, help="curve grid size (default 2001)"
    )
    p.add_argument("--at", help="extra JSON covariate point to audit")
    p.add_argument(
        "--resolution",
        type=float,
        help="observation resolution: falsification uses interval events",
    )
    p.add_argument("--seed", type=_seed, default=0, help="PIT randomization seed (default 0)")
    _add_common(p)
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(err, file=sys.stderr)
        return 1
    except SystemExit:  # --help / --version; usage errors raise _UsageError
        return 0
    try:
        return args.handler(args)
    except _UsageError as err:
        print(err, file=sys.stderr)
        return 1
    except (DataError, ModelError, OSError) as err:  # OSError: an output file not written
        if getattr(args, "json_errors", False):
            print(json.dumps({"error": str(err)}))
        else:
            print(f"probleak: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
