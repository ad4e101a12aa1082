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

Every value option has one domain, which the parser checks: a value outside
it exits 1, before any file is read, with ``argument --X: expected <domain>,
got '<text>'``. Handlers receive values inside their domains and check only
what needs two options or the data.
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
from ._text import _csv_text, _json_text, _write_text
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
# the most cells (rows x columns) simulate writes: each is a float in memory
# and a CSV field, so a config cannot ask for more memory than this bounds
_MAX_SIMULATED_CELLS = 10**7
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


def _at_columns(at, data: Dataset, spec: ModelSpec) -> dict:
    """--at as covariate columns: training medians/minima, or a JSON point as
    one-row object columns, which keep each value as given for the encoder to
    check and ``x_star`` to echo. A name not in --covariates is refused."""
    if isinstance(at, str):
        return _training_points(data, spec, at)
    unknown = set(at) - set(spec.covariates)
    if unknown:
        raise ModelError(f"unknown covariate(s) in --at point: {sorted(unknown)}")
    return {name: np.fromiter([value], dtype=object, count=1) for name, value in at.items()}


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
    _emit({"version": __version__, **_fit_summary(spec, result)}, args.out)
    return 0


def _cmd_leak(args) -> int:
    data, spec, result = _load_and_fit(args)
    columns = _at_columns(args.at, data, spec)
    # encoded here, not by leakage_profile, so that an error names a "point", as falsify's does
    batch = predictive_rows(result, _encode_columns(result, columns, "point"))
    doc = {
        "version": __version__,
        "at": args.at if isinstance(args.at, str) else "point",
        "support": args.support.description,
        "reports": LeakageProfile(batch, args.support, columns).to_json(),
    }
    _emit(doc, args.out)
    return 0


def _cmd_leak_profile(args) -> int:
    name, lo, hi, count = args.grid
    data, spec, result = _load_and_fit(args)
    if name not in spec.covariates:
        raise _UsageError(f"probleak: error: grid covariate {name!r} is not in --covariates")
    if not data.is_numeric(name):
        raise _UsageError(f"probleak: error: grid covariate {name!r} must be numeric")
    grid = np.linspace(lo, hi, count)
    fixed = {} if args.at is None else _at_columns(args.at, data, spec)
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
    profile = leakage_profile(result, args.support, columns)
    _emit(_csv_text([name, "leakage"], [grid, profile.leakage]), args.out)
    return 0


def _cmd_falsify(args) -> int:
    data, spec, result = _load_and_fit(args)
    X = _encode_columns(result, _at_columns(args.at, data, spec), "point")
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
    _emit({"version": __version__, **verdict.to_json()}, args.out)
    return 0


def _subset(data: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset({name: data.column(name)[idx] for name in data.names})


def _cmd_calibrate(args) -> int:
    data, spec = _load_and_spec(args)
    n_hold = int(round(args.holdout * data.n))
    if n_hold < 1 or data.n - n_hold < 2:
        raise DataError(
            f"holdout fraction {args.holdout} leaves an unusable split of {data.n} rows"
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
        "holdout_fraction": args.holdout,
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
    except (TypeError, ValueError, OverflowError) as err:  # OverflowError: a huge JSON integer
        raise DataError(f"bad simulate config: {err}") from None


def _config_value(name: str, default, value):
    """``value`` as the type of ``default``. An integer field takes no
    fraction, which int() would drop; the config checks each value's domain."""
    if isinstance(default, int) and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return type(default)(value)


def _cmd_simulate(args) -> int:
    doc: dict = {}
    if args.config:
        try:
            with open(args.config) as handle:
                doc = json.load(handle)
        except OSError as err:
            raise DataError(f"cannot read {args.config}: {err}") from None
        except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, or nested too deep
            raise DataError(f"bad JSON in {args.config}: {err}") from None
        if not isinstance(doc, dict):
            raise DataError(f"simulate config must be a JSON object, got {type(doc).__name__}")
    if args.seed is not None:
        doc = {**doc, "seed": args.seed}
    if args.kind == "truncated":
        cfg = _simulate_config(DEFAULT_TRUNCATED_CONFIG, doc)
        cells, generate = cfg.n * (len(cfg.covariate_ranges) + 1), gen_truncated_regression
    else:
        cfg = _simulate_config(CallCenterConfig(), doc)
        cells, generate = 8 * cfg.per_location_n, gen_callcenter_like  # 2 sites x 4 columns
    if cells > _MAX_SIMULATED_CELLS:
        raise DataError(f"simulate writes at most {_MAX_SIMULATED_CELLS} cells, got {cells}")
    generate(cfg).to_csv(args.out or sys.stdout)
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
    data, spec, result = _load_and_fit(args)
    evidence = args.support
    null_fit = fit_model(data, ModelSpec(spec.response, ()))
    null_dist = predictive_at(null_fit, {})

    parts = {f"at_{how}": _training_points(data, spec, how) for how in _AT_KEYWORDS}
    if args.at is not None:
        parts["at_point"] = _at_columns(args.at, data, spec)
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
        "support": evidence.description,
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


def _domain(parse, accept, what: str):
    """The argparse ``type=`` of one value option: the value ``parse`` reads
    from the option's text, refused unless ``accept`` holds for it. argparse
    prefixes the refusal with the option and exits through ``_Parser.error``."""

    def convert(text: str):
        try:
            value = parse(text)
            if accept(value):
                return value
        except (ValueError, RecursionError):  # RecursionError: JSON nested too deep
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return convert


def _grid_spec(text: str) -> tuple:
    name, span = text.split("=", 1)
    lo, hi, count = span.split(":")
    return name.strip(), float(lo), float(hi), int(count)


def _json_object(text: str) -> dict | None:
    point = json.loads(text)
    return point if isinstance(point, dict) else None


_FINITE = _domain(float, math.isfinite, "a finite number")  # an observation
_RESOLUTION = _domain(float, lambda v: 0.0 < v < math.inf, "a positive finite number")
_FRACTION = _domain(float, lambda v: 0.0 < v < 1.0, "a fraction in (0, 1)")
_SEED = _domain(int, lambda v: v >= 0, "a non-negative integer")  # what numpy seeds from
_GRID_POINTS = _domain(
    int, lambda v: 2 <= v <= _MAX_GRID_POINTS, f"an integer from 2 to {_MAX_GRID_POINTS}"
)
# linspace steps by hi - lo: an infinite end, or a span that overflows, gives NaNs
_GRID = _domain(
    _grid_spec,
    lambda g: g[1] < g[2] and math.isfinite(g[2] - g[1]) and 2 <= g[3] <= _MAX_GRID_POINTS,
    f"name=lo:hi:count with finite lo < hi and 2 to {_MAX_GRID_POINTS} points",
)
_SUPPORT = _domain(parse_support, lambda _: True, "a support such as [0,inf) or lattice(0,inf,1)")
_AT = _domain(
    lambda text: text if text in _AT_KEYWORDS else _json_object(text),
    lambda at: at is not None,
    "medians, minima or a JSON object",
)
_AT_OBJECT = _domain(_json_object, lambda at: at is not None, "a JSON object")


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
    p.add_argument("--support", type=_SUPPORT, required=True, help='evidence, e.g. "[0,inf)"')
    p.add_argument(
        "--at",
        type=_AT,
        default="medians",
        help="medians, minima, or a JSON covariate point (categorical covariates "
        "expand medians/minima to one report per level)",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_leak)

    p = sub.add_parser("leak-profile", help="leakage along a covariate grid, as CSV")
    _add_model_args(p)
    p.add_argument("--support", type=_SUPPORT, required=True, help='evidence, e.g. "[0,inf)"')
    p.add_argument("--grid", type=_GRID, required=True, help='grid spec "name=lo:hi:count"')
    p.add_argument(
        "--at",
        type=_AT_OBJECT,
        help="JSON object pinning the non-grid covariates (numeric default: medians)",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_leak_profile)

    p = sub.add_parser("falsify", help="strict falsification verdict for one observation")
    _add_model_args(p)
    p.add_argument("--value", type=_FINITE, required=True, help="observed value")
    p.add_argument(
        "--mode",
        choices=("point", "interval"),
        default="point",
        help="point: exact observation; interval: value +- resolution/2",
    )
    p.add_argument("--resolution", type=_RESOLUTION, help="measurement resolution (interval mode)")
    p.add_argument("--at", type=_AT, default="medians", help="covariate point (medians or JSON)")
    _add_common(p)
    p.set_defaults(handler=_cmd_falsify)

    p = sub.add_parser("calibrate", help="calibration diagnostics on a held-out split")
    _add_model_args(p)
    p.add_argument(
        "--holdout", type=_FRACTION, required=True, help="held-out fraction in (0, 1)"
    )
    p.add_argument("--seed", type=_SEED, default=0, help="split and PIT seed (default 0)")
    p.add_argument(
        "--curves", help="prefix: also write <prefix>_{probability,exceedance,marginal}.csv"
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("simulate", help="generate a dataset from a known truth, as CSV")
    p.add_argument("kind", choices=("truncated", "callcenter"))
    p.add_argument("--config", help="JSON config file (defaults are the shipped configs)")
    p.add_argument("--seed", type=_SEED, help="override the config seed")
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "report", help="full audit document plus predictive density curve CSV"
    )
    _add_model_args(p)
    p.add_argument("--support", type=_SUPPORT, required=True, help='evidence, e.g. "[0,inf)"')
    p.add_argument(
        "--out-curves", required=True, help="write density curves CSV to this file"
    )
    p.add_argument(
        "--grid-points", type=_GRID_POINTS, default=2001, help="curve grid size (default 2001)"
    )
    p.add_argument("--at", type=_AT_OBJECT, help="extra JSON covariate point to audit")
    p.add_argument(
        "--resolution",
        type=_RESOLUTION,
        help="observation resolution: falsification uses interval events",
    )
    p.add_argument("--seed", type=_SEED, default=0, help="PIT randomization seed (default 0)")
    _add_common(p)
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as err:  # from the parser or a handler
        print(err, file=sys.stderr)
        return 1
    except SystemExit:  # --help / --version; usage errors raise _UsageError
        return 0
    except (DataError, ModelError, OSError) as err:  # OSError: an output file not written
        if getattr(args, "json_errors", False):
            print(json.dumps({"error": str(err)}))
        else:
            print(f"probleak: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
