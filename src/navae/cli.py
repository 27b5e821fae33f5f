"""Command-line surface: mean-ci, ols-ci, feasibility, simulate, width-curve.

Every command writes a CSV report plus a JSON summary and prints its headline
result to stdout.  Exit codes: 0 success, 2 configuration error, 3 data
error.  When an uncertified delta provider backs a finite-sample method, a
line starting with ``UNCERTIFIED-DELTA`` is printed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import dgp_sim
from .dgp_sim import (
    GumbelHeteroLinear,
    KnownVarianceMethod,
    OlsEdgMethod,
    UnknownVarianceMethod,
    method_from_config,
    run_coverage_study,
    study_from_config,
    width_curve,
)
from .edgeworth import DeltaProvider, provider_from_string
from .errors import ConfigError, DataError, DomainError, NavaeError
from .mean_ci import ConfidenceInterval, Sample, alpha_min, feasible_a_interval
from .ols_ci import Design, OlsBounds, OlsTuning, PlugIn, ci_asymp, ci_edg, n_zero
from .report import ReportRow, row_as_dict, write_report, write_summary
from .rules import OptimizedRule, parse_rule

__all__ = ["load_mean_csv", "load_ols_csv", "run_command", "main"]


def load_mean_csv(path: str | Path) -> Sample:
    """Read the first column of a CSV file as a sample.

    Line 1 may be the header ``x`` (any case, surrounding blanks ignored);
    cells after the first are never read.  Blank rows are skipped.  A cell
    that ``float()`` rejects is a ``DataError`` naming ``path:line``; so is a
    file without a numeric row.
    """
    first, lines = _first_record(path)
    is_header = bool(first) and first[0].strip().lower() == "x"
    table = _read_floats(path, lines if is_header else 0, None)
    if not len(table):
        raise DataError(f"{path}: no numeric rows")
    return Sample(table[:, 0])


def load_ols_csv(path: str | Path, add_intercept: bool, u_spec: str) -> Design:
    """Read ``y,x1,...,xp`` rows into a design targeting direction ``u_spec``.

    Line 1 must be the header ``y,x1,...,xp`` (any case).  With
    ``add_intercept`` the intercept column is prepended and the first
    coordinate of ``u_spec`` refers to it; ``u_spec`` is checked against the
    header before any row is read.  Blank rows are skipped.  A row with other
    than p + 1 cells is a ``ConfigError`` and a cell that ``float()`` rejects a
    ``DataError``, each naming ``path:line``.
    """
    first, lines = _first_record(path)
    if first is None:
        raise DataError(f"{path}: empty file")
    header = [cell.strip().lower() for cell in first]
    p_file = len(header) - 1
    if p_file < 1 or header[0] != "y" or header[1:] != [f"x{i}" for i in range(1, p_file + 1)]:
        raise DataError(f"{path}: expected header 'y,x1,...,xp', got {header!r}")
    u = _parse_vector(u_spec)
    columns = p_file + int(add_intercept)
    if u.size != columns:
        raise ConfigError(
            f"direction u has {u.size} coordinates but the design has "
            f"{columns} columns (intercept {'included' if add_intercept else 'absent'})"
        )
    table = _read_floats(path, lines, p_file + 1)
    if not len(table):
        raise DataError(f"{path}: no data rows")
    x = table[:, 1:]
    if add_intercept:
        x = np.column_stack([np.ones(len(table)), x])
    return Design(x=x, y=table[:, 0], u=u)


def _open_csv(path: str | Path):
    try:
        return open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc


def _unreadable(path: str | Path, exc: Exception, line: int) -> DataError:
    """A file ``csv.reader`` gave up on, as a ``DataError`` naming ``path:line``.

    ``line`` is the reader's line; for bytes that are not UTF-8 it is the line
    of the first bad byte instead, found in the raw bytes because the text
    layer decodes ahead of the reader.
    """
    if isinstance(exc, UnicodeDecodeError):
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            line = data.count(b"\n", 0, err.start) + 1
            return DataError(f"{path}:{line}: not valid UTF-8: byte {data[err.start]:#04x} "
                             f"at offset {err.start}")
    return DataError(f"{path}:{line}: {exc}")


def _first_record(path: str | Path) -> tuple[list[str] | None, int]:
    """Record 1 as ``csv.reader`` splits it (None if the file is empty), and
    the number of physical lines it spans."""
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        try:
            return next(reader, None), reader.line_num
        except (csv.Error, UnicodeDecodeError) as exc:
            raise _unreadable(path, exc, reader.line_num) from exc


_ASCII_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _read_floats(path: str | Path, header_lines: int, width: int | None) -> np.ndarray:
    """Every non-blank record after the first ``header_lines`` lines, as a
    row of floats.

    ``width=None`` reads the first cell of each record, stripped; otherwise
    every record must have ``width`` cells.  numpy's C reader parses the file
    (``loadtxt`` takes ``quotechar`` from numpy 1.23; pyproject.toml requires
    1.24).  It accepts less than ``csv.reader`` and ``float()`` do (not
    whitespace-only or ``,,`` rows, ``""``, ``1_000`` or non-ASCII digits),
    and gives ``float()``'s value where it accepts a cell, so the row loop
    ``_read_rows`` runs only when numpy refuses the file.  One exception:
    numpy strips ``\\x1c``-``\\x1f`` around a number, which ``float()`` does
    only in a cell holding a non-ASCII character, so full rows of a file with
    those bytes go to the row loop.
    """
    if width is not None and any(sep in Path(path).read_bytes() for sep in _ASCII_SEPARATORS):
        return _read_rows(path, header_lines, width)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            table = np.loadtxt(
                path,
                delimiter=",",
                comments=None,
                quotechar='"',
                encoding="utf-8",
                skiprows=header_lines,
                usecols=0 if width is None else None,
                ndmin=2,
            )
        except ValueError:
            return _read_rows(path, header_lines, width)
    if width is not None and table.shape[1] != width:
        return _read_rows(path, header_lines, width)
    return table


def _read_rows(path: str | Path, header_lines: int, width: int | None) -> np.ndarray:
    """``_read_floats`` as a ``csv.reader`` loop calling ``float()`` per cell;
    errors name the record's ``path:line``."""
    rows: list[list[float]] = []
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        try:
            for lineno, row in enumerate(reader, start=1):
                if reader.line_num <= header_lines or not any(cell.strip() for cell in row):
                    continue
                if width is None:
                    row = [row[0].strip()]
                elif len(row) != width:
                    raise ConfigError(
                        f"{path}:{lineno}: ragged row with {len(row)} cells, expected {width}"
                    )
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from exc
        except (csv.Error, UnicodeDecodeError) as exc:
            raise _unreadable(path, exc, reader.line_num) from exc
    return np.array(rows, dtype=float).reshape(-1, width or 1)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.asarray([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"cannot parse vector {text!r}: {exc}") from exc


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse n list {text!r}: {exc}") from exc
    if not all(math.isfinite(n) and n.is_integer() for n in values):
        raise ConfigError(f"n values must be finite integers, got {text!r}")
    if any(n < 1 for n in values):
        raise ConfigError(f"n values must be positive, got {text!r}")
    return tuple(int(n) for n in values)


def _warn_uncertified(provider: DeltaProvider) -> None:
    if not provider.certified:
        print(
            f"UNCERTIFIED-DELTA: provider {provider.label!r} omits remainder "
            "terms; the finite-sample validity guarantee does not apply"
        )


def _print_interval(ci: ConfidenceInterval) -> None:
    if ci.whole_line:
        print(f"interval: R (whole real line), level {ci.level}, method {ci.method}")
    else:
        print(
            f"interval: [{ci.lower!r}, {ci.upper!r}], level {ci.level}, "
            f"method {ci.method}"
        )


def _report_paths(args) -> tuple[Path, Path]:
    """The CSV report a command writes and its JSON summary beside it."""
    output = Path(args.output or f"{args.command.replace('-', '_')}_report.csv")
    return output, output.with_suffix(".json")


def _check_outputs(args) -> None:
    """A report or summary path naming a file the command reads is a
    ``ConfigError``, raised before anything runs or is written."""
    for output in _report_paths(args):
        for flag in ("config", "input"):
            source = getattr(args, flag, None)
            if source is not None and _same_file(output, source):
                raise ConfigError(f"output {output} would overwrite the --{flag} file {source}")


def _same_file(a, b) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # either path missing: writing a cannot replace b
        return False


def _emit(args, command: str, rows, params: dict) -> None:
    output, summary_path = _report_paths(args)
    write_report(output, rows)
    write_summary(
        summary_path,
        {"command": command, "params": params, "rows": [row_as_dict(r) for r in rows]},
    )
    print(f"report: {output}")
    print(f"summary: {summary_path}")


def _interval_row(ci: ConfidenceInterval, n: int, alpha: float) -> ReportRow:
    return ReportRow(
        method=ci.method,
        n=n,
        alpha=alpha,
        lower=ci.lower,
        upper=ci.upper,
        is_whole_line=ci.whole_line,
        width=ci.width,
    )


def _cmd_mean_ci(args) -> int:
    sample = load_mean_csv(args.input)
    method_cfg: dict = {"name": args.method}
    if args.method == "known-variance":
        if args.sigma is None:
            raise ConfigError("--sigma is required for known-variance")
        method_cfg.update({"sigma": args.sigma, "K": _require_k(args), "delta": args.delta})
    elif args.method == "unknown-variance":
        method_cfg.update(
            {
                "K": "plugin" if args.K == "plugin" else _require_k(args),
                "delta": args.delta,
                "a_rule": args.a_rule,
                "inflation": args.inflation,
            }
        )
    elif args.method == "chebyshev":
        if args.var_bound is None:
            raise ConfigError("--var-bound is required for chebyshev")
        method_cfg.update({"var_bound": args.var_bound})
    elif args.method == "hoeffding":
        if args.support is None:
            raise ConfigError("--support is required for hoeffding")
        method_cfg.update({"support": _parse_vector(args.support).tolist()})
    method = method_from_config(method_cfg)
    if method.navae:
        _warn_uncertified(method.delta)
    ci = method.interval(sample, args.alpha)
    _print_interval(ci)
    rows = [_interval_row(ci, sample.n, args.alpha)]
    _emit(args, "mean-ci", rows, {"input": str(args.input), "method": args.method,
                                  "alpha": args.alpha})
    return 0


def _require_k(args) -> float:
    if args.K is None:
        raise ConfigError("--K is required for this method")
    try:
        return float(args.K)
    except ValueError as exc:
        raise ConfigError(f"--K must be a number or 'plugin', got {args.K!r}") from exc


def _bound_from_flag(text: str, name: str, inflation: float) -> float | PlugIn:
    if text.strip().lower() == "plugin":
        return PlugIn(inflation)
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"--{name} must be a number or 'plugin', got {text!r}") from exc


def _cmd_ols_ci(args) -> int:
    design = load_ols_csv(args.input, args.add_intercept, args.u)
    if args.method == "asymp":
        ci = ci_asymp(design, args.alpha)
    else:
        bounds = OlsBounds(
            lambda_reg=_bound_from_flag(args.lambda_reg, "lambda-reg", args.inflation),
            k_reg=_bound_from_flag(args.k_reg, "k-reg", args.inflation),
            k_eps=_bound_from_flag(args.k_eps, "k-eps", args.inflation),
            k_xi=_bound_from_flag(args.k_xi, "k-xi", args.inflation),
        )
        tuning = OlsTuning(
            omega_rule=_explicit_rule(args.omega_rule, "omega-rule"),
            a_rule=_explicit_rule(args.a_rule, "a-rule"),
            delta=provider_from_string(args.delta),
        )
        _warn_uncertified(tuning.delta)
        ci = ci_edg(design, args.alpha, bounds, tuning)
    _print_interval(ci)
    rows = [_interval_row(ci, design.n, args.alpha)]
    _emit(args, "ols-ci", rows, {"input": str(args.input), "method": args.method,
                                 "alpha": args.alpha, "u": args.u})
    return 0


def _explicit_rule(text: str, flag: str):
    rule = parse_rule(text)
    if isinstance(rule, OptimizedRule):
        raise ConfigError(f"--{flag} must be an explicit formula, not 'optimized'")
    return rule


def _cmd_feasibility(args) -> int:
    delta = provider_from_string(args.delta)
    rows: list[ReportRow] = []
    if args.mode == "alpha-min":
        a_rule = parse_rule(args.a_rule)
        for n in _parse_n_list(args.n):
            value = alpha_min(n, args.K, a_rule, delta)
            rows.append(ReportRow(method="alpha-min", n=n, alpha_min=value))
            print(f"alpha_min(n={n}, K={args.K}) = {value!r}")
    elif args.mode == "a-interval":
        if args.alpha is None:
            raise ConfigError("--alpha is required for a-interval mode")
        for n in _parse_n_list(args.n):
            interval = feasible_a_interval(n, args.alpha, args.K, delta)
            if interval is None:
                rows.append(ReportRow(method="a-interval", n=n, alpha=args.alpha))
                print(f"I_n(n={n}) = empty")
            else:
                rows.append(
                    ReportRow(
                        method="a-interval",
                        n=n,
                        alpha=args.alpha,
                        a_lower=interval[0],
                        a_upper=interval[1],
                    )
                )
                print(f"I_n(n={n}) = ({interval[0]!r}, {interval[1]!r})")
    else:  # n-zero
        if args.alpha is None:
            raise ConfigError("--alpha is required for n-zero mode")
        tuning = OlsTuning(
            omega_rule=_explicit_rule(args.omega_rule, "omega-rule"),
            a_rule=_explicit_rule(args.a_rule, "a-rule"),
            delta=delta,
        )
        bounds = OlsBounds(
            lambda_reg=1.0, k_reg=args.k_reg, k_eps=1.0, k_xi=args.k_xi
        )
        value = n_zero(args.alpha, tuning, bounds)
        rows.append(ReportRow(method="n-zero", alpha=args.alpha, n_zero=value))
        print(f"n_zero = {value}")
    _emit(args, "feasibility", rows, {"mode": args.mode})
    return 0


def _cmd_simulate(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}: invalid JSON: {exc}") from exc
    study = study_from_config(config)
    for method in study.methods:
        if getattr(method, "navae", False):
            _warn_uncertified(method.delta)
    report = run_coverage_study(study, workers=args.workers)
    rows = [
        ReportRow(
            method=r.method,
            n=r.n,
            alpha=r.alpha,
            coverage=r.coverage,
            mc_se=r.mc_se,
            width=r.mean_width,
            whole_line_fraction=r.whole_line_fraction,
            mean_alpha_min=r.mean_alpha_min,
            median_alpha_min=r.median_alpha_min,
            replications=r.replications,
        )
        for r in report.rows
    ]
    for r in report.rows:
        print(
            f"coverage[{r.method}, n={r.n}] = {r.coverage:.4f} "
            f"(mc se {r.mc_se:.4f}, whole-line share {r.whole_line_fraction:.4f})"
        )
    _emit(args, "simulate", rows, {"config": str(args.config)})
    return 0


def _cmd_width_curve(args) -> int:
    delta = args.delta
    if args.method == "known-variance":
        if args.sigma is None:
            raise ConfigError("--sigma is required for known-variance width curves")
        method = KnownVarianceMethod(
            sigma=args.sigma,
            kurtosis_bound=_require_k(args),
            delta=provider_from_string(delta),
        )
        dgp = dgp_sim.ExponentialMean()
    elif args.method == "unknown-variance":
        method = UnknownVarianceMethod(
            kurtosis_bound=_require_k(args),
            delta=provider_from_string(delta),
            a_rule=parse_rule(args.a_rule),
        )
        dgp = dgp_sim.ExponentialMean()
    elif args.method == "edg":
        bounds = OlsBounds(
            lambda_reg=_bound_from_flag(args.lambda_reg, "lambda-reg", args.inflation),
            k_reg=_bound_from_flag(args.k_reg, "k-reg", args.inflation),
            k_eps=_bound_from_flag(args.k_eps, "k-eps", args.inflation),
            k_xi=_bound_from_flag(args.k_xi, "k-xi", args.inflation),
        )
        tuning = OlsTuning(
            omega_rule=_explicit_rule(args.omega_rule, "omega-rule"),
            a_rule=_explicit_rule(args.a_rule_ols, "a-rule-ols"),
            delta=provider_from_string(delta),
        )
        method = OlsEdgMethod(bounds=bounds, tuning=tuning)
        dgp = GumbelHeteroLinear(u=tuple(float(v) for v in _parse_vector(args.u)))
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unsupported width-curve method {args.method!r}")
    if method.navae:
        _warn_uncertified(method.delta)
    curve = width_curve(
        dgp,
        method,
        _parse_n_list(args.n),
        args.alpha,
        replications=args.replications,
        base_seed=args.seed,
    )
    rows = [
        ReportRow(method=r.method, n=r.n, alpha=r.alpha, width=r.mean_width, ratio=r.ratio)
        for r in curve
    ]
    for r in curve:
        print(f"width[{r.method}, n={r.n}]: mean {r.mean_width!r}, ratio {r.ratio!r}")
    _emit(args, "width-curve", rows, {"method": args.method, "alpha": args.alpha})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navae",
        description="Finite-sample-valid, asymptotically exact confidence intervals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mean = sub.add_parser("mean-ci", help="confidence interval for a scalar mean")
    mean.add_argument("--input", required=True, help="CSV with one numeric column")
    mean.add_argument("--alpha", type=float, required=True)
    mean.add_argument(
        "--method",
        default="unknown-variance",
        choices=["clt", "student", "chebyshev", "hoeffding", "known-variance", "unknown-variance"],
    )
    mean.add_argument("--K", default=None, help="kurtosis bound, a number or 'plugin'")
    mean.add_argument("--delta", default="be", help="delta provider spec")
    mean.add_argument("--a-rule", dest="a_rule", default="1+n^-0.2")
    mean.add_argument("--sigma", type=float, default=None, help="known standard deviation")
    mean.add_argument("--var-bound", dest="var_bound", type=float, default=None)
    mean.add_argument("--support", default=None, help="a,b support for hoeffding")
    mean.add_argument("--inflation", type=float, default=0.0)
    mean.add_argument("--output", default=None)
    mean.set_defaults(handler=_cmd_mean_ci)

    ols = sub.add_parser("ols-ci", help="confidence interval for u'beta in OLS")
    ols.add_argument("--input", required=True, help="CSV with header y,x1,...,xp")
    ols.add_argument("--u", required=True, help="comma-separated direction vector")
    ols.add_argument("--add-intercept", dest="add_intercept", action="store_true")
    ols.add_argument("--alpha", type=float, required=True)
    ols.add_argument("--method", default="edg", choices=["asymp", "edg"])
    ols.add_argument("--lambda-reg", dest="lambda_reg", default="plugin")
    ols.add_argument("--k-reg", dest="k_reg", default="plugin")
    ols.add_argument("--k-eps", dest="k_eps", default="plugin")
    ols.add_argument("--k-xi", dest="k_xi", default="plugin")
    ols.add_argument("--inflation", type=float, default=0.0)
    ols.add_argument("--omega-rule", dest="omega_rule", default="n^-1/5")
    ols.add_argument("--a-rule", dest="a_rule", default="1+20*n^-2/5")
    ols.add_argument("--delta", default="be")
    ols.add_argument("--output", default=None)
    ols.set_defaults(handler=_cmd_ols_ci)

    feas = sub.add_parser("feasibility", help="alpha_min, feasible a intervals, n_zero")
    feas.add_argument("--mode", required=True, choices=["alpha-min", "a-interval", "n-zero"])
    feas.add_argument("--K", type=float, default=9.0)
    feas.add_argument("--alpha", type=float, default=None)
    feas.add_argument("--n", default="1000")
    feas.add_argument("--a-rule", dest="a_rule", default="1+n^-0.2")
    feas.add_argument("--omega-rule", dest="omega_rule", default="n^-1/5")
    feas.add_argument("--k-reg", dest="k_reg", type=float, default=1.0)
    feas.add_argument("--k-xi", dest="k_xi", type=float, default=9.0)
    feas.add_argument("--delta", default="be")
    feas.add_argument("--output", default=None)
    feas.set_defaults(handler=_cmd_feasibility)

    sim = sub.add_parser("simulate", help="Monte Carlo coverage study from JSON config")
    sim.add_argument("--config", required=True)
    sim.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes that run the replications (default 1, capped at the "
        "replication count); above 1 this process and count - 1 children "
        "forked from it run them, or the study runs serially where the "
        "platform cannot fork; the report is the same at any count",
    )
    sim.add_argument("--output", default=None)
    sim.set_defaults(handler=_cmd_simulate)

    wc = sub.add_parser("width-curve", help="width against the CLT baseline over n")
    wc.add_argument("--method", required=True, choices=["known-variance", "unknown-variance", "edg"])
    wc.add_argument("--alpha", type=float, required=True)
    wc.add_argument("--n", required=True, help="comma-separated n grid")
    wc.add_argument("--K", default=None)
    wc.add_argument("--delta", default="be")
    wc.add_argument("--sigma", type=float, default=None)
    wc.add_argument("--a-rule", dest="a_rule", default="1+n^-0.2")
    wc.add_argument("--u", default="0,0,1")
    wc.add_argument("--lambda-reg", dest="lambda_reg", default="plugin")
    wc.add_argument("--k-reg", dest="k_reg", default="plugin")
    wc.add_argument("--k-eps", dest="k_eps", default="plugin")
    wc.add_argument("--k-xi", dest="k_xi", default="9")
    wc.add_argument("--inflation", type=float, default=0.0)
    wc.add_argument("--omega-rule", dest="omega_rule", default="n^-1/5")
    wc.add_argument("--a-rule-ols", dest="a_rule_ols", default="1+20*n^-2/5")
    wc.add_argument("--replications", "-M", type=int, default=0)
    wc.add_argument("--seed", type=int, default=0)
    wc.add_argument("--output", default=None)
    wc.set_defaults(handler=_cmd_width_curve)

    return parser


def run_command(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_outputs(args)
        return args.handler(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DomainError, NavaeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
