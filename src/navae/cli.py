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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dgp_sim import (
    BOUND_KEYS,
    METHOD_KEYS,
    ExponentialMean,
    GumbelHeteroLinear,
    method_from_config,
    run_coverage_study,
    study_from_config,
    width_curve,
)
from .edgeworth import _table_paths
from .errors import ConfigError, DataError, DomainError, NavaeError
from .mean_ci import (ConfidenceInterval, Sample, _alpha_min_lanes, _check_search_alpha, _feasible_lanes,
                      _lane_search)
from .ols_ci import Design, n_zero
from .report import ReportRow, row_as_dict, write_report, write_summary

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
    x = np.ones((len(table), columns), order="F")  # the layout Design keeps
    x[:, int(add_intercept):] = table[:, 1:]
    return Design(x=x, y=table[:, 0], u=u)


def _open_csv(path: str | Path):
    try:
        return open(path, newline="", encoding="utf-8-sig")
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


def _has_ascii_separator(path: str | Path) -> bool:
    """Whether the file holds one of ``_ASCII_SEPARATORS``; it is read once,
    and its bytes are freed before numpy parses it."""
    data = Path(path).read_bytes()
    return any(sep in data for sep in _ASCII_SEPARATORS)


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
    if width is not None and _has_ascii_separator(path):
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


def _bound_flag(text: str) -> float | str:
    """A bound flag's text as the config value it spells: the number
    ``float`` reads, else the text, with any case of 'plugin' read as
    'plugin'."""
    try:
        return float(text)
    except ValueError:
        return "plugin" if text.strip().lower() == "plugin" else text


def _warn_uncertified(method) -> None:
    if method.navae and not method.delta.certified:
        print(
            f"UNCERTIFIED-DELTA: provider {method.delta.label!r} omits remainder "
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


def _check_outputs(args, deltas=()) -> None:
    """A ``ConfigError``, raised before anything runs or is written, when the
    report or summary path names a file the command reads (``--config``,
    ``--input``, or a table of ``--delta`` or of the delta specs ``deltas``), a
    directory, or a file in a directory that does not exist, or when the two
    are one path."""
    report, summary = _report_paths(args)
    sources = [(f"--{flag} file", getattr(args, flag, None)) for flag in ("config", "input")]
    sources += [("delta table", path) for spec in (getattr(args, "delta", None), *deltas)
                for path in _table_paths(spec)]
    for output in (report, summary):
        for what, source in sources:
            if source is not None and _same_file(output, source):
                raise ConfigError(f"output {output} would overwrite the {what} {source}")
        if output.is_dir():
            raise ConfigError(f"output {output} is a directory")
        if not output.parent.is_dir():
            raise ConfigError(f"output {output}: directory {output.parent} does not exist")
    if report == summary:
        raise ConfigError(f"output {report} would be both the report and its JSON summary; "
                          "give the report another suffix, such as .csv")


def _same_file(a, b) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # either path missing: writing a cannot replace b
        return False


def _emit(args, command: str, rows, params: dict) -> None:
    output, summary_path = _report_paths(args)
    summary = {"command": command, "params": params, "rows": [row_as_dict(r) for r in rows]}
    for path, write, content in ((output, write_report, rows), (summary_path, write_summary, summary)):
        try:
            write(path, content)
        except OSError as exc:  # one that _check_outputs could not foresee
            raise ConfigError(f"cannot write {path}: {exc}") from exc
    print(f"report: {output}")
    print(f"summary: {summary_path}")


def _report_row(row) -> ReportRow:
    """A coverage-study or width-curve row as a report row: the row's fields,
    with ``mean_width`` as ``width``."""
    values = asdict(row)
    values["width"] = values.pop("mean_width")
    return ReportRow(**values)


def _flag_value(args, key: str):
    """The config value of ``key`` that the flags spell, None if unset."""
    if key == "bounds":
        return {bound: getattr(args, bound) for bound in BOUND_KEYS}
    value = getattr(args, key, None)
    if key == "support" and value is not None:
        return _parse_vector(value).tolist()
    return value


def _method(args, name: str | None = None):
    """The interval method ``name`` (default ``--method``) that the flags
    select, built by ``method_from_config`` as a ``simulate`` config entry
    would be.  A flag left unset keeps its key's default; a required key,
    and ``--K``, must be set."""
    name = name or args.method
    required, optional = METHOD_KEYS[name]
    config = {"name": name}
    for key in (*required, *optional):
        value = _flag_value(args, key)
        if value is not None:
            config[key] = value
        elif key in required or key == "K":
            raise ConfigError(f"--{key.replace('_', '-')} is required for {name}")
    return method_from_config(config, getattr(args, "inflation", 0.0))


def _cmd_interval(args) -> int:
    """``mean-ci`` and ``ols-ci``: one interval from the ``--input`` CSV,
    read before the method is built."""
    if args.command == "mean-ci":
        data, params = load_mean_csv(args.input), {}
    else:
        data, params = load_ols_csv(args.input, args.add_intercept, args.u), {"u": args.u}
    method = _method(args)
    _warn_uncertified(method)
    ci = method.interval(data, args.alpha)
    _print_interval(ci)
    row = ReportRow(method=ci.method, n=data.n, alpha=args.alpha, lower=ci.lower,
                    upper=ci.upper, is_whole_line=ci.whole_line, width=ci.width)
    params.update(input=str(args.input), method=args.method, alpha=args.alpha)
    _emit(args, args.command, [row], params)
    return 0


def _cmd_feasibility(args) -> int:
    # each mode keeps the tuning defaults of the method it serves
    method = _method(args, "edg" if args.mode == "n-zero" else "unknown-variance")
    rows: list[ReportRow] = []
    if args.mode == "alpha-min":
        n_list = _parse_n_list(args.n)
        values = _lane_search(_alpha_min_lanes, n_list, args.K, method.delta, method.a_rule)
        for n, value in zip(n_list, values.tolist()):
            rows.append(ReportRow(method="alpha-min", n=n, alpha_min=value))
            print(f"alpha_min(n={n}, K={args.K}) = {value!r}")
    elif args.mode == "a-interval":
        if args.alpha is None:
            raise ConfigError("--alpha is required for a-interval mode")
        n_list = _parse_n_list(args.n)
        _check_search_alpha(args.alpha)  # before K, as feasible_a_interval checks
        lows, highs = _lane_search(_feasible_lanes, n_list, args.K, method.delta, args.alpha)
        for n, lower, upper in zip(n_list, lows.tolist(), highs.tolist()):
            lower, upper = (None, None) if math.isnan(lower) else (lower, upper)
            rows.append(ReportRow(method="a-interval", n=n, alpha=args.alpha, a_lower=lower,
                                  a_upper=upper))
            print(f"I_n(n={n}) = " + ("empty" if lower is None else f"({lower!r}, {upper!r})"))
    else:  # n-zero
        if args.alpha is None:
            raise ConfigError("--alpha is required for n-zero mode")
        value = n_zero(args.alpha, method.tuning, method.bounds)
        rows.append(ReportRow(method="n-zero", alpha=args.alpha, n_zero=value))
        print(f"n_zero = {value}")
    _emit(args, "feasibility", rows, {"mode": args.mode})
    return 0


def _cmd_simulate(args) -> int:
    try:
        with open(args.config, encoding="utf-8-sig") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}: invalid JSON: {exc}") from exc
    study = study_from_config(config)
    _check_outputs(args, [method.get("delta") for method in config["methods"]])
    for method in study.methods:
        _warn_uncertified(method)
    report = run_coverage_study(study, workers=args.workers)
    for r in report.rows:
        print(
            f"coverage[{r.method}, n={r.n}] = {r.coverage:.4f} "
            f"(mc se {r.mc_se:.4f}, whole-line share {r.whole_line_fraction:.4f})"
        )
    _emit(args, "simulate", [_report_row(r) for r in report.rows], {"config": str(args.config)})
    return 0


def _cmd_width_curve(args) -> int:
    method = _method(args)
    _warn_uncertified(method)
    dgp = (GumbelHeteroLinear(u=tuple(float(v) for v in _parse_vector(args.u)))
           if method.family == "ols" else ExponentialMean())
    curve = width_curve(
        dgp,
        method,
        _parse_n_list(args.n),
        args.alpha,
        replications=args.replications,
        base_seed=args.seed,
    )
    for r in curve:
        print(f"width[{r.method}, n={r.n}]: mean {r.mean_width!r}, ratio {r.ratio!r}")
    _emit(args, "width-curve", [_report_row(r) for r in curve],
          {"method": args.method, "alpha": args.alpha})
    return 0


def _add_edg_flags(parser, k_xi: float | str = "plugin") -> None:
    """The edg bound flags, plug-in by default but for ``--k-xi`` (``k_xi``),
    ``--inflation``, ``--omega-rule`` and ``--delta``."""
    for bound in BOUND_KEYS:
        parser.add_argument(f"--{bound.replace('_', '-')}", type=_bound_flag,
                            default=k_xi if bound == "k_xi" else "plugin",
                            help="a number or 'plugin'")
    parser.add_argument("--inflation", type=float, default=0.0)
    parser.add_argument("--omega-rule", dest="omega_rule")
    parser.add_argument("--delta", help="delta provider spec")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navae",
        description="Finite-sample-valid, asymptotically exact confidence intervals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # tuning flags default to None: the method keeps the library's default
    mean = sub.add_parser("mean-ci", help="confidence interval for a scalar mean")
    mean.add_argument("--input", required=True, help="CSV with one numeric column")
    mean.add_argument("--alpha", type=float, required=True)
    mean.add_argument(
        "--method",
        default="unknown-variance",
        choices=["clt", "student", "chebyshev", "hoeffding", "known-variance", "unknown-variance"],
    )
    mean.add_argument("--K", default=None, help="kurtosis bound, a number or 'plugin'")
    mean.add_argument("--delta", help="delta provider spec")
    mean.add_argument("--a-rule", dest="a_rule")
    mean.add_argument("--sigma", type=float, default=None, help="known standard deviation")
    mean.add_argument("--var-bound", dest="var_bound", type=float, default=None)
    mean.add_argument("--support", default=None, help="a,b support for hoeffding")
    mean.add_argument("--inflation", type=float, default=0.0)
    mean.add_argument("--output", default=None)
    mean.set_defaults(handler=_cmd_interval)

    ols = sub.add_parser("ols-ci", help="confidence interval for u'beta in OLS")
    ols.add_argument("--input", required=True, help="CSV with header y,x1,...,xp")
    ols.add_argument("--u", required=True, help="comma-separated direction vector")
    ols.add_argument("--add-intercept", dest="add_intercept", action="store_true")
    ols.add_argument("--alpha", type=float, required=True)
    ols.add_argument("--method", default="edg", choices=["asymp", "edg"])
    _add_edg_flags(ols)
    ols.add_argument("--a-rule", dest="a_rule")
    ols.add_argument("--output", default=None)
    ols.set_defaults(handler=_cmd_interval)

    feas = sub.add_parser("feasibility", help="alpha_min, feasible a intervals, n_zero")
    feas.add_argument("--mode", required=True, choices=["alpha-min", "a-interval", "n-zero"])
    feas.add_argument("--K", type=float, default=9.0)
    feas.add_argument("--alpha", type=float, default=None)
    feas.add_argument("--n", default="1000")
    feas.add_argument("--a-rule", dest="a_rule", help="default: the unknown-variance rule, "
                      "or the edg rule in n-zero mode")
    feas.add_argument("--omega-rule", dest="omega_rule")
    feas.add_argument("--k-reg", dest="k_reg", type=float, default=1.0)
    feas.add_argument("--k-xi", dest="k_xi", type=float, default=9.0)
    feas.add_argument("--delta")
    feas.add_argument("--output", default=None)
    # n_zero reads only K_reg and K_xi of the edg bounds
    feas.set_defaults(handler=_cmd_feasibility, lambda_reg=1.0, k_eps=1.0)

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
    wc.add_argument("--sigma", type=float, default=None)
    wc.add_argument("--a-rule", "--a-rule-ols", dest="a_rule", help="the a_n rule of --method")
    wc.add_argument("--u", default="0,0,1")
    _add_edg_flags(wc, k_xi=9.0)
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
