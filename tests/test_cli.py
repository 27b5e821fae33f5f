import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from navae import cli
from navae.cli import load_mean_csv, load_ols_csv, run_command
from navae.edgeworth import BerryEsseen
from navae.errors import ConfigError, DataError
from navae.mean_ci import alpha_min, feasible_a_interval
from navae.report import read_report
from navae.rules import OPTIMIZED


@pytest.fixture()
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------


def test_load_mean_csv_forms(tmp_path):
    s = load_mean_csv(write(tmp_path / "a.csv", "x\n1\n2\n3\n"))
    assert list(s.values) == [1.0, 2.0, 3.0]
    s = load_mean_csv(write(tmp_path / "b.csv", "1.5e3\n-2\n"))
    assert list(s.values) == [1500.0, -2.0]
    s = load_mean_csv(write(tmp_path / "c.csv", "1\n\n\n2\n"))
    assert list(s.values) == [1.0, 2.0]
    # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
    for text in ("\ufeffx\n1\n2\n", "\ufeff1\n2\n"):
        assert list(load_mean_csv(write(tmp_path / "bom.csv", text)).values) == [1.0, 2.0]


@pytest.mark.parametrize(
    "command, content",
    [
        (["mean-ci", "--alpha", "0.1"], b"x\n1\n\xff\n"),
        (["mean-ci", "--alpha", "0.1"], b"x\n1\n" + b"a" * 200_000 + b"\n2\n"),
        (["ols-ci", "--alpha", "0.1", "--u", "1"], b"y,x1\n1,2\n3,\xff\n"),
        (["ols-ci", "--alpha", "0.1", "--u", "1"], b"y,x1\n1,2\n3," + b"a" * 200_000 + b"\n"),
    ],
    ids=["mean-not-utf8", "mean-long-field", "ols-not-utf8", "ols-long-field"],
)
def test_unreadable_csv_is_data_error_at_its_line(in_tmp, capsys, command, content):
    path = in_tmp / "bad.csv"
    path.write_bytes(content)
    assert run_command(command + ["--input", str(path)]) == 3
    assert f"data error: {path}:3: " in capsys.readouterr().err


@pytest.mark.parametrize("loader", [load_mean_csv, lambda p: load_ols_csv(p, False, "1")])
def test_unreadable_first_record_is_data_error(tmp_path, loader):
    long_header = tmp_path / "long.csv"
    long_header.write_bytes(b"a" * 200_000 + b"\n1,2\n")
    with pytest.raises(DataError, match=r"long\.csv:1: field larger than field limit"):
        loader(long_header)
    not_utf8 = tmp_path / "latin1.csv"
    not_utf8.write_bytes("y,x1\n1,2\n\n3,4\xe9\n".encode("latin-1"))
    with pytest.raises(DataError, match=r"latin1\.csv:4: not valid UTF-8: byte 0xe9"):
        loader(not_utf8)


def test_load_mean_csv_errors(tmp_path):
    with pytest.raises(DataError) as err:
        load_mean_csv(write(tmp_path / "bad.csv", "a\nb\n"))
    assert ":1:" in str(err.value)
    with pytest.raises(DataError) as err:
        load_mean_csv(write(tmp_path / "bad2.csv", "1\noops\n"))
    assert ":2:" in str(err.value)
    with pytest.raises(DataError):
        load_mean_csv(tmp_path / "missing.csv")


def test_load_ols_csv(tmp_path):
    path = write(tmp_path / "d.csv", "y,x1\n1,0\n2,1\n3,2\n")
    d = load_ols_csv(path, add_intercept=True, u_spec="0,1")
    assert d.x.shape == (3, 2)
    assert np.all(d.x[:, 0] == 1.0)
    assert d.u == pytest.approx([0.0, 1.0])
    bom = load_ols_csv(write(tmp_path / "bom.csv", "\ufeffy,x1\n1,0\n2,1\n3,2\n"), True, "0,1")
    assert np.array_equal(bom.x, d.x) and np.array_equal(bom.y, d.y)
    with pytest.raises(ConfigError):
        load_ols_csv(path, add_intercept=True, u_spec="0,1,0")
    with pytest.raises(DataError):
        load_ols_csv(write(tmp_path / "h.csv", "a,b\n1,2\n"), False, "1,0")
    with pytest.raises(ConfigError):
        load_ols_csv(write(tmp_path / "r.csv", "y,x1\n1,2\n3\n"), False, "1,0")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def mean_file(tmp_path, n=4000, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.exponential(1.0, n)
    return write(tmp_path / "m.csv", "x\n" + "\n".join(repr(float(v)) for v in values) + "\n")


def ols_file(tmp_path, n=5000, seed=0):
    from navae.dgp_sim import sample_gumbel_hetero_linear

    d = sample_gumbel_hetero_linear(n, seed)
    lines = ["y,x1,x2"]
    for i in range(n):
        lines.append(f"{float(d.y[i])!r},{float(d.x[i, 1])!r},{float(d.x[i, 2])!r}")
    return write(tmp_path / "ols.csv", "\n".join(lines) + "\n")


def test_mean_ci_command(in_tmp, capsys):
    path = mean_file(in_tmp)
    code = run_command(
        ["mean-ci", "--alpha", "0.10", "--K", "9", "--delta", "be",
         "--a-rule", "1+n^-0.2", "--input", str(path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "interval:" in out
    assert "UNCERTIFIED-DELTA" not in out
    rows = read_report(in_tmp / "mean_ci_report.csv")
    assert rows[0].method == "unknown-variance"
    assert rows[0].n == 4000
    assert (in_tmp / "mean_ci_report.json").exists()


def test_mean_ci_uncertified_warning(in_tmp, capsys):
    path = mean_file(in_tmp)
    code = run_command(
        ["mean-ci", "--alpha", "0.10", "--K", "9", "--delta", "edg-leading",
         "--input", str(path)]
    )
    assert code == 0
    assert "UNCERTIFIED-DELTA" in capsys.readouterr().out


def test_mean_ci_method_variants(in_tmp, capsys):
    path = mean_file(in_tmp)
    assert run_command(["mean-ci", "--alpha", "0.1", "--method", "clt", "--input", str(path)]) == 0
    assert run_command(["mean-ci", "--alpha", "0.1", "--method", "student", "--input", str(path)]) == 0
    assert run_command(
        ["mean-ci", "--alpha", "0.1", "--method", "chebyshev", "--var-bound", "4",
         "--input", str(path)]
    ) == 0
    assert run_command(
        ["mean-ci", "--alpha", "0.1", "--method", "known-variance", "--sigma", "1",
         "--K", "9", "--input", str(path)]
    ) == 0
    # plug-in kurtosis
    assert run_command(
        ["mean-ci", "--alpha", "0.2", "--K", "plugin", "--input", str(path)]
    ) == 0
    # optimized tuning through the rule mini-language
    assert run_command(
        ["mean-ci", "--alpha", "0.2", "--K", "9", "--a-rule", "optimized",
         "--input", str(path)]
    ) == 0
    capsys.readouterr()


def test_mean_ci_hoeffding_variant(in_tmp, capsys):
    path = write(in_tmp / "unif.csv", "x\n" + "\n".join(
        repr(float(v)) for v in np.random.default_rng(1).random(500)
    ) + "\n")
    assert run_command(
        ["mean-ci", "--alpha", "0.1", "--method", "hoeffding", "--support", "0,1",
         "--input", str(path)]
    ) == 0
    # support violation is a data error
    assert run_command(
        ["mean-ci", "--alpha", "0.1", "--method", "hoeffding", "--support", "0.4,1",
         "--input", str(path)]
    ) == 3
    capsys.readouterr()


@pytest.mark.parametrize("support", ["0,1,2", "0"])
def test_mean_ci_hoeffding_support_needs_two_numbers(in_tmp, capsys, support):
    path = write(in_tmp / "unif.csv", "x\n0.2\n0.7\n")
    assert run_command(
        ["mean-ci", "--alpha", "0.1", "--method", "hoeffding", "--support", support,
         "--input", str(path)]
    ) == 2
    assert "hoeffding support must be two numbers" in capsys.readouterr().err


def test_mean_ci_delta_table_route(in_tmp, capsys):
    from navae.edgeworth import TableProvider
    from navae.mean_ci import MeanCiConfig, ci_unknown_variance
    from navae.rules import OPTIMIZED

    path = mean_file(in_tmp, n=1000)
    write(in_tmp / "table.csv", "n,K,delta\n100,9,0.05\n1000,9,0.02\n")
    code = run_command(["mean-ci", "--alpha", "0.1", "--K", "9", "--delta", "user:table.csv",
                        "--a-rule", "optimized", "--input", str(path)])
    assert code == 0
    assert "UNCERTIFIED-DELTA: provider 'user:table.csv'" in capsys.readouterr().out
    (row,) = read_report(in_tmp / "mean_ci_report.csv")
    table = TableProvider(rows=((100, 9.0, 0.05), (1000, 9.0, 0.02)), name="table.csv")
    ci = ci_unknown_variance(load_mean_csv(path), MeanCiConfig(0.1, 9.0, table, OPTIMIZED))
    assert ci.width is not None
    assert (row.lower, row.upper) == (ci.lower, ci.upper)
    # below the table's first row delta is the trivial bound 1: the whole line
    write(in_tmp / "late.csv", "n,K,delta\n5000,9,0.001\n")
    assert run_command(["mean-ci", "--alpha", "0.1", "--K", "9", "--delta", "user:late.csv",
                        "--input", str(path)]) == 0
    assert "R (whole real line)" in capsys.readouterr().out
    assert read_report(in_tmp / "mean_ci_report.csv")[0].is_whole_line is True


@pytest.mark.parametrize(
    "command",
    [["mean-ci", "--alpha", "0.1", "--K", "9", "--input", "m.csv"],
     ["feasibility", "--mode", "alpha-min", "--K", "9"]],
    ids=["mean-ci", "feasibility"],
)
def test_unreadable_delta_table_is_a_data_error(in_tmp, capsys, command):
    mean_file(in_tmp, n=100)
    assert run_command(command + ["--delta", "user:missing.csv"]) == 3
    assert "data error: cannot open missing.csv" in capsys.readouterr().err
    (in_tmp / "latin1.csv").write_bytes(b"\xff100,9,0.02\n")
    assert run_command(command + ["--delta", "user:latin1.csv"]) == 3
    assert "data error: latin1.csv:1: not valid UTF-8: byte 0xff" in capsys.readouterr().err
    assert not list(in_tmp.glob("*_report.*"))


def test_mean_ci_reads_a_byte_order_mark(in_tmp, capsys):
    # a spreadsheet's "CSV UTF-8" export starts with one
    text = "x\n0.5\n1.5\n2\n1\n"
    write(in_tmp / "plain.csv", text)
    write(in_tmp / "bom.csv", "\ufeff" + text)
    for name in ("plain", "bom"):
        assert run_command(["mean-ci", "--input", f"{name}.csv", "--alpha", "0.1", "--method", "clt",
                            "--output", f"{name}_report.csv"]) == 0
    assert read_report(in_tmp / "bom_report.csv") == read_report(in_tmp / "plain_report.csv")
    capsys.readouterr()


def test_mean_ci_whole_line_row(in_tmp, capsys):
    path = mean_file(in_tmp, n=100)
    assert run_command(["mean-ci", "--alpha", "0.05", "--K", "9", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "whole real line" in out
    rows = read_report(in_tmp / "mean_ci_report.csv")
    assert rows[0].is_whole_line is True
    assert rows[0].lower is None and rows[0].upper is None


def test_mean_ci_error_codes(in_tmp, capsys):
    bad = write(in_tmp / "bad.csv", "a\nb\n")
    assert run_command(["mean-ci", "--alpha", "0.1", "--input", str(bad)]) == 3
    ok = mean_file(in_tmp)
    # chebyshev without its bound is a config error
    assert run_command(
        ["mean-ci", "--alpha", "0.1", "--method", "chebyshev", "--input", str(ok)]
    ) == 2
    assert run_command(["mean-ci", "--alpha", "0.1", "--input", str(in_tmp / "none.csv")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("sigma", ["1e200", "1e-200"])
@pytest.mark.parametrize("command", ["mean-ci", "width-curve"])
def test_known_sigma_whose_square_leaves_the_float_range(in_tmp, capsys, command, sigma):
    # the method carries sigma, not sigma^2: sigma^2 overflows (1e200) or
    # underflows to 0 (1e-200), but the interval is representable
    argv = [command, "--alpha", "0.1", "--method", "known-variance", "--K", "9"]
    argv += ["--input", str(mean_file(in_tmp))] if command == "mean-ci" else ["--n", "100000"]
    assert run_command(argv + ["--sigma", sigma, "--output", "wide.csv"]) == 0
    assert run_command(argv + ["--sigma", "1", "--output", "unit.csv"]) == 0
    (row,), (unit,) = read_report(in_tmp / "wide.csv"), read_report(in_tmp / "unit.csv")
    assert not row.is_whole_line and np.isfinite(row.width)
    if command == "width-curve" or sigma == "1e200":
        # (mean-ci's half-width 1e-202 around a mean near 1 rounds to a point)
        assert row.width == pytest.approx(unit.width * float(sigma), rel=1e-12)
    capsys.readouterr()


def test_known_variance_width_curve_at_the_largest_sigmas(in_tmp, capsys):
    # 2 sigma overflows, the interval's own width 2 (sigma/sqrt(n)) q(...) does not
    assert run_command(["width-curve", "--method", "known-variance", "--sigma", "1e308", "--K", "9",
                        "--n", "10000,1000000", "--alpha", "0.1"]) == 0, capsys.readouterr()
    rows = read_report(in_tmp / "width_curve_report.csv")
    assert [row.width for row in rows] == [3.8985919284344106e306, 3.3379129192099603e305]


@pytest.mark.parametrize("values", ["1e300\n-1e300\n5e299\n", "1.5e308\n1.5e308\n"],
                         ids=["squared-deviations", "mean"])
@pytest.mark.parametrize("method", ["clt", "student"])
def test_overflowing_data_is_a_data_error(in_tmp, capsys, values, method):
    path = write(in_tmp / "huge.csv", values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        code = run_command(["mean-ci", "--alpha", "0.1", "--method", method, "--K", "9",
                            "--input", str(path)])
    assert code == 3
    assert "data error:" in capsys.readouterr().err
    assert not (in_tmp / "mean_ci_report.csv").exists()


@pytest.mark.parametrize("command, expected", [
    (["feasibility", "--mode", "alpha-min", "--K", "1e308", "--n", "100"], "alpha_min(n=100, K=1e+308) = 1.0"),
    (["feasibility", "--mode", "a-interval", "--K", "1e308", "--alpha", "0.1", "--n", "100"],
     "I_n(n=100) = empty"),
    (["mean-ci", "--alpha", "0.1", "--K", "1e308", "--a-rule", "optimized", "--input", "m.csv"],
     "interval: R (whole real line)"),
], ids=["alpha-min", "a-interval", "mean-ci"])
def test_a_kurtosis_bound_near_the_float_maximum_does_not_warn(in_tmp, capsys, command, expected):
    # 2 K overflows above K = 9e307; the tuning searches must not form it
    write(in_tmp / "m.csv", "x\n" + "\n".join(str(v) for v in np.linspace(0.0, 3.0, 100)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        assert run_command(command) == 0
    assert expected in capsys.readouterr().out


@pytest.mark.parametrize("method", ["clt", "student", "unknown-variance"])
def test_underflowing_variance_is_a_data_error(in_tmp, capsys, method):
    # the squared deviations of data this small underflow to zero: the
    # interval would have width 0, which cannot cover
    values = np.random.default_rng(5).exponential(1.0, 20000) * 1e-170
    path = write(in_tmp / "tiny.csv", "\n".join(repr(float(v)) for v in values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command(["mean-ci", "--alpha", "0.1", "--method", method, "--K", "9",
                            "--input", str(path)])
    assert code == 3
    assert "underflows the float range" in capsys.readouterr().err
    assert not (in_tmp / "mean_ci_report.csv").exists()
    # a constant sample keeps its zero-width interval
    write(in_tmp / "constant.csv", "1e-170\n" * 20000)
    assert run_command(["mean-ci", "--alpha", "0.1", "--method", method, "--K", "9",
                        "--input", str(in_tmp / "constant.csv")]) == 0
    (row,) = read_report(in_tmp / "mean_ci_report.csv")
    assert row.lower == row.upper == 1e-170
    capsys.readouterr()


def test_plugin_kurtosis_interval_scales_with_the_data(in_tmp, capsys):
    values = np.random.default_rng(4).exponential(1.0, 5000)
    bounds = []
    for scale in (1.0, 1e100, 1e77):
        path = write(in_tmp / "m.csv", "\n".join(repr(float(v)) for v in values * scale))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_command(["mean-ci", "--alpha", "0.1", "--K", "plugin",
                                "--input", str(path)]) == 0
        (row,) = read_report(in_tmp / "mean_ci_report.csv")
        bounds.append((row.lower / scale, row.upper / scale))
    assert bounds[1] == pytest.approx(bounds[0], rel=1e-12)
    assert bounds[2] == pytest.approx(bounds[0], rel=1e-12)
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["mean-ci", "--method", "known-variance", "--sigma", "1"],
     "K must be a number, got 'plugin'"),
    (["width-curve", "--method", "known-variance", "--sigma", "1", "--n", "10000"],
     "K must be a number, got 'plugin'"),
    (["width-curve", "--method", "unknown-variance", "--n", "10000"],
     "deterministic width ratio needs a fixed kurtosis bound"),
], ids=["mean-ci-known-variance", "width-curve-known-variance", "width-curve-unknown-variance"])
def test_plugin_k_where_a_fixed_bound_is_needed(in_tmp, capsys, argv, message):
    if argv[0] == "mean-ci":
        argv = argv + ["--input", str(mean_file(in_tmp))]
    assert run_command(argv + ["--alpha", "0.1", "--K", "plugin"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "or 'plugin'" not in err


def test_command_does_not_mutate_input(in_tmp, capsys):
    path = mean_file(in_tmp)
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    run_command(["mean-ci", "--alpha", "0.1", "--K", "9", "--input", str(path)])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == before
    capsys.readouterr()


def test_ols_ci_command(in_tmp, capsys):
    path = ols_file(in_tmp)
    code = run_command(
        ["ols-ci", "--input", str(path), "--add-intercept", "--u", "0,1,0",
         "--alpha", "0.10", "--method", "asymp"]
    )
    assert code == 0
    code = run_command(
        ["ols-ci", "--input", str(path), "--add-intercept", "--u", "0,0,1",
         "--alpha", "0.10", "--k-xi", "9"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("interval:") == 2
    rows = read_report(in_tmp / "ols_ci_report.csv")
    assert rows[0].method == "edg"


def test_overflowing_ols_plug_in_moments_are_a_data_error(in_tmp, capsys):
    # y * 1e77 fits, but the plug-in K_eps takes residuals to the fourth
    # power; at y * 1e200 the fit's own squared residuals overflow
    rows = ols_file(in_tmp, n=300).read_text(encoding="utf-8").splitlines()
    for scale, message in [(1e77, "K_reg/K_eps overflow"), (1e200, "squared residuals are too large")]:
        path = in_tmp / f"scaled_{scale:g}.csv"
        scaled = [rows[0]] + [
            ",".join([repr(float(y) * scale)] + rest)
            for y, *rest in (row.split(",") for row in rows[1:])
        ]
        write(path, "\n".join(scaled) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            code = run_command(["ols-ci", "--input", str(path), "--add-intercept", "--u", "0,0,1",
                                "--alpha", "0.10", "--k-xi", "9"])
        assert code == 3, scale
        assert message in capsys.readouterr().err
        assert not (in_tmp / "ols_ci_report.csv").exists()


def test_underflowing_lambda_reg_is_a_config_error(in_tmp, capsys):
    # the cube of lambda_reg = 1e-200 underflows to 0, and r_var divides by it
    path = ols_file(in_tmp)
    code = run_command(["ols-ci", "--input", str(path), "--add-intercept", "--u", "0,0,1",
                        "--alpha", "0.1", "--lambda-reg", "1e-200", "--k-reg", "0.01",
                        "--k-eps", "1", "--k-xi", "9"])
    assert code == 2
    assert "lambda_reg" in capsys.readouterr().err
    assert not (in_tmp / "ols_ci_report.csv").exists()


def test_overflowing_ols_regressors_are_a_data_error(in_tmp, capsys):
    # regressors times 1e60 without the intercept: lambda_min(S) is near
    # 1e120, too large for r_var to cube
    rows = ols_file(in_tmp).read_text(encoding="utf-8").splitlines()
    scaled = [rows[0]] + [
        ",".join([y] + [repr(float(x) * 1e60) for x in rest])
        for y, *rest in (row.split(",") for row in rows[1:])
    ]
    path = write(in_tmp / "scaled_x.csv", "\n".join(scaled) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        code = run_command(["ols-ci", "--input", str(path), "--u", "0,1", "--alpha", "0.10",
                            "--k-xi", "9"])
    assert code == 3
    assert "r_var overflows" in capsys.readouterr().err
    assert not (in_tmp / "ols_ci_report.csv").exists()


def test_ols_ci_fixed_k_xi_needs_no_influence_values(in_tmp, capsys):
    # a constant outcome leaves every influence value zero, which K_xi's
    # plug-in estimate cannot use; --k-xi 9 needs none (it exited 3)
    path = write(in_tmp / "flat.csv", "y,x1\n" + "4,1\n" * 6)
    assert run_command(["ols-ci", "--input", str(path), "--u", "1", "--alpha", "0.1", "--k-xi", "9"]) == 0
    assert "R (whole real line)" in capsys.readouterr().out
    (row,) = read_report(in_tmp / "ols_ci_report.csv")
    assert row.is_whole_line is True
    assert run_command(["ols-ci", "--input", str(path), "--u", "1", "--alpha", "0.1"]) == 3
    assert "K_xi plug-in undefined" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ols-ci", "mean-ci"])
def test_overflowing_interval_endpoints_are_a_data_error(in_tmp, capsys, command):
    # edg with fixed bounds on regressors times 1e80, whose fourth moments
    # overflow in r_var, and a Hoeffding interval on a support as wide as
    # the floats
    if command == "ols-ci":
        rows = ols_file(in_tmp, seed=1).read_text(encoding="utf-8").splitlines()
        scaled = [rows[0]] + [
            ",".join([y] + [repr(float(x) * 1e80) for x in rest])
            for y, *rest in (row.split(",") for row in rows[1:])
        ]
        path = write(in_tmp / "scaled_x.csv", "\n".join(scaled) + "\n")
        argv = ["--add-intercept", "--u", "0,0,1", "--lambda-reg", "1", "--k-reg", "0.01",
                "--k-eps", "1", "--k-xi", "9"]
    else:
        path = write(in_tmp / "huge.csv", "1.7e308\n")
        argv = ["--method", "hoeffding", "--support", "0,1.7e308"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        code = run_command([command, "--input", str(path), "--alpha", "0.1", *argv])
    assert code == 3
    assert "interval overflows" in capsys.readouterr().err
    assert not (in_tmp / f"{command.replace('-', '_')}_report.csv").exists()


def uniform_ols_file(tmp_path):
    """Uniform regressor and errors: every plug-in bound is small enough for a
    bounded interval at n = 2000."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, 2000)
    eps = rng.uniform(-1.0, 1.0, 2000)
    rows = [f"{1.0 + v + e!r},{v!r}" for v, e in zip(x.tolist(), eps.tolist())]
    return write(tmp_path / "uniform.csv", "y,x1\n" + "\n".join(rows) + "\n")


def test_ols_ci_defaults_are_the_library_defaults(in_tmp, capsys):
    from navae.ols_ci import OlsBounds, OlsTuning, ci_edg

    path = uniform_ols_file(in_tmp)
    assert run_command(["ols-ci", "--input", str(path), "--add-intercept", "--u", "0,1",
                        "--alpha", "0.2"]) == 0
    (row,) = read_report(in_tmp / "ols_ci_report.csv")
    ci = ci_edg(load_ols_csv(path, True, "0,1"), 0.2, OlsBounds.all_plug_in(), OlsTuning())
    assert not ci.whole_line
    assert (row.lower, row.upper) == (ci.lower, ci.upper)
    assert f"[{ci.lower!r}, {ci.upper!r}]" in capsys.readouterr().out


def test_ols_ci_delta_table_route(in_tmp, capsys):
    from navae.edgeworth import TableProvider
    from navae.ols_ci import OlsBounds, OlsTuning, ci_edg

    path = uniform_ols_file(in_tmp)
    command = ["ols-ci", "--input", str(path), "--add-intercept", "--u", "0,1", "--alpha", "0.2"]
    for first_n, whole_line in ((1000, False), (5000, True)):
        write(in_tmp / "table.csv", f"n,K,delta\n{first_n},9,0.01\n")
        assert run_command(command + ["--delta", "user:table.csv"]) == 0
        (row,) = read_report(in_tmp / "ols_ci_report.csv")
        tuning = OlsTuning(delta=TableProvider(rows=((first_n, 9.0, 0.01),), name="table.csv"))
        ci = ci_edg(load_ols_csv(path, True, "0,1"), 0.2, OlsBounds.all_plug_in(), tuning)
        assert ci.whole_line is row.is_whole_line is whole_line
        assert (row.lower, row.upper) == (ci.lower, ci.upper)
    capsys.readouterr()


def test_ols_ci_near_collinear_regressors(in_tmp, capsys):
    # the round-off of S^+ M S^+ is not symmetric to 1e-12 here
    rng = np.random.default_rng(0)
    z = rng.standard_normal(200)
    x2 = z + 1e-4 * rng.standard_normal(200)
    y = 1.0 + 2.0 * z - x2 + (1.0 + np.abs(z)) * rng.standard_normal(200)
    rows = [f"{a!r},{b!r},{c!r}" for a, b, c in zip(y.tolist(), (1000 * z).tolist(),
                                                    (1000 * x2).tolist())]
    path = write(in_tmp / "collinear.csv", "y,x1,x2\n" + "\n".join(rows) + "\n")
    for method in ("asymp", "edg"):
        assert run_command(["ols-ci", "--input", str(path), "--add-intercept", "--u", "0,1,0",
                            "--alpha", "0.1", "--method", method]) == 0
    assert "R (whole real line), level 0.9, method edg" in capsys.readouterr().out


def test_ols_ci_on_eight_rows(in_tmp, capsys):
    # plug-in bounds, inflated, are the whole line below n0; asymp keeps the
    # width of a tiny direction, since u'Vu is taken at the binary scale of u
    path = write(in_tmp / "eight.csv", "y,x1\n1.2,0.5\n2.9,1.0\n2.1,1.5\n4.8,2.0\n3.9,2.5\n"
                                       "6.4,3.0\n5.2,3.5\n8.1,4.0\n")
    command = ["ols-ci", "--input", str(path), "--add-intercept", "--alpha", "0.1"]
    assert run_command(command + ["--u", "0,1", "--inflation", "2"]) == 0
    assert "R (whole real line)" in capsys.readouterr().out
    assert read_report(in_tmp / "ols_ci_report.csv")[0].is_whole_line is True
    widths = []
    for u in ("0,1", "0,1e-300"):
        assert run_command(command + ["--u", u, "--method", "asymp"]) == 0
        (row,) = read_report(in_tmp / "ols_ci_report.csv")
        assert row.lower < row.upper
        widths.append(row.width)
    assert widths[1] == pytest.approx(1e-300 * widths[0], rel=1e-12)
    capsys.readouterr()


def test_ols_ci_u_mismatch_is_config_error(in_tmp, capsys):
    path = ols_file(in_tmp, n=100)
    code = run_command(
        ["ols-ci", "--input", str(path), "--add-intercept", "--u", "0,1",
         "--alpha", "0.10"]
    )
    assert code == 2
    capsys.readouterr()


def test_feasibility_alpha_min(in_tmp, capsys):
    code = run_command(
        ["feasibility", "--mode", "alpha-min", "--K", "9", "--a-rule", "1+n^-0.2",
         "--n", "500,1000,5000,10000"]
    )
    assert code == 0
    rows = read_report(in_tmp / "feasibility_report.csv")
    values = [r.alpha_min for r in rows]
    assert values[0] == pytest.approx(0.466, abs=1e-3)
    assert values[1] == pytest.approx(0.261, abs=1e-3)
    assert values[2] == pytest.approx(0.0703, abs=1e-3)
    assert values[3] == pytest.approx(0.0488, abs=1e-3)
    capsys.readouterr()


@pytest.mark.parametrize("n", ["inf", "1e400", "nan", "100.7", "1000,100.5"])
def test_feasibility_rejects_non_integral_n(in_tmp, capsys, n):
    code = run_command(["feasibility", "--mode", "alpha-min", "--K", "9", "--n", n])
    assert code == 2
    assert "n values must be finite integers" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--mode", "alpha-min", "--n", "10,abc"], "cannot parse n list '10,abc'"),
    (["--mode", "alpha-min", "--n", "0"], "n values must be positive, got '0'"),
    (["--mode", "a-interval"], "--alpha is required for a-interval mode"),
    (["--mode", "n-zero", "--k-xi", "9"], "--alpha is required for n-zero mode"),
], ids=["n-not-a-number", "n-zero", "a-interval-no-alpha", "n-zero-no-alpha"])
def test_feasibility_rejects_a_missing_alpha_and_a_bad_n_list(in_tmp, capsys, flags, message):
    assert run_command(["feasibility", "--K", "9"] + flags) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (in_tmp / "feasibility_report.csv").exists()


def test_feasibility_accepts_integral_float_n(in_tmp, capsys):
    assert run_command(["feasibility", "--mode", "alpha-min", "--K", "9", "--n", "1e5,2000.0"]) == 0
    assert [r.n for r in read_report(in_tmp / "feasibility_report.csv")] == [100000, 2000]
    capsys.readouterr()


def test_feasibility_a_interval(in_tmp, capsys):
    code = run_command(
        ["feasibility", "--mode", "a-interval", "--K", "9", "--alpha", "0.30",
         "--n", "100,1000"]
    )
    assert code == 0
    rows = read_report(in_tmp / "feasibility_report.csv")
    assert rows[0].a_lower is None  # empty at n=100
    assert rows[1].a_lower is not None and rows[1].a_lower < 1.2512 < rows[1].a_upper
    capsys.readouterr()


def test_feasibility_a_interval_at_a_huge_n(in_tmp, capsys):
    # each feasible region closes past a = 1e18 or after the search passed it
    code = run_command(["feasibility", "--mode", "a-interval", "--K", "9", "--alpha", "0.49",
                        "--n", "4e17,1e19"])
    assert code == 0, capsys.readouterr()
    rows = read_report(in_tmp / "feasibility_report.csv")
    assert [r.n for r in rows] == [4 * 10**17, 10**19]
    assert all(1.0 < r.a_lower < r.a_upper for r in rows)
    assert rows[1].a_upper > 1e19
    capsys.readouterr()


@pytest.mark.parametrize("mode, flags", [("alpha-min", ["--a-rule", "optimized"]),
                                         ("a-interval", ["--alpha", "0.1"])])
def test_feasibility_n_list_is_one_lane_search_in_blocks_of_64(in_tmp, capsys, monkeypatch, mode, flags):
    # 200 n values, unsorted and with repeats, are four kernel calls of at
    # most 64 lanes, and each row is the one-lane public search at its n
    name = "_alpha_min_lanes" if mode == "alpha-min" else "_feasible_lanes"
    kernel, sizes = getattr(cli, name), []

    def recording(n, *args):
        sizes.append(len(n))
        return kernel(n, *args)

    monkeypatch.setattr(cli, name, recording)
    n = np.random.default_rng(8).integers(2, 10**6, 200).tolist()
    n[5:8] = [n[0], 1, n[0]]
    assert run_command(["feasibility", "--mode", mode, "--K", "9", "--n", ",".join(map(str, n))] + flags) == 0
    assert sizes == [64, 64, 64, 8]
    assert len(capsys.readouterr().out.splitlines()) == 200 + 2  # the rows, then report and summary
    rows = read_report(in_tmp / "feasibility_report.csv")
    assert [r.n for r in rows] == n
    if mode == "alpha-min":
        assert [r.alpha_min for r in rows] == [alpha_min(m, 9.0, OPTIMIZED, BerryEsseen()) for m in n]
    else:
        assert [(r.a_lower, r.a_upper) for r in rows] == [
            feasible_a_interval(m, 0.1, 9.0, BerryEsseen()) or (None, None) for m in n]


def test_feasibility_alpha_min_of_a_list_from_1_to_1e8(in_tmp, capsys):
    # a list that repeats, is unsorted and starts at 1; each row is the
    # one-lane alpha_min at its n
    n = [1, 1, 10**8, 2]
    assert run_command(["feasibility", "--mode", "alpha-min", "--K", "9", "--a-rule", "optimized",
                        "--n", ",".join(map(str, n))]) == 0
    rows = read_report(in_tmp / "feasibility_report.csv")
    assert [r.n for r in rows] == n
    assert [r.alpha_min for r in rows] == [alpha_min(m, 9.0, OPTIMIZED, BerryEsseen()) for m in n]
    capsys.readouterr()


def test_feasibility_n_list_exits_at_its_first_failing_n(in_tmp, capsys):
    # a_rule(n) = 0.5 + n^-0.2 first drops below 1 at n = 40
    code = run_command(["feasibility", "--mode", "alpha-min", "--K", "9", "--a-rule", "0.5+n^-0.2",
                        "--n", "10,20,40,80"])
    assert code == 2
    assert "a_rule(40) = 0.9781762498950184; fixed rules must return a > 1" in capsys.readouterr().err
    assert not (in_tmp / "feasibility_report.csv").exists()


def test_feasibility_n_zero(in_tmp, capsys):
    code = run_command(
        ["feasibility", "--mode", "n-zero", "--alpha", "0.10", "--k-xi", "9",
         "--k-reg", "0.01", "--omega-rule", "n^-1/5", "--a-rule", "1+20*n^-2/5"]
    )
    assert code == 0
    rows = read_report(in_tmp / "feasibility_report.csv")
    assert rows[0].n_zero == 3655
    capsys.readouterr()


def test_feasibility_n_zero_delta_table(in_tmp, capsys):
    # a table whose first row is at n = 50,000 reads delta = 1 below it
    write(in_tmp / "t50k.csv", "n,K,delta\n50000,9,0.001\n")
    for delta, expected in (("user:t50k.csv", 49999), ("min(be,user:t50k.csv)", 3655)):
        assert run_command(["feasibility", "--mode", "n-zero", "--alpha", "0.1", "--k-xi", "9",
                            "--k-reg", "0.01", "--delta", delta]) == 0
        assert read_report(in_tmp / "feasibility_report.csv")[0].n_zero == expected
    capsys.readouterr()


def test_feasibility_tuning_defaults_follow_the_mode(in_tmp, capsys):
    # n-zero takes the OLS tuning of ols-ci, whose whole-line threshold at
    # these bounds is 3655; alpha-min takes the unknown-variance a_n rule
    assert run_command(["feasibility", "--mode", "n-zero", "--alpha", "0.1", "--k-reg", "0.01",
                        "--k-xi", "9"]) == 0
    assert read_report(in_tmp / "feasibility_report.csv")[0].n_zero == 3655
    reports = []
    for rule in ([], ["--a-rule", "1+n^-0.2"]):
        assert run_command(["feasibility", "--mode", "alpha-min", "--n", "500,5000"] + rule) == 0
        reports.append((in_tmp / "feasibility_report.csv").read_bytes())
    assert reports[0] == reports[1]
    capsys.readouterr()


def test_feasibility_n_zero_cap_exceeded(in_tmp, capsys):
    code = run_command(
        ["feasibility", "--mode", "n-zero", "--alpha", "0.10", "--k-xi", "2",
         "--k-reg", "5", "--omega-rule", "n^-1", "--a-rule", "1+1*n^-2/5"]
    )
    assert code == 2
    assert "beyond n = 1000000000" in capsys.readouterr().err


def test_simulate_byte_identical(in_tmp, capsys):
    config = {
        "dgp": {"kind": "exponential-mean"},
        "methods": [{"name": "clt"}, {"name": "unknown-variance", "K": 9}],
        "n": [500],
        "alpha": 0.1,
        "replications": 50,
        "seed": 11,
    }
    cfg_path = write(in_tmp / "sim.json", json.dumps(config))
    assert run_command(["simulate", "--config", str(cfg_path), "--output", "s1.csv"]) == 0
    assert run_command(["simulate", "--config", str(cfg_path), "--output", "s2.csv"]) == 0
    assert (in_tmp / "s1.csv").read_bytes() == (in_tmp / "s2.csv").read_bytes()
    assert run_command(
        ["simulate", "--config", str(cfg_path), "--output", "s3.csv", "--workers", "3"]
    ) == 0
    assert (in_tmp / "s1.csv").read_bytes() == (in_tmp / "s3.csv").read_bytes()
    write(in_tmp / "bom.json", "\ufeff" + json.dumps(config))
    assert run_command(["simulate", "--config", "bom.json", "--output", "s4.csv"]) == 0
    assert (in_tmp / "s1.csv").read_bytes() == (in_tmp / "s4.csv").read_bytes()
    capsys.readouterr()


def test_simulate_family_mismatch_is_config_error(in_tmp, capsys):
    cfg_path = write(
        in_tmp / "mismatch.json",
        json.dumps({
            "dgp": {"kind": "exponential-mean"},
            "methods": [{"name": "asymp"}],
            "n": [100],
            "alpha": 0.1,
            "replications": 5,
        }),
    )
    assert run_command(["simulate", "--config", str(cfg_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("support", [[0, 1, 2], 5, [0]])
def test_simulate_hoeffding_support_needs_two_numbers(in_tmp, capsys, support):
    cfg_path = write(in_tmp / "sim.json", json.dumps({
        "dgp": {"kind": "exponential-mean"},
        "methods": [{"name": "hoeffding", "support": support}],
        "n": [100], "alpha": 0.1, "replications": 5,
    }))
    assert run_command(["simulate", "--config", str(cfg_path)]) == 2
    assert "hoeffding support must be two numbers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "method, dgp, field",
    [
        ({"name": "chebyshev", "var_bound": "abc"}, None, "var_bound"),
        ({"name": "hoeffding", "support": [0, "b"]}, None, "support entry"),
        ({"name": "known-variance", "sigma": "s", "K": 9}, None, "sigma"),
        ({"name": "known-variance", "sigma": 1, "K": [9]}, None, "K"),
        ({"name": "unknown-variance", "K": "nine"}, None, "K"),
        ({"name": "unknown-variance", "inflation": None}, None, "inflation"),
        ({"name": "clt"}, {"kind": "exponential-mean", "rate": "fast"}, "rate"),
        ({"name": "asymp"}, {"kind": "gumbel-hetero-linear", "u": [0, 0, "one"]}, "u entry"),
        ({"name": "edg", "bounds": {"lambda_reg": "plugin", "k_reg": "plugin",
                                    "k_eps": "plugin", "k_xi": {"v": 9}}},
         {"kind": "gumbel-hetero-linear"}, "k_xi"),
    ],
    ids=["var_bound", "support", "sigma", "known-variance-K", "unknown-variance-K",
         "inflation", "rate", "u", "edg-bounds"],
)
def test_simulate_non_numeric_config_value_is_config_error(in_tmp, capsys, method, dgp, field):
    cfg_path = write(in_tmp / "sim.json", json.dumps({
        "dgp": dgp or {"kind": "exponential-mean"},
        "methods": [method],
        "n": [100], "alpha": 0.1, "replications": 5,
    }))
    assert run_command(["simulate", "--config", str(cfg_path)]) == 2
    assert f"{field} must be a number" in capsys.readouterr().err


STUDY = {"dgp": {"kind": "gumbel-hetero-linear"}, "methods": [{"name": "asymp"}],
         "n": [100], "alpha": 0.1, "replications": 5}


@pytest.mark.parametrize(
    "config, message",
    [
        ({**STUDY, "dgp": 5}, "DGP config must be a JSON object"),
        ({**STUDY, "dgp": ["kind"]}, "DGP config must be a JSON object"),
        ({**STUDY, "methods": 5}, "methods must be a list"),
        ({**STUDY, "methods": [5]}, "method config must be a JSON object"),
        ({**STUDY, "methods": "clt"}, "methods must be a list"),
        ({**STUDY, "methods": [{"name": "edg", "bounds": 5}]},
         "edg bounds config must be a JSON object"),
        ([1, 2], "simulation study config must be a JSON object"),
    ],
    ids=["dgp-number", "dgp-list", "methods-number", "method-number", "methods-string",
         "edg-bounds-number", "study-list"],
)
def test_simulate_config_section_of_wrong_type_is_config_error(in_tmp, capsys, config, message):
    cfg_path = write(in_tmp / "sim.json", json.dumps(config))
    assert run_command(["simulate", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        ({**STUDY, "n": [100.7]}, "n entry must be an integer, got 100.7"),
        ({**STUDY, "n": [100, True]}, "n entry must be an integer, got True"),
        ({**STUDY, "n": [float("inf")]}, "n entry must be an integer, got inf"),
        ({**STUDY, "replications": 5.9}, "replications must be an integer, got 5.9"),
        ({**STUDY, "replications": float("nan")}, "replications must be an integer, got nan"),
        ({**STUDY, "seed": 1.5}, "seed must be an integer, got 1.5"),
        ({**STUDY, "seed": False}, "seed must be an integer, got False"),
        ({**STUDY, "seed": -1}, "seed must be >= 0, got -1"),
    ],
    ids=["n-fraction", "n-boolean", "n-inf", "replications-fraction", "replications-nan",
         "seed-fraction", "seed-boolean", "seed-negative"],
)
def test_simulate_integer_fields_are_config_errors(in_tmp, capsys, config, message):
    write(in_tmp / "sim.json", json.dumps(config))
    assert run_command(["simulate", "--config", "sim.json"]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (in_tmp / "simulate_report.csv").exists()


def test_simulate_integral_floats_pass(in_tmp):
    write(in_tmp / "a.json", json.dumps(STUDY))
    write(in_tmp / "b.json", json.dumps({**STUDY, "n": [1e2], "replications": 5.0, "seed": 0.0}))
    for name in "ab":
        argv = ["simulate", "--config", f"{name}.json", "--output", f"{name}_report.csv"]
        assert run_command(argv) == 0
    assert (in_tmp / "a_report.csv").read_bytes() == (in_tmp / "b_report.csv").read_bytes()


def test_simulate_rejects_unknown_keys(in_tmp, capsys):
    cfg_path = write(in_tmp / "sim.json", json.dumps({"dgp": {"kind": "exponential-mean"},
                                                      "methods": [{"name": "clt"}],
                                                      "n": [100], "alpha": 0.1,
                                                      "replications": 5, "typo": True}))
    assert run_command(["simulate", "--config", str(cfg_path)]) == 2
    bad_json = write(in_tmp / "bad.json", "{not json")
    assert run_command(["simulate", "--config", str(bad_json)]) == 2
    assert run_command(["simulate", "--config", str(in_tmp / "missing.json")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "method",
    [
        {"name": "known-variance", "sigma": 1, "K": 9, "delta": 5},
        {"name": "unknown-variance", "delta": 5},
        {"name": "edg", "delta": ["be"], "bounds": {"lambda_reg": 1, "k_reg": 1, "k_eps": 1,
                                                   "k_xi": 9}},
    ],
    ids=["known-variance", "unknown-variance", "edg"],
)
def test_simulate_non_string_delta_is_config_error(in_tmp, capsys, method):
    dgp = {"kind": "gumbel-hetero-linear" if method["name"] == "edg" else "exponential-mean"}
    cfg_path = write(in_tmp / "sim.json", json.dumps({
        "dgp": dgp, "methods": [method], "n": [100], "alpha": 0.1, "replications": 5,
    }))
    assert run_command(["simulate", "--config", str(cfg_path)]) == 2
    assert "delta must be a provider string" in capsys.readouterr().err


def test_simulate_negative_plug_in_inflation_is_a_config_error(in_tmp, capsys):
    method = {"name": "unknown-variance", "K": "plugin", "inflation": -0.5}
    write(in_tmp / "sim.json", json.dumps({"dgp": {"kind": "exponential-mean"},
                                           "methods": [method], "n": [100], "alpha": 0.1,
                                           "replications": 5}))
    assert run_command(["simulate", "--config", "sim.json"]) == 2
    assert "config error: inflation must be >= 0, got -0.5" in capsys.readouterr().err
    assert not (in_tmp / "simulate_report.csv").exists()


@pytest.mark.parametrize("flag", ["false", 0, 1, None])
def test_simulate_track_alpha_min_must_be_boolean(in_tmp, capsys, flag):
    study = {"dgp": {"kind": "exponential-mean"}, "n": [100], "alpha": 0.1, "replications": 5}
    method = {"name": "unknown-variance", "track_alpha_min": flag}
    write(in_tmp / "bad.json", json.dumps({**study, "methods": [method]}))
    assert run_command(["simulate", "--config", "bad.json"]) == 2
    assert "track_alpha_min must be true or false" in capsys.readouterr().err
    write(in_tmp / "good.json", json.dumps({**study, "methods": [dict(method,
                                                                       track_alpha_min=False)]}))
    assert run_command(["simulate", "--config", "good.json", "--output", "out.csv"]) == 0
    assert read_report(in_tmp / "out.csv")[0].mean_alpha_min is None


_MEAN_CI_D = ["mean-ci", "--alpha", "0.1", "--method", "clt", "--input", "d.csv"]
_MEAN_CI_K9 = ["mean-ci", "--alpha", "0.1", "--K", "9", "--input", "d.csv"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--config", "x.json", "--output", "x.csv"],
         "would overwrite the --config file x.json"),
        (["simulate", "--config", "x.json", "--output", "x.json"],
         "would overwrite the --config file x.json"),
        (["simulate", "--config", "x.json", "--output", "sub/../x.csv"],
         "would overwrite the --config file x.json"),
        (["mean-ci", "--alpha", "0.1", "--method", "clt", "--input", "d.csv",
          "--output", "d.csv"], "would overwrite the --input file d.csv"),
        (["mean-ci", "--alpha", "0.1", "--method", "clt", "--input", "d.json",
          "--output", "d.csv"], "would overwrite the --input file d.json"),
        (["ols-ci", "--alpha", "0.1", "--u", "1,0", "--method", "asymp", "--input", "o.csv",
          "--output", "o.csv"], "would overwrite the --input file o.csv"),
        (["mean-ci", "--alpha", "0.1", "--method", "clt", "--input", "mean_ci_report.csv"],
         "would overwrite the --input file mean_ci_report.csv"),
        # a .json report would be overwritten by its own summary
        ([*_MEAN_CI_D, "--output", "rep.json"], "output rep.json would be both the report"),
        (["simulate", "--config", "x.json", "--output", "rep.json"],
         "output rep.json would be both the report"),
        ([*_MEAN_CI_D, "--output", "sub"], "output sub is a directory"),
        ([*_MEAN_CI_D, "--output", "dir.csv"], "output dir.json is a directory"),
        ([*_MEAN_CI_D, "--output", "missing/x.csv"], "directory missing does not exist"),
        (["simulate", "--config", "x.json", "--output", "missing/x.csv"],
         "directory missing does not exist"),
        # a table that a delta spec names is read, as --input is; simulate
        # refuses it once its config is read, before the study runs
        ([*_MEAN_CI_K9, "--delta", "user:t.csv", "--output", "t.csv"],
         "would overwrite the delta table t.csv"),
        ([*_MEAN_CI_K9, "--delta", "min(be,user:t.csv)", "--output", "t.csv"],
         "would overwrite the delta table t.csv"),
        ([*_MEAN_CI_K9, "--delta", "user:t.json:certified", "--output", "t.csv"],
         "would overwrite the delta table t.json"),
        (["ols-ci", "--alpha", "0.1", "--add-intercept", "--u", "0,1", "--k-xi", "9", "--input",
          "o.csv", "--delta", "user:t.csv", "--output", "t.csv"], "would overwrite the delta table t.csv"),
        (["feasibility", "--mode", "n-zero", "--alpha", "0.1", "--k-reg", "0.01", "--delta",
          "min(user:t.csv,be)", "--output", "t.csv"], "would overwrite the delta table t.csv"),
        (["width-curve", "--method", "unknown-variance", "--K", "9", "--alpha", "0.1", "--n", "100",
          "--delta", "user:t.csv", "--output", "t.csv"], "would overwrite the delta table t.csv"),
        (["simulate", "--config", "x.json", "--output", "t.csv"],
         "would overwrite the delta table t.csv"),
        (["simulate", "--config", "ols.json", "--output", "t.csv"],
         "would overwrite the delta table t.json"),
    ],
    ids=["simulate-summary", "simulate-report", "simulate-dotdot", "mean-ci-report",
         "mean-ci-summary", "ols-ci-report", "mean-ci-default-output", "mean-ci-json-report",
         "simulate-json-report", "report-directory", "summary-directory",
         "mean-ci-missing-directory", "simulate-missing-directory", "mean-ci-table",
         "mean-ci-table-in-min", "mean-ci-certified-table-summary", "ols-ci-table",
         "feasibility-table-in-min", "width-curve-table", "simulate-table",
         "simulate-table-in-min-summary"],
)
def test_outputs_may_not_overwrite_inputs(in_tmp, capsys, argv, message):
    # every case is refused before anything runs (simulate would print its rows)
    (in_tmp / "sub").mkdir()
    (in_tmp / "dir.json").mkdir()
    study = {"n": [100], "alpha": 0.1, "replications": 5}
    write(in_tmp / "x.json", json.dumps({
        **study, "dgp": {"kind": "exponential-mean"},
        "methods": [{"name": "clt"}, {"name": "unknown-variance", "K": 9, "delta": "user:t.csv"}]}))
    write(in_tmp / "ols.json", json.dumps({
        **study, "dgp": {"kind": "gumbel-hetero-linear"},
        "methods": [{"name": "asymp"}, {"name": "edg", "delta": "min(be,user:t.json:certified)",
                                        "bounds": {"lambda_reg": 1, "k_reg": 0.01, "k_eps": 1, "k_xi": 9}}]}))
    for name in ("t.csv", "t.json"):
        write(in_tmp / name, "n,K,delta\n2,9,0.3\n100,9,0.001\n")
    for name in ("d.csv", "d.json", "mean_ci_report.csv"):
        write(in_tmp / name, "x\n1\n2\n3\n")
    write(in_tmp / "o.csv", "y,x1\n1,0\n2,1\n2,3\n5,4\n")
    before = {path.name: path.read_bytes() for path in in_tmp.iterdir() if path.is_file()}
    assert run_command(argv) == 2
    out, err = capsys.readouterr()
    assert message in err and out == ""
    after = {path.name: path.read_bytes() for path in in_tmp.iterdir() if path.is_file()}
    assert after == before


@pytest.mark.parametrize("failing", ["write_report", "write_summary"])
def test_an_output_that_cannot_be_written_is_a_config_error(in_tmp, capsys, monkeypatch, failing):
    write(in_tmp / "d.csv", "x\n1\n2\n3\n")

    def full_disk(path, content):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(f"navae.cli.{failing}", full_disk)
    assert run_command([*_MEAN_CI_D, "--output", "out.csv"]) == 2
    path = "out.csv" if failing == "write_report" else "out.json"
    assert f"config error: cannot write {path}: [Errno 28] No space left on device" in \
        capsys.readouterr().err


_GEN_FAMILIES = {
    "mean": (
        [{"kind": "exponential-mean"}, {"kind": "exponential-mean", "rate": 2.0}],
        [
            {"name": "clt"},
            {"name": "student"},
            {"name": "chebyshev", "var_bound": 1.0},
            {"name": "hoeffding", "support": [0, 5]},  # data past 5 is a data error
            {"name": "known-variance", "sigma": 1.0, "K": 9},
            {"name": "unknown-variance", "K": 9, "delta": "be"},
            {"name": "unknown-variance", "K": "plugin", "a_rule": "optimized",
             "track_alpha_min": True},
        ],
    ),
    "ols": (
        [{"kind": "gumbel-hetero-linear"}, {"kind": "gumbel-hetero-linear", "u": [0, 1, 0]}],
        [
            {"name": "asymp"},
            {"name": "edg", "bounds": {"lambda_reg": "plugin", "k_reg": "plugin",
                                       "k_eps": "plugin", "k_xi": 9}},
        ],
    ),
}

# one field replaced by a value of the wrong type, or of the right type that
# fails a check at run time
_GEN_FAULTS = [
    ("dgp", 5),
    ("dgp", {"kind": "exponential-mean", "rate": "fast"}),
    ("dgp", {"kind": "gumbel-hetero-linear", "u": [0, 1]}),
    ("methods", "clt"),
    ("methods", [5]),
    ("methods", [{"name": "clt", "junk": 1}]),
    ("methods", [{"name": "chebyshev", "var_bound": "abc"}]),
    ("methods", [{"name": "unknown-variance", "delta": 5}]),
    ("methods", [{"name": "unknown-variance", "track_alpha_min": "false"}]),
    ("methods", [{"name": "unknown-variance", "K": 9, "a_rule": "1.5+-0.1*n^0.5"}]),
    ("methods", [{"name": "edg", "bounds": 5}]),
    ("n", 100),
    ("n", [1]),
    ("alpha", 1.5),
    ("alpha", None),
    ("replications", 0),
    ("replications", "five"),
    ("typo", True),
]


@st.composite
def _gen_studies(draw):
    """A valid simulate config (n <= 200, replications <= 5), with one field
    replaced by a fault half of the time."""
    dgps, methods = _GEN_FAMILIES[draw(st.sampled_from(sorted(_GEN_FAMILIES)))]
    study = {
        "dgp": draw(st.sampled_from(dgps)),
        "methods": draw(st.lists(st.sampled_from(methods), min_size=1, max_size=3)),
        "n": draw(st.lists(st.integers(20, 200), min_size=1, max_size=3)),
        "alpha": draw(st.floats(0.01, 0.5)),
        "replications": draw(st.integers(1, 5)),
        "seed": draw(st.integers(0, 2**32)),
    }
    if draw(st.booleans()):
        field, value = draw(st.sampled_from(_GEN_FAULTS))
        study[field] = value
    return study


@given(study=_gen_studies())
@settings(max_examples=25, deadline=None)
def test_simulate_generated_configs_same_at_one_and_two_workers(study):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write(tmp / "sim.json", json.dumps(study))
        codes = [
            run_command(["simulate", "--config", str(tmp / "sim.json"), "--workers", workers,
                         "--output", str(tmp / f"w{workers}.csv")])
            for workers in ("1", "2")
        ]
        assert codes[0] in (0, 2, 3)
        assert codes[1] == codes[0]
        if codes[0] == 0:
            assert (tmp / "w1.csv").read_bytes() == (tmp / "w2.csv").read_bytes()


# ---------------------------------------------------------------------------
# a fuzzer over the one-shot commands' flags and input files
# ---------------------------------------------------------------------------

_FUZZ_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 10**9).map(str),
    st.sampled_from(["0.1", "0.05", "0.3", "0.5", "1", "9", "1e308", "-0", "plugin", "abc", ""]),
)
# mostly in range, so that most draws get past the flag checks
_FUZZ_ALPHA = st.one_of(st.floats(1e-3, 0.49).map(repr), st.floats(1e-3, 0.49).map(repr), _FUZZ_NUMBER)
_FUZZ_BOUND = st.one_of(st.floats(1.0, 1e3).map(repr), st.floats(1e-3, 1.0).map(repr), _FUZZ_NUMBER)
_FUZZ_RULE = st.sampled_from(["optimized", "1+n^-0.2", "1+20*n^-2/5", "n^-1/5", "1.5", "0.5+n^-0.2",
                              "2", "n^0.5", "0", "bad"])
_FUZZ_DELTA = st.sampled_from(["be", "edg-leading", "edg-cont-leading", "min(be,edg-leading)",
                               "user:{table}", "user:{table}:certified", "min(be,user:{table})", "bogus"])
# n lists that repeat, are unsorted, start at 1 and reach 1e9
_FUZZ_N = st.one_of(
    st.lists(st.one_of(st.integers(1, 10**9), st.sampled_from([1, 2, 10**9])), min_size=1, max_size=6)
    .map(lambda n: ",".join(map(str, n))),
    st.sampled_from(["1", "1,1,100000000,2", "1e9,1", "0", "1.5", "10,abc", "", "1e400"]),
)
_FUZZ_SMALL_N = st.lists(st.integers(1, 3000), min_size=1, max_size=3).map(lambda n: ",".join(map(str, n)))


def _fuzz_csv(columns: int):
    """CSV bytes: a header or none, then rows of ``columns`` generated
    numbers, with a ragged or non-numeric row now and then; or JSON text;
    or arbitrary bytes."""
    wide = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([0.0, 1e300, -1e-300]))
    value = st.sampled_from([st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), wide]).flatmap(lambda v: v)
    row = st.lists(value, min_size=columns, max_size=columns).map(lambda r: ",".join(map(repr, r)))
    header = ",".join(["y"] + [f"x{j}" for j in range(1, columns)]) if columns > 1 else "x"
    rows = st.one_of(st.lists(row, min_size=5, max_size=30), st.lists(row, max_size=4))
    table = st.tuples(st.sampled_from([True, True, False]), rows,
                      st.sampled_from(["", "", "", "1,2,3,4,5,6", "a,b"]))
    text = table.map(lambda t: ("\n".join(([header] if t[0] else []) + t[1] + [t[2]]) + "\n").encode())
    return st.one_of(
        text,
        text,
        text,
        st.dictionaries(st.text(max_size=5), st.floats(), max_size=3).map(lambda d: json.dumps(d).encode()),
        st.binary(max_size=64),
    )


def _flag(name: str, strategy):
    """The flag with a drawn value (as one argument, so that a value such as
    -1 is not read as a flag), or nothing."""
    return st.one_of(st.just([]), strategy.map(lambda v: [f"{name}={v}"]))


@st.composite
def _fuzz_commands(draw):
    """(argv, {file name: bytes}) for mean-ci, ols-ci, feasibility or
    width-curve; ``{table}`` and ``{input}`` stand for the files' paths."""
    command = draw(st.sampled_from(["mean-ci", "ols-ci", "feasibility", "width-curve"]))
    files = {"table": draw(st.one_of(
        st.lists(st.tuples(st.integers(1, 10**6), st.floats(1.0, 100.0), st.floats(1e-4, 1.0)),
                 min_size=1, max_size=4).map(lambda rows: "".join(f"{n},{k!r},{d!r}\n" for n, k, d in rows)
                                             .encode()),
        _fuzz_csv(3)))}
    argv = [command]
    if command == "mean-ci":
        files["input"] = draw(_fuzz_csv(1))
        argv += ["--input", "{input}", "--alpha=" + draw(_FUZZ_ALPHA), "--method", draw(st.sampled_from(
            ["clt", "student", "chebyshev", "hoeffding", "known-variance", "unknown-variance"]))]
        for name in ("--K", "--sigma", "--var-bound", "--inflation"):
            argv += draw(_flag(name, _FUZZ_BOUND))
        argv += draw(_flag("--support", st.sampled_from(["-1e6,1e6", "0,1", "1,0", "a,b"])))
    elif command == "ols-ci":
        p = draw(st.integers(2, 4))
        files["input"] = draw(_fuzz_csv(p))
        intercept = draw(st.sampled_from([[], ["--add-intercept"]]))
        coordinate = st.one_of(st.floats(0.5, 1e3), st.floats(-1e3, -0.5), st.sampled_from([0.0, 1e-300, 1e300]))
        size = p - 1 + len(intercept)
        u = st.lists(coordinate, min_size=size, max_size=size).map(lambda v: ",".join(map(repr, v)))
        argv += ["--input", "{input}", "--alpha=" + draw(_FUZZ_ALPHA), "--method",
                 draw(st.sampled_from(["asymp", "edg"])),
                 "--u=" + draw(st.one_of(u, u, st.lists(_FUZZ_NUMBER, min_size=1, max_size=p + 1)
                                         .map(",".join)))]
        argv += intercept
        for name in ("--lambda-reg", "--k-reg", "--k-eps", "--k-xi", "--inflation"):
            argv += draw(_flag(name, _FUZZ_BOUND))
    elif command == "feasibility":
        mode = draw(st.sampled_from(["alpha-min", "a-interval", "n-zero"]))
        argv += ["--mode", mode, "--n=" + draw(_FUZZ_N)]
        argv += ["--alpha=" + draw(_FUZZ_ALPHA)] if mode != "alpha-min" or draw(st.booleans()) else []
        for name in ("--K", "--k-reg", "--k-xi"):
            argv += draw(_flag(name, _FUZZ_BOUND))
    else:
        argv += ["--method", draw(st.sampled_from(["known-variance", "unknown-variance", "edg"])),
                 "--alpha=" + draw(_FUZZ_ALPHA), "--n", draw(_FUZZ_SMALL_N),
                 "-M", str(draw(st.integers(0, 3))), "--seed", str(draw(st.integers(0, 5)))]
        for name in ("--K", "--sigma"):
            argv += draw(_flag(name, _FUZZ_BOUND))
    argv += draw(_flag("--a-rule", _FUZZ_RULE)) + draw(_flag("--delta", _FUZZ_DELTA))
    return argv, files


@given(case=_fuzz_commands())
# found by this test: x'x overflowed with a RuntimeWarning before its DataError,
# and a K_xi of 1e308 overflowed edg-cont-leading's K^1.5 with an OverflowError
@example(case=(["ols-ci", "--input", "{input}", "--alpha=0.25", "--method", "asymp", "--u=0.0,1.0"],
               {"input": b"y,x1,x2\n" + b"0.0,0.0,0.0\n" * 5 + b"0.0,0.0,1.3407807929942597e+154\n"}))
@example(case=(["feasibility", "--mode", "n-zero", "--n=1", "--alpha=0.25", "--k-xi=1e308",
                "--delta=edg-cont-leading"], {}))
@settings(max_examples=60, deadline=None)
def test_one_shot_commands_exit_0_2_or_3_on_generated_inputs(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.csv" for name in files}
        for name, content in files.items():
            paths[name].write_bytes(content)
        argv = [arg.format(**{name: str(path) for name, path in paths.items()}) for arg in argv]
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            code = run_command(argv + ["--output", str(Path(tmp) / "report.csv")])
    assert code in (0, 2, 3)


def test_width_curve_command(in_tmp, capsys):
    code = run_command(
        ["width-curve", "--method", "known-variance", "--alpha", "0.10", "--K", "9",
         "--sigma", "1", "--n", "10000,100000"]
    )
    assert code == 0
    rows = read_report(in_tmp / "width_curve_report.csv")
    assert rows[0].ratio == pytest.approx(1.1851, abs=2e-3)
    capsys.readouterr()


def test_width_curve_unknown_and_edg(in_tmp, capsys):
    assert run_command(
        ["width-curve", "--method", "unknown-variance", "--alpha", "0.10", "--K", "9",
         "--n", "10000"]
    ) == 0
    rows = read_report(in_tmp / "width_curve_report.csv")
    assert rows[0].ratio == pytest.approx(1.276, abs=2e-3)
    assert run_command(
        ["width-curve", "--method", "edg", "--alpha", "0.10", "--n", "4000",
         "--replications", "3", "--seed", "5"]
    ) == 0
    rows = read_report(in_tmp / "width_curve_report.csv")
    assert rows[0].ratio is not None and rows[0].ratio > 1.0
    capsys.readouterr()


def test_width_curve_rows_say_where_an_n_is_the_whole_line(in_tmp, capsys):
    # an n at which every interval is the whole line reads 1.0, with the
    # replications drawn; a deterministic mean row reads 1.0 or 0.0
    assert run_command(["width-curve", "--method", "edg", "--alpha", "0.1", "-M", "2",
                        "--n", "3000,5000"]) == 0
    whole, bounded = read_report(in_tmp / "width_curve_report.csv")
    assert (whole.n, whole.whole_line_fraction, whole.replications, whole.width) == (3000, 1.0, 2, None)
    assert (bounded.n, bounded.whole_line_fraction, bounded.replications) == (5000, 0.0, 2)
    assert bounded.width is not None
    assert run_command(["width-curve", "--method", "unknown-variance", "--alpha", "0.1", "--K", "9",
                        "-M", "0", "--n", "100,3000"]) == 0
    whole, bounded = read_report(in_tmp / "width_curve_report.csv")
    assert (whole.n, whole.whole_line_fraction, whole.replications, whole.ratio) == (100, 1.0, None, None)
    assert (bounded.whole_line_fraction, bounded.replications, bounded.width) == (0.0, None, None)
    assert run_command(["width-curve", "--method", "unknown-variance", "--alpha", "0.1", "--K", "9",
                        "-M", "3", "--n", "100,3000"]) == 0
    whole, bounded = read_report(in_tmp / "width_curve_report.csv")
    assert (whole.whole_line_fraction, whole.replications) == (1.0, None)
    assert (bounded.whole_line_fraction, bounded.replications) == (0.0, 3)
    assert run_command(["width-curve", "--method", "known-variance", "--alpha", "0.1", "--K", "9",
                        "--sigma", "1", "--n", "100,3000"]) == 0
    whole, bounded = read_report(in_tmp / "width_curve_report.csv")
    assert (whole.whole_line_fraction, whole.replications, bounded.whole_line_fraction) == (1.0, None, 0.0)
    assert bounded.replications is None and bounded.width is not None
    capsys.readouterr()


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("method", ["edg", "unknown-variance"])
def test_width_curve_negative_seed_is_a_config_error(tmp_path, method):
    # a separate process with a memory cap and a timeout, so that a seed
    # hashed without the check cannot hang the suite or exhaust memory
    import navae

    env = dict(os.environ, PYTHONPATH=str(Path(navae.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "navae.cli", "width-curve", "--method", method, "--K", "9",
         "--alpha", "0.10", "--n", "100", "--replications", "2", "--seed", "-1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_memory if sys.platform != "win32" else None,
    )
    assert done.returncode == 2
    assert "seed must be >= 0, got -1" in done.stderr
    assert not (tmp_path / "width_curve_report.csv").exists()


@pytest.mark.parametrize("method", ["unknown-variance", "known-variance"])
def test_width_curve_rejects_negative_replications(in_tmp, capsys, method):
    argv = ["width-curve", "--method", method, "--alpha", "0.1", "--K", "9", "--sigma", "1",
            "--n", "10000"]
    assert run_command(argv + ["--replications", "-3"]) == 2
    assert "replications must be >= 0, got -3" in capsys.readouterr().err
    assert not (in_tmp / "width_curve_report.csv").exists()
    # zero replications ask for the ratios alone
    assert run_command(argv + ["--replications", "0"]) == 0
    (row,) = read_report(in_tmp / "width_curve_report.csv")
    assert (row.width is None) == (method == "unknown-variance")
    assert row.ratio is not None
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags, message",
    [(["--alpha", "1.5", "--sigma", "1"], "alpha must be in (0,1), got 1.5"),
     (["--alpha", "-0.1", "--sigma", "1"], "alpha must be in (0,1), got -0.1"),
     (["--alpha", "0.1", "--sigma", "-1"], "sigma_known must be positive, got -1.0"),
     (["--alpha", "0.1", "--sigma", "0"], "sigma_known must be positive, got 0.0")],
    ids=["alpha-above-1", "alpha-negative", "sigma-negative", "sigma-zero"],
)
def test_width_curve_checks_known_variance_as_mean_ci_does(in_tmp, capsys, flags, message):
    argv = ["width-curve", "--method", "known-variance", "--K", "9", "--n", "100000"]
    assert run_command(argv + flags) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (in_tmp / "width_curve_report.csv").exists()


@pytest.mark.parametrize("n", ["inf", "1e400", "100.7"])
def test_width_curve_rejects_non_integral_n(in_tmp, capsys, n):
    code = run_command(
        ["width-curve", "--method", "known-variance", "--alpha", "0.10", "--K", "9",
         "--sigma", "1", "--n", n]
    )
    assert code == 2
    assert "n values must be finite integers" in capsys.readouterr().err


def test_width_curve_a_rule_sets_the_edg_rule(in_tmp, capsys):
    from navae.dgp_sim import GumbelHeteroLinear, OlsEdgMethod, width_curve
    from navae.ols_ci import OlsBounds, OlsTuning, PlugIn
    from navae.rules import parse_rule

    argv = ["width-curve", "--method", "edg", "--alpha", "0.1", "--n", "5000", "-M", "4",
            "--seed", "3"]
    reports = []
    for flags in ([], ["--a-rule-ols", "1+10*n^-2/5"], ["--a-rule", "1+10*n^-2/5"]):
        assert run_command(argv + flags) == 0
        reports.append((in_tmp / "width_curve_report.csv").read_bytes())
    assert reports[1] == reports[2] != reports[0]
    method = OlsEdgMethod(OlsBounds(PlugIn(), PlugIn(), PlugIn(), 9.0),
                          OlsTuning(a_rule=parse_rule("1+10*n^-2/5")))
    (expected,) = width_curve(GumbelHeteroLinear(), method, (5000,), 0.1, 4, 3)
    (row,) = read_report(in_tmp / "width_curve_report.csv")
    assert (row.width, row.ratio) == (expected.mean_width, expected.ratio)
    capsys.readouterr()


MEAN_ARGV = ["mean-ci", "--input", "m.csv", "--alpha", "0.1", "--method"]
OLS_ARGV = ["ols-ci", "--input", "o.csv", "--u", "0,1", "--alpha", "0.1", "--method"]
METHOD_CASES = {
    "clt": ({"name": "clt"}, MEAN_ARGV + ["clt", "--K", "9"]),
    "student": ({"name": "student"}, MEAN_ARGV + ["student"]),
    "chebyshev": ({"name": "chebyshev", "var_bound": 2.5},
                  MEAN_ARGV + ["chebyshev", "--var-bound", "2.5"]),
    "hoeffding": ({"name": "hoeffding", "support": [-1, 10]},
                  MEAN_ARGV + ["hoeffding", "--support=-1,10"]),
    "known-variance": ({"name": "known-variance", "sigma": 1.5, "K": 9, "delta": "edg-leading"},
                       MEAN_ARGV + ["known-variance", "--sigma", "1.5", "--K", "9",
                                    "--delta", "edg-leading", "--a-rule", "2"]),
    "unknown-variance": ({"name": "unknown-variance", "K": "plugin", "a_rule": "optimized",
                          "inflation": 2.0},
                         MEAN_ARGV + ["unknown-variance", "--K", "plugin", "--a-rule",
                                      "optimized", "--inflation", "2"]),
    "asymp": ({"name": "asymp"}, OLS_ARGV + ["asymp", "--k-reg", "x"]),
    "edg": ({"name": "edg", "omega_rule": "n^-1/4", "a_rule": "1+10*n^-2/5",
             "bounds": {"lambda_reg": "plugin", "k_reg": 0.5, "k_eps": "plugin", "k_xi": 9}},
            OLS_ARGV + ["edg", "--k-reg", "0.5", "--k-xi", "9", "--lambda-reg", "PlugIn",
                        "--omega-rule", "n^-1/4", "--a-rule", "1+10*n^-2/5"]),
}


@pytest.mark.parametrize("name", sorted(METHOD_CASES))
def test_flags_build_the_method_their_config_entry_builds(name):
    from navae.cli import _build_parser, _method
    from navae.dgp_sim import METHOD_KEYS, method_from_config

    assert set(METHOD_CASES) == set(METHOD_KEYS)
    config, argv = METHOD_CASES[name]
    assert _method(_build_parser().parse_args(argv)) == method_from_config(config)
    if name == "edg":  # --inflation reaches the plug-in tags
        inflated = _method(_build_parser().parse_args(argv + ["--inflation", "1.5"]))
        assert inflated == method_from_config(config, inflation=1.5)
        assert inflated.bounds.k_eps.inflation == 1.5


@pytest.mark.parametrize("support", ["-inf,1", "-1e308,1e308"])
def test_hoeffding_support_without_a_finite_width_is_a_config_error(in_tmp, capsys, support):
    code = run_command(["mean-ci", "--alpha", "0.1", "--method", "hoeffding",
                        f"--support={support}", "--input", str(mean_file(in_tmp))])
    assert code == 2
    assert "support must satisfy a < b with a finite width" in capsys.readouterr().err
