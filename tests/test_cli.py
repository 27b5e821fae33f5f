import hashlib
import json

import numpy as np
import pytest

from navae.cli import load_mean_csv, load_ols_csv, run_command
from navae.errors import ConfigError, DataError
from navae.report import read_report


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


def test_feasibility_n_zero(in_tmp, capsys):
    code = run_command(
        ["feasibility", "--mode", "n-zero", "--alpha", "0.10", "--k-xi", "9",
         "--k-reg", "0.01", "--omega-rule", "n^-1/5", "--a-rule", "1+20*n^-2/5"]
    )
    assert code == 0
    rows = read_report(in_tmp / "feasibility_report.csv")
    assert rows[0].n_zero == 3655
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


@pytest.mark.parametrize("n", ["inf", "1e400", "100.7"])
def test_width_curve_rejects_non_integral_n(in_tmp, capsys, n):
    code = run_command(
        ["width-curve", "--method", "known-variance", "--alpha", "0.10", "--K", "9",
         "--sigma", "1", "--n", n]
    )
    assert code == 2
    assert "n values must be finite integers" in capsys.readouterr().err
