import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "argv, source",
    [
        (["simulate", "--config", "x.json", "--output", "x.csv"], "x.json"),
        (["simulate", "--config", "x.json", "--output", "x.json"], "x.json"),
        (["simulate", "--config", "x.json", "--output", "sub/../x.csv"], "x.json"),
        (["mean-ci", "--alpha", "0.1", "--method", "clt", "--input", "d.csv",
          "--output", "d.csv"], "d.csv"),
        (["mean-ci", "--alpha", "0.1", "--method", "clt", "--input", "d.json",
          "--output", "d.csv"], "d.json"),
        (["ols-ci", "--alpha", "0.1", "--u", "1,0", "--method", "asymp", "--input", "o.csv",
          "--output", "o.csv"], "o.csv"),
        (["mean-ci", "--alpha", "0.1", "--method", "clt", "--input", "mean_ci_report.csv"],
         "mean_ci_report.csv"),
    ],
    ids=["simulate-summary", "simulate-report", "simulate-dotdot", "mean-ci-report",
         "mean-ci-summary", "ols-ci-report", "mean-ci-default-output"],
)
def test_outputs_may_not_overwrite_inputs(in_tmp, capsys, argv, source):
    (in_tmp / "sub").mkdir()
    write(in_tmp / "x.json", json.dumps({"dgp": {"kind": "exponential-mean"},
                                         "methods": [{"name": "clt"}], "n": [100],
                                         "alpha": 0.1, "replications": 5}))
    for name in ("d.csv", "d.json", "mean_ci_report.csv"):
        write(in_tmp / name, "x\n1\n2\n3\n")
    write(in_tmp / "o.csv", "y,x1\n1,0\n2,1\n2,3\n5,4\n")
    before = {path.name: path.read_bytes() for path in in_tmp.iterdir() if path.is_file()}
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert "would overwrite the --" in err and source in err
    after = {path.name: path.read_bytes() for path in in_tmp.iterdir() if path.is_file()}
    assert after == before


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


@pytest.mark.parametrize("n", ["inf", "1e400", "100.7"])
def test_width_curve_rejects_non_integral_n(in_tmp, capsys, n):
    code = run_command(
        ["width-curve", "--method", "known-variance", "--alpha", "0.10", "--K", "9",
         "--sigma", "1", "--n", n]
    )
    assert code == 2
    assert "n values must be finite integers" in capsys.readouterr().err
