"""Golden reports: every command's CSV report and JSON summary, byte for byte.

Each case runs one CLI command in a temporary directory, on configs and CSVs
that this module writes (the CSVs from a seeded generator), and compares the
report and summary it writes with the files under ``tests/golden/``.  Paths
are relative to that directory, so the summaries' echoed paths are too.  No
report carries a timing field today; one that gains one (a wall time, a
reps/s figure) must leave it out of the comparison.

A change that is meant to alter reports regenerates the files with

    NAVAE_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest -q tests/test_golden_reports.py

and says in its change notes which reports changed and why.
"""

import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from navae.cli import run_command

GOLDEN = Path(__file__).parent / "golden"
UPDATE = os.environ.get("NAVAE_UPDATE_GOLDEN") == "1"

_EXPONENTIAL = {"kind": "exponential-mean"}
_GUMBEL = {"kind": "gumbel-hetero-linear", "u": [0, 0, 1]}
_EDG_PLUG_IN_XI_9 = {"name": "edg", "bounds": {"lambda_reg": "plugin", "k_reg": "plugin",
                                               "k_eps": "plugin", "k_xi": 9}}


def _readme_config() -> dict:
    """The ``simulate`` config block of README.md."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return json.loads(re.search(r"A `simulate` config looks like:\s*```json\n(.*?)```", text, re.S).group(1))


# perfbench's three study workloads at fewer replications, README's config,
# and the configs of WORKER_CASES
STUDIES = {
    "mc_mean_fixed": {
        "dgp": _EXPONENTIAL,
        "methods": [{"name": "clt"}, {"name": "student"},
                    {"name": "known-variance", "sigma": 1.0, "K": 9},
                    {"name": "unknown-variance", "K": 9, "a_rule": "1+n^-0.2"}],
        "n": [100, 10000], "alpha": 0.1, "replications": 40, "seed": 7,
    },
    "mc_mean_search": {
        "dgp": _EXPONENTIAL,
        "methods": [{"name": "clt"},
                    {"name": "unknown-variance", "K": "plugin", "a_rule": "optimized",
                     "track_alpha_min": True},
                    {"name": "unknown-variance", "K": 9, "a_rule": "optimized"}],
        "n": [2000, 20000], "alpha": 0.1, "replications": 8, "seed": 7,
    },
    "mc_ols_plugin": {
        "dgp": _GUMBEL,
        "methods": [{"name": "asymp"}, _EDG_PLUG_IN_XI_9],
        "n": [3000, 5000], "alpha": 0.1, "replications": 10, "seed": 7,
    },
    "readme_sim": _readme_config(),
    "ols_sim": {
        "dgp": _GUMBEL,
        "methods": [{"name": "asymp"}, _EDG_PLUG_IN_XI_9,
                    {"name": "edg", "bounds": {"lambda_reg": "plugin", "k_reg": "plugin",
                                               "k_eps": "plugin", "k_xi": "plugin"}}],
        "n": [3000, 5000], "alpha": 0.1, "replications": 61, "seed": 7,
    },
    "mean_sim": {
        "dgp": {"kind": "exponential-mean", "rate": 2},
        "methods": [{"name": "hoeffding", "support": [0, 50]},
                    {"name": "unknown-variance", "K": "plugin", "a_rule": "optimized",
                     "track_alpha_min": True}],
        "n": [200, 2000], "alpha": 0.1, "replications": 61, "seed": 7,
    },
    "mean_edge_sim": {
        "dgp": {"kind": "exponential-mean", "rate": 2},
        "methods": [{"name": "known-variance", "sigma": 0.5, "K": 9},
                    {"name": "unknown-variance", "K": 9, "track_alpha_min": True}],
        "n": [2375, 2376, 2926, 2927], "alpha": 0.1, "replications": 61, "seed": 7,
    },
    "ols_edge_sim": {
        "dgp": _GUMBEL,
        "methods": [{"name": "edg", "bounds": {"lambda_reg": 1, "k_reg": 0.01,
                                               "k_eps": 1, "k_xi": 9}},
                    _EDG_PLUG_IN_XI_9],
        "n": [3655, 3656], "alpha": 0.1, "replications": 61, "seed": 7,
    },
    # a rate that is not a power of two, so that dividing by it rounds
    "mean_rate_sim": {
        "dgp": {"kind": "exponential-mean", "rate": 0.37},
        "methods": [{"name": "clt"}, {"name": "student"},
                    {"name": "known-variance", "sigma": 1 / 0.37, "K": 9},
                    {"name": "unknown-variance", "K": 9, "track_alpha_min": True},
                    {"name": "unknown-variance", "K": "plugin"}],
        "n": [2, 7, 100, 8193], "alpha": 0.1, "replications": 37, "seed": 11,
    },
}

# Studies whose reports must be the same bytes at workers 2 and 3: README's;
# asymp, plug-in edg and all-plug-in edg (whose n_zero key changes every
# replication), whole line at n = 3000 and bounded at 5000; records from the
# interval loop (hoeffding) beside tracked alpha_mins and a partial
# whole-line share (plug-in K); and two that straddle a first bounded n,
# where a cell below it draws nothing: known variance (2375/2376), unknown
# variance (2926/2927), and edg with every bound fixed and with K_xi alone
# fixed (3655/3656).  Three workers cut the 61 replications, and the blocks
# the OLS cells are fitted in, unevenly.
WORKER_CASES = ("readme_sim", "ols_sim", "mean_sim", "mean_edge_sim", "ols_edge_sim")

_MEAN = ["--input", "mean.csv", "--alpha", "0.1"]
_OLS = ["ols-ci", "--input", "ols.csv", "--add-intercept", "--u", "0,0,1", "--alpha", "0.1"]
_ALPHA_MIN_N = "100,300,1000,2000,5000,10000,20000,100000"
_A_RULE = ["--a-rule", "1+20*n^-2/5"]

COMMANDS = {
    **{f"simulate_{name}": ["simulate", "--config", f"{name}.json"] for name in STUDIES},
    "width_curve_unknown_variance": ["width-curve", "--method", "unknown-variance", "--alpha",
                                     "0.1", "--K", "9", "-M", "20", "--n", "100,3000,20000"],
    "width_curve_edg": ["width-curve", "--method", "edg", "--alpha", "0.1", "-M", "4",
                        "--n", "3000,5000", "--seed", "3"],
    "mean_ci_clt": ["mean-ci", *_MEAN, "--method", "clt"],
    "mean_ci_student": ["mean-ci", *_MEAN, "--method", "student"],
    "mean_ci_chebyshev": ["mean-ci", *_MEAN, "--method", "chebyshev", "--var-bound", "2"],
    "mean_ci_hoeffding": ["mean-ci", *_MEAN, "--method", "hoeffding", "--support", "0,20"],
    "mean_ci_known_variance": ["mean-ci", *_MEAN, "--method", "known-variance", "--sigma", "1",
                               "--K", "9"],
    "mean_ci_unknown_variance": ["mean-ci", *_MEAN, "--method", "unknown-variance", "--K", "9",
                                 "--a-rule", "1+n^-0.2"],
    "ols_ci_asymp": [*_OLS, "--method", "asymp"],
    "ols_ci_edg": [*_OLS, "--method", "edg"],  # plug-in K_xi: the whole line
    "ols_ci_edg_k_xi_9": [*_OLS, "--method", "edg", "--k-xi", "9"],
    "ols_ci_edg_fixed_bounds": [*_OLS, "--method", "edg", "--lambda-reg", "1", "--k-reg", "0.01",
                                "--k-eps", "1", "--k-xi", "9"],
    "feasibility_alpha_min": ["feasibility", "--mode", "alpha-min", "--K", "9", "--a-rule",
                              "optimized", "--n", _ALPHA_MIN_N],
    "feasibility_a_interval": ["feasibility", "--mode", "a-interval", "--K", "9", "--alpha",
                               "0.1", "--n", "1000,2000,5000,10000,20000,100000"],
    "feasibility_n_zero_easy": ["feasibility", "--mode", "n-zero", "--alpha", "0.1", "--k-reg",
                                "0.01", "--k-xi", "9", *_A_RULE],
    "feasibility_n_zero_hard": ["feasibility", "--mode", "n-zero", "--alpha", "0.01", "--k-reg",
                                "1", "--k-xi", "50", *_A_RULE],
}


def _write_csvs(directory: Path) -> None:
    """A 20000-row exponential(1) sample and a 4000-row heteroskedastic OLS
    design, from PCG64 uniforms through Python's ``math`` and written to six
    decimals, so that neither numpy's distribution code nor its vectorised
    logarithm can change a cell."""
    uniforms = np.random.Generator(np.random.PCG64(20261020)).random(20000 + 4 * 4000).tolist()
    mean = [-math.log1p(-u) for u in uniforms[:20000]]
    (directory / "mean.csv").write_text(
        "x\n" + "".join(f"{x:.6f}\n" for x in mean), encoding="utf-8")
    rows = []
    rest = uniforms[20000:]
    for i in range(4000):
        u1, u2, u3, u4 = rest[4 * i:4 * i + 4]
        radius = math.sqrt(-2.0 * math.log1p(-u1))  # Box-Muller pair
        x1 = radius * math.cos(2.0 * math.pi * u2)
        x2 = 0.5 * x1 + radius * math.sin(2.0 * math.pi * u2)
        gumbel = -math.log(-math.log1p(-u3)) - 0.5772156649015329
        eps = abs(x1 + x2) * gumbel * (0.5 + u4)
        rows.append(f"{2.0 + x1 - 3.0 * x2 + eps:.6f},{x1:.6f},{x2:.6f}\n")
    (directory / "ols.csv").write_text("y,x1,x2\n" + "".join(rows), encoding="utf-8")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_csvs(directory)
    for name, config in STUDIES.items():
        (directory / f"{name}.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
    return directory


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_report_matches_its_golden(workdir, monkeypatch, capsys, case):
    monkeypatch.chdir(workdir)
    assert run_command([*COMMANDS[case], "--output", f"{case}.csv"]) == 0, capsys.readouterr()
    for suffix in (".csv", ".json"):
        written = (workdir / f"{case}{suffix}").read_bytes()
        golden = GOLDEN / f"{case}{suffix}"
        if UPDATE:
            GOLDEN.mkdir(exist_ok=True)
            golden.write_bytes(written)
        assert written == golden.read_bytes(), f"{case}{suffix} differs from its golden"


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("name", WORKER_CASES)
def test_study_report_is_the_same_at_any_worker_count(workdir, monkeypatch, capsys, name, workers):
    monkeypatch.chdir(workdir)
    output = f"{name}_workers_{workers}"
    argv = [*COMMANDS[f"simulate_{name}"], "--workers", str(workers), "--output", f"{output}.csv"]
    assert run_command(argv) == 0, capsys.readouterr()
    for suffix in (".csv", ".json"):
        written = (workdir / f"{output}{suffix}").read_bytes()
        assert written == (GOLDEN / f"simulate_{name}{suffix}").read_bytes(), f"{output}{suffix} differs"
