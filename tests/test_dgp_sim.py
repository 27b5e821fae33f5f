import json
import math
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from navae import dgp_sim
from navae.dgp_sim import (
    ChebyshevMethod,
    CltMethod,
    CustomMeanDgp,
    ExponentialMean,
    GumbelHeteroLinear,
    HoeffdingMethod,
    KnownVarianceMethod,
    OlsAsympMethod,
    OlsEdgMethod,
    SimStudySpec,
    StudentMethod,
    UnknownVarianceMethod,
    dgp_from_config,
    method_from_config,
    run_coverage_study,
    sample_exponential,
    sample_gumbel_hetero_linear,
    study_from_config,
    substream,
    width_curve,
)
from navae.cli import run_command
from navae.errors import ConfigError, DataError, DomainError, NavaeError
from navae.edgeworth import delta_of
from navae.mean_ci import (MeanCiConfig, Sample, ci_known_variance, sample_kurtosis,
                           unknown_variance_width_factor)
from navae.ols_ci import OlsBounds, OlsTuning, PlugIn, ols_fit
from navae.report import read_report
from navae.rules import OPTIMIZED, PowerRule
from navae.specialfn import std_normal_quantile

GUMBEL_BETA = np.array([2.0, 1.0, -3.0])


# ---------------------------------------------------------------------------
# DGPs
# ---------------------------------------------------------------------------


def test_exponential_mean_and_kurtosis_at_scale():
    sample = sample_exponential(10**6, seed=20260810)
    assert abs(sample.mean - 1.0) <= 0.003
    assert 8.5 <= sample_kurtosis(sample) <= 9.5


def test_exponential_reproducible():
    a = sample_exponential(1000, seed=5)
    b = sample_exponential(1000, seed=5)
    assert np.array_equal(a.values, b.values)
    c = sample_exponential(1000, seed=6)
    assert not np.array_equal(a.values, c.values)


def test_exponential_strictly_nonnegative_finite():
    s = sample_exponential(10**5, seed=1)
    assert np.all(np.isfinite(s.values))
    assert np.all(s.values >= 0.0)


def test_gumbel_design_shape_and_intercept():
    d = sample_gumbel_hetero_linear(500, seed=3)
    assert d.x.shape == (500, 3)
    assert np.all(d.x[:, 0] == 1.0)
    assert d.u == pytest.approx([0.0, 0.0, 1.0])


def test_gumbel_draws_match_the_column_stack_form():
    # the sampler fills one (n, 3) array; the form it replaced stacked the
    # intercept onto the regressors, and every draw must stay bit for bit;
    # n = 3 is the smallest design Design accepts (n >= p)
    from navae.dgp_sim import EULER_MASCHERONI, GUMBEL_BETA, _GUMBEL_REGRESSOR_CHOL, _generator

    for n in (3, 7, 5000):
        for seed_of in (lambda: 0, lambda: 41, lambda: substream(7, 1, n, 3)):
            seed = seed_of()
            rng = _generator(seed)
            regressors = rng.standard_normal((n, 2)) @ _GUMBEL_REGRESSOR_CHOL.T
            scale = np.abs(regressors[:, 0] + regressors[:, 1]) * math.sqrt(6.0) / math.pi
            uniforms = np.maximum(rng.random(n), 2.0**-53)
            eps = -EULER_MASCHERONI * scale - scale * np.log(-np.log(uniforms))
            x = np.column_stack([np.ones(n), regressors])
            y = x @ np.asarray(GUMBEL_BETA) + eps
            d = sample_gumbel_hetero_linear(n, seed_of())
            assert d.x.tobytes() == x.tobytes() and d.y.tobytes() == y.tobytes(), (n, seed)


def test_gumbel_regressor_covariance():
    d = sample_gumbel_hetero_linear(4 * 10**5, seed=11)
    cov = np.cov(d.x[:, 1], d.x[:, 2])
    assert cov[0, 0] == pytest.approx(1.0, abs=0.02)
    assert cov[1, 1] == pytest.approx(2.0, abs=0.03)
    corr = cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1])
    assert corr == pytest.approx(0.5, abs=0.01)


def test_gumbel_error_vanishes_with_slice_sum():
    # |eps| <= |X1+X2| * sqrt(6)/pi * (gamma_E + |ln(-ln U)|) and U stays on
    # the [2^-53, 1-2^-53] lattice, so |eps| / |X1+X2| is uniformly bounded;
    # in particular X1+X2 = 0 forces eps = 0
    d = sample_gumbel_hetero_linear(10**5, seed=7)
    eps = d.y - d.x @ GUMBEL_BETA
    total = d.x[:, 1] + d.x[:, 2]
    bound = math.sqrt(6.0) / math.pi * (0.5772156649015329 + 37.0)
    assert np.all(np.abs(eps) <= bound * np.abs(total) + 1e-12)


def test_gumbel_conditional_moments_on_slice():
    # condition on X1+X2 near 1: E[eps | slice] near 0, Var near 1
    chunks = 10
    per_chunk = 10**6
    count = 0
    total_sum = 0.0
    total_sq = 0.0
    for chunk in range(chunks):
        d = sample_gumbel_hetero_linear(per_chunk, seed=substream(99, 0, per_chunk, chunk))
        eps = d.y - d.x @ GUMBEL_BETA
        mask = np.abs(d.x[:, 1] + d.x[:, 2] - 1.0) < 0.01
        count += int(mask.sum())
        total_sum += float(eps[mask].sum())
        total_sq += float((eps[mask] ** 2).sum())
    mean = total_sum / count
    var = total_sq / count - mean * mean
    assert abs(mean) <= 0.02
    assert abs(var - 1.0) <= 0.05


def test_gumbel_ols_consistency_large_n():
    d = sample_gumbel_hetero_linear(10**6, seed=20260810)
    fit = ols_fit(d)
    assert np.max(np.abs(fit.beta_hat - GUMBEL_BETA)) <= 0.02


def test_gumbel_target_value():
    assert GumbelHeteroLinear().target == -3.0
    assert GumbelHeteroLinear(u=(0.0, 1.0, 0.0)).target == 1.0


def test_custom_mean_dgp():
    dgp = CustomMeanDgp(draw=lambda n, rng: rng.standard_normal(n), target=0.0, name="normal")
    s = dgp.sample(100, seed=1)
    assert s.n == 100
    s2 = dgp.sample(100, seed=1)
    assert np.array_equal(s.values, s2.values)


# ---------------------------------------------------------------------------
# coverage studies
# ---------------------------------------------------------------------------


def small_mean_study(methods, n_grid=(400,), replications=200, alpha=0.10, seed=42):
    return SimStudySpec(
        dgp=ExponentialMean(),
        methods=methods,
        n_grid=n_grid,
        replications=replications,
        alpha=alpha,
        base_seed=seed,
    )


def test_study_rejects_mismatched_family():
    with pytest.raises(ConfigError):
        SimStudySpec(
            dgp=ExponentialMean(),
            methods=(OlsAsympMethod(),),
            n_grid=(100,),
            replications=10,
            alpha=0.1,
        )


def test_run_coverage_study_deterministic_across_workers():
    spec = small_mean_study((CltMethod(), StudentMethod()))
    single = run_coverage_study(spec, workers=1)
    multi = run_coverage_study(spec, workers=4)
    assert single == multi


def test_run_coverage_study_repeatable():
    spec = small_mean_study((CltMethod(),))
    assert run_coverage_study(spec, workers=2) == run_coverage_study(spec, workers=3)


def test_whole_line_counts_as_covering():
    # at n=100, alpha=0.05 the finite-sample interval is always the real line
    spec = small_mean_study((UnknownVarianceMethod(kurtosis_bound=9.0),), n_grid=(100,),
                            replications=50, alpha=0.05)
    row = run_coverage_study(spec, workers=1).rows[0]
    assert row.coverage == 1.0
    assert row.whole_line_fraction == 1.0
    assert row.mean_width is None


def test_clt_coverage_reasonable():
    spec = small_mean_study((CltMethod(),), n_grid=(2000,), replications=400)
    row = run_coverage_study(spec).rows[0]
    assert 0.85 <= row.coverage <= 0.95
    assert row.mc_se == pytest.approx(
        math.sqrt(row.coverage * (1 - row.coverage) / 400), rel=1e-12
    )
    assert row.whole_line_fraction == 0.0
    assert row.mean_width is not None and row.mean_width > 0


def test_alpha_min_tracking():
    method = UnknownVarianceMethod(kurtosis_bound=None, track_alpha_min=True)
    spec = small_mean_study((method,), n_grid=(500,), replications=100)
    row = run_coverage_study(spec).rows[0]
    assert row.mean_alpha_min is not None and 0.0 < row.mean_alpha_min <= 1.0
    assert row.median_alpha_min is not None
    # Exponential kurtosis estimates vary; the mean should sit near the
    # fixed-bound alpha_min at K = 9 (0.466) but usually below it
    assert 0.25 <= row.mean_alpha_min <= 0.55


def test_alpha_min_plug_in_rows_match_published_table():
    # with the Berry-Esseen provider the reference values apply verbatim for
    # n below the provider-switch region
    method = UnknownVarianceMethod(kurtosis_bound=None, track_alpha_min=True)
    spec = small_mean_study((method,), n_grid=(500, 1000), replications=2000, seed=5150)
    report = run_coverage_study(spec)
    r500 = report.row(method.label, 500)
    r1000 = report.row(method.label, 1000)
    assert r500.mean_alpha_min == pytest.approx(0.423, abs=0.02)
    assert r500.median_alpha_min == pytest.approx(0.393, abs=0.02)
    assert r1000.mean_alpha_min == pytest.approx(0.249, abs=0.02)
    assert r1000.median_alpha_min == pytest.approx(0.229, abs=0.02)


def test_hoeffding_and_chebyshev_methods_run():
    dgp = CustomMeanDgp(draw=lambda n, rng: rng.random(n), target=0.5, name="uniform")
    spec = SimStudySpec(
        dgp=dgp,
        methods=(HoeffdingMethod(0.0, 1.0), ChebyshevMethod(var_bound=1.0 / 12.0)),
        n_grid=(50,),
        replications=100,
        alpha=0.1,
        base_seed=1,
    )
    report = run_coverage_study(spec)
    for row in report.rows:
        assert row.coverage >= 0.9  # both are conservative on uniform data


def test_ols_study_runs_and_is_deterministic():
    method = OlsEdgMethod(
        bounds=OlsBounds(lambda_reg=PlugIn(), k_reg=PlugIn(), k_eps=PlugIn(), k_xi=9.0),
        tuning=OlsTuning(),
    )
    spec = SimStudySpec(
        dgp=GumbelHeteroLinear(),
        methods=(OlsAsympMethod(), method),
        n_grid=(4000,),
        replications=20,
        alpha=0.1,
        base_seed=3,
    )
    a = run_coverage_study(spec, workers=1)
    b = run_coverage_study(spec, workers=2)
    assert a == b
    edg_row = a.row(method.label, 4000)
    assert edg_row.coverage >= a.row("asymp", 4000).coverage


# ---------------------------------------------------------------------------
# forked workers (workers > 1)
# ---------------------------------------------------------------------------


def test_pool_runs_a_lambda_dgp():
    # the study reaches the workers by fork, so an unpicklable draw works
    dgp = CustomMeanDgp(draw=lambda n, rng: rng.standard_normal(n), target=0.0, name="normal")
    spec = SimStudySpec(dgp=dgp, methods=(CltMethod(), UnknownVarianceMethod()),
                        n_grid=(50, 2000), replications=21, alpha=0.1, base_seed=8)
    assert run_coverage_study(spec, workers=2) == run_coverage_study(spec, workers=1)
    assert multiprocessing.active_children() == []


def test_pool_workers_above_replications_equal_serial():
    spec = small_mean_study((CltMethod(), StudentMethod()), n_grid=(30, 300), replications=3)
    assert run_coverage_study(spec, workers=7) == run_coverage_study(spec, workers=1)
    assert multiprocessing.active_children() == []


def _nan_at_400(n, rng):
    x = rng.standard_normal(n)
    if n == 400:
        x[n // 2] = np.nan
    return x


BAD_RULE = {"dgp": {"kind": "exponential-mean"},
            "methods": [{"name": "unknown-variance", "K": 9, "a_rule": "1.5+-0.1*n^0.5"}],
            "n": [9, 400], "alpha": 0.1, "replications": 6, "seed": 4}


@pytest.mark.parametrize("spec, error", [
    (SimStudySpec(dgp=CustomMeanDgp(draw=_nan_at_400, target=0.0), methods=(CltMethod(),),
                  n_grid=(100, 400), replications=10, alpha=0.1), DataError),
    (study_from_config(BAD_RULE), ConfigError),  # a_rule(9) = 1.2, a_rule(400) = -0.5
], ids=["nan-draw", "a-rule-below-one"])
def test_pool_reraises_the_serial_error(spec, error):
    messages = []
    for workers in (1, 2):
        with pytest.raises(NavaeError) as info:
            run_coverage_study(spec, workers=workers)
        assert type(info.value) is error
        messages.append(str(info.value))
        assert multiprocessing.active_children() == []
    assert messages[0] == messages[1]


def test_simulate_error_exit_code_same_with_pool(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.json").write_text(json.dumps(BAD_RULE))
    codes = [run_command(["simulate", "--config", "sim.json", "--workers", w]) for w in "12"]
    assert codes == [2, 2]
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: a_rule(400) = -0.5; fixed rules must return a > 1"] * 2
    assert not (tmp_path / "simulate_report.csv").exists()


def test_serial_study_is_slice_zero_with_no_fork(monkeypatch):
    spec = small_mean_study((CltMethod(), StudentMethod()), n_grid=(30, 300), replications=7)
    expected = run_coverage_study(spec, workers=2)
    cuts = []
    forked_slices = dgp_sim._forked_slices

    def recorded(spec, slice_cuts):
        cuts.append(list(slice_cuts))
        return forked_slices(spec, slice_cuts)

    def no_fork():
        raise AssertionError("a serial study forked")

    monkeypatch.setattr(dgp_sim, "_forked_slices", recorded)
    monkeypatch.setattr(os, "fork", no_fork)
    assert run_coverage_study(spec, workers=1) == expected
    assert cuts == [[0, 7]]


HUGE_N = {"exponential-mean": "clt", "gumbel-hetero-linear": "asymp"}


@pytest.mark.parametrize("n", [2**61, 10**19])
@pytest.mark.parametrize("kind", sorted(HUGE_N))
def test_sample_size_too_large_for_an_array_is_a_config_error(tmp_path, monkeypatch, capsys, kind, n):
    # numpy refuses these sizes before it allocates anything
    monkeypatch.chdir(tmp_path)
    config = {"dgp": {"kind": kind}, "methods": [{"name": HUGE_N[kind]}], "n": [n], "alpha": 0.1,
              "replications": 2}
    (tmp_path / "sim.json").write_text(json.dumps(config))
    codes = [run_command(["simulate", "--config", "sim.json", "--workers", w]) for w in "12"]
    assert codes == [2, 2]
    assert capsys.readouterr().err.splitlines() == [f"config error: sample size {n} is too large for an array"] * 2
    assert not (tmp_path / "simulate_report.csv").exists()


def test_width_curve_sample_size_too_large_for_an_array(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_command(["width-curve", "--method", "unknown-variance", "--K", "9", "--alpha", "0.1",
                        "--n", "3000,1e19", "-M", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: sample size {10**19} is too large for an array"]
    # a cell proved the whole line without data draws nothing, at any n
    assert run_command(["width-curve", "--method", "known-variance", "--sigma", "1", "--K", "1e308",
                        "--alpha", "0.1", "--n", "1e19"]) == 0
    (row,) = read_report("width_curve_report.csv")
    assert row.n == 10**19 and row.whole_line_fraction == 1.0


def test_replication_count_too_large_for_an_array_is_a_domain_error(tmp_path, monkeypatch, capsys):
    # numpy refuses each whole records array; at 2**59 - 2 and 2 or 3
    # workers a slice's is a size numpy accepts and malloc refuses, before
    # memory is touched
    for replications in (2**64 - 1, 2**59 - 2):
        spec = SimStudySpec(ExponentialMean(), (CltMethod(),), (10,), replications, 0.1)
        for workers in (1, 2, 3):
            with pytest.raises(DomainError) as info:
                run_coverage_study(spec, workers=workers)
            assert type(info.value) is DomainError
            assert str(info.value) == f"replication count {replications} is too large for an array"
            assert multiprocessing.active_children() == []
    monkeypatch.chdir(tmp_path)
    config = {"dgp": {"kind": "exponential-mean"}, "methods": [{"name": "clt"}], "n": [10],
              "alpha": 0.1, "replications": 2**59 - 2}
    (tmp_path / "sim.json").write_text(json.dumps(config))
    assert [run_command(["simulate", "--config", "sim.json", "--workers", w]) for w in "12"] == [2, 2]
    message = f"config error: replication count {2**59 - 2} is too large for an array"
    assert capsys.readouterr().err.splitlines() == [message] * 2
    assert not (tmp_path / "simulate_report.csv").exists()
    assert multiprocessing.active_children() == []


def _first_draw_above_one(n, rng):
    x = rng.standard_normal(n)
    if x[0] > 1.0:
        raise DataError(f"n={n}: first draw {x[0]!r} is above 1")
    return x


FIRST_DRAW_STUDY = SimStudySpec(dgp=CustomMeanDgp(draw=_first_draw_above_one, target=0.0),
                                methods=(CltMethod(),), n_grid=(100, 200), replications=6,
                                alpha=0.1, base_seed=147)


def test_fork_raises_the_serial_first_error():
    def fails(n, r):
        try:
            FIRST_DRAW_STUDY.dgp.sample(n, substream(147, 0, n, r))
        except DataError:
            return True
        return False

    # at n=100 only replication 5 fails, which the last child runs at
    # workers 2 and 3; at n=200 replication 0 fails, in the caller's own
    # slice, so the caller's first error comes at a later cell than a child's
    assert [r for r in range(6) if fails(100, r)] == [5]
    assert fails(200, 0)
    raised = []
    for workers in (1, 2, 3):
        with pytest.raises(NavaeError) as info:
            run_coverage_study(FIRST_DRAW_STUDY, workers=workers)
        raised.append((type(info.value), str(info.value)))
    assert raised[0][0] is DataError and raised[0][1].startswith("n=100: first draw ")
    assert raised == [raised[0]] * 3


def _study_drawing(draw):
    return SimStudySpec(dgp=CustomMeanDgp(draw=draw, target=0.0), methods=(CltMethod(),),
                        n_grid=(50,), replications=4, alpha=0.1)


TEST_PID = os.getpid()


def _exit_outside_the_test_process(n, rng):
    if os.getpid() != TEST_PID:
        os._exit(7)
    return rng.standard_normal(n)


def test_fork_worker_that_dies_is_a_runtime_error():
    with pytest.raises(RuntimeError, match="replications 2 to 3 exited with wait status") as info:
        run_coverage_study(_study_drawing(_exit_outside_the_test_process), workers=2)
    assert not isinstance(info.value, NavaeError)


def test_fork_unpicklable_child_error_keeps_its_type_name_and_message():
    class LocalError(Exception):
        pass  # defined in a function, so pickle cannot find the class

    def draw(n, rng):
        if os.getpid() != TEST_PID:
            raise LocalError(f"child draw at n={n}")
        return rng.standard_normal(n)

    with pytest.raises(RuntimeError, match="^LocalError: child draw at n=50$"):
        run_coverage_study(_study_drawing(draw), workers=2)


def test_fork_leaves_no_child_unreaped():
    def interrupted(n, rng):
        if os.getpid() == TEST_PID:
            raise KeyboardInterrupt
        time.sleep(60)  # the caller must kill this child, not wait for it

    run_coverage_study(_study_drawing(lambda n, rng: rng.standard_normal(n)), workers=3)
    with pytest.raises(DataError):
        run_coverage_study(FIRST_DRAW_STUDY, workers=3)
    with pytest.raises(RuntimeError):
        run_coverage_study(_study_drawing(_exit_outside_the_test_process), workers=3)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_coverage_study(_study_drawing(interrupted), workers=3)
    assert time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert multiprocessing.active_children() == []


def test_fork_engine_imports_no_process_pool():
    script = (
        "import sys\n"
        "from navae.dgp_sim import CltMethod, ExponentialMean, SimStudySpec, run_coverage_study\n"
        "spec = SimStudySpec(ExponentialMean(), (CltMethod(),), (50,), 4, 0.1)\n"
        "run_coverage_study(spec, workers=2)\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_study_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        small_mean_study((CltMethod(),), seed=-1)


# ---------------------------------------------------------------------------
# width curves
# ---------------------------------------------------------------------------


def test_known_variance_width_ratio_values():
    method = KnownVarianceMethod(sigma=1.0, kurtosis_bound=9.0)
    rows = width_curve(ExponentialMean(), method, (10**4, 10**5, 10**6, 10**7), 0.10)
    ratios = [r.ratio for r in rows]
    assert ratios[0] == pytest.approx(1.18508779886, abs=2e-3)
    assert ratios[-1] <= 1.005
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r >= 1.0 for r in ratios)
    # deterministic widths: 2 sigma/sqrt(n) q(1-alpha/2+delta)
    assert rows[0].mean_width == pytest.approx(2 * 0.019492959642172056, rel=1e-9)
    # the checks of ci_known_variance hold for the curve too
    with pytest.raises(DomainError, match="sigma_known must be positive"):
        width_curve(ExponentialMean(), KnownVarianceMethod(sigma=-1.0, kurtosis_bound=9.0),
                    (10**4,), 0.1)


def test_known_variance_ratio_none_in_whole_line_regime():
    method = KnownVarianceMethod(sigma=1.0, kurtosis_bound=9.0)
    rows = width_curve(ExponentialMean(), method, (100,), 0.10)
    assert rows[0].ratio is None and rows[0].mean_width is None


def test_unknown_variance_width_ratio():
    method = UnknownVarianceMethod(kurtosis_bound=9.0)
    rows = width_curve(ExponentialMean(), method, (10**4,), 0.10, replications=50, base_seed=9)
    row = rows[0]
    assert row.ratio == pytest.approx(
        0.020988257097045865 * 100.0 / 1.6448536269514722, rel=1e-9
    )
    assert row.mean_width == pytest.approx(2 * 0.0210, abs=0.004)


def test_unknown_variance_ratio_exceeds_known():
    known = KnownVarianceMethod(sigma=1.0, kurtosis_bound=9.0)
    unknown = UnknownVarianceMethod(kurtosis_bound=9.0)
    for n in (5000, 10**4, 10**5):
        rk = width_curve(ExponentialMean(), known, (n,), 0.10)[0].ratio
        ru = width_curve(ExponentialMean(), unknown, (n,), 0.10)[0].ratio
        assert ru > rk >= 1.0


@pytest.mark.parametrize("method, grid", [
    (KnownVarianceMethod(sigma=2.0, kurtosis_bound=9.0), (10000, 100, 3000)),
    # 2 sigma/sqrt(n) q(...) rounds differently from the interval's width at these n
    (KnownVarianceMethod(sigma=1.7, kurtosis_bound=9.0), (2376, 3000, 5000, 12345, 777777, 100)),
    (UnknownVarianceMethod(kurtosis_bound=9.0), (10000, 100, 3000)),
], ids=["known-variance", "known-variance-1.7", "unknown-variance"])
def test_mean_width_curve_rows_bit_for_bit(method, grid):
    alpha = 0.1
    rows = width_curve(ExponentialMean(), method, grid, alpha, replications=20, base_seed=4)
    q = std_normal_quantile(1.0 - alpha / 2.0)
    for n, row in zip(grid, rows):
        if isinstance(method, KnownVarianceMethod):
            delta = delta_of(method.delta, n, 9.0)
            ratio = None if delta >= alpha / 2.0 else std_normal_quantile(1.0 - alpha / 2.0 + delta) / q
            interval = ci_known_variance(Sample(np.zeros(n)), method.sigma, method._config(alpha))
            width = None if ratio is None else interval.width
        else:
            factor = unknown_variance_width_factor(n, MeanCiConfig(alpha=alpha, kurtosis_bound=9.0))
            ratio = None if factor is None else factor / q
            study = SimStudySpec(ExponentialMean(), (method,), (n,), 20, alpha, base_seed=4)
            width = None if ratio is None else run_coverage_study(study).rows[0].mean_width
        assert (row.method, row.n, row.alpha) == (method.label, n, alpha)
        assert (row.ratio, row.mean_width) == (ratio, width)
    assert [row.ratio is None for row in rows] == [n == 100 for n in grid]


def test_ols_width_curve():
    method = OlsEdgMethod(
        bounds=OlsBounds(lambda_reg=PlugIn(), k_reg=PlugIn(), k_eps=PlugIn(), k_xi=9.0),
        tuning=OlsTuning(),
    )
    rows = width_curve(GumbelHeteroLinear(), method, (5000,), 0.10, replications=10, base_seed=2)
    assert rows[0].ratio is not None and rows[0].ratio > 1.0
    with pytest.raises(ConfigError):
        width_curve(GumbelHeteroLinear(), method, (5000,), 0.10, replications=0)


def test_width_curve_rejects_unsupported_method():
    with pytest.raises(ConfigError):
        width_curve(ExponentialMean(), CltMethod(), (100,), 0.1)


# ---------------------------------------------------------------------------
# config parsing and workers
# ---------------------------------------------------------------------------


def test_dgp_from_config():
    assert dgp_from_config({"kind": "exponential-mean"}) == ExponentialMean()
    d = dgp_from_config({"kind": "gumbel-hetero-linear", "u": [0, 1, 0]})
    assert d.u == (0.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        dgp_from_config({"kind": "mystery"})
    with pytest.raises(ConfigError):
        dgp_from_config({"kind": "exponential-mean", "extra": 1})


def test_method_from_config_round_trip():
    m = method_from_config({"name": "unknown-variance", "K": 9, "a_rule": "optimized"})
    assert isinstance(m, UnknownVarianceMethod)
    assert m.a_rule == OPTIMIZED
    m2 = method_from_config({"name": "unknown-variance", "K": "plugin"})
    assert m2.kurtosis_bound is None
    m3 = method_from_config({"name": "known-variance", "sigma": 1.0, "K": 9})
    assert isinstance(m3, KnownVarianceMethod)
    m4 = method_from_config(
        {
            "name": "edg",
            "bounds": {"lambda_reg": "plugin", "k_reg": "plugin", "k_eps": "plugin", "k_xi": 9},
        }
    )
    assert isinstance(m4, OlsEdgMethod)
    assert m4.tuning.a_rule == PowerRule(1.0, 20.0, -0.4)
    with pytest.raises(ConfigError):
        method_from_config({"name": "clt", "junk": 1})
    with pytest.raises(ConfigError):
        method_from_config({"name": "nope"})


def test_study_from_config_complete():
    config = {
        "dgp": {"kind": "exponential-mean"},
        "methods": [{"name": "clt"}],
        "n": [100, 200],
        "alpha": 0.1,
        "replications": 10,
        "seed": 7,
    }
    study = study_from_config(config)
    assert study.n_grid == (100, 200)
    assert study.base_seed == 7
    with pytest.raises(ConfigError):
        study_from_config({**config, "junk": 1})
    missing = dict(config)
    del missing["alpha"]
    with pytest.raises(ConfigError):
        study_from_config(missing)


def test_workers_validated_and_thread_variable_ignored(tmp_path, monkeypatch):
    spec = small_mean_study((CltMethod(),))
    with pytest.raises(ConfigError):
        run_coverage_study(spec, workers=0)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.json").write_text(json.dumps({
        "dgp": {"kind": "exponential-mean"}, "methods": [{"name": "clt"}],
        "n": [100], "alpha": 0.1, "replications": 5,
    }))
    assert run_command(["simulate", "--config", "sim.json", "--workers", "0"]) == 2
    monkeypatch.delenv("NAVAE_THREADS", raising=False)
    plain = run_coverage_study(spec)
    monkeypatch.setenv("NAVAE_THREADS", "zero")
    assert run_coverage_study(spec) == plain


def test_substream_distinct_and_deterministic():
    # the stream of (seed, n, r): the method index names none, n and r do
    def draws(*args):
        return substream(*args).random(4).tolist()

    a = draws(1, 0, 100, 5)
    assert draws(1, 0, 100, 5) == a
    assert draws(1, 1, 100, 5) == a
    assert draws(1, 0, 101, 5) != a
    assert draws(1, 0, 100, 6) != a
    assert draws(2, 0, 100, 5) != a
