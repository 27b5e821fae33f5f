"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from navae.dgp_sim import (
    CltMethod,
    CustomMeanDgp,
    ExponentialMean,
    GumbelHeteroLinear,
    KnownVarianceMethod,
    OlsEdgMethod,
    SimStudySpec,
    UnknownVarianceMethod,
    run_coverage_study,
    sample_gumbel_hetero_linear,
    width_curve,
)
from navae.edgeworth import BerryEsseen, delta_of
from navae.linalg import pseudo_inverse
from navae.mean_ci import (
    MeanCiConfig,
    Sample,
    UnknownVariance,
    alpha_min,
    ci_clt,
    ci_unknown_variance,
    feasible_a_interval,
    optimize_a,
    unknown_variance_width_factor,
)
from navae.ols_ci import (
    Design,
    OlsBounds,
    OlsTuning,
    PlugIn,
    ci_asymp,
    ci_edg,
    ols_fit,
    plug_in_bounds,
)
from navae.rules import OPTIMIZED, PowerRule
from navae.specialfn import std_normal_cdf, std_normal_quantile

from oracles import ci_edg_oracle, plug_in_oracle

BE = BerryEsseen()
FIXED_A = PowerRule(1.0, 1.0, -0.2)
STUDY_TUNING = OlsTuning(
    omega_rule=PowerRule(0.0, 1.0, -0.2),
    a_rule=PowerRule(1.0, 20.0, -0.4),
    delta=BE,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_table_alpha_min():
    with criterion(1, "alpha_min table at K=9, a=1+n^-1/5, Berry-Esseen delta"):
        expected = {500: 0.466, 1000: 0.261, 5000: 0.0703, 10000: 0.0488}
        start = time.perf_counter()
        values = {n: alpha_min(n, 9.0, FIXED_A, BE) for n in expected}
        elapsed = time.perf_counter() - start
        for n, target in expected.items():
            assert values[n] == pytest.approx(target, abs=1e-3), (n, values[n])
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_informativeness_threshold():
    with criterion(2, "whole line at n=3655, bounded at n=3656 under the study tuning"):
        bounds = OlsBounds(lambda_reg=0.3, k_reg=0.01, k_eps=500.0, k_xi=9.0)
        design_low = sample_gumbel_hetero_linear(3655, seed=20260810)
        design_high = sample_gumbel_hetero_linear(3656, seed=20260810)
        start = time.perf_counter()
        low = ci_edg(design_low, 0.10, bounds, STUDY_TUNING)
        high = ci_edg(design_high, 0.10, bounds, STUDY_TUNING)
        elapsed = time.perf_counter() - start
        assert low.whole_line
        assert not high.whole_line
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_3_coverage_table_desk_scale():
    with criterion(3, "Exponential coverage at n=10^4, M=5000: clt/known/unknown"):
        methods = (
            CltMethod(),
            KnownVarianceMethod(sigma=1.0, kurtosis_bound=9.0, delta=BE),
            UnknownVarianceMethod(kurtosis_bound=9.0, delta=BE, a_rule=FIXED_A),
        )
        # seed fixed after verifying the harness against a 200k-replication
        # independent estimate of the true CLT coverage (0.8996 +/- 0.0007)
        spec = SimStudySpec(
            dgp=ExponentialMean(),
            methods=methods,
            n_grid=(10_000,),
            replications=5_000,
            alpha=0.10,
            base_seed=12345,
        )
        start = time.perf_counter()
        report = run_coverage_study(spec, workers=1)
        elapsed = time.perf_counter() - start
        tolerance = 3.0 * math.sqrt(0.9 * 0.1 / 5_000)  # ~0.0127
        targets = {
            methods[0].label: 0.903,
            methods[1].label: 0.952,
            methods[2].label: 0.965,
        }
        for label, target in targets.items():
            got = report.row(label, 10_000).coverage
            assert got == pytest.approx(target, abs=tolerance), (label, got)
        assert elapsed <= 300.0, f"took {elapsed:.1f}s"


def test_criterion_4_width_ratio_curve():
    with criterion(4, "known-variance width ratio: level, tail, monotone decrease"):
        def ratio(n: int) -> float:
            delta = delta_of(BE, n, 9.0)
            return std_normal_quantile(0.95 + delta) / std_normal_quantile(0.95)

        r4 = ratio(10**4)
        assert 1.183 <= r4 <= 1.187, r4
        assert ratio(10**7) <= 1.005
        grid = [int(round(10**e)) for e in np.linspace(4, 7, 13)]
        values = [ratio(n) for n in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        # the library's width_curve emits the same deterministic ratios
        curve = width_curve(
            ExponentialMean(),
            KnownVarianceMethod(sigma=1.0, kurtosis_bound=9.0, delta=BE),
            (10**4,),
            0.10,
        )
        assert curve[0].ratio == pytest.approx(r4, rel=1e-12)


def _nav_band(report, label, n, alpha, replications):
    floor = (1.0 - alpha) - 3.0 * math.sqrt((1.0 - alpha) * alpha / replications)
    got = report.row(label, n).coverage
    assert got >= floor, (label, n, got, floor)


def test_criterion_5_nav_coverage_suite():
    with criterion(5, "certified intervals cover at or above (1-alpha) - 3 mc se"):
        alpha, m_mean = 0.10, 2_000
        mean_methods = (
            KnownVarianceMethod(sigma=1.0, kurtosis_bound=9.0, delta=BE),
            UnknownVarianceMethod(kurtosis_bound=9.0, delta=BE, a_rule=FIXED_A),
            UnknownVarianceMethod(kurtosis_bound=9.0, delta=BE, a_rule=OPTIMIZED),
        )
        exp_spec = SimStudySpec(
            dgp=ExponentialMean(),
            methods=mean_methods,
            n_grid=(5_000, 10_000),
            replications=m_mean,
            alpha=alpha,
            base_seed=101,
        )
        exp_report = run_coverage_study(exp_spec)
        normal_dgp = CustomMeanDgp(
            draw=lambda n, rng: rng.standard_normal(n), target=0.0, name="normal-mean"
        )
        normal_spec = SimStudySpec(
            dgp=normal_dgp,
            methods=mean_methods,
            n_grid=(5_000, 10_000),
            replications=m_mean,
            alpha=alpha,
            base_seed=202,
        )
        normal_report = run_coverage_study(normal_spec)
        for report in (exp_report, normal_report):
            for method in mean_methods:
                for n in (5_000, 10_000):
                    _nav_band(report, method.label, n, alpha, m_mean)

        m_ols = 1_000
        ols_method = OlsEdgMethod(
            bounds=OlsBounds(
                lambda_reg=PlugIn(), k_reg=PlugIn(), k_eps=PlugIn(), k_xi=9.0
            ),
            tuning=STUDY_TUNING,
        )
        ols_spec = SimStudySpec(
            dgp=GumbelHeteroLinear(),
            methods=(ols_method,),
            n_grid=(5_000,),
            replications=m_ols,
            alpha=alpha,
            base_seed=303,
        )
        ols_report = run_coverage_study(ols_spec)
        assert abs(GumbelHeteroLinear().target - (-3.0)) == 0.0
        _nav_band(ols_report, ols_method.label, 5_000, alpha, m_ols)


def test_criterion_6_oracle_equivalences():
    with criterion(6, "intercept-only = clt; 3-point sandwich; scripted edg oracle"):
        rng = np.random.default_rng(606)
        for _ in range(100):
            n = int(rng.integers(3, 300))
            y = rng.exponential(1.0, n) if rng.random() < 0.5 else rng.standard_normal(n)
            a = ci_asymp(Design(x=np.ones((n, 1)), y=y, u=np.array([1.0])), 0.1)
            c = ci_clt(Sample(y), 0.1)
            assert a.lower == pytest.approx(c.lower, abs=1e-10)
            assert a.upper == pytest.approx(c.upper, abs=1e-10)

        fit = ols_fit(
            Design(
                x=np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]),
                y=np.array([0.0, 1.0, 3.0]),
                u=np.array([0.0, 1.0]),
            )
        )
        expected = np.array([[7.0 / 72.0, -1.0 / 24.0], [-1.0 / 24.0, 1.0 / 24.0]])
        assert np.max(np.abs(fit.v_hat - expected)) <= 1e-12

        design = sample_gumbel_hetero_linear(5_000, seed=4242, u=(0.0, 1.0, 0.0))
        ci = ci_edg(
            design,
            0.10,
            OlsBounds(lambda_reg=0.3, k_reg=8.0, k_eps=500.0, k_xi=9.0),
            STUDY_TUNING,
        )
        low, high = ci_edg_oracle(
            np.asarray(design.x), np.asarray(design.y), np.asarray(design.u),
            0.10, lam=0.3, k_reg=8.0, k_eps=500.0, k_xi=9.0,
        )
        assert ci.lower == pytest.approx(low, rel=1e-9)
        assert ci.upper == pytest.approx(high, rel=1e-9)

        fit53 = ols_fit(design)
        mine = plug_in_bounds(fit53, design.u)
        oracle = plug_in_oracle(np.asarray(design.x), np.asarray(design.y), np.asarray(design.u))
        for name in ("lambda_reg", "k_reg", "k_eps", "k_xi"):
            assert getattr(mine, name) == pytest.approx(oracle[name], rel=1e-9)


def test_criterion_7_structural_properties():
    with criterion(7, "Penrose, quantile round trip, nesting, homogeneity, determinism"):
        rng = np.random.default_rng(707)
        # Penrose conditions at 1e-9 scale
        for _ in range(200):
            p = int(rng.integers(1, 11))
            a = rng.standard_normal((p, p))
            m = a + a.T
            if rng.random() < 0.5 and p > 1:
                values, vectors = np.linalg.eigh(m)
                values[: int(rng.integers(1, p))] = 0.0
                m = (vectors * values) @ vectors.T
                m = 0.5 * (m + m.T)
            pinv = pseudo_inverse(m).array
            scale = max(1.0, np.linalg.norm(m, 2), np.linalg.norm(pinv, 2))
            assert np.linalg.norm(m @ pinv @ m - m) <= 1e-9 * scale
            assert np.linalg.norm(pinv @ m @ pinv - pinv) <= 1e-9 * scale
            assert np.linalg.norm((m @ pinv).T - m @ pinv) <= 1e-9 * scale
            assert np.linalg.norm((pinv @ m).T - pinv @ m) <= 1e-9 * scale

        for p in rng.uniform(1e-8, 1 - 1e-8, size=2_000):
            p = float(p)
            assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-12

        # nesting on randomized configurations
        cfg_cases = 0
        while cfg_cases < 200:
            n = int(rng.integers(2_000, 50_000))
            alpha = float(rng.uniform(0.02, 0.45))
            k = float(rng.uniform(2.0, 15.0))
            x = rng.exponential(1.0, n)
            s = Sample(x)
            cfg = MeanCiConfig(
                alpha=alpha, kurtosis_bound=k, delta=BE, a_rule=FIXED_A,
                variance=UnknownVariance(),
            )
            outer = ci_unknown_variance(s, cfg)
            if outer.whole_line:
                continue
            inner = ci_clt(s, alpha)
            assert outer.lower <= inner.lower and inner.upper <= outer.upper
            cfg_cases += 1

        edg_cases = 0
        trial = 0
        while edg_cases < 50:
            trial += 1
            n = int(rng.integers(3_700, 8_000))
            design = sample_gumbel_hetero_linear(n, seed=trial)
            bounds = OlsBounds(
                lambda_reg=float(rng.uniform(0.1, 0.4)),
                k_reg=float(rng.uniform(0.01, 2.0)),
                k_eps=float(rng.uniform(100.0, 900.0)),
                k_xi=float(rng.uniform(5.0, 12.0)),
            )
            outer = ci_edg(design, 0.10, bounds, STUDY_TUNING)
            if outer.whole_line:
                continue
            inner = ci_asymp(design, 0.10)
            assert outer.lower <= inner.lower and inner.upper <= outer.upper
            edg_cases += 1

        # positive homogeneity of the OLS interval in u
        design = sample_gumbel_hetero_linear(5_000, seed=909)
        bounds = OlsBounds(lambda_reg=0.3, k_reg=8.0, k_eps=500.0, k_xi=9.0)
        base = ci_edg(design, 0.10, bounds, STUDY_TUNING)
        for factor in (2.0, 3.0, 7.5):
            scaled_design = Design(x=design.x, y=design.y, u=factor * np.asarray(design.u))
            scaled = ci_edg(scaled_design, 0.10, bounds, STUDY_TUNING)
            assert (scaled.lower + scaled.upper) / 2 == pytest.approx(
                factor * (base.lower + base.upper) / 2, rel=1e-10
            )
            assert scaled.width == pytest.approx(factor * base.width, rel=1e-10)

        # bit-identical reports across worker counts
        spec = SimStudySpec(
            dgp=ExponentialMean(),
            methods=(
                CltMethod(),
                UnknownVarianceMethod(kurtosis_bound=9.0, delta=BE, a_rule=FIXED_A),
            ),
            n_grid=(3_000,),
            replications=400,
            alpha=0.10,
            base_seed=777,
        )
        reports = [run_coverage_study(spec, workers=w) for w in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]


def test_criterion_8_optimizer_dominance():
    with criterion(8, "optimized a never wider than 1+n^-1/5; coverage comparison"):
        for alpha in (0.05, 0.10, 0.32):
            for exponent in np.linspace(3, 6, 10):
                n = int(round(10**exponent))
                feasible = feasible_a_interval(n, alpha, 9.0, BE)
                if feasible is None:
                    continue
                a_fixed = FIXED_A(n)
                if not feasible[0] < a_fixed < feasible[1]:
                    continue
                cfg_fixed = MeanCiConfig(
                    alpha=alpha, kurtosis_bound=9.0, delta=BE, a_rule=FIXED_A,
                    variance=UnknownVariance(),
                )
                cfg_opt = MeanCiConfig(
                    alpha=alpha, kurtosis_bound=9.0, delta=BE, a_rule=OPTIMIZED,
                    variance=UnknownVariance(),
                )
                w_fixed = unknown_variance_width_factor(n, cfg_fixed)
                w_opt = unknown_variance_width_factor(n, cfg_opt)
                assert w_fixed is not None and w_opt is not None
                assert w_opt <= w_fixed * (1 + 1e-12), (alpha, n)
                a_star = optimize_a(n, alpha, 9.0, BE)
                assert feasible[0] <= a_star <= feasible[1]

        m = 2_000
        n_big = 200_000
        methods = (
            UnknownVarianceMethod(kurtosis_bound=9.0, delta=BE, a_rule=FIXED_A),
            UnknownVarianceMethod(kurtosis_bound=9.0, delta=BE, a_rule=OPTIMIZED),
        )
        spec = SimStudySpec(
            dgp=ExponentialMean(),
            methods=methods,
            n_grid=(n_big,),
            replications=m,
            alpha=0.10,
            base_seed=808,
        )
        # both methods see the same draws, and at n_big the optimized width
        # factor is below the fixed one (1.7252 < 1.7726 at alpha 0.1), so
        # each optimized interval lies inside the fixed one on its draw
        report = run_coverage_study(spec)
        fixed_cov = report.row(methods[0].label, n_big).coverage
        opt_cov = report.row(methods[1].label, n_big).coverage
        assert opt_cov <= fixed_cov, (opt_cov, fixed_cov)
