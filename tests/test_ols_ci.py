import dataclasses
import itertools
import math
import time
import warnings

import numpy as np
import pytest

from navae.edgeworth import (
    BerryEsseen,
    EdgeworthContinuousLeading,
    EdgeworthLeading,
    TableProvider,
    UserSupplied,
    delta_berry_esseen,
)
from navae.errors import (
    ConfigError,
    DataError,
    DegenerateSampleError,
    DomainError,
    FeasibilityError,
    NavaeError,
    UnboundedScanError,
)
from navae.mean_ci import Sample, ci_clt
from navae.ols_ci import (
    Design,
    OlsBounds,
    OlsTuning,
    PlugIn,
    ci_asymp,
    ci_edg,
    n_zero,
    nu_edg,
    ols_fit,
    plug_in_bounds,
    r_lin,
    r_var,
    rate_r,
    resolve_bounds,
    sandwich_variance,
    tuning_for_rate,
)
from navae.linalg import psd_sqrt
from navae.rules import PowerRule

from oracles import (
    ci_edg_oracle,
    n_zero_backscan_oracle,
    ols_fit_oracle,
    plug_in_oracle,
    r_var_oracle,
)

THREE_POINT_X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
THREE_POINT_Y = np.array([0.0, 1.0, 3.0])

STUDY_TUNING = OlsTuning(
    omega_rule=PowerRule(0.0, 1.0, -0.2),
    a_rule=PowerRule(1.0, 20.0, -0.4),
    delta=BerryEsseen(),
)


def three_point_design(u=(0.0, 1.0)):
    return Design(x=THREE_POINT_X, y=THREE_POINT_Y, u=np.asarray(u))


def simulated_design(n, seed, u=(0.0, 1.0, 0.0)):
    from navae.dgp_sim import sample_gumbel_hetero_linear

    return sample_gumbel_hetero_linear(n, seed, u=u)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_three_point_hand_values():
    fit = ols_fit(three_point_design())
    assert fit.beta_hat == pytest.approx([-1.0 / 6.0, 1.5], abs=1e-12)
    assert fit.residuals == pytest.approx([1.0 / 6.0, -1.0 / 3.0, 1.0 / 6.0], abs=1e-12)


def test_fit_exact_linear_zero_residuals():
    rng = np.random.default_rng(1)
    x = np.column_stack([np.ones(50), rng.standard_normal(50)])
    beta = np.array([2.0, -1.0])
    d = Design(x=x, y=x @ beta, u=np.array([0.0, 1.0]))
    fit = ols_fit(d)
    assert np.max(np.abs(fit.residuals)) <= 1e-12
    assert fit.beta_hat == pytest.approx(beta, abs=1e-10)


def test_fit_orthogonality_full_rank():
    rng = np.random.default_rng(2)
    x = np.column_stack([np.ones(200), rng.standard_normal((200, 3))])
    y = rng.standard_normal(200)
    fit = ols_fit(Design(x=x, y=y, u=np.array([0.0, 1.0, 0.0, 0.0])))
    scale = max(1.0, float(np.linalg.norm(x.T @ y)))
    assert np.linalg.norm(x.T @ fit.residuals) <= 1e-8 * scale


def test_fit_duplicated_column_min_norm():
    rng = np.random.default_rng(3)
    base = rng.standard_normal(60)
    x_dup = np.column_stack([np.ones(60), base, base])
    x_dedup = np.column_stack([np.ones(60), base])
    y = 1.0 + 2.0 * base + rng.standard_normal(60)
    fit_dup = ols_fit(Design(x=x_dup, y=y, u=np.array([0.0, 1.0, 1.0])))
    fit_dedup = ols_fit(Design(x=x_dedup, y=y, u=np.array([0.0, 1.0])))
    # the duplicated coefficients split evenly (min-norm)
    assert fit_dup.beta_hat[1] == pytest.approx(fit_dup.beta_hat[2], abs=1e-9)
    target_dup = float(np.array([0.0, 1.0, 1.0]) @ fit_dup.beta_hat)
    target_dedup = float(np.array([0.0, 1.0]) @ fit_dedup.beta_hat)
    assert target_dup == pytest.approx(target_dedup, rel=1e-9)


def test_fit_matches_numpy_oracle():
    rng = np.random.default_rng(4)
    x = np.column_stack([np.ones(500), rng.standard_normal((500, 2))])
    y = rng.standard_normal(500)
    fit = ols_fit(Design(x=x, y=y, u=np.array([0.0, 0.0, 1.0])))
    oracle = ols_fit_oracle(x, y)
    assert fit.beta_hat == pytest.approx(oracle["beta"], rel=1e-10, abs=1e-12)
    assert fit.v_hat.array == pytest.approx(oracle["v_hat"], rel=1e-9, abs=1e-12)


def test_design_validation():
    with pytest.raises(DataError):
        Design(x=np.ones((2, 3)), y=np.ones(2), u=np.ones(3))
    with pytest.raises(DataError):
        Design(x=np.array([[1.0], [math.nan]]), y=np.ones(2), u=np.ones(1))
    with pytest.raises(DomainError):
        Design(x=np.ones((3, 1)), y=np.ones(3), u=np.zeros(1))
    with pytest.raises(ConfigError):
        Design(x=np.ones((3, 2)), y=np.ones(3), u=np.ones(3))


# ---------------------------------------------------------------------------
# sandwich variance and the asymptotic interval
# ---------------------------------------------------------------------------


def test_sandwich_three_point_hand_matrix():
    fit = ols_fit(three_point_design())
    expected = np.array([[7.0 / 72.0, -1.0 / 24.0], [-1.0 / 24.0, 1.0 / 24.0]])
    assert sandwich_variance(fit).array == pytest.approx(expected, abs=1e-12)


def test_sandwich_intercept_only_is_sigma_hat_sq():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(100)
    fit = ols_fit(Design(x=np.ones((100, 1)), y=y, u=np.array([1.0])))
    sigma_hat_sq = float(np.mean((y - y.mean()) ** 2))
    assert sandwich_variance(fit).array[0, 0] == pytest.approx(sigma_hat_sq, rel=1e-12)


def test_sandwich_zero_residuals_zero_matrix():
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    y = x @ np.array([1.0, 2.0])
    fit = ols_fit(Design(x=x, y=y, u=np.array([1.0, 0.0])))
    assert np.max(np.abs(sandwich_variance(fit).array)) <= 1e-20


def test_ci_asymp_three_point():
    ci = ci_asymp(three_point_design(), 0.05)
    assert ci.lower == pytest.approx(1.2690160292750536, abs=1e-3)
    assert ci.upper == pytest.approx(1.7309839707249468, abs=1e-3)
    assert ci.lower == pytest.approx(1.2690160292750536, rel=1e-9)


def test_ci_asymp_degenerate_when_variance_zero():
    # intercept-only constant outcome: exactly zero residuals and variance
    ci = ci_asymp(Design(x=np.ones((10, 1)), y=np.full(10, 3.0), u=np.array([1.0])), 0.1)
    assert ci.is_degenerate
    assert ci.lower == 3.0
    # near-exact linear fit: the interval collapses to rounding width
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    y = x @ np.array([1.0, 2.0])
    ci = ci_asymp(Design(x=x, y=y, u=np.array([0.0, 1.0])), 0.1)
    assert ci.width <= 1e-10
    assert ci.lower == pytest.approx(2.0, abs=1e-10)


def test_ci_asymp_intercept_only_equals_clt():
    rng = np.random.default_rng(6)
    for _ in range(20):
        y = rng.exponential(1.0, int(rng.integers(5, 200)))
        ci_a = ci_asymp(Design(x=np.ones((y.size, 1)), y=y, u=np.array([1.0])), 0.1)
        ci_c = ci_clt(Sample(y), 0.1)
        assert ci_a.lower == pytest.approx(ci_c.lower, abs=1e-10)
        assert ci_a.upper == pytest.approx(ci_c.upper, abs=1e-10)


# ---------------------------------------------------------------------------
# correction terms
# ---------------------------------------------------------------------------


def fixed_bounds(lam=0.5, k_reg=4.0, k_eps=81.0, k_xi=9.0):
    return OlsBounds(lambda_reg=lam, k_reg=k_reg, k_eps=k_eps, k_xi=k_xi)


def test_r_lin_hand_chain():
    value = r_lin(0.005, 10000, fixed_bounds(), 1.0)
    assert value == pytest.approx(8.898961479364628, rel=1e-10)


def test_r_lin_vanishes_with_k_reg():
    small = r_lin(0.005, 10000, fixed_bounds(k_reg=1e-12), 1.0)
    assert small < 1e-5


def test_r_lin_homogeneous_in_u_norm():
    one = r_lin(0.005, 10000, fixed_bounds(), 1.0)
    two = r_lin(0.005, 10000, fixed_bounds(), 2.0)
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_r_lin_infeasible_gamma():
    with pytest.raises(FeasibilityError):
        r_lin(0.005, 10, fixed_bounds(k_reg=100.0), 1.0)


def test_r_var_zero_residuals_only_first_term():
    fit = ols_fit(Design(x=np.ones((100, 1)), y=np.full(100, 2.0), u=np.array([1.0])))
    assert np.all(fit.residuals == 0.0)
    bounds = fixed_bounds(lam=0.5, k_reg=0.5, k_eps=10.0)
    value = r_var(0.01, fit, bounds)
    n = 100
    gt = math.sqrt(0.5 / (n * 0.01))
    term1 = 2.0 / (n * 0.5**3) * (gt / (1 - gt) + 1) ** 2 * math.sqrt(10.0 / 0.01) * fit.m4
    assert value == pytest.approx(term1, rel=1e-12)
    assert value > 0.0


def test_r_var_matches_independent_script():
    # K_reg = 0.01 keeps gamma feasible on three observations (n gamma > K_reg)
    fit = ols_fit(three_point_design())
    bounds = fixed_bounds(lam=0.5, k_reg=0.01, k_eps=10.0)
    expected = r_var_oracle(
        0.01, THREE_POINT_X, np.asarray(fit.residuals), np.asarray(fit.s_dagger.array),
        0.5, 0.01, 10.0,
    )
    assert r_var(0.01, fit, bounds) == pytest.approx(expected, rel=1e-10)


def test_r_var_matches_independent_script_simulated():
    d = simulated_design(800, seed=99)
    fit = ols_fit(d)
    bounds = fixed_bounds(lam=0.3, k_reg=2.0, k_eps=50.0)
    expected = r_var_oracle(
        0.05, np.asarray(d.x), np.asarray(fit.residuals), np.asarray(fit.s_dagger.array),
        0.3, 2.0, 50.0,
    )
    assert r_var(0.05, fit, bounds) == pytest.approx(expected, rel=1e-10)


def test_r_var_decreasing_when_n_doubles_same_moments():
    rng = np.random.default_rng(7)
    x = np.column_stack([np.ones(40), rng.standard_normal(40)])
    y = rng.standard_normal(40)
    fit1 = ols_fit(Design(x=x, y=y, u=np.array([0.0, 1.0])))
    # duplicating every row doubles n while preserving all sample moments
    fit2 = ols_fit(Design(x=np.vstack([x, x]), y=np.concatenate([y, y]), u=np.array([0.0, 1.0])))
    assert fit2.m4 == pytest.approx(fit1.m4, rel=1e-12)
    assert fit2.t4 == pytest.approx(fit1.t4, rel=1e-9)
    bounds = fixed_bounds(lam=0.4, k_reg=2.0, k_eps=30.0)
    assert r_var(0.2, fit2, bounds) < r_var(0.2, fit1, bounds)


# ---------------------------------------------------------------------------
# nu_edg and the informativeness threshold
# ---------------------------------------------------------------------------


def test_nu_edg_threshold_values():
    assert nu_edg(3656, 0.10, STUDY_TUNING, 9.0) == pytest.approx(0.0499953269283384, abs=1e-5)
    assert nu_edg(3656, 0.10, STUDY_TUNING, 9.0) < 0.05
    assert nu_edg(3655, 0.10, STUDY_TUNING, 9.0) == pytest.approx(0.05000137036801424, abs=1e-5)
    assert nu_edg(3655, 0.10, STUDY_TUNING, 9.0) >= 0.05


def test_nu_edg_dominates_delta():
    from navae.edgeworth import delta_of

    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 10**6))
        alpha = float(rng.uniform(0.01, 0.9))
        k = float(rng.uniform(1.0, 30.0))
        assert nu_edg(n, alpha, STUDY_TUNING, k) >= delta_of(BerryEsseen(), n, k)


def test_nu_edg_invalid_rules():
    bad_omega = OlsTuning(omega_rule=PowerRule(0.0, 2.0, 0.0), a_rule=PowerRule(1.0, 1.0, -0.4))
    with pytest.raises(ConfigError):
        nu_edg(100, 0.1, bad_omega, 9.0)
    bad_a = OlsTuning(omega_rule=PowerRule(0.0, 1.0, -0.2), a_rule=PowerRule(0.9, 0.0, 0.0))
    with pytest.raises(ConfigError):
        nu_edg(100, 0.1, bad_a, 9.0)


def test_n_zero_study_threshold():
    bounds = OlsBounds(lambda_reg=0.3, k_reg=0.01, k_eps=500.0, k_xi=9.0)
    assert n_zero(0.10, STUDY_TUNING, bounds) == 3655


def test_n_zero_first_condition_closed_form():
    # n <= 200 n^0.2  <=>  n <= 200^1.25, whose floor is 752
    tuning = OlsTuning(
        omega_rule=PowerRule(0.0, 1.0, -0.2),
        a_rule=PowerRule(1.0, 20.0, -0.4),
        delta=BerryEsseen(),
    )
    bounds = OlsBounds(lambda_reg=1.0, k_reg=10.0, k_eps=1.0, k_xi=1.0)
    value = n_zero(0.10, tuning, bounds)
    assert value == math.floor(200.0**1.25) == 752


def test_n_zero_nonincreasing_in_alpha():
    bounds = OlsBounds(lambda_reg=0.5, k_reg=0.5, k_eps=2.0, k_xi=2.0)
    values = [n_zero(alpha, STUDY_TUNING, bounds) for alpha in (0.05, 0.10, 0.2, 0.5, 0.9)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_n_zero_cap_exceeded():
    tuning = OlsTuning(omega_rule=PowerRule(0.0, 1.0, -1.0), a_rule=PowerRule(1.0, 1.0, -0.4))
    bounds = OlsBounds(lambda_reg=1.0, k_reg=5.0, k_eps=1.0, k_xi=2.0)
    with pytest.raises(UnboundedScanError):
        n_zero(0.10, tuning, bounds)


def test_n_zero_cap_error_names_the_condition():
    bounds = OlsBounds(lambda_reg=1.0, k_reg=0.0, k_eps=1.0, k_xi=50.0)
    with pytest.raises(UnboundedScanError) as err:
        n_zero(0.1, tuning_for_rate(0.0), bounds)
    at_cap = nu_edg(10**9, 0.1, tuning_for_rate(0.0), 50.0)
    assert str(err.value) == (
        "condition nu_edg >= alpha/2 still violated with insufficient margin "
        f"beyond n = 1000000000: nu_edg = {at_cap:.6g} at n = 1000000000, alpha/2 = 0.05"
    )
    assert at_cap > 0.05
    # omega_n = 0.5/n keeps n <= 2 K_reg/(omega_n alpha) true at every n
    tuning = OlsTuning(omega_rule=lambda n: 0.5 / n)
    bounds = OlsBounds(lambda_reg=1.0, k_reg=1.0, k_eps=1.0, k_xi=9.0)
    with pytest.raises(UnboundedScanError, match=r"condition n <= 2 K_reg/\(omega_n alpha\) "):
        n_zero(0.1, tuning, bounds)


def _n_zero_outcome(fn, alpha, tuning, k_reg, k_xi):
    """n0, or the type and message of the error raised instead."""
    if fn is n_zero:
        args = (alpha, tuning, OlsBounds(lambda_reg=1.0, k_reg=k_reg, k_eps=1.0, k_xi=k_xi))
    else:
        args = (alpha, tuning, float(k_reg), float(k_xi))
    try:
        return fn(*args)
    except NavaeError as exc:
        return type(exc), str(exc)


def test_n_zero_matches_backscan():
    compared = 0
    for alpha, k_reg, k_xi, delta, base in itertools.product(
        (0.01, 0.05, 0.1, 0.2, 0.5),
        (0.0, 0.01, 0.3, 1.0, 10.0),
        (1.0, 2.0, 9.0, 50.0),
        (BerryEsseen(), EdgeworthLeading(), EdgeworthContinuousLeading()),
        (STUDY_TUNING, tuning_for_rate(0.0)),
    ):
        tuning = dataclasses.replace(base, delta=delta)
        value = _n_zero_outcome(n_zero, alpha, tuning, k_reg, k_xi)
        if isinstance(value, int) and value > 10**5:
            # the back-scan costs one nu_edg call per n; past 1e5 check only
            # that n0 violates and n0 + 1 does not
            assert [
                n <= 2.0 * k_reg / (tuning.omega(n) * alpha)
                or nu_edg(n, alpha, tuning, k_xi) >= alpha / 2.0
                for n in (value, value + 1)
            ] == [True, False]
            continue
        compared += 1
        assert value == _n_zero_outcome(n_zero_backscan_oracle, alpha, tuning, k_reg, k_xi), (
            alpha, k_reg, k_xi, delta, base.a_rule,
        )
    assert compared >= 300


def test_n_zero_hard_keys():
    # frozen from the back-scan, which took 1.2 s and 16 s on them
    for k_reg, k_xi, expected in ((1.0, 50.0, 3_441_543), (5.0, 100.0, 9_550_472)):
        bounds = OlsBounds(lambda_reg=1.0, k_reg=k_reg, k_eps=1.0, k_xi=k_xi)
        start = time.perf_counter()
        assert n_zero(0.01, STUDY_TUNING, bounds) == expected
        assert time.perf_counter() - start < 1.0


def test_n_zero_scans_non_monotone_delta():
    # a bump at n = 4000, above the Berry-Esseen n0 = 3655, that a bisection
    # between the grid points 2048 and 4096 would miss
    def bumped(n, k):
        return delta_berry_esseen(n, k) + (0.01 if n == 4000 else 0.0)

    tuning = dataclasses.replace(STUDY_TUNING, delta=UserSupplied(bumped))
    value = _n_zero_outcome(n_zero, 0.10, tuning, 0.01, 9.0)
    assert value == _n_zero_outcome(n_zero_backscan_oracle, 0.10, tuning, 0.01, 9.0) == 4000


def test_n_zero_scans_lambda_omega_rule():
    tuning = dataclasses.replace(
        STUDY_TUNING, omega_rule=lambda n: 0.9 if n == 4000 else n**-0.2
    )
    value = _n_zero_outcome(n_zero, 0.10, tuning, 0.01, 9.0)
    assert value == _n_zero_outcome(n_zero_backscan_oracle, 0.10, tuning, 0.01, 9.0) == 4000


def test_n_zero_scans_where_monotonicity_is_unproved():
    # cond_reg: omega = 0.4 + 55 n^-3 leaves (0,1) for n <= 4, and n omega
    # falls until n = 6.5 and rises after, so n omega <= 3.925 fails at 5 and
    # 6 and holds at 7, below n*_reg = 14.
    # cond_edg: omega leaves (0,1) for n <= 16 and a = 2 + (25/n)^10 falls so
    # fast that h = n (1 - 1/a)^2 dips between 16 and 32; the last violation,
    # 30, lies below n*_edg = 62.
    # cond_edg: omega = 0.9 (1 - (4/n)^10) rises from 0 at n = 4, so nu_edg
    # fails at 5 and holds at 6; an increasing omega rules out bisection.
    cases = (
        (PowerRule(0.4, 55.0, -3.0), PowerRule(1.0, 20.0, -0.4),
         EdgeworthContinuousLeading(), 0.5, 0.98125, 1.0, 7),
        (PowerRule(0.2, 0.8 * 16.0**10, -10.0), PowerRule(2.0, 25.0**10, -10.0),
         BerryEsseen(), 0.5, 0.0, 2.0, 30),
        (PowerRule(0.9, -0.9 * 4.0**10, -10.0), PowerRule(100.0, 0.0, 0.0),
         EdgeworthContinuousLeading(), 0.95, 0.0, 1.0, 6),
    )
    for omega_rule, a_rule, delta, alpha, k_reg, k_xi, expected in cases:
        tuning = OlsTuning(omega_rule=omega_rule, a_rule=a_rule, delta=delta)
        value = _n_zero_outcome(n_zero, alpha, tuning, k_reg, k_xi)
        oracle = _n_zero_outcome(n_zero_backscan_oracle, alpha, tuning, k_reg, k_xi)
        assert value == oracle == expected


def test_n_zero_table_below_first_row():
    # omega = 2 n^-1/5 leaves (0,1) for n <= 32 and the table has no row below
    # n = 40, so the doubling bracket holds points where the provider raises;
    # a table is not ``nonincreasing`` and keeps the back-scan: with a larger
    # delta the last violation (54) lies above those points, with a smaller
    # one the scan stops at n = 39 with the provider's error
    omega = PowerRule(0.0, 2.0, -0.2)
    for delta, expected in ((0.025, 54), (0.001, None)):
        tuning = OlsTuning(
            omega_rule=omega,
            a_rule=PowerRule(1.0, 20.0, -0.4),
            delta=TableProvider(rows=((40, 1.0, delta),)),
        )
        value = _n_zero_outcome(n_zero, 0.5, tuning, 0.01, 1.0)
        assert value == _n_zero_outcome(n_zero_backscan_oracle, 0.5, tuning, 0.01, 1.0)
        if expected is None:
            assert "n=39" in value[1]
        else:
            assert value == expected


def test_n_zero_requires_resolved_bounds():
    with pytest.raises(ConfigError):
        n_zero(0.1, STUDY_TUNING, OlsBounds.all_plug_in())


# ---------------------------------------------------------------------------
# plug-in estimation
# ---------------------------------------------------------------------------


def test_fit_moments_and_plug_in_match_power_forms():
    # ols_fit and plug_in_bounds square twice and sum column by column; the
    # forms they replaced were numpy's ** powers and np.sum over axis 1
    for n in (50, 3000):
        for seed in range(25):
            design = simulated_design(n, seed, u=(0.0, 0.0, 1.0))
            x, fit = design.x, ols_fit(design)
            e = fit.residuals
            norms = np.sqrt(np.sum(x * x, axis=1))
            assert fit.m4 == pytest.approx(np.mean(norms**4), rel=1e-14)
            assert fit.m31 == pytest.approx(np.mean(norms**3 * np.abs(e)), rel=1e-14)
            assert fit.m_xe2 == pytest.approx(np.mean(norms**2 * e**2), rel=1e-14)
            rotated = x @ psd_sqrt(fit.s_dagger).array
            rot_sq = np.sum(rotated * rotated, axis=1)
            influence = (x @ (fit.s_dagger.array @ design.u)) * e
            expected = {
                "lambda_reg": np.linalg.eigvalsh(fit.s.array)[0],
                "k_reg": np.mean(rot_sq**2 - 2.0 * rot_sq + design.p),
                "k_eps": np.mean(rot_sq**2 * e**4),
                "k_xi": max(1.0, np.mean(influence**4) / np.mean(influence**2) ** 2),
            }
            bounds = plug_in_bounds(fit, design.u)
            for name, value in expected.items():
                assert getattr(bounds, name) == pytest.approx(value, rel=1e-14), (n, seed, name)


def test_ols_fit_rejects_overflowing_second_moment():
    # every entry is finite, so Design accepts it, but x'x overflows; the fit
    # must stop there, before the moments overflow too
    x = np.array([[1e200, 1.0], [1.0, 1e200], [1e200, 1e200]])
    design = Design(x=x, y=np.array([1.0, 2.0, 3.0]), u=np.array([1.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "overflow encountered in matmul")
        with pytest.raises(DataError, match="finite"):
            ols_fit(design)


def test_plug_in_intercept_only_k_reg_zero():
    rng = np.random.default_rng(9)
    y = rng.exponential(1.0, 50)
    fit = ols_fit(Design(x=np.ones((50, 1)), y=y, u=np.array([1.0])))
    bounds = plug_in_bounds(fit, np.array([1.0]))
    assert bounds.k_reg == pytest.approx(0.0, abs=1e-10)


def test_plug_in_k_xi_at_least_one():
    rng = np.random.default_rng(10)
    for seed in range(20):
        d = simulated_design(200, seed)
        bounds = plug_in_bounds(ols_fit(d), d.u)
        assert bounds.k_xi >= 1.0


def test_plug_in_matches_independent_script():
    d = simulated_design(10**4, seed=20260810)
    fit = ols_fit(d)
    mine = plug_in_bounds(fit, d.u)
    oracle = plug_in_oracle(np.asarray(d.x), np.asarray(d.y), np.asarray(d.u))
    assert mine.lambda_reg == pytest.approx(oracle["lambda_reg"], rel=1e-10)
    assert mine.k_reg == pytest.approx(oracle["k_reg"], rel=1e-10)
    assert mine.k_eps == pytest.approx(oracle["k_eps"], rel=1e-10)
    assert mine.k_xi == pytest.approx(oracle["k_xi"], rel=1e-10)


def test_plug_in_inflation_direction():
    d = simulated_design(500, seed=4)
    fit = ols_fit(d)
    raw = plug_in_bounds(fit, d.u, inflation=0.0)
    inflated = plug_in_bounds(fit, d.u, inflation=3.0)
    mult = 1.0 + 3.0 / math.sqrt(500)
    assert inflated.k_reg == pytest.approx(raw.k_reg * mult, rel=1e-12)
    assert inflated.k_eps == pytest.approx(raw.k_eps * mult, rel=1e-12)
    assert inflated.k_xi == pytest.approx(raw.k_xi * mult, rel=1e-12)
    assert inflated.lambda_reg == pytest.approx(raw.lambda_reg / mult, rel=1e-12)


def test_plug_in_degenerate_influence():
    # constant outcome on an intercept-only design: residuals exactly zero
    fit = ols_fit(Design(x=np.ones((10, 1)), y=np.full(10, 4.0), u=np.array([1.0])))
    assert np.all(fit.residuals == 0.0)
    with pytest.raises(DegenerateSampleError):
        plug_in_bounds(fit, np.array([1.0]))


def test_resolve_bounds_mixed():
    d = simulated_design(500, seed=5)
    fit = ols_fit(d)
    mixed = OlsBounds(lambda_reg=PlugIn(), k_reg=7.0, k_eps=PlugIn(), k_xi=9.0)
    resolved = resolve_bounds(mixed, fit, d.u)
    pure = plug_in_bounds(fit, d.u)
    assert resolved.lambda_reg == pure.lambda_reg
    assert resolved.k_eps == pure.k_eps
    assert resolved.k_reg == 7.0 and resolved.k_xi == 9.0


def test_plug_in_rank_deficient_refused():
    base = np.linspace(0.0, 1.0, 30)
    x = np.column_stack([np.ones(30), base, base])
    y = base * 2.0 + np.sin(base)
    fit = ols_fit(Design(x=x, y=y, u=np.array([0.0, 1.0, 1.0])))
    with pytest.raises(DataError):
        plug_in_bounds(fit, np.array([0.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# the finite-sample OLS interval
# ---------------------------------------------------------------------------


def study_fixed_bounds():
    return OlsBounds(lambda_reg=0.3, k_reg=8.0, k_eps=500.0, k_xi=9.0)


def test_ci_edg_whole_line_below_threshold():
    d = simulated_design(3655, seed=1)
    bounds = OlsBounds(lambda_reg=0.3, k_reg=0.01, k_eps=500.0, k_xi=9.0)
    assert ci_edg(d, 0.10, bounds, STUDY_TUNING).whole_line


def test_ci_edg_bounded_above_threshold():
    d = simulated_design(3656, seed=1)
    bounds = OlsBounds(lambda_reg=0.3, k_reg=0.01, k_eps=500.0, k_xi=9.0)
    assert not ci_edg(d, 0.10, bounds, STUDY_TUNING).whole_line


def test_ci_edg_matches_independent_script():
    d = simulated_design(5000, seed=777, u=(0.0, 1.0, 0.0))
    ci = ci_edg(d, 0.10, study_fixed_bounds(), STUDY_TUNING)
    lower, upper = ci_edg_oracle(
        np.asarray(d.x), np.asarray(d.y), np.asarray(d.u), 0.10,
        lam=0.3, k_reg=8.0, k_eps=500.0, k_xi=9.0,
    )
    assert ci.lower == pytest.approx(lower, rel=1e-9)
    assert ci.upper == pytest.approx(upper, rel=1e-9)


def test_ci_edg_contains_ci_asymp():
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(4000, 9000))
        d = simulated_design(n, seed=trial)
        inner = ci_asymp(d, 0.10)
        outer = ci_edg(d, 0.10, study_fixed_bounds(), STUDY_TUNING)
        if outer.whole_line:
            continue
        assert outer.lower <= inner.lower and inner.upper <= outer.upper


def test_ci_edg_positive_homogeneity_fixed_bounds():
    d = simulated_design(5000, seed=13)
    for factor in (2.0, 3.0):
        du = Design(x=d.x, y=d.y, u=factor * np.asarray(d.u))
        base = ci_edg(d, 0.10, study_fixed_bounds(), STUDY_TUNING)
        scaled = ci_edg(du, 0.10, study_fixed_bounds(), STUDY_TUNING)
        center = (base.lower + base.upper) / 2
        center_scaled = (scaled.lower + scaled.upper) / 2
        assert center_scaled == pytest.approx(factor * center, rel=1e-10)
        assert scaled.width == pytest.approx(factor * base.width, rel=1e-10)


def test_ci_edg_positive_homogeneity_plug_in():
    d = simulated_design(5000, seed=14)
    bounds = OlsBounds(lambda_reg=PlugIn(), k_reg=PlugIn(), k_eps=PlugIn(), k_xi=9.0)
    for factor in (2.0, 3.0):
        du = Design(x=d.x, y=d.y, u=factor * np.asarray(d.u))
        base = ci_edg(d, 0.10, bounds, STUDY_TUNING)
        scaled = ci_edg(du, 0.10, bounds, STUDY_TUNING)
        assert (scaled.lower + scaled.upper) / 2 == pytest.approx(
            factor * (base.lower + base.upper) / 2, rel=1e-10
        )
        assert scaled.width == pytest.approx(factor * base.width, rel=1e-10)


def test_ci_edg_deterministic():
    d = simulated_design(4200, seed=15)
    bounds = OlsBounds(lambda_reg=PlugIn(), k_reg=PlugIn(), k_eps=PlugIn(), k_xi=9.0)
    a = ci_edg(d, 0.10, bounds, STUDY_TUNING)
    b = ci_edg(d, 0.10, bounds, STUDY_TUNING)
    assert a.lower == b.lower and a.upper == b.upper


def test_ci_edg_rank_deficient_plug_in_refused():
    base = np.linspace(0.0, 1.0, 4000)
    x = np.column_stack([np.ones(4000), base, base])
    y = 2.0 * base + np.cos(base)
    d = Design(x=x, y=y, u=np.array([0.0, 1.0, 1.0]))
    with pytest.raises(DataError):
        ci_edg(d, 0.10, OlsBounds.all_plug_in(), STUDY_TUNING)


# ---------------------------------------------------------------------------
# rate helper
# ---------------------------------------------------------------------------


def test_rate_r_branches():
    assert rate_r(0.0) == pytest.approx(2.0 / 11.0)
    assert rate_r(0.1) == pytest.approx(2.0 / 11.0)
    assert rate_r(2.0 / 11.0) == pytest.approx(2.0 / 11.0)
    assert rate_r(0.19) == pytest.approx(0.19)
    assert rate_r(0.2) == pytest.approx(0.2)
    assert rate_r(0.3) == pytest.approx(0.2)
    assert rate_r(math.inf) == pytest.approx(0.2)
    with pytest.raises(DomainError):
        rate_r(-0.1)


def test_tuning_for_rate():
    tuning = tuning_for_rate(0.19)
    assert tuning.omega_rule(32) == pytest.approx(32.0**-0.19)
    assert tuning.a_rule(32) == pytest.approx(1.0 + 32.0**-0.4)
    assert tuning.rho == 0.19
