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
    MinOf,
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
from navae import ols_ci
from navae.dgp_sim import ExponentialMean, SimStudySpec, UnknownVarianceMethod, run_coverage_study
from navae.mean_ci import MeanCiConfig, Sample, _tuning_terms, alpha_min, ci_clt, ci_unknown_variance, nu_var
from navae.ols_ci import (
    BOUND_KEYS,
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
    tuning_for_rate,
)
from navae.linalg import psd_sqrt
from navae.rules import PowerRule, parse_rule

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


def test_fit_near_collinear_regressors():
    # S^+ M S^+ built from nearly collinear, large regressors is symmetric
    # only to about 3e-9 relative; v_hat symmetrizes it as (A + A')/2
    rng = np.random.default_rng(0)
    z = rng.standard_normal(200)
    x2 = z + 1e-4 * rng.standard_normal(200)
    y = 1.0 + 2.0 * z - x2 + (1.0 + np.abs(z)) * rng.standard_normal(200)
    x = np.column_stack([np.ones(200), 1000.0 * z, 1000.0 * x2])
    design = Design(x=x, y=y, u=np.array([0.0, 1.0, 0.0]))
    fit = ols_fit(design)
    product = fit.s_dagger @ fit._fits.mid[0] @ fit.s_dagger
    assert np.array_equal(fit.v_hat, 0.5 * (product + product.T))
    assert not ci_asymp(design, 0.1, fit).whole_line


def test_fit_matches_numpy_oracle():
    rng = np.random.default_rng(4)
    x = np.column_stack([np.ones(500), rng.standard_normal((500, 2))])
    y = rng.standard_normal(500)
    fit = ols_fit(Design(x=x, y=y, u=np.array([0.0, 0.0, 1.0])))
    oracle = ols_fit_oracle(x, y)
    assert fit.beta_hat == pytest.approx(oracle["beta"], rel=1e-10, abs=1e-12)
    assert fit.v_hat == pytest.approx(oracle["v_hat"], rel=1e-9, abs=1e-12)


def test_fit_arrays_are_read_only_views_of_its_stack_of_one():
    fit = ols_fit(three_point_design())
    for name in ("beta", "residuals", "s", "s_dagger", "v_hat"):
        array = getattr(fit, "beta_hat" if name == "beta" else name)
        assert np.shares_memory(array, getattr(fit._fits, name)), name
        assert not array.flags.writeable, name


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
    assert fit.v_hat == pytest.approx(expected, abs=1e-12)


def test_sandwich_intercept_only_is_sigma_hat_sq():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(100)
    fit = ols_fit(Design(x=np.ones((100, 1)), y=y, u=np.array([1.0])))
    sigma_hat_sq = float(np.mean((y - y.mean()) ** 2))
    assert fit.v_hat[0, 0] == pytest.approx(sigma_hat_sq, rel=1e-12)


def test_sandwich_zero_residuals_zero_matrix():
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    y = x @ np.array([1.0, 2.0])
    fit = ols_fit(Design(x=x, y=y, u=np.array([1.0, 0.0])))
    assert np.max(np.abs(fit.v_hat)) <= 1e-20


def test_ci_asymp_three_point():
    ci = ci_asymp(three_point_design(), 0.05)
    assert ci.lower == pytest.approx(1.2690160292750536, abs=1e-3)
    assert ci.upper == pytest.approx(1.7309839707249468, abs=1e-3)
    assert ci.lower == pytest.approx(1.2690160292750536, rel=1e-9)


def test_ci_asymp_degenerate_when_variance_zero():
    # intercept-only constant outcome: exactly zero residuals and variance
    ci = ci_asymp(Design(x=np.ones((10, 1)), y=np.full(10, 3.0), u=np.array([1.0])), 0.1)
    assert ci.width == 0.0
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


def test_half_widths_scale_exactly_with_u():
    # u'Vu, |u| and the influence values are taken at max|u| in [1/2, 1), so
    # a half-width at c u is c times the one at u whenever c is a power of
    # two, and a tiny or huge u keeps its interval
    design = simulated_design(20_000, 3, u=(0.0, 0.0, 1.0))
    fit = ols_fit(design)
    fits = fit._fits
    e3 = np.array([0.0, 0.0, 1.0])
    mixed = OlsBounds(lambda_reg=PlugIn(), k_reg=PlugIn(), k_eps=PlugIn(), k_xi=9.0)
    halves = {
        "asymp": lambda u: ols_ci._asymp_halves(fits, u, 0.1),
        "edg-fixed": lambda u: ols_ci._edg_halves(fits, u, 0.1, OlsBounds(1.0, 0.01, 1.0, 9.0), OlsTuning()),
        "edg-plug-in": lambda u: ols_ci._edg_halves(fits, u, 0.1, mixed, OlsTuning()),
        "edg-all-plug-in": lambda u: ols_ci._edg_halves(fits, u, 0.1, OlsBounds.all_plug_in(), OlsTuning()),
    }
    for name, halve in halves.items():
        half, whole = halve(e3)
        assert whole[0] == (name == "edg-all-plug-in")
        for j in (-1000, -500, 0, 500, 1000):
            scaled_half, scaled_whole = halve(math.ldexp(1.0, j) * e3)
            assert scaled_whole[0] == whole[0]
            np.testing.assert_array_equal(scaled_half, np.ldexp(half, j))
    for j in (-1000, -500, 500, 1000):
        bounds = resolve_bounds(OlsBounds.all_plug_in(), fit, math.ldexp(1.0, j) * e3)
        assert bounds == resolve_bounds(OlsBounds.all_plug_in(), fit, e3)
    tiny = dataclasses.replace(design, u=1e-300 * e3)
    assert ci_edg(tiny, 0.1, OlsBounds(1.0, 0.01, 1.0, 9.0), OlsTuning()).width > 0.0
    assert ci_edg(tiny, 0.1, OlsBounds.all_plug_in(), OlsTuning()).whole_line
    small = simulated_design(500, 3, u=(0.0, 0.0, 1.0))
    for scale in (1e-300, 1e300):
        assert ci_asymp(dataclasses.replace(small, u=scale * e3), 0.1).width > 0.0


# ---------------------------------------------------------------------------
# correction terms
# ---------------------------------------------------------------------------


def fit_moments(fit):
    """(m4, m31, m_xe2, t4) of a fit, from its stack of one as r_var reads them."""
    return tuple(float(m[0]) for m in (*ols_ci._row_moments(fit._fits), ols_ci._t4(fit._fits)))


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
    term1 = 2.0 / (n * 0.5**3) * (gt / (1 - gt) + 1) ** 2 * math.sqrt(10.0 / 0.01) * fit_moments(fit)[0]
    assert value == pytest.approx(term1, rel=1e-12)
    assert value > 0.0


def test_r_var_matches_independent_script():
    # K_reg = 0.01 keeps gamma feasible on three observations (n gamma > K_reg)
    fit = ols_fit(three_point_design())
    bounds = fixed_bounds(lam=0.5, k_reg=0.01, k_eps=10.0)
    expected = r_var_oracle(
        0.01, THREE_POINT_X, np.asarray(fit.residuals), fit.s_dagger,
        0.5, 0.01, 10.0,
    )
    assert r_var(0.01, fit, bounds) == pytest.approx(expected, rel=1e-10)


def test_r_var_matches_independent_script_simulated():
    d = simulated_design(800, seed=99)
    fit = ols_fit(d)
    bounds = fixed_bounds(lam=0.3, k_reg=2.0, k_eps=50.0)
    expected = r_var_oracle(
        0.05, np.asarray(d.x), np.asarray(fit.residuals), fit.s_dagger,
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
    (m4_1, _, _, t4_1), (m4_2, _, _, t4_2) = fit_moments(fit1), fit_moments(fit2)
    assert m4_2 == pytest.approx(m4_1, rel=1e-12)
    assert t4_2 == pytest.approx(t4_1, rel=1e-9)
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


def test_nu_edg_variance_term_is_nu_var():
    # exp(-n (1-1/a)^2/(2 K_xi)) with libm's pow differs from nu_var in the
    # last digit at 10 of these keys, such as n = 120 at K_xi = 50
    from navae.edgeworth import delta_of

    tuning = OlsTuning()
    for k_xi in (9.0, 50.0):
        for n in range(100, 5000):
            expected = (tuning.omega(n) * 0.1 + nu_var(tuning.a(n), n, k_xi)) / 2.0 + delta_of(
                tuning.delta, n, k_xi)
            assert nu_edg(n, 0.1, tuning, k_xi) == expected, (n, k_xi)
    assert nu_edg(120, 0.1, tuning, 50.0) == 1.0803404907885388


@pytest.mark.parametrize("alpha, k_xi, expected", [(0.1, 9.0, 3655), (0.01, 50.0, 3441543)],
                         ids=["easy", "hard"])
def test_nu_var_floats_are_the_array_values_on_the_pinned_n_zero_scans(alpha, k_xi, expected, monkeypatch):
    # the cond_edg scans of the pinned `feasibility --mode n-zero` commands
    # (a = 1+20*n^-2/5; K_reg 0.01 and 1 end below these n): at every key
    # they pass to nu_var, its float path gives _tuning_terms' array value
    keys = []

    def recording(a, n, k):
        keys.append((a, n, k))
        return nu_var(a, n, k)

    monkeypatch.setattr(ols_ci, "nu_var", recording)
    tuning = OlsTuning(omega_rule=parse_rule("n^-1/5"), a_rule=parse_rule("1+20*n^-2/5"))
    assert ols_ci._last_edg_violation.__wrapped__(alpha, tuning, k_xi) == expected
    assert len(keys) > 20
    a, n, k = (np.array(column) for column in zip(*keys))
    assert [nu_var(*key) for key in keys] == _tuning_terms(a, n, k, 0.0)[0].tolist()


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
        n_zero(0.1, tuning_for_rate(0.0, a_coefficient=1.0), bounds)
    at_cap = nu_edg(10**9, 0.1, tuning_for_rate(0.0, a_coefficient=1.0), 50.0)
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


def _check_n_zero(alpha, tuning, k_reg, k_xi):
    """Check n_zero against the back-scan oracle; the outcome, and whether
    the oracle ran."""
    value = _n_zero_outcome(n_zero, alpha, tuning, k_reg, k_xi)
    if isinstance(value, int) and value > 10**5:
        # the back-scan costs one nu_edg call per n; past 1e5 check only
        # that n0 violates and n0 + 1 does not
        assert [
            n <= 2.0 * k_reg / (tuning.omega(n) * alpha)
            or nu_edg(n, alpha, tuning, k_xi) >= alpha / 2.0
            for n in (value, value + 1)
        ] == [True, False]
        return value, False
    assert value == _n_zero_outcome(n_zero_backscan_oracle, alpha, tuning, k_reg, k_xi), (
        alpha, k_reg, k_xi, tuning.delta, tuning.a_rule,
    )
    return value, True


def test_n_zero_matches_backscan():
    compared = 0
    for alpha, k_reg, k_xi, delta, base in itertools.product(
        (0.01, 0.05, 0.1, 0.2, 0.5),
        (0.0, 0.01, 0.3, 1.0, 10.0),
        (1.0, 2.0, 9.0, 50.0),
        (BerryEsseen(), EdgeworthLeading(), EdgeworthContinuousLeading()),
        (STUDY_TUNING, tuning_for_rate(0.0, a_coefficient=1.0)),
    ):
        compared += _check_n_zero(alpha, dataclasses.replace(base, delta=delta), k_reg, k_xi)[1]
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
    # n = 40, where it reads the trivial bound delta = 1, a violation; a table
    # is ``nonincreasing`` and is bisected: with a larger delta the last
    # violation (54) lies above the first row, with a smaller one it is n = 39
    omega = PowerRule(0.0, 2.0, -0.2)
    for delta, expected in ((0.025, 54), (0.001, 39)):
        tuning = OlsTuning(
            omega_rule=omega,
            a_rule=PowerRule(1.0, 20.0, -0.4),
            delta=TableProvider(rows=((40, 1.0, delta),)),
        )
        value = _n_zero_outcome(n_zero, 0.5, tuning, 0.01, 1.0)
        assert value == _n_zero_outcome(n_zero_backscan_oracle, 0.5, tuning, 0.01, 1.0)
        assert value == expected


def test_n_zero_bisects_tables_like_the_backscan():
    # a table reads delta = 1 where no row covers (n, K_xi): below its first
    # row, and at every n for a K_xi above every row, which scans to the cap;
    # a minimum with Berry-Esseen covers those points
    tables = (
        TableProvider(rows=((50_000, 9.0, 0.001),)),
        TableProvider(rows=((100, 9.0, 0.2), (1000, 9.0, 0.05), (5000, 9.0, 0.01),
                            (20_000, 50.0, 0.004))),
        TableProvider(rows=((10, 2.0, 0.3), (3000, 2.0, 0.02))),
    )
    outcomes = set()
    for alpha, k_xi, delta, base in itertools.product(
        (0.05, 0.1, 0.2),
        (1.0, 9.0, 50.0),
        tables + tuple(MinOf((BerryEsseen(), table)) for table in tables),
        (STUDY_TUNING, tuning_for_rate(0.0, a_coefficient=1.0)),
    ):
        value, _ = _check_n_zero(alpha, dataclasses.replace(base, delta=delta), 0.01, k_xi)
        outcomes.add(value[0] if isinstance(value, tuple) else int)
    assert outcomes == {int, UnboundedScanError}
    tuning = OlsTuning(delta=tables[0])
    assert n_zero(0.1, tuning, OlsBounds(lambda_reg=1.0, k_reg=0.01, k_eps=1.0, k_xi=9.0)) == 49_999


def test_n_zero_caches_the_edg_scan_across_k_reg(monkeypatch):
    # a plug-in K_reg changes with every sample; cond_edg does not depend on it
    alpha, tuning = 0.0917, STUDY_TUNING
    n_zero(alpha, tuning, OlsBounds(lambda_reg=1.0, k_reg=0.01, k_eps=1.0, k_xi=9.0))
    calls = []
    real = ols_ci.nu_edg
    monkeypatch.setattr(ols_ci, "nu_edg", lambda *args: calls.append(args) or real(*args))
    for k_reg in (0.02, 0.3, 4.0):
        value = n_zero(alpha, tuning, OlsBounds(lambda_reg=1.0, k_reg=k_reg, k_eps=1.0, k_xi=9.0))
        assert value == n_zero_backscan_oracle(alpha, tuning, k_reg, 9.0)
    assert calls == []
    n_zero(alpha, tuning, OlsBounds(lambda_reg=1.0, k_reg=4.0, k_eps=1.0, k_xi=8.0))
    assert calls  # a new K_xi scans cond_edg


@pytest.mark.parametrize("field", ["omega_rule", "a_rule"])
@pytest.mark.parametrize("value", [None, "wide"])
def test_a_rule_value_that_is_not_a_number_is_a_config_error(field, value, monkeypatch):
    tuning = OlsTuning(**{field: lambda n: value})
    with pytest.raises(ConfigError, match=rf"{field}\(10\) = {value!r}; must be a number"):
        tuning.omega(10) if field == "omega_rule" else tuning.a(10)
    # the rule leaves its range at every n, so its condition is violated to the
    # cap; each condition is scanned once
    scanned = []
    real = ols_ci._last_violation
    monkeypatch.setattr(ols_ci, "_last_violation", lambda *args: scanned.append(args[3]) or real(*args))
    with pytest.raises(NavaeError):
        n_zero(0.1, tuning, OlsBounds(lambda_reg=1.0, k_reg=0.01, k_eps=1.0, k_xi=9.0))
    reg, edg = "n <= 2 K_reg/(omega_n alpha)", "nu_edg >= alpha/2"
    assert scanned == ([reg] if field == "omega_rule" else [reg, edg])
    if field == "a_rule":
        # the mean intervals read a fixed a_rule through the same check
        message = rf"a_rule\((10|50)\) = {value!r}; must be a number"
        cfg = MeanCiConfig(alpha=0.1, kurtosis_bound=9.0, a_rule=lambda n: value)
        study = SimStudySpec(dgp=ExponentialMean(), methods=(UnknownVarianceMethod(a_rule=lambda n: value),),
                             n_grid=(50,), replications=3, alpha=0.1)
        for call in (lambda: ci_unknown_variance(Sample(np.arange(10.0)), cfg),
                     lambda: alpha_min(10, 9.0, lambda n: value, BerryEsseen()),
                     lambda: run_coverage_study(study)):
            with pytest.raises(ConfigError, match=message):
                call()


class _UnhashableRule:
    __hash__ = None

    def __call__(self, n):
        return n**-0.2


def test_n_zero_of_an_unhashable_rule_skips_the_cache():
    tuning = dataclasses.replace(STUDY_TUNING, omega_rule=_UnhashableRule())
    value = _n_zero_outcome(n_zero, 0.10, tuning, 0.01, 9.0)
    assert value == _n_zero_outcome(n_zero_backscan_oracle, 0.10, tuning, 0.01, 9.0) == 3655


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
            m4, m31, m_xe2, _ = fit_moments(fit)
            assert m4 == pytest.approx(np.mean(norms**4), rel=1e-14)
            assert m31 == pytest.approx(np.mean(norms**3 * np.abs(e)), rel=1e-14)
            assert m_xe2 == pytest.approx(np.mean(norms**2 * e**2), rel=1e-14)
            rotated = x @ psd_sqrt(fit.s_dagger).array
            rot_sq = np.sum(rotated * rotated, axis=1)
            influence = (x @ (fit.s_dagger @ design.u)) * e
            expected = {
                "lambda_reg": np.linalg.eigvalsh(fit.s)[0],
                "k_reg": np.mean(rot_sq**2 - 2.0 * rot_sq + design.p),
                "k_eps": np.mean(rot_sq**2 * e**4),
                "k_xi": max(1.0, np.mean(influence**4) / np.mean(influence**2) ** 2),
            }
            bounds = plug_in_bounds(fit, design.u)
            for name, value in expected.items():
                assert getattr(bounds, name) == pytest.approx(value, rel=1e-14), (n, seed, name)


def test_ols_fit_rejects_overflowing_second_moment():
    # every entry is finite, so Design accepts it, but x'x overflows; the fit
    # must stop there, before the moments overflow too, and without a warning
    x = np.array([[1e200, 1.0], [1.0, 1e200], [1e200, 1e200]])
    design = Design(x=x, y=np.array([1.0, 2.0, 3.0]), u=np.array([1.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="finite"):
            ols_fit(design)


def test_ols_fit_rejects_overflowing_squared_residuals_without_a_warning():
    # y * 1e200 fits, but its squared residuals and the sandwich middle do not
    design = simulated_design(300, 4)
    for scale in (1e200, -1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            with pytest.raises(DataError, match="OLS fit overflows: the squared residuals"):
                ols_fit(Design(x=design.x, y=design.y * scale, u=design.u))


def test_r_var_overflow_is_a_data_error_without_a_warning():
    # regressors times 1e60 put lambda_min(S) near 1e120, whose cube r_var
    # cannot take as a float
    from navae.dgp_sim import sample_gumbel_hetero_linear

    d = sample_gumbel_hetero_linear(5000, 1)
    bounds = OlsBounds(PlugIn(), PlugIn(), PlugIn(), 9.0)
    for scale in (1e60, 1e80, 1e100):
        design = Design(x=d.x[:, 1:] * scale, y=d.y, u=np.array([0.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            with pytest.raises(DataError, match="r_var overflows"):
                ci_edg(design, 0.1, bounds, OlsTuning())


def test_r_var_underflowing_lambda_reg_is_a_config_error():
    # lambda_reg = 1e-110 is positive, but its cube, which r_var divides by,
    # underflows to 0; from 1e-104 down the cube is subnormal and
    # 2/(n lambda_reg^3) overflows
    from navae.dgp_sim import sample_gumbel_hetero_linear

    design = sample_gumbel_hetero_linear(5000, 1)
    assert not ci_edg(design, 0.1, OlsBounds(1e-103, 0.01, 1.0, 9.0), OlsTuning()).whole_line
    for lam in (1e-104, 1e-105, 1e-107, 1e-110, 1e-200, 5e-324):
        with pytest.raises(ConfigError, match="lambda_reg"):
            ci_edg(design, 0.1, OlsBounds(lam, 0.01, 1.0, 9.0), OlsTuning())


def _close(actual, expected, rel=1e-12):
    # relative to the largest entry: entries near zero carry the rounding of
    # their whole sum
    np.testing.assert_allclose(actual, expected, rtol=rel, atol=rel * np.max(np.abs(expected)))


def test_fit_and_plug_in_agree_on_every_design_layout():
    # Design stores x in Fortran order whatever the layout it is given
    # (C-ordered, F-ordered or strided), so x.T, which ols_fit and
    # plug_in_bounds read, is C-ordered; the fit must match the numpy.linalg
    # oracles
    for p, n in ((1, 200), (3, 3000), (30, 2000)):
        rng = np.random.default_rng(p)
        wide = rng.standard_normal((2 * n, p))
        wide[:, 0] += 2.0
        strided = wide[::2]
        y = strided @ np.linspace(1.0, -1.0, p) + np.abs(strided[:, -1]) * rng.gumbel(size=n)
        u = np.eye(p)[-1]
        layouts = [np.ascontiguousarray(strided), np.asfortranarray(strided), strided]
        designs = [Design(x=x, y=y, u=u) for x in layouts]
        for design in designs:
            assert design.x.T.flags.c_contiguous, p
            assert design.x.tobytes(order="F") == designs[0].x.tobytes(order="F"), p
        oracle = ols_fit_oracle(np.ascontiguousarray(strided), y)
        expected = plug_in_oracle(np.ascontiguousarray(strided), y, u)
        fit = ols_fit(designs[0])
        _close(fit.s, oracle["s"])
        _close(fit.beta_hat, oracle["beta"])
        _close(fit.residuals, oracle["residuals"])
        _close(fit._fits.mid[0], oracle["mid"])
        _close(fit.v_hat, oracle["v_hat"])
        bounds = plug_in_bounds(fit, u)
        for name, value in expected.items():
            assert getattr(bounds, name) == pytest.approx(value, rel=1e-12), (p, name)
        # the moments are read after plug_in_bounds here and before it on a fresh fit
        fresh = ols_fit(designs[1])
        moments = [fit_moments(f) for f in (fit, fresh)]
        plug_in_bounds(fresh, u)
        assert moments[0] == moments[1], p
        e = oracle["residuals"]
        norms = np.sqrt(np.sum(strided * strided, axis=1))
        t4 = np.linalg.norm(oracle["mid"] @ oracle["s_dagger"], 2)
        for value, power_form in zip(moments[0], (np.mean(norms**4), np.mean(norms**3 * np.abs(e)),
                                                  np.mean(norms**2 * e**2), t4)):
            assert value == pytest.approx(power_form, rel=1e-12), p


def test_asymp_and_whole_line_edg_compute_no_moment(monkeypatch):
    # only the bounded edg branch reads m4, m31, m_xe2 and t4, once per stack
    calls = []
    for name in ("_row_moments", "_t4"):
        real = getattr(ols_ci, name)
        monkeypatch.setattr(ols_ci, name, lambda fits, name=name, real=real: calls.append(name) or real(fits))
    design = simulated_design(3000, 5, u=(0.0, 0.0, 1.0))
    fit = ols_fit(design)
    ci_asymp(design, 0.1, fit=fit)
    assert calls == []
    bounds = OlsBounds(PlugIn(), PlugIn(), PlugIn(), 9.0)
    assert ci_edg(design, 0.1, bounds, STUDY_TUNING, fit=fit).whole_line
    assert calls == []
    bounded = simulated_design(5000, 5, u=(0.0, 0.0, 1.0))
    assert not ci_edg(bounded, 0.1, bounds, STUDY_TUNING).whole_line
    assert calls == ["_row_moments", "_t4"]


def _stack_designs(p, n, rng):
    """Four designs of one size and direction; the Gumbel DGP's at p = 3."""
    u = rng.standard_normal(p)
    if p == 3:
        return [simulated_design(n, seed, u=u) for seed in range(4)]
    designs = []
    for _ in range(4):
        x = rng.standard_normal((n, p)) * rng.exponential(1.0, p)
        x[:, 0] = 1.0
        y = x @ rng.standard_normal(p) + rng.gumbel(size=n) * (1.0 + np.abs(x[:, -1]))
        designs.append(Design(x=x, y=y, u=u))
    return designs


def test_a_stack_of_designs_fits_as_each_design_alone():
    # the fit, plug-in and interval arithmetic is written once over stacks
    # (ols_fit, plug_in_bounds, ci_asymp and ci_edg are its stacks of one):
    # each design of a stack gets its numbers alone, bit for bit
    rng = np.random.default_rng(11)
    bounds_sets = (OlsBounds(PlugIn(0.5), PlugIn(), PlugIn(1.0), 9.0), OlsBounds.all_plug_in(2.0))
    bounded = 0
    for p, n in ((1, 30), (2, 200), (3, 4), (3, 5000), (5, 400)):
        designs = _stack_designs(p, n, rng)
        u = designs[0].u
        fits = ols_ci._fit(np.stack([d.x.T for d in designs]), np.stack([d.y for d in designs]))
        estimates = ols_ci._plug_in_estimates(fits, u, set(BOUND_KEYS))
        centres = ols_ci._centres(fits, u)
        asymp_half, _ = ols_ci._asymp_halves(fits, u, 0.1)
        edg = [ols_ci._edg_halves(fits, u, 0.1, bounds, STUDY_TUNING) for bounds in bounds_sets]
        for r, design in enumerate(designs):
            fit = ols_fit(design)
            for stacked, alone in ((fits.beta[r], fit.beta_hat), (fits.residuals[r], fit.residuals),
                                   (fits.s[r], fit.s), (fits.s_dagger[r], fit.s_dagger),
                                   (fits.v_hat[r], fit.v_hat), (fits.mid[r], fit._fits.mid[0])):
                assert stacked.tobytes() == alone.tobytes(), (p, n, r)
            alone = plug_in_bounds(fit, u)
            assert [estimates[name][r] for name in BOUND_KEYS] == [getattr(alone, key) for key in BOUND_KEYS]
            ci = ci_asymp(design, 0.1, fit)
            assert (centres[r] - asymp_half[r], centres[r] + asymp_half[r]) == (ci.lower, ci.upper)
            for bounds, (edg_half, edg_whole) in zip(bounds_sets, edg):
                ci = ci_edg(design, 0.1, bounds, STUDY_TUNING, fit)
                assert edg_whole[r] == ci.whole_line
                if not ci.whole_line:
                    bounded += 1
                    assert (centres[r] - edg_half[r], centres[r] + edg_half[r]) == (ci.lower, ci.upper)
    assert bounded >= 4


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


def test_plug_in_k_xi_at_every_order_of_magnitude():
    # scaling y scales the influence values, whose kurtosis K_xi is; the
    # plug-in K_eps scales as y^4 and overflows past about 1e75
    d = simulated_design(2000, seed=3)
    expected = plug_in_bounds(ols_fit(d), d.u).k_xi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-150, 71):
            scaled = Design(x=d.x, y=d.y * 10.0**k, u=d.u)
            k_xi = plug_in_bounds(ols_fit(scaled), d.u).k_xi
            assert k_xi == pytest.approx(expected, rel=1e-12), k


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
    assert inflated.k_reg == raw.k_reg * mult
    assert inflated.k_eps == raw.k_eps * mult
    assert inflated.k_xi == raw.k_xi * mult
    assert inflated.lambda_reg == raw.lambda_reg / mult


def test_plug_in_bounds_is_resolve_bounds_of_all_plug_in():
    d = simulated_design(500, seed=4)
    fit = ols_fit(d)
    for inflation in (0.0, 3.0):
        resolved = resolve_bounds(OlsBounds.all_plug_in(inflation), fit, d.u)
        assert dataclasses.asdict(plug_in_bounds(fit, d.u, inflation)) == dataclasses.asdict(resolved)


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


def test_fixed_k_reg_and_k_eps_need_no_plug_in_estimate():
    # a bound given a value is neither estimated nor checked: K_eps's
    # estimate overflows here, and it raised although K_eps is given
    design = simulated_design(200, seed=1, u=(0.0, 0.0, 1.0))
    scaled = Design(x=design.x, y=design.y * 1e80, u=design.u)
    fit = ols_fit(scaled)
    with pytest.raises(DataError, match="K_reg/K_eps overflow"):
        plug_in_bounds(fit, scaled.u)  # K_eps overflows
    resolved = resolve_bounds(OlsBounds(PlugIn(), 0.01, 1.0, PlugIn()), fit, scaled.u)
    estimates = ols_ci._plug_in_estimates(fit._fits, scaled.u, {"lambda_reg", "k_xi"})
    assert sorted(estimates) == ["k_xi", "lambda_reg"]
    assert resolved == OlsBounds(float(estimates["lambda_reg"][0]), 0.01, 1.0, float(estimates["k_xi"][0]))
    assert resolved.lambda_reg == plug_in_bounds(ols_fit(design), design.u).lambda_reg


def test_fixed_k_xi_needs_no_influence_values():
    # a constant outcome leaves every influence value zero, which K_xi's
    # estimate cannot use; it raised although K_xi is given
    n = 10_000
    flat = Design(x=np.ones((n, 1)), y=np.full(n, 4.0), u=np.array([1.0]))
    ci = ci_edg(flat, 0.1, OlsBounds(PlugIn(), PlugIn(), PlugIn(), 9.0), OlsTuning())
    assert (ci.lower, ci.upper) == (4.0, 4.0)
    with pytest.raises(DegenerateSampleError):
        ci_edg(flat, 0.1, OlsBounds.all_plug_in(), OlsTuning())


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
    assert tuning.a_rule(32) == pytest.approx(1.0 + 20.0 * 32.0**-0.4)
    # the bounds that scan to the cap under a_n = 1 + n^-2/5 have a finite n0
    tuning, bounds = tuning_for_rate(0.0), OlsBounds(lambda_reg=1.0, k_reg=0.0, k_eps=1.0, k_xi=50.0)
    assert n_zero(0.1, tuning, bounds) == n_zero_backscan_oracle(0.1, tuning, 0.0, 50.0)
