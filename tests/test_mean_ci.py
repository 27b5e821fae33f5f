import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navae import mean_ci
from navae.dgp_sim import UnknownVarianceMethod, sample_gumbel_hetero_linear
from navae.edgeworth import BerryEsseen, EdgeworthLeading, TableProvider, UserSupplied, delta_of
from navae.errors import (
    ConfigError,
    DataError,
    DegenerateSampleError,
    DomainError,
    FeasibilityError,
    InsufficientDataError,
)
from navae.mean_ci import (
    ConfidenceInterval,
    KnownVariance,
    MeanCiConfig,
    Sample,
    UnknownVariance,
    alpha_min,
    ci_chebyshev,
    ci_clt,
    ci_hoeffding,
    ci_known_variance,
    ci_student,
    ci_unknown_variance,
    feasible_a_interval,
    nu_var,
    optimize_a,
    sample_kurtosis,
    student_cdf,
    student_quantile,
    unknown_variance_width_factor,
)
from navae.ols_ci import Design, OlsBounds, OlsTuning, PlugIn, ci_edg
from navae.rules import OPTIMIZED, PowerRule
from navae.specialfn import std_normal_cdf, std_normal_quantile

from oracles import (
    alpha_min_oracle,
    feasible_a_interval_oracle,
    mp_quantile,
    optimize_a_oracle,
    sample_moments_oracle,
    t_quantile_df1,
    t_quantile_df2,
)

BE = BerryEsseen()
FIXED_RULE = PowerRule(1.0, 1.0, -0.2)


def cfg_unknown(alpha, k=9.0, a_rule=FIXED_RULE, delta=BE):
    return MeanCiConfig(
        alpha=alpha, kurtosis_bound=k, delta=delta, a_rule=a_rule, variance=UnknownVariance()
    )


def cfg_known(alpha, sigma, k=9.0, delta=BE):
    return MeanCiConfig(
        alpha=alpha, kurtosis_bound=k, delta=delta, variance=KnownVariance(sigma)
    )


# ---------------------------------------------------------------------------
# interval type and sample type
# ---------------------------------------------------------------------------


def test_interval_invariants():
    ci = ConfidenceInterval.bounded(1.0, 2.0, 0.9, "m")
    assert ci.width == 1.0 and ci.contains(1.5)
    whole = ConfidenceInterval.whole(0.9, "m")
    assert whole.width is None and whole.contains(1e12)
    point = ConfidenceInterval.bounded(3.0, 3.0, 0.9, "m")
    assert point.width == 0.0
    with pytest.raises(Exception):
        ConfidenceInterval.bounded(2.0, 1.0, 0.9, "m")
    with pytest.raises(Exception):
        ConfidenceInterval(level=0.9, method="m", lower=1.0, upper=2.0, whole_line=True)


def test_sample_validation():
    with pytest.raises(InsufficientDataError):
        Sample(np.array([]))
    with pytest.raises(DataError):
        Sample(np.array([1.0, math.inf]))
    s = Sample(np.array([1.0, 3.0]))
    assert s.n == 2 and s.mean == 2.0 and s.sigma_hat_sq == 1.0


def _edge_samples():
    """Samples of every pairwise-summation block shape, at scales from
    subnormal squared deviations to overflowing ones, with large offsets, a
    constant sample, and samples whose mean or squared deviations overflow."""
    rng = np.random.default_rng(27)
    for n in (1, 2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 1000, 4097, 65537):
        base = rng.standard_normal(n) if n % 2 else rng.exponential(1.0, n)
        for scale in (1e-200, 1e-160, 1e-3, 1.0, 1e100, 1e154):
            for offset in (0.0, 1.0, -1e300):
                yield base * scale + offset
    yield np.full(1000, 0.1)
    yield np.array([1e300, -1e300, 5e299])  # squared deviations overflow
    yield np.array([1.5e308, 1.5e308])  # the sum overflows
    yield np.full(17, -1e308)
    yield np.concatenate([np.full(9, 1.7e308), np.zeros(100)])


def test_sample_moments_match_the_np_mean_oracle():
    # Sample reduces its values as the study engine reduces a chunk
    # (_centred_moments); the oracle keeps np.mean, bit for bit, and the
    # DataError of an overflowing mean comes from both moments
    overflowing = 0
    for values in _edge_samples():
        sample = Sample(values)
        try:
            expected = sample_moments_oracle(values)
        except DataError:
            overflowing += 1
            for moment in ("mean", "sigma_hat_sq"):
                with pytest.raises(DataError, match="sample mean overflows"):
                    getattr(sample, moment)
            continue
        assert [sample.mean.hex(), sample.sigma_hat_sq.hex()] == [v.hex() for v in expected]
    assert overflowing == 3


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_clt_constant_sample_degenerate():
    ci = ci_clt(Sample(np.array([3.0, 3.0, 3.0])), 0.17)
    assert ci.lower == ci.upper == 3.0


def test_clt_hand_example():
    # {0,1,2,3}: mean 1.5, sigma_hat^2 = 1.25
    ci = ci_clt(Sample(np.array([0.0, 1.0, 2.0, 3.0])), 0.05)
    half = mp_quantile(0.975) * math.sqrt(1.25) / 2.0
    assert ci.lower == pytest.approx(1.5 - half, abs=1e-9)
    assert ci.upper == pytest.approx(1.5 + half, abs=1e-9)
    assert ci.lower == pytest.approx(0.404347, abs=1e-3)
    assert ci.upper == pytest.approx(2.595653, abs=1e-3)


def test_clt_shift_equivariance_exact():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(40)
    base = ci_clt(Sample(x), 0.1)
    shifted = ci_clt(Sample(x + 5.0), 0.1)
    assert shifted.lower == pytest.approx(base.lower + 5.0, abs=1e-12)
    assert shifted.upper == pytest.approx(base.upper + 5.0, abs=1e-12)


def test_clt_needs_two_points():
    with pytest.raises(InsufficientDataError):
        ci_clt(Sample(np.array([1.0])), 0.1)


def test_student_quantile_closed_forms():
    assert student_quantile(0.975, 1) == pytest.approx(t_quantile_df1(0.975), rel=1e-10)
    assert student_quantile(0.9, 2) == pytest.approx(t_quantile_df2(0.9), rel=1e-10)
    assert student_quantile(0.2, 1) == pytest.approx(t_quantile_df1(0.2), rel=1e-10)
    assert student_quantile(0.5, 7) == 0.0


def test_student_quantile_round_trip():
    rng = np.random.default_rng(21)
    for df in (1, 2, 5, 30, 200):
        for p in rng.uniform(1e-6, 1 - 1e-6, size=200):
            p = float(p)
            assert abs(student_cdf(student_quantile(p, df), df) - p) <= 1e-10


def test_student_hand_example():
    ci = ci_student(Sample(np.array([0.0, 2.0])), 0.05)
    assert ci.lower == pytest.approx(-11.7062, abs=1e-3)
    assert ci.upper == pytest.approx(13.7062, abs=1e-3)


def test_student_approaches_clt():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(10**6)
    s = Sample(x)
    st_ci = ci_student(s, 0.05)
    clt_ci = ci_clt(s, 0.05)
    assert st_ci.width == pytest.approx(clt_ci.width, rel=1e-4)


def test_student_contains_clt():
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = rng.standard_normal(int(rng.integers(2, 40)))
        alpha = float(rng.uniform(0.01, 0.5))
        s = Sample(x)
        inner = ci_clt(s, alpha)
        outer = ci_student(s, alpha)
        assert outer.lower <= inner.lower and inner.upper <= outer.upper


def test_chebyshev_examples():
    ci = ci_chebyshev(Sample(np.zeros(4)), 0.25, 1.0)
    assert (ci.lower, ci.upper) == (-1.0, 1.0)
    ci = ci_chebyshev(Sample(np.full(25, 5.0)), 0.04, 4.0)
    assert ci.lower == pytest.approx(3.0, abs=1e-12)
    assert ci.upper == pytest.approx(7.0, abs=1e-12)
    with pytest.raises(DomainError):
        ci_chebyshev(Sample(np.zeros(4)), 0.1, 0.0)


def test_chebyshev_width_decreasing_in_n():
    widths = [
        ci_chebyshev(Sample(np.zeros(n)), 0.1, 2.0).width for n in (2, 5, 10, 100, 1000)
    ]
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_hoeffding_example():
    alpha = 2.0 / math.e**2
    x = Sample(np.linspace(0.1, 0.9, 8))
    ci = ci_hoeffding(x, alpha, 0.0, 1.0)
    assert ci.width / 2 == pytest.approx(0.35355339059327373, abs=1e-12)


def test_hoeffding_support_violation():
    with pytest.raises(DataError):
        ci_hoeffding(Sample(np.array([0.5, 1.5])), 0.1, 0.0, 1.0)
    with pytest.raises(DomainError):
        ci_hoeffding(Sample(np.array([0.5])), 0.1, 1.0, 1.0)


def test_hoeffding_half_width_on_a_support_as_wide_as_the_floats():
    # (b - a)/2 sqrt(2 ln(2/alpha)) passes the float range, the half-width does not
    sample = Sample(np.random.default_rng(0).random(10000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ci = ci_hoeffding(sample, 0.1, 0.0, 1.7e308)
    assert (ci.lower, ci.upper) == (-2.0805848060786942e306, 2.0805848060786942e306)


@pytest.mark.parametrize("support", [(-math.inf, 1.0), (0.0, math.inf), (-1e308, 1e308)],
                         ids=["infinite-lower", "infinite-upper", "overflowing-width"])
def test_hoeffding_support_must_have_a_finite_width(support):
    with pytest.raises(DomainError, match="support must satisfy a < b with a finite width"):
        ci_hoeffding(Sample(np.array([0.5])), 0.1, *support)


# ---------------------------------------------------------------------------
# nu_var and the finite-sample intervals
# ---------------------------------------------------------------------------


def test_nu_var_values():
    assert nu_var(2.0, 18, 9.0) == pytest.approx(0.7788007830714049, abs=1e-6)
    assert nu_var(1.2512, 1000, 9.0) == pytest.approx(0.10653249470407802, abs=1e-4)
    assert nu_var(1.1820, 5000, 9.0) == pytest.approx(0.0013798903535677926, abs=1e-5)
    with pytest.raises(DomainError):
        nu_var(1.0, 10, 9.0)
    # one check of n and K, that of the delta providers: a non-finite K is rejected too
    for n, k in ((0, 9.0), (10, 0.5), (10, math.nan), (10, math.inf)):
        with pytest.raises(DomainError, match="sample size must be >= 1|kurtosis bound must be finite and >= 1"):
            nu_var(1.5, n, k)


def test_nu_var_in_unit_interval():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = float(1.0 + rng.uniform(1e-6, 50.0))
        n = int(rng.integers(1, 10**6))
        k = float(rng.uniform(1, 50))
        value = nu_var(a, n, k)
        assert 0.0 <= value < 1.0
        if n * (1.0 - 1.0 / a) ** 2 / (2.0 * k) < 700.0:
            # strictly positive whenever the exponent stays above underflow
            assert value > 0.0


def test_known_variance_whole_line_small_n():
    s = Sample(np.zeros(100) + 1.0)
    ci = ci_known_variance(s, 1.0, cfg_known(0.10, 1.0))
    assert ci.whole_line


def test_known_variance_hand_value():
    # n=10^4, K=9, alpha=0.10: half-width q(0.95 + delta)/100
    s = Sample(np.zeros(10**4))
    ci = ci_known_variance(s, 1.0, cfg_known(0.10, 1.0))
    assert not ci.whole_line
    assert ci.width / 2 == pytest.approx(0.019492959642172056, abs=2e-5)
    assert ci.width / 2 == pytest.approx(0.019492959642172056, rel=1e-10)


def test_known_variance_sigma_must_match_config():
    s = Sample(np.zeros(10**4))
    with pytest.raises(ConfigError, match="disagrees with the configured known variance"):
        ci_known_variance(s, 1.0, cfg_known(0.10, 2.0))
    with pytest.raises(ConfigError):
        ci_known_variance(s, 1.0 + 1e-9, cfg_known(0.10, 1.0))
    # round-off in sigma**2 is not a mismatch
    sigma = 0.1 + 0.2
    assert not ci_known_variance(s, sigma, cfg_known(0.10, sigma)).whole_line


def test_known_variance_scale_shift_equivariance():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(20000)
    lam, c = 2.5, -3.0
    base = ci_known_variance(Sample(x), 1.0, cfg_known(0.10, 1.0))
    mapped = ci_known_variance(Sample(lam * x + c), lam * 1.0, cfg_known(0.10, lam))
    assert mapped.lower == pytest.approx(lam * base.lower + c, rel=1e-12, abs=1e-12)
    assert mapped.upper == pytest.approx(lam * base.upper + c, rel=1e-12, abs=1e-12)


def test_known_variance_width_monotone_in_k_and_alpha():
    s = Sample(np.zeros(10**4))
    widths_k = [
        ci_known_variance(s, 1.0, cfg_known(0.10, 1.0, k=k)).width for k in (1.0, 3.0, 9.0, 20.0)
    ]
    assert all(a <= b for a, b in zip(widths_k, widths_k[1:]))
    widths_a = [
        ci_known_variance(s, 1.0, cfg_known(alpha, 1.0)).width for alpha in (0.08, 0.10, 0.2, 0.4)
    ]
    assert all(a >= b for a, b in zip(widths_a, widths_a[1:]))


def test_unknown_variance_whole_line_at_alpha_point_two():
    # n=1000, K=9, alpha=0.20 < alpha_min = 0.2607
    rng = np.random.default_rng(2)
    s = Sample(rng.standard_normal(1000))
    ci = ci_unknown_variance(s, cfg_unknown(0.20))
    assert ci.whole_line


def test_unknown_variance_hand_chain():
    # sigma_hat = 1 exactly: half-width C_n q(arg) / 100
    values = np.zeros(10**4)
    values[: 5000] = 1.0
    values[5000:] = -1.0
    s = Sample(values)
    assert s.sigma_hat_sq == 1.0
    ci = ci_unknown_variance(s, cfg_unknown(0.10))
    assert not ci.whole_line
    assert ci.width / 2 == pytest.approx(0.020988257097045865, abs=5e-5)
    assert ci.width / 2 == pytest.approx(0.020988257097045865, rel=1e-9)


def test_unknown_variance_contains_clt():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(2000, 40000))
        x = rng.exponential(1.0, size=n)
        s = Sample(x)
        outer = ci_unknown_variance(s, cfg_unknown(0.10))
        if outer.whole_line:
            continue
        inner = ci_clt(s, 0.10)
        assert outer.lower <= inner.lower and inner.upper <= outer.upper


def test_unknown_variance_equivariance():
    rng = np.random.default_rng(6)
    x = rng.exponential(1.0, 20000)
    lam, c = 0.7, 11.0
    base = ci_unknown_variance(Sample(x), cfg_unknown(0.10))
    mapped = ci_unknown_variance(Sample(lam * x + c), cfg_unknown(0.10))
    assert mapped.lower == pytest.approx(lam * base.lower + c, rel=1e-12, abs=1e-10)
    assert mapped.upper == pytest.approx(lam * base.upper + c, rel=1e-12, abs=1e-10)


def test_unknown_variance_bad_rule():
    s = Sample(np.arange(100.0))
    with pytest.raises(ConfigError):
        ci_unknown_variance(s, cfg_unknown(0.10, a_rule=PowerRule(0.5, 0.0, 0.0)))


# ---------------------------------------------------------------------------
# feasibility machinery
# ---------------------------------------------------------------------------


def test_feasible_interval_empty_when_delta_dominates():
    # delta_1(100, 9) = 0.2437 > alpha/2
    assert feasible_a_interval(100, 0.05, 9.0, BE) is None


def test_feasible_interval_contains_conventional_rule():
    interval = feasible_a_interval(1000, 0.30, 9.0, BE)
    assert interval is not None
    a1, a2 = interval
    assert a1 < 1.2511886431509580 < a2


def test_feasible_interval_endpoints_are_boundary():
    interval = feasible_a_interval(1000, 0.30, 9.0, BE)
    a1, a2 = interval
    d = delta_of(BE, 1000, 9.0)

    def gap(a):
        return 0.85 + d + nu_var(a, 1000, 9.0) / 2.0 - std_normal_cdf(math.sqrt(1000.0 / a))

    # returned endpoints sit on the feasible side, within 1e-10 relative
    assert gap(a1) < 0.0 and gap(a2) < 0.0
    assert gap(a1 * (1 - 1e-9)) > 0.0
    assert gap(a2 * (1 + 1e-9)) > 0.0


def test_feasible_interval_nesting_in_n():
    for alpha in (0.467, 0.48):
        small = feasible_a_interval(500, alpha, 9.0, BE)
        large = feasible_a_interval(1000, alpha, 9.0, BE)
        assert large is not None
        if small is not None:
            assert large[0] <= small[0] and small[1] <= large[1]
    assert feasible_a_interval(1000, 0.48, 9.0, BE) is not None


def test_feasible_interval_alpha_domain():
    with pytest.raises(DomainError):
        feasible_a_interval(100, 0.6, 9.0, BE)


def test_optimize_a_dominates_grid_oracle():
    # exhaustive 1e5-point log-grid oracle over (1, 1e6]
    a_star = optimize_a(10**4, 0.10, 9.0, BE)
    d = delta_of(BE, 10**4, 9.0)

    def width(a):
        nu = nu_var(a, 10**4, 9.0)
        arg = 0.95 + d + nu / 2.0
        if arg >= std_normal_cdf(math.sqrt(10**4 / a)):
            return math.inf
        q = std_normal_quantile(arg)
        rad = 1.0 / a - q * q / 10**4
        return math.inf if rad <= 0 else q / math.sqrt(rad)

    w_star = width(a_star)
    grid = np.exp(np.linspace(math.log(1 + 1e-9), math.log(1e6), 100_000))
    w_oracle = min(width(float(a)) for a in grid)
    assert w_star <= w_oracle * (1 + 1e-10)
    assert abs(w_star - w_oracle) <= 1e-6 * w_oracle
    # frozen from the oracle run
    assert w_oracle == pytest.approx(2.0774032499262693, rel=1e-6)


def test_optimize_a_beats_conventional_rule():
    d = delta_of(BE, 10**5, 9.0)
    a_star = optimize_a(10**5, 0.10, 9.0, BE)

    def width(a):
        nu = nu_var(a, 10**5, 9.0)
        arg = 0.95 + d + nu / 2.0
        q = std_normal_quantile(arg)
        return q / math.sqrt(1.0 / a - q * q / 10**5)

    assert width(a_star) <= width(FIXED_RULE(10**5)) + 1e-12


def test_optimize_a_infeasible_raises():
    with pytest.raises(FeasibilityError):
        optimize_a(100, 0.05, 9.0, BE)


def test_optimize_a_caches_failed_search():
    cache = mean_ci._optimize_a_cached
    with pytest.raises(FeasibilityError):
        optimize_a(100, 0.05, 9, BE)
    hits = cache.cache_info().hits
    with pytest.raises(FeasibilityError):
        optimize_a(100, 0.05, 9, BE)
    assert cache.cache_info().hits == hits + 1


# (n, alpha, K, feasible_a_interval, optimize_a, alpha_min(OPTIMIZED)) under
# Berry-Esseen, frozen from the searches that evaluated the formulas one grid
# point at a time in Python loops
SEARCH_REFERENCE = [
    (1000, 0.05, 3.0, None, None, 0.06761511319375198),
    (1000, 0.05, 9.0, None, None, 0.15412912768195372),
    (1000, 0.32, 3.0, (1.0999756229980946, 763.3273396069028), 1.2178551561422, 0.06761511319375198),
    (1000, 0.32, 9.0, (1.2192552603032316, 520.8683055076501), 1.410516143243093, 0.15412912768195372),
    (20000, 0.05, 3.0, (1.0327689905328077, 4493.371554864448), 1.0520215742421588, 0.015119198940757231),
    (20000, 0.05, 9.0, (1.0652147619453367, 3416.0703504856347), 1.0935717731108978, 0.03446432068095931),
    (20000, 0.32, 3.0, (1.0192404500660333, 18998.351017912257), 1.0483907665127623, 0.015119198940757231),
    (20000, 0.32, 9.0, (1.0347537009141439, 17535.36606903766), 1.0826708964351872, 0.03446432068095931),
    (10**6, 0.05, 3.0, (1.0042887507496796, 255438.85688211338), 1.0078242418657362, 0.0021381776194235812),
    (10**6, 0.05, 9.0, (1.0075240760156208, 249132.76831938498), 1.0132501599848738, 0.00487399097249882),
    (10**6, 0.32, 3.0, (1.002629266201367, 1002281.0333757657), 1.007496583790042, 0.0021381776194235812),
    (10**6, 0.32, 9.0, (1.0045800576263586, 991012.6217997109), 1.0126285092831342, 0.00487399097249882),
]


@pytest.mark.parametrize("n, alpha, k, interval, a_star, amin", SEARCH_REFERENCE)
def test_search_matches_frozen_reference(n, alpha, k, interval, a_star, amin):
    got = feasible_a_interval(n, alpha, k, BE)
    if interval is None:
        assert got is None
        with pytest.raises(FeasibilityError):
            optimize_a(n, alpha, k, BE)
    else:
        assert got == pytest.approx(interval, rel=1e-12)
        assert optimize_a(n, alpha, k, BE) == pytest.approx(a_star, rel=1e-12)
    assert alpha_min(n, k, OPTIMIZED, BE) == pytest.approx(amin, rel=1e-12)


# (n, alpha, feasible_a_interval, optimize_a) at K = 9 under Berry-Esseen
# past a = 1e18: the feasible region closes below a = n / q(1 - alpha/2)^2,
# about 2.2 n at alpha = 0.49, and the doubling search may pass 1e18 first
HUGE_N_REFERENCE = [
    (4 * 10**17, 0.49, (1.0000000057023612, 8.39408043072236e+17), 1.000000033023902),
    (10**18, 0.49, (1.000000003611852, 2.098520135040045e+18), 1.0000000209040112),
    (3 * 10**18, 0.1, (1.0000000037381351, 1.1088345099524954e+18), 1.0000000122426287),
    (10**19, 0.1, (1.000000002103276, 3.6961150609921567e+18), 1.000000007524675),
]


@pytest.mark.parametrize("n, alpha, interval, a_star", HUGE_N_REFERENCE)
def test_feasible_region_of_a_huge_n_closes(n, alpha, interval, a_star):
    d = delta_of(BE, n, 9.0)
    got = feasible_a_interval(n, alpha, 9.0, BE)
    assert got == feasible_a_interval_oracle(n, alpha, 9.0, d)
    assert got == pytest.approx(interval, rel=1e-12)
    assert optimize_a(n, alpha, 9.0, BE) == optimize_a_oracle(n, alpha, 9.0, d)
    assert optimize_a(n, alpha, 9.0, BE) == pytest.approx(a_star, rel=1e-12)


def test_search_and_interval_agree_on_feasibility():
    # levels just above alpha_min(OPTIMIZED) leave a narrow feasible interval,
    # where the interval's C_n radicand is closest to zero
    for n in (200, 1000, 10**5):
        values = np.ones(n)
        values[::2] = -1.0
        sample = Sample(values)
        for provider in (BE, EdgeworthLeading()):
            for k in (1.0, 9.0, 25.0):
                floor = alpha_min(n, k, OPTIMIZED, provider)
                levels = [0.05, 0.2, 0.499] + [floor * (1 + e) for e in (1e-4, 1e-6)]
                for alpha in (x for x in levels if x < 0.5):
                    cfg = cfg_unknown(alpha, k=k, a_rule=OPTIMIZED, delta=provider)
                    interval = feasible_a_interval(n, alpha, k, provider)
                    factor = unknown_variance_width_factor(n, cfg)
                    ci = ci_unknown_variance(sample, cfg)
                    if interval is None:
                        assert factor is None and ci.whole_line
                        continue
                    assert interval[0] <= optimize_a(n, alpha, k, provider) <= interval[1]
                    assert factor is not None and math.isfinite(factor)
                    assert not ci.whole_line, (n, alpha, k, provider)


def test_width_multiplier_scalar_matches_array():
    # the golden-section steps and the fixed-rule interval take the scalar
    # path, the grid scans the array path; both must give the same numbers
    for n, alpha, k in ((1000, 0.32, 9.0), (10**4, 0.1, 9.0), (10**6, 0.05, 25.0)):
        d = delta_of(BE, n, k)
        grid = mean_ci._SCAN_GRID
        widths = mean_ci._width_multiplier(grid, n, alpha, k, d)
        assert np.isinf(widths).any() and np.isfinite(widths).any()
        for a, w in zip(grid[::7], widths[::7]):
            assert mean_ci._width_multiplier(float(a), n, alpha, k, d) == w


def test_unknown_variance_optimized_narrower():
    values = np.zeros(10**4)
    values[:5000] = 1.0
    values[5000:] = -1.0
    s = Sample(values)
    fixed = ci_unknown_variance(s, cfg_unknown(0.10))
    optimized = ci_unknown_variance(s, cfg_unknown(0.10, a_rule=OPTIMIZED))
    assert optimized.width <= fixed.width + 1e-12


def test_unknown_variance_optimized_whole_line_when_infeasible():
    rng = np.random.default_rng(3)
    s = Sample(rng.standard_normal(100))
    ci = ci_unknown_variance(s, cfg_unknown(0.05, a_rule=OPTIMIZED))
    assert ci.whole_line


def test_alpha_min_table_values():
    expected = {500: 0.46633050406707127, 1000: 0.2606788636104569,
                5000: 0.07030377274861133, 10000: 0.048770407796848304}
    for n, value in expected.items():
        assert alpha_min(n, 9.0, FIXED_RULE, BE) == pytest.approx(value, rel=1e-9)


def test_alpha_min_consistency_with_constraint():
    for n in (500, 1000, 5000, 10000):
        a = FIXED_RULE(n)
        am = alpha_min(n, 9.0, FIXED_RULE, BE)
        d = delta_of(BE, n, 9.0)

        def gap(alpha):
            return (
                1.0 - alpha / 2.0 + d + nu_var(a, n, 9.0) / 2.0
                - std_normal_cdf(math.sqrt(n / a))
            )

        assert gap(am + 1e-6) < 0.0
        assert gap(am - 1e-6) > 0.0


def test_alpha_min_optimized_dominates_fixed():
    for k in (1.0, 9.0, 25.0):
        for n in (200, 500, 1000, 5000, 10000, 10**5):
            assert alpha_min(n, k, OPTIMIZED, BE) <= alpha_min(n, k, FIXED_RULE, BE) + 1e-12


def test_alpha_min_clamped_to_one():
    assert alpha_min(1, 9.0, FIXED_RULE, BE) == 1.0


def test_table_without_a_covering_row_gives_the_whole_line():
    # delta = 1 below the first row (n = 100) and at K above every row (K = 20)
    table = TableProvider(rows=((1000, 9.0, 0.001),))
    for n, k in ((100, 9.0), (10**4, 20.0)):
        s = Sample(np.random.default_rng(0).standard_normal(n))
        assert alpha_min(n, k, FIXED_RULE, table) == 1.0
        assert alpha_min(n, k, OPTIMIZED, table) == 1.0
        assert feasible_a_interval(n, 0.1, k, table) is None
        assert ci_unknown_variance(s, cfg_unknown(0.1, k, OPTIMIZED, table)).whole_line
        assert ci_known_variance(s, 1.0, cfg_known(0.1, 1.0, k, table)).whole_line
    # the row covers n = 10^4 at K = 9
    s = Sample(np.random.default_rng(0).standard_normal(10**4))
    assert not ci_known_variance(s, 1.0, cfg_known(0.1, 1.0, 9.0, table)).whole_line


def test_width_factor_matches_interval():
    cfg = cfg_unknown(0.10)
    factor = unknown_variance_width_factor(10**4, cfg)
    assert factor is not None
    values = np.zeros(10**4)
    values[:5000] = 1.0
    values[5000:] = -1.0
    ci = ci_unknown_variance(Sample(values), cfg)
    assert ci.width / 2 == pytest.approx(factor / 100.0, rel=1e-12)
    assert unknown_variance_width_factor(100, cfg) is None


# ---------------------------------------------------------------------------
# kurtosis plug-in
# ---------------------------------------------------------------------------


def test_sample_kurtosis_two_point():
    assert sample_kurtosis(Sample(np.array([-1.0, 1.0, -1.0, 1.0]))) == pytest.approx(1.0)
    assert sample_kurtosis(Sample(np.array([0.0, 0.0, 3.0, 3.0]))) == pytest.approx(1.0)


def test_sample_kurtosis_inflation():
    s = Sample(np.array([-1.0, 1.0, -1.0, 1.0]))
    assert sample_kurtosis(s, inflation=2.0) == pytest.approx(1.0 + 2.0 / 2.0)
    for inflation in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            sample_kurtosis(s, inflation=inflation)
        # a study's plug-in K and an OLS plug-in bound take the same rule
        with pytest.raises(DomainError, match="inflation must be >= 0"):
            UnknownVarianceMethod(kurtosis_bound=None, plug_in_inflation=inflation)
        with pytest.raises(DomainError, match="inflation must be >= 0"):
            PlugIn(inflation)


def test_sample_kurtosis_matches_fourth_power():
    rng = np.random.default_rng(2024)
    for n in (2, 7, 100, 10_000):
        for x in (rng.normal(size=n), rng.exponential(size=n), rng.standard_t(3, size=n)):
            s = Sample(x)
            expected = float(np.mean((x - s.mean) ** 4)) / s.sigma_hat_sq**2
            assert sample_kurtosis(s) == pytest.approx(expected, rel=1e-14)


def test_sample_kurtosis_degenerate():
    with pytest.raises(DegenerateSampleError):
        sample_kurtosis(Sample(np.full(10, 2.0)))


def test_sample_kurtosis_scale_free():
    rng = np.random.default_rng(123)
    x = rng.exponential(1.0, 5000)
    k1 = sample_kurtosis(Sample(x))
    k2 = sample_kurtosis(Sample(4.0 * x - 7.0))
    assert k1 == pytest.approx(k2, rel=1e-10)


def test_sample_kurtosis_at_every_order_of_magnitude():
    # computed directly, m4 / sigma_hat^4 is inf / inf = nan at 1e100, inf at
    # 1e77, and a division by an underflowed sigma_hat^4 at 1e-150
    x = np.random.default_rng(5).exponential(1.0, 5000)
    expected = sample_kurtosis(Sample(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-150, 151):
            try:
                value = sample_kurtosis(Sample(x * 10.0**k))
            except DataError:
                continue
            assert value == pytest.approx(expected, rel=1e-12), k


def test_overflowing_moments_are_data_errors():
    spread = Sample(np.array([1e300, -1e300, 5e299]))
    big = Sample(np.array([1.5e308, 1.5e308]))
    wide = Sample(np.random.default_rng(3).standard_normal(5000) * 1e300)
    known = MeanCiConfig(alpha=0.1, kurtosis_bound=9.0, variance=KnownVariance(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spread.sigma_hat_sq == math.inf
        for ci in (ci_clt, ci_student):
            with pytest.raises(DataError, match="interval overflows"):
                ci(spread, 0.1)
            with pytest.raises(DataError, match="sample mean overflows"):
                ci(big, 0.1)
        with pytest.raises(DataError, match="interval overflows"):
            ci_unknown_variance(wide, MeanCiConfig(alpha=0.1, kurtosis_bound=9.0))
        with pytest.raises(DataError, match="sample mean overflows"):
            ci_known_variance(Sample(np.full(5000, 1e305)), 1.0, known)
        # the constant half-widths centre on the mean through the same owner
        with pytest.raises(DataError, match="sample mean overflows"):
            ci_chebyshev(big, 0.1, 1.0)
        with pytest.raises(DataError, match="sample mean overflows"):
            ci_hoeffding(big, 0.1, 0.0, 1.6e308)
        # the known-variance interval does not use sigma_hat^2
        ci = ci_known_variance(wide, 1.0, known)
        assert not ci.whole_line and math.isfinite(ci.width)
        # any method's endpoints that overflow: a Hoeffding interval on a
        # support as wide as the floats, and edg with fixed bounds on
        # regressors whose fourth moments overflow in r_var
        with pytest.raises(DataError, match="hoeffding interval overflows"):
            ci_hoeffding(Sample(np.array([1.7e308])), 0.1, 0.0, 1.7e308)
        d = sample_gumbel_hetero_linear(5000, 1)
        x = d.x.copy()
        x[:, 1:] *= 1e80
        with pytest.raises(DataError, match="edg interval overflows"):
            ci_edg(Design(x, d.y, d.u), 0.1, OlsBounds(1.0, 0.01, 1.0, 9.0), OlsTuning())


# ---------------------------------------------------------------------------
# property-based equivariance
# ---------------------------------------------------------------------------


@given(
    lam=st.floats(min_value=0.1, max_value=10.0),
    c=st.floats(min_value=-100.0, max_value=100.0),
)
@settings(max_examples=50, deadline=None)
def test_affine_equivariance_property(lam, c):
    rng = np.random.default_rng(7)
    x = rng.exponential(1.0, 5000)
    s1, s2 = Sample(x), Sample(lam * x + c)
    for build in (
        lambda s: ci_clt(s, 0.1),
        lambda s: ci_student(s, 0.1),
        lambda s: ci_unknown_variance(s, cfg_unknown(0.1)),
    ):
        a, b = build(s1), build(s2)
        assert b.lower == pytest.approx(lam * a.lower + c, rel=1e-9, abs=1e-7)
        assert b.upper == pytest.approx(lam * a.upper + c, rel=1e-9, abs=1e-7)
    a = ci_chebyshev(s1, 0.1, 3.0)
    b = ci_chebyshev(s2, 0.1, lam * lam * 3.0)
    assert b.lower == pytest.approx(lam * a.lower + c, rel=1e-9, abs=1e-7)
    assert b.upper == pytest.approx(lam * a.upper + c, rel=1e-9, abs=1e-7)


def test_tuning_terms_are_the_same_at_a_float_and_an_array():
    # the searches evaluate single points inside arrays of lanes; a float's
    # ** 2 (libm pow) and an array's square used to differ in the last ulp
    a = np.exp(np.random.default_rng(11).uniform(0.0, math.log(1e6), 20_000))
    a = a[a > 1.0]
    for n, k, d in ((2000, 9.0, 0.01), (20_000, 3.0, 1e-3), (10**6, 25.0, 1e-4)):
        nu, excess = mean_ci._tuning_terms(a, n, k, d)
        for j, x in enumerate(a.tolist()):
            assert mean_ci._tuning_terms(x, n, k, d) == (nu[j], excess[j])
            one_nu, one_excess = mean_ci._tuning_terms(np.array([x]), n, k, d)
            assert (one_nu[0], one_excess[0]) == (nu[j], excess[j])


def _mixed_lanes(kurtosis, seed):
    """Every (n, K) of the n set and ``kurtosis``, ten of them twice, in a
    shuffled order: lanes of mixed n for one search call."""
    pairs = [(n, k) for n in (2, 100, 2000, 20_000, 10**6, 10**8) for k in kurtosis]
    rng = np.random.default_rng(seed)
    pairs += [pairs[j] for j in rng.choice(len(pairs), 10, replace=False)]
    pairs = [pairs[j] for j in rng.permutation(len(pairs))]
    return [n for n, _ in pairs], np.array([k for _, k in pairs])


def test_lane_searches_equal_scalar_searches_bit_for_bit():
    # lanes with different n and K share every numpy call; each must run
    # exactly its own scalar search, whether infeasible, seeded with the
    # conventional a or not, or extended past the top of the scan grid
    n, kurtosis = _mixed_lanes([1.0, 1.7, 3.0, 9.0, 9.0, 25.0, 400.0], seed=3)
    assert len(n) <= mean_ci._LANES  # one call, not blocks
    d = np.array([delta_of(BE, m, k) for m, k in zip(n, kurtosis.tolist())])
    seen = set()
    for alpha in (0.05, 0.32):
        lows, highs = mean_ci._feasible_lanes(n, kurtosis, d, alpha)
        stars = mean_ci._optimize_lanes(n, kurtosis, d, alpha)
        for j, (m, k) in enumerate(zip(n, kurtosis.tolist())):
            expected = feasible_a_interval_oracle(m, alpha, k, d[j])
            assert feasible_a_interval(m, alpha, k, BE) == expected
            if expected is None:
                assert math.isnan(lows[j]) and math.isnan(highs[j]) and math.isnan(stars[j])
                seen.add("infeasible")
                continue
            assert (lows[j], highs[j]) == expected
            assert stars[j] == optimize_a_oracle(m, alpha, k, d[j]) == optimize_a(m, alpha, k, BE)
            seen.add("extended" if expected[1] > mean_ci._SCAN_GRID[-1] else "inside")
            conventional = mean_ci.DEFAULT_A_RULE(m)
            seen.add("seeded" if expected[0] < conventional < expected[1] else "unseeded")
    amins = mean_ci._alpha_min_lanes(n, kurtosis, d, OPTIMIZED)
    for j, (m, k) in enumerate(zip(n, kurtosis.tolist())):
        assert amins[j] == alpha_min_oracle(m, k, d[j]) == alpha_min(m, k, OPTIMIZED, BE)
    assert seen == {"infeasible", "extended", "inside", "seeded", "unseeded"}


@pytest.mark.parametrize("a_rule", [OPTIMIZED, mean_ci.DEFAULT_A_RULE], ids=["optimized", "fixed"])
def test_unknown_variance_lanes_equal_the_one_k_functions(a_rule):
    n, kurtosis = _mixed_lanes([1.0, 2.5, 9.0, 40.0, 400.0], seed=4)
    d = np.array([delta_of(BE, m, k) for m, k in zip(n, kurtosis.tolist())])
    factors, amins = mean_ci._unknown_variance_lanes(n, kurtosis, d, 0.1, a_rule, True)
    assert mean_ci._unknown_variance_lanes(n, kurtosis, d, 0.1, a_rule, False)[1] is None
    for j, (m, k) in enumerate(zip(n, kurtosis.tolist())):
        cfg = MeanCiConfig(alpha=0.1, kurtosis_bound=k, delta=BE, a_rule=a_rule)
        factor = unknown_variance_width_factor(m, cfg)
        assert factors[j] == (math.inf if factor is None else factor)
        assert amins[j] == alpha_min(m, k, a_rule, BE)
    assert np.isinf(factors).any() and np.isfinite(factors).any()


@pytest.mark.parametrize("method", ["clt", "student", "unknown-variance"])
def test_underflowing_sigma_hat_is_a_data_error(method):
    interval = {
        "clt": lambda s: ci_clt(s, 0.1),
        "student": lambda s: ci_student(s, 0.1),
        "unknown-variance": lambda s: ci_unknown_variance(s, cfg_unknown(0.1)),
    }[method]
    values = np.random.default_rng(2).exponential(1.0, 20_000)
    for scale in (1e-170, 1e-160):  # sigma_hat^2 zero, then subnormal
        sample = Sample(values * scale)
        assert sample.sigma_hat_sq < sys.float_info.min
        with pytest.raises(DataError, match="underflows the float range"):
            interval(sample)
    # the known variance does not scale with sigma_hat, and constant samples
    # keep their zero-width interval
    assert not ci_known_variance(Sample(values * 1e-170), 1.0, cfg_known(0.1, 1.0)).whole_line
    for constant in (0.1, 1e-170, 0.0):
        assert interval(Sample(np.full(20_000, constant))).width == 0.0
