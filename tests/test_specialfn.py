import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navae.errors import DomainError
from navae.specialfn import std_normal_cdf, std_normal_pdf, std_normal_quantile

from oracles import mp_cdf, mp_quantile


def test_cdf_at_zero():
    assert std_normal_cdf(0.0) == 0.5


def test_cdf_round_trip_of_known_quantile():
    # q(0.95) truncated to 12 decimals; Phi of it must be 0.95 to 1e-12
    assert std_normal_cdf(1.644853626951) == pytest.approx(0.95, abs=1e-12)


def test_cdf_deep_tail_positive_without_underflow():
    value = std_normal_cdf(-30.0)
    assert 0.0 < value < 1e-100
    assert std_normal_cdf(-37.0) > 0.0


def test_cdf_matches_high_precision_oracle():
    for x in [-8.0, -5.5, -2.0, -0.3, 0.0, 0.7, 1.96, 4.2, 6.0, 9.0]:
        assert std_normal_cdf(x) == pytest.approx(mp_cdf(x), abs=1e-14)


def test_cdf_reflection_identity():
    rng = np.random.default_rng(7)
    for x in rng.uniform(-8, 8, size=200):
        assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), abs=1e-15)


def test_cdf_monotone():
    xs = np.linspace(-10, 10, 2001)
    values = [std_normal_cdf(float(x)) for x in xs]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_cdf_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            std_normal_cdf(bad)


def test_quantile_at_half_is_zero():
    assert std_normal_quantile(0.5) == 0.0


def test_quantile_known_values():
    assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
    assert std_normal_quantile(0.95) == pytest.approx(1.644854, abs=1e-5)


def test_quantile_matches_arbitrary_precision_oracle():
    for p in [1e-10, 1e-6, 0.001, 0.025, 0.3, 0.5, 0.8, 0.975, 1 - 1e-6, 1 - 1e-10]:
        assert std_normal_quantile(p) == pytest.approx(mp_quantile(p), rel=1e-12, abs=1e-13)


def test_quantile_round_trip_bulk():
    rng = np.random.default_rng(12345)
    ps = rng.uniform(1e-8, 1 - 1e-8, size=10_000)
    worst = max(abs(std_normal_cdf(std_normal_quantile(float(p))) - p) for p in ps)
    assert worst <= 1e-12


def test_quantile_round_trip_extreme_band():
    for p in [1e-10, 1e-9, 1e-8, 1 - 1e-8, 1 - 1e-9, 1 - 1e-10]:
        assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-12


def test_quantile_antisymmetry_on_exact_pairs():
    # pairs (1-a, a) with a in (0.5, 1) sum to exactly 1 in floating point
    rng = np.random.default_rng(99)
    for a in rng.uniform(0.5 + 1e-12, 1 - 1e-8, size=10_000):
        hi = float(a)
        lo = 1.0 - hi
        assert std_normal_quantile(lo) + std_normal_quantile(hi) == pytest.approx(0.0, abs=1e-12)


def test_quantile_exact_antisymmetry():
    # hi = 1 - h with 1 - h down to 1e-16, plus uniform h; keep the pairs
    # whose floating-point sum is exactly 1, as the docstring contract states
    rng = np.random.default_rng(2025)
    hs = np.concatenate([1.0 - np.logspace(-16, math.log10(0.5), 2000), rng.uniform(0.0, 1.0, 2000)])
    checked = 0
    for h in hs:
        h = float(h)
        hi = 1.0 - h
        if not 0.0 < h < 1.0 or hi + h != 1.0:
            continue
        assert std_normal_quantile(hi) == -std_normal_quantile(h)
        checked += 1
    assert checked >= 3000
    assert std_normal_quantile(0.5) == 0.0


def test_quantile_strictly_increasing():
    rng = np.random.default_rng(3)
    ps = np.sort(rng.uniform(1e-10, 1 - 1e-10, size=5000))
    qs = [std_normal_quantile(float(p)) for p in ps]
    for (p1, q1), (p2, q2) in zip(zip(ps, qs), zip(ps[1:], qs[1:])):
        if p1 != p2:
            assert q1 < q2


@given(st.floats(min_value=1e-8, max_value=1 - 1e-8))
@settings(max_examples=300, deadline=None)
def test_quantile_round_trip_property(p):
    assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-12


def test_quantile_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.7, math.nan):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)


def test_pdf_is_derivative_of_cdf():
    step = 1e-5
    for x in np.linspace(-6, 6, 121):
        x = float(x)
        central = (std_normal_cdf(x + step) - std_normal_cdf(x - step)) / (2 * step)
        assert central == pytest.approx(std_normal_pdf(x), abs=1e-8)
