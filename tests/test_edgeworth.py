import pytest

from navae.edgeworth import (
    BerryEsseen,
    EdgeworthContinuousLeading,
    EdgeworthLeading,
    MinOf,
    TableProvider,
    UserSupplied,
    delta_berry_esseen,
    delta_edgeworth_continuous_leading,
    delta_edgeworth_leading,
    delta_of,
    provider_from_string,
)
from navae.errors import ConfigError, DataError, DomainError, ProviderError


def test_berry_esseen_values():
    assert delta_berry_esseen(100, 1.0) == pytest.approx(0.04690, abs=1e-12)
    assert delta_berry_esseen(1000, 9.0) == pytest.approx(0.07706456384097686, abs=1e-6)
    assert delta_berry_esseen(5000, 9.0) == pytest.approx(0.03446432068095931, abs=1e-6)


def test_berry_esseen_exact_evaluation_order():
    import math

    n, k = 1234, 7.5
    assert delta_berry_esseen(n, k) == 0.4690 * k**0.75 / math.sqrt(n)


def test_edgeworth_leading_values():
    assert delta_edgeworth_leading(100, 1.0) == pytest.approx(0.0399, abs=1e-12)
    assert delta_edgeworth_leading(50000, 9.0) == pytest.approx(0.005528152, abs=1e-6)
    assert delta_edgeworth_leading(1000, 9.0) == pytest.approx(0.03908993899872011, abs=1e-9)


def test_edgeworth_continuous_values():
    assert delta_edgeworth_continuous_leading(1000, 1.0) == pytest.approx(0.00020965, abs=1e-12)
    assert delta_edgeworth_continuous_leading(10000, 9.0) == pytest.approx(0.000215055, abs=1e-8)
    assert delta_edgeworth_continuous_leading(100, 9.0) == pytest.approx(0.02150550, abs=1e-8)


def test_certification_flags():
    assert BerryEsseen().certified
    assert not EdgeworthLeading().certified
    assert not EdgeworthContinuousLeading().certified
    assert MinOf((BerryEsseen(),)).certified
    assert not MinOf((BerryEsseen(), EdgeworthLeading())).certified
    assert UserSupplied(lambda n, k: 0.01, declared_certified=True).certified
    assert not UserSupplied(lambda n, k: 0.01).certified


def test_delta_of_min_dispatch():
    provider = MinOf((BerryEsseen(), EdgeworthLeading()))
    assert delta_of(provider, 1000, 9.0) == pytest.approx(0.03908993899872011, abs=1e-9)
    assert delta_of(BerryEsseen(), 1000, 9.0) == pytest.approx(0.07706456384097686, abs=1e-9)
    assert delta_of(UserSupplied(lambda n, k: 0.01), 77, 3.0) == 0.01


def test_min_of_certified_only_equals_be():
    # with only certified members, the pointwise min is the BE bound itself
    provider = MinOf((BerryEsseen(),))
    for n in (10, 1000, 38_707, 100_000):
        assert delta_of(provider, n, 9.0) == delta_berry_esseen(n, 9.0)


def test_user_supplied_invalid_values_raise():
    with pytest.raises(ProviderError):
        delta_of(UserSupplied(lambda n, k: -1.0), 10, 2.0)
    with pytest.raises(ProviderError):
        delta_of(UserSupplied(lambda n, k: float("nan")), 10, 2.0)
    with pytest.raises(ProviderError):
        delta_of(UserSupplied(lambda n, k: 0.0), 10, 2.0)


def test_delta_decreasing_in_n():
    grid = [2, 5, 10, 100, 1000, 50_000, 10**6]
    for provider in (BerryEsseen(), EdgeworthLeading(), EdgeworthContinuousLeading()):
        values = [provider.delta(n, 9.0) for n in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_delta_nondecreasing_in_k():
    ks = [1.0, 2.0, 3.0, 9.0, 30.0, 100.0]
    for provider in (BerryEsseen(), EdgeworthLeading(), EdgeworthContinuousLeading()):
        values = [provider.delta(500, k) for k in ks]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_domain_validation():
    with pytest.raises(DomainError):
        delta_berry_esseen(0, 9.0)
    with pytest.raises(DomainError):
        delta_berry_esseen(10, 0.5)


def test_provider_from_string_named():
    assert provider_from_string("be") == BerryEsseen()
    assert provider_from_string("edg-leading") == EdgeworthLeading()
    assert provider_from_string("edg-cont-leading") == EdgeworthContinuousLeading()
    combo = provider_from_string("min(be,edg-leading)")
    assert isinstance(combo, MinOf)
    assert combo.delta(1000, 9.0) == pytest.approx(0.03908993899872011, abs=1e-9)
    with pytest.raises(ConfigError):
        provider_from_string("unknown-provider")


def test_table_provider_conservative_upward(tmp_path):
    table = tmp_path / "delta.csv"
    table.write_text("n,K,delta\n100,9,0.05\n1000,9,0.02\n1000,4,0.01\n")
    provider = provider_from_string(f"user:{table}")
    assert not provider.certified
    # exact row
    assert provider.delta(1000, 9.0) == 0.02
    # n between rows: falls back to the smaller-n row (delta decreases in n)
    assert provider.delta(500, 9.0) == 0.05
    # smaller K may use the K=4 row, taking the tightest valid bound
    assert provider.delta(1000, 4.0) == 0.01
    assert provider.delta(2000, 3.0) == 0.01
    # no row covers a point below the smallest tabulated n or above every K:
    # the trivial bound 1
    assert provider.delta(50, 9.0) == 1.0
    assert provider.delta(1000, 20.0) == 1.0


def test_table_provider_certified_suffix(tmp_path):
    table = tmp_path / "delta.csv"
    table.write_text("100,9,0.05\n")
    assert provider_from_string(f"user:{table}:certified").certified


def test_table_rejects_bad_rows(tmp_path):
    table = tmp_path / "bad.csv"
    table.write_text("100,9\n")
    with pytest.raises(ConfigError):
        provider_from_string(f"user:{table}")
    table.write_text("100,9,-0.5\n")
    with pytest.raises(ConfigError):
        provider_from_string(f"user:{table}")
    table.write_text("100.5,9,0.02\n")
    with pytest.raises(ConfigError):
        provider_from_string(f"user:{table}")
    # the CLI's CSV reader: a cell that is not a number is a data error
    table.write_text("n,K,delta\n100,nine,0.02\n")
    with pytest.raises(DataError, match=r"bad\.csv:2: "):
        provider_from_string(f"user:{table}")
    table.write_text("1e3,9,0.02\n")
    (row,) = provider_from_string(f"user:{table}").rows
    assert row == (1000, 9.0, 0.02) and type(row[0]) is int


def test_table_provider_direct_construction():
    provider = TableProvider(rows=((10, 9.0, 0.3),), name="inline")
    assert provider.delta(20, 9.0) == 0.3


def test_provider_from_string_nested_min():
    provider = provider_from_string("min(be,min(be,edg-leading))")
    assert isinstance(provider, MinOf)
    assert provider.delta(1000, 9.0) == pytest.approx(0.03908993899872011, abs=1e-9)
    assert not provider.certified
    assert provider_from_string("min(be)").certified


def test_nonincreasing_flags():
    table = TableProvider(rows=((10, 9.0, 0.3),), name="inline")
    user = UserSupplied(fn=lambda n, k: 0.1)
    for provider in (BerryEsseen(), EdgeworthLeading(), EdgeworthContinuousLeading(), table,
                     MinOf((BerryEsseen(), EdgeworthLeading())), MinOf((BerryEsseen(), table))):
        assert provider.nonincreasing
    for provider in (user, MinOf((user,)), MinOf((table, user))):
        assert not provider.nonincreasing
