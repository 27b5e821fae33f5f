"""The coverage-study engine against the per-replication oracle loop.

The engine computes a cell's Philox keys in one pass, resets one generator
to each (for the built-in DGPs), and evaluates fixed-rule mean intervals a chunk of replications at
a time.  None of that may change a draw, a record or an error.
"""

import math

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
    _CellStreams,
    _cell_keys,
    _run_slice,
    run_coverage_study,
    sample_exponential,
    substream,
    width_curve,
)
from navae.errors import ConfigError, DataError, InsufficientDataError, InvariantError, NavaeError
from navae.mean_ci import Sample
from navae.ols_ci import OlsBounds, OlsTuning, PlugIn
from navae.rules import OPTIMIZED
from oracles import coverage_study_oracle, ols_width_means_oracle, replication_records_oracle

# ---------------------------------------------------------------------------
# stream keys and the reused generator
# ---------------------------------------------------------------------------


def _state(seed, method_index, n, r):
    return np.random.SeedSequence(seed, spawn_key=(method_index, n, r)).generate_state(2, np.uint64)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40 + 7, 2**130 + 9])
@pytest.mark.parametrize("n", [1, 10**4, 2**33 + 5])
def test_cell_keys_equal_the_seed_sequence_state(seed, n):
    for method_index in (0, 3):
        keys = _cell_keys(seed, method_index, n, 0, 300)
        assert keys.dtype == np.uint64 and keys.shape == (300, 2)
        expected = np.array([_state(seed, method_index, n, r) for r in range(300)])
        np.testing.assert_array_equal(keys, expected)
        np.testing.assert_array_equal(_cell_keys(seed, method_index, n, 120, 300), expected[120:])
        last = _cell_keys(seed, method_index, n, 2**32 - 1, 2**32)
        np.testing.assert_array_equal(last, [_state(seed, method_index, n, 2**32 - 1)])


def _mixed_draw(n, rng):
    # an odd count of full-range 32-bit integers leaves half a 64-bit word
    # buffered (has_uint32); normals and uniforms draw whole words
    return rng.standard_normal(n) + rng.integers(0, 2**32, n, dtype=np.uint32) * rng.random(n)


def _same_data(a, b):
    if isinstance(a, Sample):
        return np.array_equal(a.values, b.values)
    return np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y) and np.array_equal(a.u, b.u)


@pytest.mark.parametrize("dgp", [
    ExponentialMean(rate=2.5),
    GumbelHeteroLinear(),
    CustomMeanDgp(draw=_mixed_draw, target=0.0),
], ids=["exponential", "gumbel", "custom"])
def test_reset_generator_draws_what_substream_draws(dgp):
    streams = _CellStreams(ExponentialMean(), 11, 2, 51, 3, 9)
    for r in range(3, 9):
        assert isinstance(streams.seed(r), np.random.Generator)
        dgp.sample(7, streams.seed(r))  # leaves the generator mid-stream
        got = dgp.sample(51, streams.seed(r))
        assert _same_data(got, dgp.sample(51, substream(11, 2, 51, r)))
        assert _same_data(dgp.sample(51, streams.seed(r)), got)


def test_cell_keys_reject_a_negative_word():
    for fields in [(-1, 0, 10), (3, -1, 10), (3, 0, -10)]:
        with pytest.raises(ValueError, match="non-negative"):
            _cell_keys(*fields, 0, 5)


def _spawning_draw(n, rng):
    # children and the seed sequence of the generator a draw receives
    child, _ = rng.spawn(2)
    key = rng.bit_generator.seed_seq.spawn_key
    return child.standard_normal(n) + key[-1]


def test_custom_dgps_get_the_substream_seed_sequence(monkeypatch):
    dgp = CustomMeanDgp(draw=_spawning_draw, target=0.0)
    streams = _CellStreams(dgp, 11, 2, 51, 3, 9)
    for r in range(3, 9):
        seed = streams.seed(r)
        expected = substream(11, 2, 51, r)
        assert (seed.entropy, seed.spawn_key) == (expected.entropy, expected.spawn_key)
    spec = SimStudySpec(dgp=dgp, methods=(CltMethod(), UnknownVarianceMethod(kurtosis_bound=None)),
                        n_grid=(3, 40), replications=9, alpha=0.1, base_seed=8)
    expected = coverage_study_oracle(spec)
    for chunk in (1 << 16, 64):
        monkeypatch.setattr(dgp_sim, "_CHUNK_DOUBLES", chunk)
        for workers in (1, 2, 3):
            assert run_coverage_study(spec, workers=workers) == expected


def test_sample_exponential_is_the_inverse_cdf_of_the_uniforms():
    for rate in (1.0, 0.3, 7.0):
        u = np.random.Generator(np.random.Philox(substream(4, 0, 1000, 1))).random(1000)
        got = sample_exponential(1000, substream(4, 0, 1000, 1), rate).values
        assert np.array_equal(got, -np.log1p(-u) / rate)


# ---------------------------------------------------------------------------
# studies against the oracle loop
# ---------------------------------------------------------------------------

N_GRID = (2, 3, 7, 100, 8193)
EDG = OlsEdgMethod(
    bounds=OlsBounds(lambda_reg=PlugIn(), k_reg=PlugIn(), k_eps=PlugIn(), k_xi=9.0),
    tuning=OlsTuning(),
)


def _uniform(n, rng):
    return rng.random(n)


STUDIES = {
    "exponential": SimStudySpec(
        dgp=ExponentialMean(),
        methods=(
            CltMethod(),
            StudentMethod(),
            ChebyshevMethod(var_bound=1.0),
            KnownVarianceMethod(sigma=1.0, kurtosis_bound=9.0),
            UnknownVarianceMethod(),
            UnknownVarianceMethod(a_rule=OPTIMIZED, track_alpha_min=True),
            UnknownVarianceMethod(kurtosis_bound=None, track_alpha_min=True),
            UnknownVarianceMethod(kurtosis_bound=4.0, track_alpha_min=True),
        ),
        n_grid=N_GRID, replications=20, alpha=0.1, base_seed=17,
    ),
    "uniform": SimStudySpec(
        dgp=CustomMeanDgp(draw=_uniform, target=0.5, name="uniform"),
        methods=(
            HoeffdingMethod(0.0, 1.0),
            ChebyshevMethod(var_bound=1.0 / 12.0),
            CltMethod(),
            KnownVarianceMethod(sigma=math.sqrt(1.0 / 12.0), kurtosis_bound=1.8),
            UnknownVarianceMethod(kurtosis_bound=1.8),
        ),
        n_grid=N_GRID, replications=13, alpha=0.05, base_seed=2**40 + 3,
    ),
    "ols": SimStudySpec(
        dgp=GumbelHeteroLinear(), methods=(OlsAsympMethod(), EDG),
        n_grid=(40, 4000), replications=5, alpha=0.1, base_seed=5,
    ),
}


@pytest.mark.parametrize("chunk", [1 << 16, 64], ids=["chunk-default", "chunk-64"])
@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_equals_the_oracle_loop(name, chunk, monkeypatch):
    monkeypatch.setattr(dgp_sim, "_CHUNK_DOUBLES", chunk)
    spec = STUDIES[name]
    expected = coverage_study_oracle(spec)
    rows = {(r.method, r.n): r for r in expected.rows}
    if name != "ols":
        # both kinds of cell are covered: whole line and bounded
        assert rows[("known-variance", 7)].whole_line_fraction == 1.0
        assert rows[("known-variance", 8193)].whole_line_fraction == 0.0
    for workers in (1, 2, 3):
        assert run_coverage_study(spec, workers=workers) == expected


@pytest.mark.parametrize("method", [CltMethod(), StudentMethod(), UnknownVarianceMethod(kurtosis_bound=2.0)],
                         ids=["clt", "student", "unknown-variance"])
def test_chunk_records_equal_the_oracle_records_bit_for_bit(method, monkeypatch):
    monkeypatch.setattr(dgp_sim, "_CHUNK_DOUBLES", 1 << 10)
    for n_grid, replications in [(tuple(range(2, 40)), 40), ((100, 1000, 65536, 65537, 100_000), 3)]:
        spec = SimStudySpec(dgp=ExponentialMean(), methods=(method,), n_grid=n_grid,
                            replications=replications, alpha=0.2, base_seed=29)
        for n in n_grid:
            assert _run_slice(0, n, 0, replications, spec) == replication_records_oracle(spec, 0, n)
            assert _run_slice(0, n, 7 % replications, replications, spec) == (
                replication_records_oracle(spec, 0, n)[7 % replications:]
            )


def test_fixed_rule_cells_do_not_call_interval(monkeypatch):
    def no_interval(self, sample, alpha):
        raise AssertionError("interval called")

    methods = (CltMethod(), StudentMethod(), KnownVarianceMethod(sigma=1.0, kurtosis_bound=9.0),
               UnknownVarianceMethod(a_rule=OPTIMIZED, track_alpha_min=True))
    for method in methods:
        monkeypatch.setattr(type(method), "interval", no_interval)
    spec = SimStudySpec(dgp=ExponentialMean(), methods=methods, n_grid=(10, 5000), replications=30,
                        alpha=0.1, base_seed=1)
    assert run_coverage_study(spec, workers=2) == run_coverage_study(spec)
    monkeypatch.undo()
    assert run_coverage_study(spec) == coverage_study_oracle(spec)


@pytest.mark.parametrize("method", [EDG, UnknownVarianceMethod(kurtosis_bound=9.0),
                                    KnownVarianceMethod(sigma=1.0, kurtosis_bound=9.0)],
                         ids=["edg", "unknown-variance", "known-variance"])
def test_width_curve_rejects_a_negative_seed(method):
    dgp = GumbelHeteroLinear() if method is EDG else ExponentialMean()
    with pytest.raises(ConfigError, match=r"seed must be >= 0, got -1"):
        width_curve(dgp, method, (40,), 0.1, replications=2, base_seed=-1)


def test_ols_width_curve_equals_the_oracle_loop():
    rows = width_curve(GumbelHeteroLinear(), EDG, (40, 4000), 0.1, replications=4, base_seed=6)
    for row in rows:
        mean_edg, mean_asymp = ols_width_means_oracle(GumbelHeteroLinear(), EDG, row.n, 0.1, 4, 6)
        assert row.mean_width == mean_edg
        assert row.ratio == (None if mean_edg is None else mean_edg / mean_asymp)
    assert rows[0].mean_width is None and rows[1].mean_width is not None


# ---------------------------------------------------------------------------
# the first error is the serial loop's
# ---------------------------------------------------------------------------


def _errors(spec, monkeypatch):
    """(type, message) of the oracle's error and of the study's at workers
    1, 2 and 3, at the default and at a small chunk size."""
    with pytest.raises(Exception) as info:
        coverage_study_oracle(spec)
    expected = (type(info.value), str(info.value))
    raised = []
    for chunk in (1 << 16, 64):
        monkeypatch.setattr(dgp_sim, "_CHUNK_DOUBLES", chunk)
        for workers in (1, 2, 3):
            with pytest.raises(Exception) as info:
                run_coverage_study(spec, workers=workers)
            raised.append((type(info.value), str(info.value)))
    return expected, raised


def _first_draw(seed, n, r):
    return np.random.Generator(np.random.Philox(substream(seed, 0, n, r))).standard_normal(n)[0]


def _fails_above_one(n, rng):
    x = rng.standard_normal(n)
    if x[0] > 1.0:
        raise DataError(f"first draw {x[0]!r} is above 1")
    return x


def test_an_interval_error_at_replication_zero_beats_a_draw_error_at_three(monkeypatch):
    assert [_first_draw(5, 1, r) > 1.0 for r in range(4)] == [False, False, False, True]
    spec = SimStudySpec(dgp=CustomMeanDgp(draw=_fails_above_one, target=0.0), methods=(CltMethod(),),
                        n_grid=(1,), replications=6, alpha=0.1, base_seed=5)
    expected, raised = _errors(spec, monkeypatch)
    assert expected == (InsufficientDataError, "CLT interval needs n >= 2")
    assert raised == [expected] * 6


def _nan_above_one_and_a_half(n, rng):
    x = rng.standard_normal(n)
    if x[0] > 1.5:
        x[n // 2] = np.nan
    return x


def test_a_nan_in_the_middle_of_a_chunk_raises_the_serial_error(monkeypatch):
    assert [_first_draw(7, 50, r) > 1.5 for r in range(7)] == [False] * 6 + [True]
    dgp = CustomMeanDgp(draw=_nan_above_one_and_a_half, target=0.0)
    spec = SimStudySpec(dgp=dgp, methods=(CltMethod(), StudentMethod()), n_grid=(50,),
                        replications=12, alpha=0.1, base_seed=7)
    expected, raised = _errors(spec, monkeypatch)
    assert expected == (DataError, "sample values must be finite")
    assert raised == [expected] * 6
    before = SimStudySpec(dgp=dgp, methods=spec.methods, n_grid=(50,), replications=6,
                          alpha=0.1, base_seed=7)
    assert run_coverage_study(before) == coverage_study_oracle(before)


def _huge(n, rng):
    return rng.standard_normal(n) * 1e300


def test_an_overflowing_interval_raises_the_serial_invariant_error(monkeypatch):
    spec = SimStudySpec(dgp=CustomMeanDgp(draw=_huge, target=0.0), methods=(CltMethod(),),
                        n_grid=(30,), replications=8, alpha=0.1, base_seed=3)
    expected, raised = _errors(spec, monkeypatch)
    assert expected[0] is InvariantError
    assert raised == [expected] * 6


def _one_value_when_positive(n, rng):
    # one value would broadcast across a chunk row
    x = rng.standard_normal(n)
    return x[:1] if x[0] > 0.0 else x


def test_a_sample_of_another_size_runs_through_interval(monkeypatch):
    spec = SimStudySpec(dgp=CustomMeanDgp(draw=_one_value_when_positive, target=0.0),
                        methods=(UnknownVarianceMethod(kurtosis_bound=1.8),), n_grid=(5, 3000),
                        replications=9, alpha=0.1, base_seed=12)
    expected = coverage_study_oracle(spec)
    # a one-value sample's interval is the whole line
    assert 0.0 < expected.row(spec.methods[0].label, 3000).whole_line_fraction < 1.0
    for chunk in (1 << 16, 64):
        monkeypatch.setattr(dgp_sim, "_CHUNK_DOUBLES", chunk)
        for workers in (1, 2):
            assert run_coverage_study(spec, workers=workers) == expected


# ---------------------------------------------------------------------------
# integer fields of SimStudySpec
# ---------------------------------------------------------------------------


def _spec(**fields):
    values = dict(dgp=ExponentialMean(), methods=(CltMethod(),), n_grid=(50,), replications=3,
                  alpha=0.1, base_seed=0)
    values.update(fields)
    return SimStudySpec(**values)


@pytest.mark.parametrize("fields, message", [
    ({"n_grid": (50.5,)}, "n entry must be an integer, got 50.5"),
    ({"n_grid": (20, True)}, "n entry must be an integer, got True"),
    ({"replications": 2.5}, "replications must be an integer, got 2.5"),
    ({"replications": True}, "replications must be an integer, got True"),
    ({"replications": 2**32}, "replications must be below 2**32, got 4294967296"),
    ({"base_seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"base_seed": False}, "seed must be an integer, got False"),
    ({"base_seed": -1}, "seed must be >= 0, got -1"),
])
def test_study_rejects_non_integral_fields(fields, message):
    with pytest.raises(ConfigError) as info:
        _spec(**fields)
    assert str(info.value) == message
    assert isinstance(info.value, NavaeError)


def test_study_keeps_integral_fields_as_ints():
    spec = _spec(n_grid=(50.0, np.int64(7)), replications=np.int32(4), base_seed=3.0)
    assert spec.n_grid == (50, 7) and spec.replications == 4 and spec.base_seed == 3
    assert all(type(v) is int for v in (*spec.n_grid, spec.replications, spec.base_seed))
    assert _spec(replications=2**32 - 1).replications == 2**32 - 1
