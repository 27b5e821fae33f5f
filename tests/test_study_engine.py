"""The coverage-study engine against the per-replication oracle loop.

The engine draws replication r of a cell (seed, n) once, from one generator
reset to the Philox key (k0, r), evaluates every method on that draw, takes
the mean intervals of a whole slice from per-replication moments drawn
through a chunk buffer, and runs the tuning searches of a plug-in-K slice on
lanes.  None of that may change a draw, a record or an error of the oracle
loop, which runs in (n, replication, method) order.
"""

import math
import tracemalloc
import warnings
from dataclasses import dataclass

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
    SimReport,
    SimReportRow,
    SimStudySpec,
    StudentMethod,
    UnknownVarianceMethod,
    _CellStreams,
    _cell_key,
    _run_slice,
    run_coverage_study,
    sample_exponential,
    sample_gumbel_hetero_linear,
    substream,
    width_curve,
)
from navae.errors import (
    ConfigError,
    DataError,
    DegenerateSampleError,
    DomainError,
    InsufficientDataError,
    NavaeError,
)
from navae.mean_ci import Sample, alpha_min
from navae.ols_ci import Design, OlsBounds, OlsTuning, PlugIn
from navae.rules import OPTIMIZED
from oracles import coverage_study_oracle, ols_width_means_oracle, replication_records_oracle, stream_oracle

# ---------------------------------------------------------------------------
# stream keys and the reused generator
# ---------------------------------------------------------------------------


def _k0(seed, n):
    return np.random.SeedSequence(seed, spawn_key=(n,)).generate_state(1, np.uint64)[0]


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40 + 7, 2**130 + 9])
@pytest.mark.parametrize("n", [1, 10**4, 2**33 + 5])
def test_cell_keys_equal_the_seed_sequence_state(seed, n):
    # k0 is the first word of the cell's seed sequence state, and the reset
    # generator of replication r is Philox keyed k0 | r << 64
    k0 = _k0(seed, n)
    assert _cell_key(seed, n) == k0
    streams = _CellStreams(seed, n)
    for r in (0, 1, 2**32, 2**64 - 1):
        got = streams.seed(r).random(9)
        expected = np.random.Generator(np.random.Philox(key=int(k0) | r << 64)).random(9)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(stream_oracle(seed, n, r).random(9), expected)


@pytest.mark.parametrize("low", [0, 5, 2**64 - 1])
def test_seeds_that_differ_above_bit_64_draw_differently(low):
    # the seed's full entropy enters k0, not only its low 64 bits
    seeds = (low, low + 2**64, low + 2**100)
    keys = {_cell_key(seed, 100) for seed in seeds}
    assert len(keys) == 3
    draws = {tuple(substream(seed, 0, 100, 3).random(4)) for seed in seeds}
    assert len(draws) == 3
    reports = {run_coverage_study(_spec(base_seed=seed)) for seed in seeds}
    assert len(reports) == 3


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
    streams = _CellStreams(11, 51)
    for r in range(3, 9):
        assert isinstance(streams.seed(r), np.random.Generator)
        dgp.sample(7, streams.seed(r))  # leaves the generator mid-stream
        got = dgp.sample(51, streams.seed(r))
        for method_index in (0, 2):  # the method index names no stream
            assert _same_data(got, dgp.sample(51, substream(11, method_index, 51, r)))
        assert _same_data(dgp.sample(51, streams.seed(r)), got)


def test_cell_keys_reject_a_negative_word():
    for seed, n, r in [(-1, 10, 0), (3, -10, 0), (3, 10, -1), (3, 10, 2**64)]:
        with pytest.raises(ValueError):
            substream(seed, 0, n, r)


def _spawning_draw(n, rng):
    child, _ = rng.spawn(2)
    return child.standard_normal(n)


def _replication_generator(n, rng):
    # the generator a custom draw receives is the replication's own stream
    assert isinstance(rng, np.random.Generator)
    return rng.standard_normal(n)


def test_custom_dgps_get_the_replication_generator(monkeypatch):
    # a custom DGP draws from replication r's keyed generator, which has no
    # seed sequence: spawn raises (numpy before 1.25 has no spawn at all)
    with pytest.raises((TypeError, AttributeError)):
        _CellStreams(11, 51).seed(3).spawn(2)
    spawning = SimStudySpec(dgp=CustomMeanDgp(draw=_spawning_draw, target=0.0), methods=(CltMethod(),),
                            n_grid=(40,), replications=3, alpha=0.1, base_seed=8)
    with pytest.raises((TypeError, AttributeError)):
        run_coverage_study(spawning)
    dgp = CustomMeanDgp(draw=_replication_generator, target=0.0)
    spec = SimStudySpec(dgp=dgp, methods=(CltMethod(), UnknownVarianceMethod(kurtosis_bound=None)),
                        n_grid=(3, 40), replications=9, alpha=0.1, base_seed=8)
    expected = coverage_study_oracle(spec)
    for chunk in (1 << 16, 64):
        monkeypatch.setattr(dgp_sim, "_CHUNK_DOUBLES", chunk)
        for workers in (1, 2, 3):
            assert run_coverage_study(spec, workers=workers) == expected


def test_sample_exponential_is_the_inverse_cdf_of_the_uniforms():
    for rate in (1.0, 0.3, 7.0):
        u = substream(4, 0, 1000, 1).random(1000)
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
            UnknownVarianceMethod(kurtosis_bound=None, a_rule=OPTIMIZED, track_alpha_min=True),
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
        # the all-plug-in edg's K_xi, and with it the n_zero key, changes every replication
        dgp=GumbelHeteroLinear(),
        methods=(OlsAsympMethod(), EDG, OlsEdgMethod(bounds=OlsBounds.all_plug_in(inflation=1.0))),
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


@pytest.mark.parametrize("method", [
    CltMethod(),
    StudentMethod(),
    UnknownVarianceMethod(kurtosis_bound=2.0),
    UnknownVarianceMethod(kurtosis_bound=None, track_alpha_min=True),
    UnknownVarianceMethod(kurtosis_bound=None, a_rule=OPTIMIZED, track_alpha_min=True),
    UnknownVarianceMethod(kurtosis_bound=None, plug_in_inflation=2.0),
], ids=["clt", "student", "unknown-variance", "plug-in", "plug-in-optimized", "plug-in-inflated"])
def test_chunk_records_equal_the_oracle_records_bit_for_bit(method, monkeypatch):
    monkeypatch.setattr(dgp_sim, "_CHUNK_DOUBLES", 1 << 10)
    for n_grid, replications in [(tuple(range(2, 40)), 40), ((100, 1000, 65536, 65537, 100_000), 3)]:
        spec = SimStudySpec(dgp=ExponentialMean(), methods=(method,), n_grid=n_grid,
                            replications=replications, alpha=0.2, base_seed=29)
        for n in n_grid:
            expected = replication_records_oracle(spec, n)
            np.testing.assert_array_equal(_run_slice(n, 0, replications, spec), expected)
            np.testing.assert_array_equal(_run_slice(n, 7 % replications, replications, spec),
                                          expected[..., 7 % replications:])


def test_fixed_rule_cells_do_not_call_interval(monkeypatch):
    def no_interval(self, sample, alpha):
        raise AssertionError("interval called")

    # a method without a cell rule (Chebyshev) in the same study still calls
    # interval, and the others still do not
    methods = (CltMethod(), StudentMethod(), KnownVarianceMethod(sigma=1.0, kurtosis_bound=9.0),
               UnknownVarianceMethod(a_rule=OPTIMIZED, track_alpha_min=True))
    for method in methods:
        monkeypatch.setattr(type(method), "interval", no_interval)
    spec = SimStudySpec(dgp=ExponentialMean(), methods=(*methods, ChebyshevMethod(var_bound=1.0)),
                        n_grid=(10, 5000), replications=30, alpha=0.1, base_seed=1)
    assert run_coverage_study(spec, workers=2) == run_coverage_study(spec)
    monkeypatch.undo()
    assert run_coverage_study(spec) == coverage_study_oracle(spec)


def test_plug_in_cells_do_not_call_interval(monkeypatch):
    # each slice of a plug-in cell is one lane search over its K values
    def no_interval(self, sample, alpha):
        raise AssertionError("interval called")

    methods = (UnknownVarianceMethod(kurtosis_bound=None, a_rule=OPTIMIZED, track_alpha_min=True),
               UnknownVarianceMethod(kurtosis_bound=None, track_alpha_min=True),
               UnknownVarianceMethod(kurtosis_bound=None, a_rule=OPTIMIZED, plug_in_inflation=2.0))
    monkeypatch.setattr(UnknownVarianceMethod, "interval", no_interval)
    spec = SimStudySpec(dgp=ExponentialMean(), methods=methods, n_grid=(10, 3000, 20000),
                        replications=30, alpha=0.1, base_seed=1)
    report = run_coverage_study(spec)
    assert run_coverage_study(spec, workers=2) == report
    monkeypatch.undo()
    assert report == coverage_study_oracle(spec)
    row = report.row(methods[0].label, 3000)
    assert 0.0 < row.whole_line_fraction < 1.0  # both bounded and infeasible lanes


def test_plug_in_slices_search_in_blocks_of_64_lanes(monkeypatch):
    # a lane search's arrays grow with its lanes, so a slice runs in blocks
    sizes = []
    search = dgp_sim._unknown_variance_lanes

    def recording(n, k, d, alpha, a_rule, track):
        sizes.append(k.size)
        return search(n, k, d, alpha, a_rule, track)

    monkeypatch.setattr(dgp_sim, "_unknown_variance_lanes", recording)
    method = UnknownVarianceMethod(kurtosis_bound=None, a_rule=OPTIMIZED, track_alpha_min=True)
    spec = SimStudySpec(dgp=ExponentialMean(), methods=(method,), n_grid=(3000,), replications=150,
                        alpha=0.1, base_seed=6)
    assert run_coverage_study(spec) == coverage_study_oracle(spec)
    assert sizes == [64, 64, 22]
    sizes.clear()
    assert run_coverage_study(spec, workers=2) == coverage_study_oracle(spec)
    assert sizes == [64, 11]  # the calling process's slice; the child's is not seen here


def test_a_slice_keeps_its_records_and_stream_keys_as_arrays():
    # 50,000 replications at n = 2: as Python record tuples and key lists
    # they took about 15.7 MiB; the (4, m) records array holds 1.5 MiB, and
    # the keys are one reused (k0, r) pair
    spec = SimStudySpec(dgp=ExponentialMean(), methods=(CltMethod(),), n_grid=(2,),
                        replications=50_000, alpha=0.1)
    _run_slice(2, 0, 100, spec)  # warms the half-width caches
    tracemalloc.start()
    try:
        records = _run_slice(2, 0, 50_000, spec)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records.shape == (4, 50_000)
    assert peak < 10 * 2**20


def test_exponential_cells_build_no_sample_per_replication(monkeypatch):
    # a fixed-rule or plug-in cell on the built-in exponential DGP draws into
    # its chunk buffer, not through sample_exponential's validated Sample
    built = []
    post_init = Sample.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Sample, "__post_init__", counting)
    methods = (CltMethod(), StudentMethod(), KnownVarianceMethod(sigma=1.0, kurtosis_bound=9.0),
               UnknownVarianceMethod(a_rule=OPTIMIZED, track_alpha_min=True),
               UnknownVarianceMethod(kurtosis_bound=None, track_alpha_min=True))
    spec = SimStudySpec(dgp=ExponentialMean(rate=2.0), methods=methods, n_grid=(10, 5000),
                        replications=30, alpha=0.1, base_seed=1)
    report = run_coverage_study(spec)
    assert built == []
    monkeypatch.undo()
    assert report == coverage_study_oracle(spec)


def _outcome(run, spec):
    """``run(spec)``'s report, or the (type, message) of its error."""
    try:
        return run(spec)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("rate", [1.0, 2.0, 0.37, 1e-300], ids=["1", "2", "0.37", "1e-300"])
def test_negated_exponential_chunks_equal_the_oracle_loop(rate, monkeypatch):
    # the chunk buffer holds the negated draws log1p(-u)/rate and the means
    # are negated back, so each record is the serial loop's; 17 replications
    # end in a partial chunk (7 rows of 8193 fill 2**16) at workers 1 to 3.
    # At rate 1e-300 the draws are near 1e300: every study but the known
    # variance's raises an interval's overflow DataError
    methods = (CltMethod(), StudentMethod(), KnownVarianceMethod(sigma=1.0 / rate, kurtosis_bound=9.0),
               UnknownVarianceMethod(track_alpha_min=True), UnknownVarianceMethod(kurtosis_bound=None))
    outcomes = []
    for method in methods:
        spec = SimStudySpec(dgp=ExponentialMean(rate=rate), methods=(method,), n_grid=(2, 7, 100, 8193),
                            replications=17, alpha=0.1, base_seed=23)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            expected = _outcome(coverage_study_oracle, spec)
            for chunk in (1 << 16, 64):
                monkeypatch.setattr(dgp_sim, "_CHUNK_DOUBLES", chunk)
                for workers in (1, 2, 3):
                    assert _outcome(lambda s: run_coverage_study(s, workers=workers), spec) == expected
        outcomes.append(expected)
    raised = [type(o) is tuple for o in outcomes]
    if rate == 1e-300:
        assert raised == [True, True, False, True, True]
        assert all(o[0] is DataError and "overflows" in o[1] for o in outcomes if type(o) is tuple)
    else:
        assert not any(raised)
        assert outcomes[2].row(methods[2].label, 8193).whole_line_fraction == 0.0


@pytest.mark.parametrize("n", [3, 4, 5000])
def test_gumbel_block_rows_are_the_designs_sample_draws(n):
    # the engine fills one C-ordered scratch design per replication and
    # copies x' and y into a block, as sample_gumbel_hetero_linear fills the
    # design it validates
    streams = _CellStreams(9, n)
    x, xt, y = np.empty((n, 3)), np.empty((5, 3, n)), np.empty((5, n))
    for j in range(5):
        dgp_sim._fill_gumbel(x, y[j], streams.seed(2 + j))
        xt[j] = x.T
    for j in range(5):
        design = sample_gumbel_hetero_linear(n, substream(9, 1, n, 2 + j))
        assert xt[j].tobytes() == design.x.T.tobytes()
        assert y[j].tobytes() == design.y.tobytes()


def test_ols_cells_build_no_design_per_replication(monkeypatch):
    # asymp and edg cells on the Gumbel DGP draw into a block and fit it as
    # one stack; no Design is validated and no interval call is made
    built = []
    post_init = Design.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Design, "__post_init__", counting)
    methods = (OlsAsympMethod(), EDG, OlsEdgMethod(bounds=OlsBounds.all_plug_in(inflation=1.0)),
               OlsEdgMethod(bounds=OlsBounds(0.5, 0.01, 3.0, 9.0)))
    spec = SimStudySpec(dgp=GumbelHeteroLinear(u=(0.5, -1.0, 2.0)), methods=methods, n_grid=(40, 4000),
                        replications=7, alpha=0.1, base_seed=3)
    report = run_coverage_study(spec)
    assert built == []
    assert run_coverage_study(spec, workers=3) == report
    assert built == []  # the calling process's slice; the children's are not seen here
    monkeypatch.undo()
    assert report == coverage_study_oracle(spec)
    assert report.row("edg", 40).whole_line_fraction == 1.0
    assert report.row("edg", 4000).whole_line_fraction < 1.0


def test_ols_blocks_stay_within_the_chunk_budget(monkeypatch):
    # a block holds x' and y of at most _CHUNK_DOUBLES // ((p + 1) n)
    # replications: 5 at n=3000, 3 at n=5000, and one at a time beyond
    shapes = []
    fit = dgp_sim._fit

    def recording(xt, y):
        assert xt.flags.c_contiguous and y.flags.c_contiguous
        shapes.append(xt.shape)
        return fit(xt, y)

    monkeypatch.setattr(dgp_sim, "_fit", recording)
    spec = SimStudySpec(dgp=GumbelHeteroLinear(), methods=(OlsAsympMethod(),), n_grid=(3000, 5000, 20000),
                        replications=11, alpha=0.1, base_seed=2)
    assert run_coverage_study(spec) == coverage_study_oracle(spec)
    assert [shape[0] for shape in shapes] == [5, 5, 1, 3, 3, 3, 2] + [1] * 11
    assert all(r * 4 * n <= dgp_sim._CHUNK_DOUBLES for r, _, n in shapes if r > 1)
    shapes.clear()
    monkeypatch.setattr(dgp_sim, "_CHUNK_DOUBLES", 64)
    assert run_coverage_study(spec) == coverage_study_oracle(spec)
    assert [shape[0] for shape in shapes] == [1] * 33


def test_an_ols_cell_below_p_raises_the_serial_data_error(monkeypatch):
    # n < p leaves the cell to interval, whose Design rejects it
    spec = SimStudySpec(dgp=GumbelHeteroLinear(), methods=(OlsAsympMethod(), EDG), n_grid=(2,),
                        replications=5, alpha=0.1, base_seed=3)
    expected, raised = _errors(spec, monkeypatch)
    assert expected == (DataError, "need n >= p >= 1, got n=2, p=3")
    assert raised == [expected] * 6


@dataclass(frozen=True)
class _DuckGumbel:
    """``GumbelHeteroLinear``'s draws and target under another type, so its
    OLS cells are left to interval."""

    family = "ols"
    target = -3.0

    def sample(self, n, seed):
        return sample_gumbel_hetero_linear(n, seed)


def test_an_ols_cell_on_another_dgp_runs_through_interval():
    methods = (OlsAsympMethod(), OlsEdgMethod(bounds=OlsBounds.all_plug_in()), EDG)
    spec = SimStudySpec(dgp=_DuckGumbel(), methods=methods, n_grid=(40, 4000), replications=5,
                        alpha=0.1, base_seed=4)
    expected = coverage_study_oracle(spec)
    assert expected.rows[-1].whole_line_fraction == 0.0  # EDG's intervals at n = 4000 are bounded
    for workers in (1, 2, 3):
        assert run_coverage_study(spec, workers=workers) == expected
    block = SimStudySpec(dgp=GumbelHeteroLinear(), methods=methods, n_grid=(40, 4000), replications=5,
                         alpha=0.1, base_seed=4)
    assert run_coverage_study(block) == expected


def _exponential_scaled_by(scale):
    return CustomMeanDgp(draw=lambda n, rng: rng.exponential(1.0, n) * scale, target=scale)


@pytest.mark.parametrize("scale", [1e100, 1e-79, 1e-100], ids=["1e100", "1e-79", "1e-100"])
def test_plug_in_k_that_needs_rescaling_runs_through_interval(scale, monkeypatch):
    # sigma_hat^4 leaves the normal float range (at 1e-79 it is subnormal, and
    # m4 / sigma_hat^4 is finite but inexact), so only sample_kurtosis's
    # rescaled form gives K: every slice is handed to interval
    methods = (UnknownVarianceMethod(kurtosis_bound=None, track_alpha_min=True),
               UnknownVarianceMethod(kurtosis_bound=None, a_rule=OPTIMIZED, plug_in_inflation=2.0))
    spec = SimStudySpec(dgp=_exponential_scaled_by(scale), methods=methods, n_grid=(40, 20000),
                        replications=12, alpha=0.1, base_seed=21)
    expected = coverage_study_oracle(spec)
    assert expected.row(methods[0].label, 20000).whole_line_fraction == 0.0
    calls = []
    interval = UnknownVarianceMethod.interval

    def counting(self, sample, alpha):
        calls.append(sample.n)
        return interval(self, sample, alpha)

    monkeypatch.setattr(UnknownVarianceMethod, "interval", counting)
    assert run_coverage_study(spec) == expected
    assert len(calls) == 2 * 2 * 12
    for chunk in (1 << 16, 64):
        monkeypatch.setattr(dgp_sim, "_CHUNK_DOUBLES", chunk)
        for workers in (1, 2, 3):
            assert run_coverage_study(spec, workers=workers) == expected


@pytest.mark.parametrize("method", [EDG, UnknownVarianceMethod(kurtosis_bound=9.0),
                                    KnownVarianceMethod(sigma=1.0, kurtosis_bound=9.0)],
                         ids=["edg", "unknown-variance", "known-variance"])
def test_width_curve_rejects_a_negative_seed(method):
    dgp = GumbelHeteroLinear() if method is EDG else ExponentialMean()
    with pytest.raises(ConfigError, match=r"seed must be >= 0, got -1"):
        width_curve(dgp, method, (40,), 0.1, replications=2, base_seed=-1)


def test_ols_width_curve_equals_the_oracle_loop(monkeypatch):
    # the group (edg, asymp) of one slice per n; the duck-typed DGP's slices
    # run through interval, one draw and two interval calls per replication
    grid = (40, 3655, 3656, 5000)
    for method in (EDG, OlsEdgMethod(bounds=OlsBounds.all_plug_in()),
                   OlsEdgMethod(bounds=OlsBounds(1.0, 0.01, 1.0, 9.0))):
        expected = [ols_width_means_oracle(GumbelHeteroLinear(), method, n, 0.1, 4, 6) for n in grid]
        for dgp in (GumbelHeteroLinear(), _DuckGumbel()):
            for chunk in (1 << 16, 64):
                monkeypatch.setattr(dgp_sim, "_CHUNK_DOUBLES", chunk)
                rows = width_curve(dgp, method, grid, 0.1, replications=4, base_seed=6)
                assert [row.n for row in rows] == list(grid)
                for row, (mean_edg, mean_asymp, whole) in zip(rows, expected):
                    assert row.mean_width == mean_edg
                    assert row.ratio == (None if mean_edg is None else mean_edg / mean_asymp)
                    assert (row.whole_line_fraction, row.replications) == (whole, 4)
                assert rows[0].whole_line_fraction == 1.0
                if not isinstance(method.bounds.k_xi, PlugIn):  # a plug-in K_xi is the whole line to 5000
                    assert rows[-1].whole_line_fraction == 0.0


@pytest.mark.parametrize("chunk", [1 << 16, 64], ids=["chunk-default", "chunk-64"])
@pytest.mark.parametrize("dgp, methods, n_grid, fill, data_free", [
    (ExponentialMean(), (CltMethod(), UnknownVarianceMethod(kurtosis_bound=None, plug_in_inflation=2.0),
                         KnownVarianceMethod(sigma=1.0, kurtosis_bound=9.0)),
     (2375, 3000), "_fill_uniforms", (2375, (2,))),
    (GumbelHeteroLinear(), (EDG, OlsAsympMethod(), OlsEdgMethod(bounds=OlsBounds(1.0, 0.01, 1.0, 9.0))),
     (3655, 3656, 5000), "_fill_gumbel", (3655, (0, 2))),
], ids=["mean", "ols"])
def test_a_group_gives_each_method_its_records_alone(dgp, methods, n_grid, fill, data_free, chunk,
                                                     monkeypatch):
    # the methods of a study share one draw per replication: each gets bit
    # for bit the records it gets as the only method of a study, and a
    # method proved the whole line without data (known variance at
    # n = 2375, both edgs at n = 3655) draws nothing; an exponential
    # replication's draw is its uniform fill
    monkeypatch.setattr(dgp_sim, "_CHUNK_DOUBLES", chunk)
    reps = 9
    group = SimStudySpec(dgp, methods, n_grid, reps, 0.1, 5)
    calls = []
    draw = getattr(dgp_sim, fill)
    for n in n_grid:
        for start in (0, 7):
            alone = [_run_slice(n, start, reps, SimStudySpec(dgp, (m,), (n,), reps, 0.1, 5)) for m in methods]
            monkeypatch.setattr(dgp_sim, fill, lambda *args: calls.append(1) or draw(*args))
            records = _run_slice(n, start, reps, group)
            monkeypatch.setattr(dgp_sim, fill, draw)
            assert records.shape == (3, 4, reps - start)
            np.testing.assert_array_equal(records, np.concatenate(alone))
            assert len(calls) == reps - start  # once per replication, not per method
            calls.clear()
    n, free = data_free
    monkeypatch.setattr(dgp_sim, fill, lambda *args: calls.append(1) or draw(*args))
    records = _run_slice(n, 0, reps, SimStudySpec(dgp, tuple(methods[k] for k in free), (n,), reps, 0.1, 5))
    assert calls == [] and records.shape == (len(free), 4, reps) and (records[:, 1] == 1.0).all()


@pytest.mark.parametrize("fault, method", [
    ("nan", EDG), ("overflow", EDG),
    ("nan", OlsEdgMethod(bounds=OlsBounds.all_plug_in())),
    ("singular", OlsEdgMethod(bounds=OlsBounds.all_plug_in())),
    ("overflow", OlsEdgMethod(bounds=OlsBounds.all_plug_in())),
], ids=["nan-k-xi-9", "overflow-k-xi-9", "nan-all-plug-in", "singular-all-plug-in", "overflow-all-plug-in"])
def test_a_faulty_draw_raises_the_width_curve_loops_first_error(fault, method, monkeypatch):
    # replications 4 and 7 are faulty (test_a_faulty_ols_draw_raises_the_serial_error);
    # the fixed-K_xi edg is the whole line at n = 50 without data, so asymp raises
    monkeypatch.setattr(dgp_sim, "_fill_gumbel", _faulty_gumbel(fault))
    with pytest.raises(DataError) as info:
        ols_width_means_oracle(GumbelHeteroLinear(), method, 50, 0.1, 8, 353)
    for chunk in (1 << 16, 64):
        monkeypatch.setattr(dgp_sim, "_CHUNK_DOUBLES", chunk)
        with pytest.raises(DataError) as raised:
            width_curve(GumbelHeteroLinear(), method, (50,), 0.1, replications=8, base_seed=353)
        assert str(raised.value) == str(info.value)
    # the four replications before the first fault give a row
    (row,) = width_curve(GumbelHeteroLinear(), method, (50,), 0.1, replications=4, base_seed=353)
    assert row.replications == 4


def test_a_width_curve_data_free_edg_is_not_given_the_designs(monkeypatch):
    # edg at K_xi = 9 is the whole line up to n0 >= 3655 without data, so a
    # singular design, whose plug-in estimates the serial loop rejected, does
    # not reach it (as in a coverage study); asymp still fits every design
    monkeypatch.setattr(dgp_sim, "_fill_gumbel", _faulty_gumbel("singular"))
    with pytest.raises(DataError, match="numerically singular"):
        ols_width_means_oracle(GumbelHeteroLinear(), EDG, 50, 0.1, 8, 0)
    (row,) = width_curve(GumbelHeteroLinear(), EDG, (50,), 0.1, replications=8, base_seed=0)
    assert (row.mean_width, row.ratio, row.whole_line_fraction, row.replications) == (None, None, 1.0, 8)


@dataclass(frozen=True)
class _FailsAbove:
    """A mean method with no cell rule whose interval raises on a sample
    whose first value is above ``above``."""

    above: float
    family = "mean"

    @property
    def label(self):
        return f"fails-above-{self.above}"

    def cell_rule(self, n, alpha):
        return None

    def alpha_min_value(self, sample):
        return None

    def interval(self, sample, alpha):
        if sample.values[0] > self.above:
            raise DataError(f"first value above {self.above}")
        return CltMethod().interval(sample, alpha)


def test_a_group_raises_the_first_error_in_replication_then_method_order():
    # the second method fails at replication 0, before the first fails at 3;
    # at replication 3 both fail, and the first method's error comes first
    dgp = CustomMeanDgp(draw=_uniform, target=0.5)
    first = [dgp.sample(5, substream(180, 0, 5, r)).values[0] for r in range(4)]
    assert [x > 0.5 for x in first] == [True, False, True, True]
    assert [x > 0.9 for x in first] == [False, False, False, True]
    spec = SimStudySpec(dgp, (_FailsAbove(0.9), _FailsAbove(0.5)), (5,), 6, 0.1, 180)
    with pytest.raises(DataError, match="above 0.5"):
        _run_slice(5, 0, 6, spec)
    with pytest.raises(DataError, match="above 0.9"):
        _run_slice(5, 3, 6, spec)


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


def test_a_study_raises_the_first_error_in_n_then_replication_then_method_order(monkeypatch):
    # the first method fails only at n = 7, the second already at n = 5,
    # replication 0: the error is the second method's at any worker count
    dgp = CustomMeanDgp(draw=_uniform, target=0.5)
    first = {n: [dgp.sample(n, substream(2, 0, n, r)).values[0] for r in range(12)] for n in (5, 7)}
    assert 0.8 < first[5][0] and max(first[5]) < 0.95 < max(first[7])
    spec = SimStudySpec(dgp, (_FailsAbove(0.95), _FailsAbove(0.8)), (5, 7), 12, 0.1, 2)
    expected, raised = _errors(spec, monkeypatch)
    assert expected == (DataError, "first value above 0.8")
    assert raised == [expected] * 6


def _first_draw(seed, n, r):
    return substream(seed, 0, n, r).standard_normal(n)[0]


def _fails_above_one(n, rng):
    x = rng.standard_normal(n)
    if x[0] > 1.0:
        raise DataError(f"first draw {x[0]!r} is above 1")
    return x


def test_an_interval_error_at_replication_zero_beats_a_draw_error_at_three(monkeypatch):
    assert [_first_draw(11, 1, r) > 1.0 for r in range(4)] == [False, False, False, True]
    spec = SimStudySpec(dgp=CustomMeanDgp(draw=_fails_above_one, target=0.0), methods=(CltMethod(),),
                        n_grid=(1,), replications=6, alpha=0.1, base_seed=11)
    expected, raised = _errors(spec, monkeypatch)
    assert expected == (InsufficientDataError, "CLT interval needs n >= 2")
    assert raised == [expected] * 6


def _nan_above_one_and_a_half(n, rng):
    x = rng.standard_normal(n)
    if x[0] > 1.5:
        x[n // 2] = np.nan
    return x


def test_a_nan_in_the_middle_of_a_chunk_raises_the_serial_error(monkeypatch):
    assert [_first_draw(51, 50, r) > 1.5 for r in range(7)] == [False] * 6 + [True]
    dgp = CustomMeanDgp(draw=_nan_above_one_and_a_half, target=0.0)
    spec = SimStudySpec(dgp=dgp, methods=(CltMethod(), StudentMethod()), n_grid=(50,),
                        replications=12, alpha=0.1, base_seed=51)
    expected, raised = _errors(spec, monkeypatch)
    assert expected == (DataError, "sample values must be finite")
    assert raised == [expected] * 6
    before = SimStudySpec(dgp=dgp, methods=spec.methods, n_grid=(50,), replications=6,
                          alpha=0.1, base_seed=51)
    assert run_coverage_study(before) == coverage_study_oracle(before)


def test_a_nan_in_an_exponential_chunk_raises_the_serial_error(monkeypatch):
    # the shared uniform fill puts a NaN in the middle of replication 5's
    # row, so sample_exponential's Sample (the oracle) and the chunk path,
    # whose inverse CDF runs on the whole chunk, both see it
    first = [substream(35, 0, 50, r).random() for r in range(12)]
    assert [u > 0.85 for u in first] == [False] * 5 + [True] + [False] * 6
    fill = dgp_sim._fill_uniforms

    def nan_above(out, rng):
        fill(out, rng)
        if out[0] > 0.85:
            out[out.size // 2] = np.nan

    monkeypatch.setattr(dgp_sim, "_fill_uniforms", nan_above)
    methods = (CltMethod(), UnknownVarianceMethod(kurtosis_bound=None, track_alpha_min=True))
    spec = SimStudySpec(dgp=ExponentialMean(), methods=methods, n_grid=(50,), replications=12,
                        alpha=0.1, base_seed=35)
    expected, raised = _errors(spec, monkeypatch)
    assert expected == (DataError, "sample values must be finite")
    assert raised == [expected] * 6
    before = SimStudySpec(dgp=ExponentialMean(), methods=methods[:1], n_grid=(50,), replications=5,
                          alpha=0.1, base_seed=35)
    assert run_coverage_study(before) == coverage_study_oracle(before)


@pytest.mark.parametrize("rate", [-1.0, 0.0, math.nan, math.inf], ids=["negative", "zero", "nan", "inf"])
def test_an_exponential_rate_that_sampling_rejects_raises_the_serial_error(rate, monkeypatch):
    # a negative rate would fill the chunk buffer with finite values, an
    # infinite one with zeros
    spec = SimStudySpec(dgp=ExponentialMean(rate=rate), methods=(CltMethod(),), n_grid=(50,),
                        replications=6, alpha=0.1, base_seed=3)
    expected, raised = _errors(spec, monkeypatch)
    assert expected == (DomainError, f"rate must be finite and positive, got {rate!r}")
    assert raised == [expected] * 6


def test_an_exponential_rate_whose_draws_overflow_raises_the_serial_data_error(monkeypatch):
    spec = SimStudySpec(dgp=ExponentialMean(rate=1e-320), methods=(CltMethod(),), n_grid=(50,),
                        replications=6, alpha=0.1, base_seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the overflow must not warn
        expected, raised = _errors(spec, monkeypatch)
    assert expected == (DataError, "sample values must be finite")
    assert raised == [expected] * 6


def _huge(n, rng):
    return rng.standard_normal(n) * 1e300


def test_an_overflowing_interval_raises_the_serial_data_error(monkeypatch):
    spec = SimStudySpec(dgp=CustomMeanDgp(draw=_huge, target=0.0), methods=(CltMethod(),),
                        n_grid=(30,), replications=8, alpha=0.1, base_seed=3)
    expected, raised = _errors(spec, monkeypatch)
    assert expected[0] is DataError
    assert raised == [expected] * 6


def _constant_when_positive(n, rng):
    x = rng.standard_normal(n)
    return np.full(n, 2.0) if x[0] > 0.0 else x


def test_a_plug_in_error_raises_the_serial_error(monkeypatch):
    assert [_first_draw(9, 40, r) > 0.0 for r in range(3)] == [False, False, True]
    plug_in = UnknownVarianceMethod(kurtosis_bound=None, a_rule=OPTIMIZED, track_alpha_min=True)
    spec = SimStudySpec(dgp=CustomMeanDgp(draw=_constant_when_positive, target=0.0),
                        methods=(plug_in,), n_grid=(40,), replications=7, alpha=0.1, base_seed=9)
    expected, raised = _errors(spec, monkeypatch)
    assert expected == (DegenerateSampleError, "kurtosis undefined for a zero-variance sample")
    assert raised == [expected] * 6
    # a level the searches reject fails at replication 0, as interval does
    spec = SimStudySpec(dgp=ExponentialMean(), methods=(plug_in,), n_grid=(40,), replications=7,
                        alpha=0.6, base_seed=4)
    expected, raised = _errors(spec, monkeypatch)
    assert expected[0] is DomainError
    assert raised == [expected] * 6


def _faulty_gumbel(fault):
    """The Gumbel fill with a fault in every replication whose first X1
    draw is above 1.2: a NaN outcome, X2 = X1 (a singular design) or an
    outcome scaled by 1e200, whose squared residuals overflow."""
    fill = dgp_sim._fill_gumbel

    def faulty(x, y, rng):
        fill(x, y, rng)
        if x[0, 1] > 1.2:
            if fault == "nan":
                y[y.size // 2] = np.nan
            elif fault == "singular":
                x[:, 2] = x[:, 1]
            else:
                y *= 1e200

    return faulty


#: edg with every bound plug-in: no fixed bound proves a cell the whole line,
#: so its cells draw at any n
EDG_PLUG_IN = OlsEdgMethod(bounds=OlsBounds.all_plug_in())


@pytest.mark.parametrize("fault, method, expected", [
    ("nan", OlsAsympMethod(), "design and outcome entries must be finite"),
    ("nan", EDG_PLUG_IN, "design and outcome entries must be finite"),
    ("singular", EDG_PLUG_IN, "design second-moment matrix is numerically singular"),
    ("overflow", OlsAsympMethod(), "OLS fit overflows: the squared residuals are too large"),
    ("overflow", EDG_PLUG_IN, "OLS fit overflows: the squared residuals are too large"),
], ids=["nan-asymp", "nan-edg", "singular-edg", "overflow-asymp", "overflow-edg"])
def test_a_faulty_ols_draw_raises_the_serial_error(fault, method, expected, monkeypatch):
    # replications 4 and 7 are faulty: the first block holds good ones before it
    first = [sample_gumbel_hetero_linear(50, substream(353, 0, 50, r)).x[0, 1] for r in range(8)]
    assert [x > 1.2 for x in first] == [False] * 4 + [True, False, False, True]
    monkeypatch.setattr(dgp_sim, "_fill_gumbel", _faulty_gumbel(fault))
    spec = SimStudySpec(dgp=GumbelHeteroLinear(), methods=(method,), n_grid=(50,), replications=8,
                        alpha=0.1, base_seed=353)
    error, raised = _errors(spec, monkeypatch)
    assert error[0] is DataError and error[1].startswith(expected)
    assert raised == [error] * 6
    before = SimStudySpec(dgp=GumbelHeteroLinear(), methods=(method,), n_grid=(50,), replications=4,
                          alpha=0.1, base_seed=353)
    assert run_coverage_study(before) == coverage_study_oracle(before)


def test_a_singular_design_is_fitted_by_the_asymp_rule(monkeypatch):
    # S^+ is defined for a singular S, and only plug-in bounds need S invertible
    monkeypatch.setattr(dgp_sim, "_fill_gumbel", _faulty_gumbel("singular"))
    spec = SimStudySpec(dgp=GumbelHeteroLinear(u=(0.0, 1.0, 1.0)),
                        methods=(OlsAsympMethod(), OlsEdgMethod(bounds=OlsBounds(0.5, 0.01, 3.0, 9.0))),
                        n_grid=(50, 4000), replications=8, alpha=0.1, base_seed=0)
    expected = coverage_study_oracle(spec)
    built = []
    post_init = Design.__post_init__
    monkeypatch.setattr(Design, "__post_init__", lambda self: built.append(self) or post_init(self))
    for chunk in (1 << 16, 64):
        monkeypatch.setattr(dgp_sim, "_CHUNK_DOUBLES", chunk)
        for workers in (1, 2, 3):
            assert run_coverage_study(spec, workers=workers) == expected
    assert built == []


def _nan_uniforms(out, rng):
    out[:] = np.nan


@pytest.mark.parametrize("dgp, method, n, fill, faulty", [
    (GumbelHeteroLinear(), EDG, 50, "_fill_gumbel", _faulty_gumbel("nan")),
    (GumbelHeteroLinear(), EDG, 50, "_fill_gumbel", _faulty_gumbel("singular")),
    (GumbelHeteroLinear(), EDG, 50, "_fill_gumbel", _faulty_gumbel("overflow")),
    (ExponentialMean(), KnownVarianceMethod(sigma=1.0, kurtosis_bound=9.0), 100, "_fill_uniforms",
     _nan_uniforms),
    (ExponentialMean(), UnknownVarianceMethod(kurtosis_bound=9.0, track_alpha_min=True), 100,
     "_fill_uniforms", _nan_uniforms),
], ids=["nan-edg", "singular-edg", "overflow-edg", "known-variance", "unknown-variance"])
def test_a_data_free_whole_line_cell_draws_nothing(dgp, method, n, fill, faulty, monkeypatch):
    # edg at K_xi = 9 is the whole line up to n0 >= 3655 whatever K_reg is,
    # and the mean intervals at K = 9 up to n = 2375 (known variance) and
    # 2926 (unknown variance, a = 1 + n^-0.2): faults in the draws cannot
    # change the report, and no draw is made
    calls = []
    monkeypatch.setattr(dgp_sim, fill, lambda *args: calls.append(1) or faulty(*args))
    spec = SimStudySpec(dgp=dgp, methods=(method,), n_grid=(n,), replications=8, alpha=0.1, base_seed=0)
    amin = alpha_min(n, 9.0, method.a_rule, method.delta) if getattr(method, "track_alpha_min", False) else None
    expected = SimReport((SimReportRow(method.label, n, 0.1, 8, coverage=1.0, mc_se=0.0, mean_width=None,
                                       whole_line_fraction=1.0, mean_alpha_min=amin, median_alpha_min=amin),))
    for chunk in (1 << 16, 64):
        monkeypatch.setattr(dgp_sim, "_CHUNK_DOUBLES", chunk)
        for workers in (1, 2, 3):
            assert run_coverage_study(spec, workers=workers) == expected
    assert calls == []


@pytest.mark.parametrize("dgp, method, n", [
    (ExponentialMean(rate=math.nan), KnownVarianceMethod(sigma=1.0, kurtosis_bound=9.0), 100),
    (ExponentialMean(rate=-1.0), UnknownVarianceMethod(kurtosis_bound=9.0, track_alpha_min=True), 100),
    (GumbelHeteroLinear(u=(0.0, 0.0, 0.0)), EDG, 50),
    (GumbelHeteroLinear(u=(0.0, 1.0)), EDG, 50),
], ids=["nan-rate", "negative-rate", "zero-direction", "short-direction"])
def test_a_data_free_whole_line_cell_raises_the_dgp_configuration_error(dgp, method, n, monkeypatch):
    spec = SimStudySpec(dgp=dgp, methods=(method,), n_grid=(n,), replications=6, alpha=0.1, base_seed=0)
    expected, raised = _errors(spec, monkeypatch)
    assert issubclass(expected[0], (ConfigError, DomainError))
    assert raised == [expected] * 6


def _tiny(n, rng):
    # sigma_hat^2 is subnormal, so the plug-in K is still defined
    return rng.exponential(1.0, n) * 1e-160


@pytest.mark.parametrize("method", [CltMethod(), StudentMethod(), UnknownVarianceMethod(kurtosis_bound=9.0),
                                    UnknownVarianceMethod(kurtosis_bound=None)],
                         ids=["clt", "student", "unknown-variance", "unknown-variance-plug-in"])
def test_an_underflowing_sigma_hat_raises_the_serial_data_error(method, monkeypatch):
    spec = SimStudySpec(dgp=CustomMeanDgp(draw=_tiny, target=1e-160), methods=(method,),
                        n_grid=(20000,), replications=3, alpha=0.1, base_seed=8)
    expected, raised = _errors(spec, monkeypatch)
    assert expected[0] is DataError and "underflows the float range" in expected[1]
    assert raised == [expected] * 6
    # the known variance does not scale with sigma_hat: its chunks fall back
    # to interval, which gives the oracle's records
    known = SimStudySpec(dgp=spec.dgp, methods=(KnownVarianceMethod(sigma=1e-150, kurtosis_bound=9.0),),
                         n_grid=(20000,), replications=3, alpha=0.1, base_seed=8)
    assert run_coverage_study(known) == coverage_study_oracle(known)


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
    ({"replications": 2**64}, "replications must be below 2**64, got 18446744073709551616"),
    ({"base_seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"base_seed": False}, "seed must be an integer, got False"),
    ({"base_seed": -1}, "seed must be >= 0, got -1"),
])
def test_study_rejects_non_integral_fields(fields, message):
    with pytest.raises(ConfigError) as info:
        _spec(**fields)
    assert str(info.value) == message
    assert isinstance(info.value, NavaeError)


@pytest.mark.parametrize("fields, message", [
    ({"replications": 0}, "replications must be >= 1, got 0"),
    ({"replications": -2}, "replications must be >= 1, got -2"),
    ({"methods": ()}, "at least one method is required"),
    ({"n_grid": (0,)}, "invalid n grid (0,)"),
    ({"n_grid": ()}, "invalid n grid ()"),
    ({"alpha": 0.0}, "alpha must be in (0,1), got 0.0"),
    ({"alpha": 1.0}, "alpha must be in (0,1), got 1.0"),
    ({"alpha": math.nan}, "alpha must be in (0,1), got nan"),
])
def test_study_rejects_out_of_range_fields(fields, message):
    with pytest.raises(ConfigError) as info:
        _spec(**fields)
    assert str(info.value) == message


def test_study_keeps_integral_fields_as_ints():
    spec = _spec(n_grid=(50.0, np.int64(7)), replications=np.int32(4), base_seed=3.0)
    assert spec.n_grid == (50, 7) and spec.replications == 4 and spec.base_seed == 3
    assert all(type(v) is int for v in (*spec.n_grid, spec.replications, spec.base_seed))
    # a replication index is the second word of a 128-bit Philox key
    assert _spec(replications=2**64 - 1).replications == 2**64 - 1
