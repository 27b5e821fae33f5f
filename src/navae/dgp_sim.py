"""Data-generating processes and the Monte Carlo coverage/width harness.

README.md's ``simulate --workers`` paragraph tells how the one engine,
``_run_slice``, draws, settles and joins the replications of a study or a
width curve; the functions below state their contracts.  A report depends
only on the study and its seed, never on the worker count, and every
interval a cell rule gives is bit for bit the scalar ``ci_*`` function's.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .edgeworth import BerryEsseen, DeltaProvider, provider_from_string
from .errors import ConfigError, DomainError
from .mean_ci import (
    ARule,
    ConfidenceInterval,
    DEFAULT_A_RULE,
    KnownVariance,
    MeanCiConfig,
    Sample,
    UnknownVariance,
    _centred_moments,
    _check_inflation,
    _clt_half_width,
    _known_variance_factor,
    _known_variance_half_width,
    _lane_search,
    _plug_in_kurtosis,
    _sigma_hat_half_width,
    _student_half_width,
    _unknown_variance_lanes,
    alpha_min,
    ci_chebyshev,
    ci_clt,
    ci_hoeffding,
    ci_known_variance,
    ci_student,
    ci_unknown_variance,
    sample_kurtosis,
)
from .ols_ci import (
    BOUND_KEYS,
    Design,
    OlsBounds,
    OlsTuning,
    PlugIn,
    _asymp_halves,
    _centres,
    _check_direction,
    _edg_halves,
    _fit,
    _last_violations,
    ci_asymp,
    ci_edg,
)
from .rules import OptimizedRule, PowerRule, format_rule, parse_rule
from .specialfn import std_normal_quantile

__all__ = [
    "EULER_MASCHERONI",
    "sample_exponential",
    "sample_gumbel_hetero_linear",
    "ExponentialMean",
    "GumbelHeteroLinear",
    "CustomMeanDgp",
    "CltMethod",
    "StudentMethod",
    "ChebyshevMethod",
    "HoeffdingMethod",
    "KnownVarianceMethod",
    "UnknownVarianceMethod",
    "OlsAsympMethod",
    "OlsEdgMethod",
    "SimStudySpec",
    "SimReportRow",
    "SimReport",
    "WidthCurveRow",
    "run_coverage_study",
    "width_curve",
    "substream",
    "dgp_from_config",
    "METHOD_KEYS",
    "BOUND_KEYS",
    "method_from_config",
    "study_from_config",
]

EULER_MASCHERONI = 0.5772156649015329

#: Covariance of the simulated regressors: variances 1 and 2, correlation 0.5.
GUMBEL_REGRESSOR_COV = np.array(
    [[1.0, 0.5 * math.sqrt(2.0)], [0.5 * math.sqrt(2.0), 2.0]]
)
GUMBEL_REGRESSOR_COV.setflags(write=False)
_GUMBEL_REGRESSOR_CHOL = np.linalg.cholesky(GUMBEL_REGRESSOR_COV)
_GUMBEL_REGRESSOR_CHOL.setflags(write=False)
GUMBEL_BETA = (2.0, 1.0, -3.0)
_GUMBEL_BETA_ARRAY = np.array(GUMBEL_BETA)
_GUMBEL_BETA_ARRAY.setflags(write=False)

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


def _generator(seed: SeedLike) -> np.random.Generator:
    """A generator drawing from ``seed``'s Philox stream; a generator is used
    as it is."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    return np.random.Generator(np.random.Philox(seed))


def _cell_key(base_seed: int, n: int) -> int:
    """k0 of cell (seed, n): the first 64-bit word of SeedSequence(seed,
    spawn_key=(n,)), into which every bit of the seed is hashed."""
    return int(np.random.SeedSequence(int(base_seed), spawn_key=(n,)).generate_state(1, np.uint64)[0])


def substream(base_seed: int, method_index: int, n: int, replication: int) -> np.random.Generator:
    """The generator of replication r of cell (seed, n): Philox keyed
    (k0, r), the one draw that every method of the cell is evaluated on.
    ``method_index`` is ignored; it stays for the callers that pass it."""
    return np.random.Generator(np.random.Philox(key=_cell_key(base_seed, n) | replication << 64))


class _CellStreams:
    """The streams of cell (seed, n): ``seed(r)`` is one generator reset to
    the Philox key (k0, r), which draws what ``substream(seed, i, n, r)``
    draws.  It is reset again for the next replication, so a DGP draws from
    it only during its ``sample`` call; it has no seed sequence, so its
    ``spawn`` raises."""

    def __init__(self, base_seed: int, n: int) -> None:
        self._key = np.array([_cell_key(base_seed, n), 0], dtype=np.uint64)
        self._bits = np.random.Philox(key=0)
        self._generator = np.random.Generator(self._bits)
        # one state dict, reused: only its key's second word changes, and the setter copies it
        zeros = (0, 0, 0, 0)
        self._state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": self._key},
                       "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def seed(self, replication: int) -> np.random.Generator:
        self._key[1] = replication
        self._bits.state = self._state
        return self._generator


def _check_rate(rate: float) -> None:
    if not (math.isfinite(rate) and rate > 0.0):
        raise DomainError(f"rate must be finite and positive, got {rate!r}")


def _empty(shape, what: str) -> np.ndarray:
    """``np.empty(shape)``; a DomainError naming ``what`` where numpy refuses
    the size or the allocation fails, both before any memory is touched."""
    try:
        return np.empty(shape)
    except (ValueError, MemoryError):
        raise DomainError(f"{what} is too large for an array") from None


def _fill_uniforms(out: np.ndarray, rng: np.random.Generator) -> None:
    """``out`` (contiguous) filled with uniforms in [0, 1): all that one
    exponential replication draws; ``_negated_exponential`` maps them."""
    rng.random(out=out)


def _negated_exponential(u: np.ndarray, rate: float) -> np.ndarray:
    """``u`` (uniforms in [0, 1), contiguous, any shape) replaced in place by
    log1p(-u)/rate, the exact negation of the draws -log1p(-u)/rate (IEEE
    division is sign-symmetric); x / 1 is exact, so rate 1 divides nothing.
    A quotient past the float range is -inf, with an overflow warning unless
    the caller silences it."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    if rate != 1.0:
        u /= rate
    return u


def sample_exponential(n: int, seed: SeedLike, rate: float = 1.0) -> Sample:
    """Exponential draws by inverse CDF -ln(U)/rate with U uniform in (0,1].

    The draws are one uniform fill (``_fill_uniforms``) and the exact
    negation of ``_negated_exponential``'s log1p(-u)/rate.  A coverage
    study's chunk path makes the same fill per replication, runs the inverse
    CDF once per chunk and keeps the negated draws (``_mean_intervals``).
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    _check_rate(rate)
    values = _empty(n, f"sample size {n}")
    _fill_uniforms(values, _generator(seed))
    with np.errstate(over="ignore"):  # a draw past the float range is inf, a DataError
        np.negative(_negated_exponential(values, rate), out=values)
    return Sample(values)


def _fill_gumbel(x: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> None:
    """``x`` ((n, 3), C-ordered) and ``y`` ((n,), contiguous) filled with one
    draw of ``sample_gumbel_hetero_linear``'s model: the intercept column,
    the regressors, then the outcome."""
    n = y.size
    x[:, 0] = 1.0
    regressors = np.matmul(rng.standard_normal((n, 2)), _GUMBEL_REGRESSOR_CHOL.T, out=x[:, 1:])
    gumbel_scale = regressors[:, 0] + regressors[:, 1]
    # |X1 + X2| sqrt(6)/pi, in place
    np.abs(gumbel_scale, out=gumbel_scale)
    gumbel_scale *= math.sqrt(6.0)
    gumbel_scale /= math.pi
    gumbel_loc = -EULER_MASCHERONI * gumbel_scale
    # U in (0,1): the generator yields [0,1) on a 2^-53 lattice, so lifting
    # exact zeros to the smallest positive lattice point changes nothing else
    uniforms = rng.random(n)
    np.maximum(uniforms, 2.0**-53, out=uniforms)
    gumbel = np.log(-np.log(uniforms))
    gumbel *= gumbel_scale
    np.subtract(gumbel_loc, gumbel, out=gumbel_loc)  # eps
    # C order: x @ beta rounds differently on a Fortran-ordered x
    np.matmul(x, _GUMBEL_BETA_ARRAY, out=y)
    y += gumbel_loc


def sample_gumbel_hetero_linear(
    n: int, seed: SeedLike, u: Sequence[float] = (0.0, 0.0, 1.0)
) -> Design:
    """Heteroskedastic linear model Y = 2 + X1 - 3 X2 + eps.

    (X1, X2) is centered bivariate normal with variances (1, 2) and
    correlation 0.5.  Given X, eps is Gumbel with scale
    |X1 + X2| sqrt(6)/pi and location -gamma_E * scale, which makes
    E[eps | X] = 0 and Var(eps | X) = (X1 + X2)^2; eps = 0 exactly on the
    degenerate slice X1 + X2 = 0.  The returned design has the intercept
    column first.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    x, y = _empty((n, 3), f"sample size {n}"), np.empty(n)
    _fill_gumbel(x, y, _generator(seed))
    return Design(x=x, y=y, u=np.asarray(u, dtype=float))


@dataclass(frozen=True)
class ExponentialMean:
    """Mean-inference DGP: i.i.d. Exponential with expectation 1/rate."""

    rate: float = 1.0
    family = "mean"

    @property
    def target(self) -> float:
        return 1.0 / self.rate

    @property
    def name(self) -> str:
        return "exponential-mean"

    def sample(self, n: int, seed: SeedLike) -> Sample:
        return sample_exponential(n, seed, self.rate)


@dataclass(frozen=True)
class GumbelHeteroLinear:
    """OLS DGP with skewed heteroskedastic errors; target is u'beta."""

    u: tuple[float, ...] = (0.0, 0.0, 1.0)
    family = "ols"

    @property
    def target(self) -> float:
        return float(np.asarray(self.u) @ np.asarray(GUMBEL_BETA))

    @property
    def name(self) -> str:
        return "gumbel-hetero-linear"

    def sample(self, n: int, seed: SeedLike) -> Design:
        return sample_gumbel_hetero_linear(n, seed, self.u)


@dataclass(frozen=True)
class CustomMeanDgp:
    """Mean-inference DGP from a user generator drawing n values.

    In a study, ``sample``, and so ``draw``, receives a Generator: the
    replication's stream (``_CellStreams``), to draw from during the call
    only.  It has no seed sequence, so ``rng.spawn`` raises."""

    draw: Callable[[int, np.random.Generator], np.ndarray]
    target: float
    name: str = "custom"
    family = "mean"

    def sample(self, n: int, seed: SeedLike) -> Sample:
        return Sample(np.asarray(self.draw(n, _generator(seed)), dtype=float))


# ---------------------------------------------------------------------------
# Interval methods (a CI operation plus its configuration)
# ---------------------------------------------------------------------------


class _CellRule(NamedTuple):
    """Every interval of a (method, n) cell from array arithmetic.

    A mean method's interval is mean +/- a half-width that depends on the
    sample only through its sigma_hat^2 and, when ``inflation`` is not None,
    its plug-in kurtosis bound K with that inflation
    (``mean_ci._plug_in_kurtosis``).  ``intervals(sigma_hat_sq, k)`` maps a
    slice's arrays of them (k None without a plug-in) to the half-widths, NaN
    where an interval is the whole line, and the tracked alpha_mins: an
    array, or one value for every replication.

    An OLS method's interval is u'beta +/- a half-width: ``intervals(fits,
    u)`` maps a block's stacked fits (``ols_ci._Fits``) to the half-widths
    and the whole-line mask.  ``intervals`` None marks a cell proved the
    whole line without data, which draws nothing; ``alpha_min`` (None if
    untracked) is then every replication's."""

    intervals: Callable | None
    inflation: float | None = None
    alpha_min: float | None = None


def _fixed_rule(half_width: Callable | None, alpha_min: float | None = None) -> _CellRule:
    """The rule of a cell whose intervals are mean +/- half_width(sigma_hat^2),
    with one alpha_min; data-free whole line when ``half_width`` is None."""
    if half_width is None:
        return _CellRule(None, alpha_min=alpha_min)
    return _CellRule(lambda sigma_hat_sq, k: (half_width(sigma_hat_sq), alpha_min))


class _Method:
    """Shared defaults of the interval methods: a baseline interval for a
    mean, no alpha_min tracked, and no cell rule, so each replication calls
    ``interval``."""

    family = "mean"
    navae = False

    def alpha_min_value(self, data) -> float | None:
        return None

    def cell_rule(self, n: int, alpha: float) -> _CellRule | None:
        return None


@dataclass(frozen=True)
class CltMethod(_Method):
    label = "clt"

    def interval(self, sample: Sample, alpha: float) -> ConfidenceInterval:
        return ci_clt(sample, alpha)

    def cell_rule(self, n: int, alpha: float) -> _CellRule:
        return _fixed_rule(_clt_half_width(n, alpha))


@dataclass(frozen=True)
class StudentMethod(_Method):
    label = "student"

    def interval(self, sample: Sample, alpha: float) -> ConfidenceInterval:
        return ci_student(sample, alpha)

    def cell_rule(self, n: int, alpha: float) -> _CellRule:
        return _fixed_rule(_student_half_width(n, alpha))


@dataclass(frozen=True)
class ChebyshevMethod(_Method):
    var_bound: float
    label = "chebyshev"

    def interval(self, sample: Sample, alpha: float) -> ConfidenceInterval:
        return ci_chebyshev(sample, alpha, self.var_bound)


@dataclass(frozen=True)
class HoeffdingMethod(_Method):
    support_lower: float
    support_upper: float
    label = "hoeffding"

    def interval(self, sample: Sample, alpha: float) -> ConfidenceInterval:
        return ci_hoeffding(sample, alpha, self.support_lower, self.support_upper)


@dataclass(frozen=True)
class KnownVarianceMethod(_Method):
    sigma: float
    kurtosis_bound: float
    delta: DeltaProvider = BerryEsseen()
    navae = True
    label = "known-variance"

    def _config(self, alpha: float) -> MeanCiConfig:
        return MeanCiConfig(
            alpha=alpha,
            kurtosis_bound=self.kurtosis_bound,
            delta=self.delta,
            variance=KnownVariance(self.sigma),
        )

    def interval(self, sample: Sample, alpha: float) -> ConfidenceInterval:
        return ci_known_variance(sample, self.sigma, self._config(alpha))

    def cell_rule(self, n: int, alpha: float) -> _CellRule:
        return _fixed_rule(_known_variance_half_width(n, self.sigma, self._config(alpha)))


@dataclass(frozen=True)
class UnknownVarianceMethod(_Method):
    """Finite-sample mean interval; kurtosis bound fixed or plug-in (None)."""

    kurtosis_bound: float | None = 9.0
    delta: DeltaProvider = BerryEsseen()
    a_rule: ARule = DEFAULT_A_RULE
    plug_in_inflation: float = 0.0
    track_alpha_min: bool = False
    navae = True

    def __post_init__(self) -> None:
        _check_inflation(self.plug_in_inflation)

    @property
    def label(self) -> str:
        k = "plugin" if self.kurtosis_bound is None else repr(self.kurtosis_bound)
        return f"unknown-variance[K={k},a={format_rule(self.a_rule)}]"

    def _bound(self, sample: Sample) -> float:
        if self.kurtosis_bound is not None:
            return self.kurtosis_bound
        return sample_kurtosis(sample, self.plug_in_inflation)

    def _config(self, alpha: float, kurtosis_bound: float) -> MeanCiConfig:
        return MeanCiConfig(
            alpha=alpha,
            kurtosis_bound=kurtosis_bound,
            delta=self.delta,
            a_rule=self.a_rule,
            variance=UnknownVariance(),
        )

    def interval(self, sample: Sample, alpha: float) -> ConfidenceInterval:
        return ci_unknown_variance(sample, self._config(alpha, self._bound(sample)))

    def alpha_min_value(self, sample: Sample) -> float | None:
        if not self.track_alpha_min:
            return None
        return alpha_min(sample.n, self._bound(sample), self.a_rule, self.delta)

    def cell_rule(self, n: int, alpha: float) -> _CellRule:
        if self.kurtosis_bound is None:
            return _CellRule(lambda sigma_hat_sq, k: self._plug_in_intervals(n, alpha, sigma_hat_sq, k),
                             inflation=self.plug_in_inflation)
        (factor,), amin = _lane_search(_unknown_variance_lanes, [n], self.kurtosis_bound, self.delta, alpha,
                                       self.a_rule, self.track_alpha_min)
        half_width = None if math.isinf(factor) else _sigma_hat_half_width(n, float(factor))
        return _fixed_rule(half_width, None if amin is None else float(amin[0]))

    def _plug_in_intervals(self, n: int, alpha: float, sigma_hat_sq: np.ndarray, k: np.ndarray):
        """A plug-in rule's half-widths and alpha_mins: one lane search."""
        factors, amins = _lane_search(_unknown_variance_lanes, [n] * k.size, k, self.delta, alpha,
                                      self.a_rule, self.track_alpha_min)
        half = _sigma_hat_half_width(n, factors)(sigma_hat_sq)
        half[np.isinf(factors)] = math.nan
        return half, amins


@dataclass(frozen=True)
class OlsAsympMethod(_Method):
    family = "ols"
    label = "asymp"

    def interval(self, design: Design, alpha: float) -> ConfidenceInterval:
        return ci_asymp(design, alpha)

    def cell_rule(self, n: int, alpha: float) -> _CellRule:
        return _CellRule(lambda fits, u: _asymp_halves(fits, u, alpha))


@dataclass(frozen=True)
class OlsEdgMethod(_Method):
    bounds: OlsBounds
    tuning: OlsTuning = OlsTuning()
    family = "ols"
    navae = True
    label = "edg"

    @property
    def delta(self) -> DeltaProvider:
        return self.tuning.delta

    def interval(self, design: Design, alpha: float) -> ConfidenceInterval:
        return ci_edg(design, alpha, self.bounds, self.tuning)

    def cell_rule(self, n: int, alpha: float) -> _CellRule:
        # config errors first, as in _edg_halves; n0 >= each condition's last violation
        self.tuning.omega(n)
        self.tuning.a(n)
        k_reg, k_xi = (None if isinstance(b, PlugIn) else b for b in (self.bounds.k_reg, self.bounds.k_xi))
        if n <= _last_violations(alpha, self.tuning, k_reg, k_xi):
            return _fixed_rule(None)
        return _CellRule(lambda fits, u: _edg_halves(fits, u, alpha, self.bounds, self.tuning))


# ---------------------------------------------------------------------------
# Coverage study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimStudySpec:
    """One simulation study: a DGP, interval methods, an n grid, and seeds."""

    dgp: object
    methods: tuple
    n_grid: tuple[int, ...]
    replications: int
    alpha: float
    base_seed: int = 0

    def __post_init__(self) -> None:
        replications = _integer(self.replications, "replications")
        if replications < 1:
            raise ConfigError(f"replications must be >= 1, got {replications}")
        if replications >= 2**64:
            # a replication index is the second 64-bit word of its Philox key (substream)
            raise ConfigError(f"replications must be below 2**64, got {replications}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        n_grid = tuple(_integer(n, "n entry") for n in self.n_grid)
        if not n_grid or any(n < 1 for n in n_grid):
            raise ConfigError(f"invalid n grid {n_grid!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0,1), got {self.alpha!r}")
        base_seed = _seed(self.base_seed)
        for method in self.methods:
            if method.family != self.dgp.family:
                raise ConfigError(
                    f"method {method.label!r} targets a {method.family!r} "
                    f"parameter but the DGP is {self.dgp.family!r}"
                )
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "n_grid", n_grid)
        object.__setattr__(self, "replications", replications)
        object.__setattr__(self, "base_seed", base_seed)


@dataclass(frozen=True)
class SimReportRow:
    method: str
    n: int
    alpha: float
    replications: int
    coverage: float
    mc_se: float
    mean_width: float | None
    whole_line_fraction: float
    mean_alpha_min: float | None = None
    median_alpha_min: float | None = None


@dataclass(frozen=True)
class SimReport:
    rows: tuple[SimReportRow, ...]

    def row(self, method_label: str, n: int) -> SimReportRow:
        for r in self.rows:
            if r.method == method_label and r.n == n:
                return r
        raise KeyError(f"no report row for ({method_label!r}, {n})")


def _aggregate(method, n, alpha, records: np.ndarray) -> SimReportRow:
    covered, whole, widths, alpha_mins = records
    m = covered.size
    widths = widths[whole == 0]  # the bounded intervals' widths, an overflowed inf included
    alpha_mins = alpha_mins[~np.isnan(alpha_mins)]
    coverage = float(covered.sum() / m)
    return SimReportRow(
        method=method.label,
        n=n,
        alpha=alpha,
        replications=m,
        coverage=coverage,
        mc_se=math.sqrt(coverage * (1.0 - coverage) / m),
        mean_width=float(np.mean(widths)) if widths.size else None,
        whole_line_fraction=float(whole.sum() / m),
        mean_alpha_min=float(np.mean(alpha_mins)) if alpha_mins.size else None,
        median_alpha_min=float(np.median(alpha_mins)) if alpha_mins.size else None,
    )


#: Doubles in the buffer that one chunk of a cell-rule slice's draws is copied
#: into (512 KiB): a chunk is 2**16 // n replications of a mean DGP, or
#: 2**16 // ((p + 1) n) designs (x' and y) of an OLS DGP, or one when n is
#: larger.
_CHUNK_DOUBLES = 1 << 16


def _interval_records(spec: SimStudySpec, methods: list, n: int, streams: _CellStreams, start: int,
                      stop: int) -> np.ndarray:
    """Records of replications ``start`` to ``stop - 1`` of each of
    ``methods``, (len(methods), 4, stop - start): one draw per replication,
    then one ``interval`` call per method on it."""
    dgp, alpha = spec.dgp, spec.alpha
    records = np.empty((len(methods), 4, stop - start))
    for j, r in enumerate(range(start, stop)):
        data = dgp.sample(n, streams.seed(r))
        for member, method in zip(records, methods):
            ci = method.interval(data, alpha)
            amin = method.alpha_min_value(data)
            member[:, j] = (ci.contains(dgp.target), ci.whole_line, ci.width, amin)  # None is NaN
    return records


def _mean_intervals(dgp, n: int, rules: list, streams: _CellStreams, start: int, stop: int):
    """``(means, [(half-widths, whole-line mask, alpha_mins) per rule])`` of
    replications ``start`` to ``stop - 1`` of a mean cell, each chunk of the
    buffer reduced once by ``mean_ci._centred_moments``, as ``Sample`` is.
    None when a sample is not n values long, a sigma_hat^2 is NaN (a draw is
    not finite) or below the normal float range, or a K is outside
    ``_plug_in_kurtosis``'s direct form.
    """
    fill = type(dgp) is ExponentialMean
    count = stop - start
    rows = max(1, _CHUNK_DOUBLES // n)
    buffer = np.empty((min(rows, count), n))
    moments = np.empty((2 if all(rule.inflation is None for rule in rules) else 3, count))
    for lo in range(0, count, rows):
        chunk = buffer[: min(rows, count - lo)]
        for j, row in enumerate(chunk):
            if fill:
                _fill_uniforms(row, streams.seed(start + lo + j))
                continue
            values = dgp.sample(n, streams.seed(start + lo + j)).values
            if values.size != n:
                return None
            row[:] = values
        if fill:
            with np.errstate(over="ignore"):  # an inf draw goes on to interval
                _negated_exponential(chunk, dgp.rate)
        # an overflow here sends the slice to interval, which raises its DataError
        moments[:, lo : lo + len(chunk)] = _centred_moments(chunk, len(moments))
    means, variances, *fourths = moments
    if fill:
        np.negative(means, out=means)  # the buffer held the negated draws
    if not (variances >= sys.float_info.min).all():
        return None
    members = []
    for rule in rules:
        with np.errstate(over="ignore"):
            k = (None if rule.inflation is None
                 else _plug_in_kurtosis(fourths[0], variances * variances, n, rule.inflation))
        if k is not None and not np.isfinite(k).all():
            return None
        half, alpha_mins = rule.intervals(variances, k)
        members.append((half, np.isnan(half), alpha_mins))
    return means, members


def _ols_intervals(dgp, n: int, rules: list, streams: _CellStreams, start: int, stop: int):
    """``(u'beta_hats, [(half-widths, whole-line mask, None) per rule])`` of
    replications ``start`` to ``stop - 1`` on ``GumbelHeteroLinear``, or
    None for any other DGP, n below p or a draw that is not finite.  Each
    block's x' and y have the layout ``Design`` gives every product, and the
    block is fitted once (``ols_ci._fit``).
    """
    if type(dgp) is not GumbelHeteroLinear:
        return None
    p = len(GUMBEL_BETA)
    u = np.asarray(dgp.u, dtype=float).reshape(-1)
    if n < p:
        return None  # Design rejects the design
    count = stop - start
    rows = min(count, max(1, _CHUNK_DOUBLES // ((p + 1) * n)))
    x, xt, y = np.empty((n, p)), np.empty((rows, p, n)), np.empty((rows, n))
    centres, halves = np.empty(count), np.empty((len(rules), 2, count))  # half-widths, whole-line mask
    for lo in range(0, count, rows):
        size = min(rows, count - lo)
        for j in range(size):
            _fill_gumbel(x, y[j], streams.seed(start + lo + j))
            xt[j] = x.T
        if not (np.isfinite(xt[:size]).all() and np.isfinite(y[:size]).all()):
            return None
        fits = _fit(xt[:size], y[:size])
        centres[lo : lo + size] = _centres(fits, u)
        for member, rule in zip(halves, rules):
            member[:, lo : lo + size] = rule.intervals(fits, u)
    return centres, [(half, whole == 1, None) for half, whole in halves]


def _rule_records(dgp, n: int, rules: list, streams: _CellStreams, start: int, stop: int):
    """Records of replications ``start`` to ``stop - 1`` of methods that
    share every draw, one cell rule each: (len(rules), 4,
    stop - start).  ``_mean_intervals`` or ``_ols_intervals`` reduces or
    fits each draw once and gives the centres and each rule's half-widths
    and whole-line mask, by the expressions ``interval`` evaluates too.
    None when those give None or an interval that is not the whole line is
    not a finite ordered pair: ``interval`` then decides.
    """
    settle = _ols_intervals if dgp.family == "ols" else _mean_intervals
    intervals = settle(dgp, n, rules, streams, start, stop)
    if intervals is None:
        return None
    centres, members = intervals
    records = np.empty((len(rules), 4, stop - start))
    for record, (half, whole, alpha_mins) in zip(records, members):
        with np.errstate(over="ignore", invalid="ignore"):
            lower, upper = centres - half, centres + half
            width = upper - lower
        if not (np.isfinite(lower) & np.isfinite(upper) & (lower <= upper) | whole).all():
            return None
        record[0] = (lower <= dgp.target) & (dgp.target <= upper) | whole
        record[1] = whole
        record[2] = np.where(whole, math.nan, width)
        record[3] = math.nan if alpha_mins is None else alpha_mins
    return records


def _run_slice(n: int, start: int, stop: int, spec: SimStudySpec) -> np.ndarray:
    """Records of replications ``start`` to ``stop - 1`` of every method of
    ``spec`` at size n: a (methods, 4, stop - start) float array whose rows
    are, per method, covered (0 or 1), whole_line (0 or 1), width (NaN for
    the whole line) and alpha_min (NaN where none is tracked), bit for bit
    as ``interval`` gives them.

    Replication r is one draw, from the Philox key (k0, r) of
    ``_CellStreams``, and every method is evaluated on it: the methods with
    a cell rule through one ``_rule_records`` pass, the others through one
    ``interval`` call per method and replication.  If ``_rule_records``
    cannot settle the slice, every drawn method takes the ``interval``
    path, so an error raised is the first in (replication, method) order; a
    method proved the whole line without data draws nothing and raises no
    draw's error.
    """
    rules = []
    for method in spec.methods:
        try:
            _check_dgp(spec.dgp)
            rules.append(method.cell_rule(n, spec.alpha))
        except Exception:  # the interval path raises it again
            rules.append(None)
    records = _empty((len(rules), 4, stop - start), f"replication count {spec.replications}")
    for record, rule in zip(records, rules):
        if rule is not None and rule.intervals is None:  # the whole line, proved without data
            record[:] = [[1.0], [1.0], [math.nan], [math.nan if rule.alpha_min is None else rule.alpha_min]]
    drawn = [k for k, rule in enumerate(rules) if rule is None or rule.intervals is not None]
    if not drawn:
        return records
    streams = _CellStreams(spec.base_seed, n)
    settled = [k for k in drawn if rules[k] is not None]
    rest = [k for k in drawn if rules[k] is None]
    if settled:
        try:
            settled_records = _rule_records(spec.dgp, n, [rules[k] for k in settled], streams, start, stop)
        except Exception:  # the interval path raises it again, or an earlier error
            settled_records = None
        if settled_records is None:
            rest = drawn
        else:
            records[settled] = settled_records
    if rest:
        records[rest] = _interval_records(spec, [spec.methods[k] for k in rest], n, streams, start, stop)
    return records


def _check_dgp(dgp) -> None:
    """A built-in DGP's configuration checks, which its draws make too."""
    if type(dgp) is ExponentialMean:
        _check_rate(dgp.rate)
    elif type(dgp) is GumbelHeteroLinear:
        _check_direction(np.asarray(dgp.u, dtype=float).reshape(-1), len(GUMBEL_BETA))


def _run_slices(spec: SimStudySpec, start: int, stop: int) -> tuple:
    """``_run_slice`` of replications ``start`` to ``stop - 1`` at each n in
    order, stopping at the first error: ``(records per finished n, error or
    None)``, so the failed n is the one after the last finished."""
    done = []
    try:
        for n in spec.n_grid:
            done.append(_run_slice(n, start, stop, spec))
    except Exception as exc:
        return done, exc
    return done, None


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):
            pass


def _child_slices(spec: SimStudySpec, start: int, stop: int, write_fd: int) -> None:
    """A forked child's whole life: run its slice at every n, pickle the
    outcome into its pipe and leave through ``os._exit``, never returning
    into the caller's stack."""
    status = 1
    try:
        done, error = _run_slices(spec, start, stop)
        if error is not None:
            try:
                pickle.loads(pickle.dumps(error))
            except Exception:
                error = RuntimeError(f"{type(error).__name__}: {error}")
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps((done, error)))
        status = 0
    finally:
        try:
            _flush_std_streams()
        finally:
            os._exit(status)


def _forked_slices(spec: SimStudySpec, cuts: list) -> list:
    """``_run_slices`` of slice k for every k, in k order: slice 0 runs in the
    calling process, every other slice in a child it forks, so one slice (a
    serial study) forks nothing.  A child that exits without a readable
    report is a ``RuntimeError``; every child is reaped before this returns
    or raises."""
    pids, pipes = [], []
    reaped = 0
    try:
        for k in range(1, len(cuts) - 1):
            _flush_std_streams()
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child_slices(spec, cuts[k], cuts[k + 1], write_fd)
            os.close(write_fd)
            pids.append(pid)
            pipes.append(open(read_fd, "rb"))
        slices = [_run_slices(spec, cuts[0], cuts[1])]
        for k, (pid, pipe) in enumerate(zip(pids, pipes), start=1):
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            reaped += 1
            try:
                slices.append(pickle.loads(payload))
            except Exception:
                raise RuntimeError(
                    f"coverage study worker for replications {cuts[k]} to "
                    f"{cuts[k + 1] - 1} exited with wait status {status} and no report"
                ) from None
        return slices
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids[reaped:]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_coverage_study(spec: SimStudySpec, workers: int = 1) -> SimReport:
    """Coverage, width, and whole-line shares per (method, n).

    Replication r at size n is one draw, from the Philox key (k0, r) with
    k0 one word of SeedSequence(seed, spawn_key=(n,)), and every method is
    evaluated on it (``_run_slice``), so the methods are compared on common
    random numbers.  The whole real line counts as covering.  The rows are
    in (method, n) order.  The report does not depend on ``workers`` (>= 1,
    capped at the replication count; serial where the platform has no
    ``os.fork``), and the error raised is the serial run's, the first in
    (n, replication, method) order.
    """
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    workers = min(workers, spec.replications) if hasattr(os, "fork") else 1
    cuts = [spec.replications * k // workers for k in range(workers + 1)]
    slices = _forked_slices(spec, cuts)
    errors = [(len(done), k, exc) for k, (done, exc) in enumerate(slices) if exc is not None]
    if errors:
        raise min(errors, key=lambda e: e[:2])[2]
    records = [np.concatenate([done[c] for done, _ in slices], axis=-1) for c in range(len(spec.n_grid))]
    return SimReport(tuple(
        _aggregate(method, n, spec.alpha, recs[i])
        for i, method in enumerate(spec.methods) for n, recs in zip(spec.n_grid, records)
    ))


# ---------------------------------------------------------------------------
# Width curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WidthCurveRow:
    method: str
    n: int
    alpha: float
    mean_width: float | None
    ratio: float | None
    whole_line_fraction: float
    replications: int | None


def width_curve(
    dgp,
    method,
    n_grid: Sequence[int],
    alpha: float,
    replications: int = 0,
    base_seed: int = 0,
) -> tuple[WidthCurveRow, ...]:
    """Mean widths and width ratios relative to the CLT/asymptotic baseline.

    A mean method's ratio is deterministic: q(1-alpha/2+delta)/q(1-alpha/2)
    with known variance, whose ``mean_width`` is the interval's own width,
    and C_n q(arg)/q(1-alpha/2) with the estimated variance, whose
    ``mean_width`` comes from one coverage study over the n with a bounded
    interval (replications = 0 gives the ratios alone; a negative count is a
    ConfigError).  The OLS ratio is edg's mean width against asymp's on the
    same draws: the coverage study of (edg, asymp).
    ``whole_line_fraction`` is the share of whole-line intervals (1.0 or 0.0
    for a mean method) and ``replications`` the count behind a measured
    ``mean_width`` (None where none was drawn).
    """
    base_seed = _seed(base_seed)
    if isinstance(method, (KnownVarianceMethod, UnknownVarianceMethod)):
        if replications < 0:
            raise ConfigError(f"replications must be >= 0, got {replications}")
        # the half-width per unit sigma/sqrt(n), None or +inf where the interval is the whole line
        if isinstance(method, KnownVarianceMethod):
            cfg = method._config(alpha)
            factors = [_known_variance_factor(n, cfg) for n in n_grid]
        elif method.kurtosis_bound is None:
            raise ConfigError("deterministic width ratio needs a fixed kurtosis bound")
        else:
            method._config(alpha, method.kurtosis_bound)  # its alpha and K checks
            factors = _lane_search(_unknown_variance_lanes, n_grid, method.kurtosis_bound, method.delta,
                                   alpha, method.a_rule, False)[0].tolist()
        q = std_normal_quantile(1.0 - alpha / 2.0)
        ratios = {n: None if f is None or math.isinf(f) else f / q for n, f in zip(n_grid, factors)}
        bounded = tuple(n for n in n_grid if ratios[n] is not None)
        widths, measured = {}, None
        if isinstance(method, KnownVarianceMethod):
            widths = {n: 2.0 * _known_variance_half_width(n, method.sigma, cfg)(None) for n in bounded}
        elif replications > 0 and bounded:
            study = SimStudySpec(dgp, (method,), bounded, replications, alpha, base_seed)
            widths = {row.n: row.mean_width for row in run_coverage_study(study).rows}
            measured = replications
        return tuple(WidthCurveRow(method.label, n, alpha, widths.get(n), ratios[n], float(ratios[n] is None),
                                   None if ratios[n] is None else measured) for n in n_grid)
    if isinstance(method, OlsEdgMethod):
        if replications < 1:
            raise ConfigError("OLS width curves need replications >= 1")
        rows = run_coverage_study(SimStudySpec(dgp, (method, OlsAsympMethod()), n_grid, replications, alpha,
                                               base_seed)).rows
        return tuple(
            WidthCurveRow(method.label, edg.n, alpha, edg.mean_width,
                          None if edg.mean_width is None else edg.mean_width / asymp.mean_width,
                          edg.whole_line_fraction, edg.replications)
            for edg, asymp in zip(rows[: len(rows) // 2], rows[len(rows) // 2 :])
        )
    raise ConfigError(
        f"width_curve supports known-variance, unknown-variance, and edg "
        f"methods, not {getattr(method, 'label', method)!r}"
    )


# ---------------------------------------------------------------------------
# Config-dict construction (the JSON study schema)
# ---------------------------------------------------------------------------


def _section(value, what: str) -> dict:
    """A copy of a config section; a section that is not a JSON object is a
    ``ConfigError``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} config must be a JSON object, got {value!r}")
    return dict(value)


def _take(config: dict, *, required: tuple, optional: dict, what: str) -> dict:
    unknown = set(config) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {what} config")
    missing = set(required) - set(config)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {what} config")
    out = dict(optional)
    out.update(config)
    return out


def _number(value, name: str) -> float:
    """``float(value)`` for a config field; a value that is not a number is a
    ``ConfigError`` naming the field."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc


def _integer(value, name: str) -> int:
    """An integral config field.  ``1000`` and ``1e3`` pass, as on the
    ``--n`` command line; a fraction, a non-finite number or a JSON boolean
    is a ``ConfigError`` naming the field."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    number = _number(value, name)
    if not (math.isfinite(number) and number.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(number)


def _seed(value) -> int:
    """A study's base seed: a non-negative integer."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _delta(value) -> DeltaProvider:
    """The delta provider a config string names, or a default provider
    itself; any other value is a ``ConfigError``."""
    if isinstance(value, DeltaProvider):
        return value
    if not isinstance(value, str):
        raise ConfigError(f"delta must be a provider string such as 'be', got {value!r}")
    return provider_from_string(value)


def _flag(value, name: str) -> bool:
    """A config field that must be a JSON boolean."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def dgp_from_config(config: dict):
    cfg = _section(config, "DGP")
    kind = cfg.pop("kind", None)
    if kind == "exponential-mean":
        values = _take(cfg, required=(), optional={"rate": 1.0}, what="exponential-mean")
        return ExponentialMean(rate=_number(values["rate"], "rate"))
    if kind == "gumbel-hetero-linear":
        values = _take(
            cfg, required=(), optional={"u": (0.0, 0.0, 1.0)}, what="gumbel-hetero-linear"
        )
        u = values["u"]
        if not isinstance(u, (list, tuple)):
            raise ConfigError(f"u must be a list of numbers, got {u!r}")
        return GumbelHeteroLinear(u=tuple(_number(v, "u entry") for v in u))
    raise ConfigError(f"unknown DGP kind {kind!r}")


#: The config keys of each method: the required ones, and the optional ones
#: with their defaults, read from the class each configures.
#: ``method_from_config`` takes its keys from here and the command line its
#: flags.  An edg ``bounds`` object holds the four ``BOUND_KEYS``.
METHOD_KEYS: dict[str, tuple[tuple[str, ...], dict]] = {
    "clt": ((), {}),
    "student": ((), {}),
    "chebyshev": (("var_bound",), {}),
    "hoeffding": (("support",), {}),
    "known-variance": (("sigma", "K"), {"delta": KnownVarianceMethod.delta}),
    "unknown-variance": ((), {"K": UnknownVarianceMethod.kurtosis_bound,
                              "delta": UnknownVarianceMethod.delta,
                              "a_rule": UnknownVarianceMethod.a_rule,
                              "inflation": UnknownVarianceMethod.plug_in_inflation,
                              "track_alpha_min": UnknownVarianceMethod.track_alpha_min}),
    "asymp": ((), {}),
    "edg": (("bounds",), {"delta": OlsTuning.delta, "omega_rule": OlsTuning.omega_rule,
                          "a_rule": OlsTuning.a_rule}),
}


def _bound_spec(value, name: str, inflation: float = 0.0) -> float | PlugIn:
    """An edg bound: a number, or 'plugin' for the estimate from the data
    inflated by ``inflation``."""
    if value == "plugin":
        return PlugIn(inflation)
    if isinstance(value, str):
        raise ConfigError(f"{name} must be a number or 'plugin', got {value!r}")
    return _number(value, name)


def _rule(value, name: str, explicit: bool = False) -> ARule:
    """A tuning rule: the one a config string spells, or a default rule
    itself.  ``explicit`` rules out 'optimized', which edg cannot search."""
    rule = value if isinstance(value, (PowerRule, OptimizedRule)) else parse_rule(str(value))
    if explicit and isinstance(rule, OptimizedRule):
        raise ConfigError(f"edg {name} must be an explicit formula, not 'optimized'")
    return rule


def method_from_config(config: dict, inflation: float = 0.0):
    """The interval method a config entry names, with the keys ``METHOD_KEYS``
    lists for it.  ``inflation`` inflates the edg bounds tagged 'plugin'; it
    comes from ``--inflation`` on the command line, and a config entry has
    no key for it."""
    cfg = _section(config, "method")
    name = cfg.pop("name", None)
    if not isinstance(name, str) or name not in METHOD_KEYS:
        raise ConfigError(f"unknown method name {name!r}")
    required, optional = METHOD_KEYS[name]
    values = _take(cfg, required=required, optional=optional, what=name)
    if name == "clt":
        return CltMethod()
    if name == "student":
        return StudentMethod()
    if name == "asymp":
        return OlsAsympMethod()
    if name == "chebyshev":
        return ChebyshevMethod(var_bound=_number(values["var_bound"], "var_bound"))
    if name == "hoeffding":
        support = values["support"]
        if not isinstance(support, (list, tuple)) or len(support) != 2:
            raise ConfigError(f"hoeffding support must be two numbers [a, b], got {support!r}")
        return HoeffdingMethod(*(_number(end, "support entry") for end in support))
    if name == "known-variance":
        return KnownVarianceMethod(sigma=_number(values["sigma"], "sigma"),
                                   kurtosis_bound=_number(values["K"], "K"),
                                   delta=_delta(values["delta"]))
    if name == "unknown-variance":
        return UnknownVarianceMethod(
            kurtosis_bound=None if values["K"] == "plugin" else _number(values["K"], "K"),
            delta=_delta(values["delta"]),
            a_rule=_rule(values["a_rule"], "a_rule"),
            plug_in_inflation=_number(values["inflation"], "inflation"),
            track_alpha_min=_flag(values["track_alpha_min"], "track_alpha_min"),
        )
    bounds = _take(_section(values["bounds"], "edg bounds"), required=BOUND_KEYS, optional={},
                   what="edg bounds")
    return OlsEdgMethod(
        bounds=OlsBounds(**{key: _bound_spec(bounds[key], key, inflation) for key in BOUND_KEYS}),
        tuning=OlsTuning(omega_rule=_rule(values["omega_rule"], "omega_rule", explicit=True),
                         a_rule=_rule(values["a_rule"], "a_rule", explicit=True),
                         delta=_delta(values["delta"])),
    )


def study_from_config(config: dict) -> SimStudySpec:
    """Build a study from the JSON document schema; unknown keys rejected."""
    values = _take(
        _section(config, "simulation study"),
        required=("dgp", "methods", "n", "alpha", "replications"),
        optional={"seed": 0},
        what="simulation study",
    )
    methods = values["methods"]
    if not isinstance(methods, (list, tuple)):
        raise ConfigError(f"methods must be a list of method objects, got {methods!r}")
    methods = tuple(method_from_config(m) for m in methods)
    n_values = values["n"]
    if not isinstance(n_values, (list, tuple)):
        raise ConfigError(f"n must be a list of sample sizes, got {n_values!r}")
    return SimStudySpec(
        dgp=dgp_from_config(values["dgp"]),
        methods=methods,
        n_grid=n_values,
        replications=values["replications"],
        alpha=_number(values["alpha"], "alpha"),
        base_seed=values["seed"],
    )
