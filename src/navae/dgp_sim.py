"""Data-generating processes and the Monte Carlo coverage/width harness.

Reproducibility contract: replication r of method i at size n draws from
its own Philox counter-based stream, the one ``substream(base_seed, i, n,
r)`` seeds, and a report depends only on the study and its seed, not on the
worker count.  For the built-in DGPs the harness computes the Philox keys
of a whole cell in one pass and resets one generator to each key, which
draws exactly what a generator built from ``substream`` draws; any other
DGP (``CustomMeanDgp`` included) is given the ``substream`` seed sequence
itself, so a draw that spawns child generators or reads the generator's
seed sequence sees that replication's own.  Fixed-tuning mean methods (CLT,
Student, known variance, unknown variance with a fixed K) evaluate a chunk
of replications at once with array arithmetic that gives every interval bit
for bit as its scalar ``ci_*`` function does, and every error as the serial
loop raises it.  With one worker every replication runs in the calling
process, in order.  With k > 1, each (method, n) cell's replications are
cut into k contiguous slices: the calling process runs the first slice of
every cell and k - 1 children forked from it run the others; the slices are
joined back in replication order before any row is computed.  Where the
platform cannot fork, studies run serially at any worker count.
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

from .edgeworth import BerryEsseen, DeltaProvider, delta_of, provider_from_string
from .errors import ConfigError, DomainError
from .linalg import cholesky
from .mean_ci import (
    ARule,
    ConfidenceInterval,
    DEFAULT_A_RULE,
    KnownVariance,
    MeanCiConfig,
    Sample,
    UnknownVariance,
    _clt_half_width,
    _known_variance_half_width,
    _student_half_width,
    _unknown_variance_half_width,
    alpha_min,
    ci_chebyshev,
    ci_clt,
    ci_hoeffding,
    ci_known_variance,
    ci_student,
    ci_unknown_variance,
    sample_kurtosis,
    unknown_variance_width_factor,
)
from .ols_ci import (
    Design,
    OlsBounds,
    OlsTuning,
    PlugIn,
    ci_asymp,
    ci_edg,
    ols_fit,
)
from .rules import OptimizedRule, format_rule, parse_rule
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
    "method_from_config",
    "study_from_config",
]

EULER_MASCHERONI = 0.5772156649015329

#: Covariance of the simulated regressors: variances 1 and 2, correlation 0.5.
GUMBEL_REGRESSOR_COV = np.array(
    [[1.0, 0.5 * math.sqrt(2.0)], [0.5 * math.sqrt(2.0), 2.0]]
)
GUMBEL_REGRESSOR_COV.setflags(write=False)
_GUMBEL_REGRESSOR_CHOL = cholesky(GUMBEL_REGRESSOR_COV)
_GUMBEL_REGRESSOR_CHOL.setflags(write=False)
GUMBEL_BETA = (2.0, 1.0, -3.0)

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


def _seed_sequence(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def _generator(seed: SeedLike) -> np.random.Generator:
    """A generator drawing from ``seed``'s Philox stream; a generator is used
    as it is."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(_seed_sequence(seed)))


def substream(base_seed: int, method_index: int, n: int, replication: int) -> np.random.SeedSequence:
    """Deterministic per-replication stream key.

    Replication r of method i at size n draws from the Philox stream this
    seeds.  A DGP outside ``_RESET_DGPS`` is given this seed sequence; for
    the built-in DGPs the coverage-study harness computes the same Philox
    keys for a whole cell at once (``_cell_keys``) and resets one generator
    to each, which draws exactly what a generator built from this seed
    sequence draws.
    """
    return np.random.SeedSequence(int(base_seed), spawn_key=(method_index, n, replication))


# numpy's SeedSequence hash (pool of four 32-bit words), as
# numpy/random/bit_generator.pyx defines it
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list[int]:
    """A non-negative int as numpy splits entropy: 32-bit words, least
    significant first; 0 is one word."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _cell_keys(base_seed: int, method_index: int, n: int, start: int, stop: int) -> np.ndarray:
    """The Philox keys of replications ``start`` to ``stop - 1`` of a cell, as
    a ``(stop - start, 2)`` uint64 array: row r - start equals
    ``substream(base_seed, method_index, n, r).generate_state(2, np.uint64)``.

    The entropy words are the seed's (zero-padded to the pool size), then
    those of method_index, n and r.  Every word but r's is mixed into the
    pool once, with Python ints; r must be below 2**32, so it is one word,
    the last, and only its mixing and the state generation run on arrays.
    """
    seed_words = _uint32_words(int(base_seed))
    words = seed_words + [0] * (4 - len(seed_words)) + _uint32_words(method_index) + _uint32_words(n)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    replication = np.arange(start, stop, dtype=np.uint64)
    out_const = _INIT_B
    state = []
    for dst in range(4):
        word = mix(pool[dst], hashmix(replication))
        word ^= out_const
        out_const = out_const * _MULT_B & _MASK32
        word = word * out_const & _MASK32
        state.append(word ^ word >> 16)
    keys = np.empty((stop - start, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys


_ZERO_WORDS = (0, 0, 0, 0)


class _CellStreams:
    """The streams of replications ``start`` to ``stop - 1`` of a cell.

    For a DGP in ``_RESET_DGPS``, ``seed(r)`` is one Philox generator reset
    to replication r's key with counter 0 and an empty buffer, the state a
    fresh ``Philox(substream(base_seed, method_index, n, r))`` starts in.
    Such a generator draws what the fresh one draws but has no seed
    sequence of its own (``spawn`` and ``bit_generator.seed_seq`` would
    differ), so any other DGP gets ``substream(...)`` itself.
    """

    def __init__(self, dgp, base_seed: int, method_index: int, n: int, start: int, stop: int) -> None:
        self._start = start
        if type(dgp) not in _RESET_DGPS:
            self._cell = (base_seed, method_index, n)
            self._keys = None
            return
        self._keys = _cell_keys(base_seed, method_index, n, start, stop).tolist()
        self._bits = np.random.Philox(key=0)
        self._generator = np.random.Generator(self._bits)

    def seed(self, replication: int) -> SeedLike:
        if self._keys is None:
            return substream(*self._cell, replication)
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO_WORDS, "key": self._keys[replication - self._start]},
            "buffer": _ZERO_WORDS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._generator


def sample_exponential(n: int, seed: SeedLike, rate: float = 1.0) -> Sample:
    """Exponential draws by inverse CDF -ln(U)/rate with U uniform in (0,1]."""
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    if rate <= 0.0:
        raise DomainError(f"rate must be positive, got {rate!r}")
    u = _generator(seed).random(n)
    # -log1p(-u)/rate in place, as log1p(-u)/(-rate): negation is exact
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u /= -rate
    return Sample(u)


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
    rng = _generator(seed)
    regressors = rng.standard_normal((n, 2)) @ _GUMBEL_REGRESSOR_CHOL.T
    total = regressors[:, 0] + regressors[:, 1]
    gumbel_scale = np.abs(total) * math.sqrt(6.0) / math.pi
    gumbel_loc = -EULER_MASCHERONI * gumbel_scale
    # U in (0,1): the generator yields [0,1) on a 2^-53 lattice, so lifting
    # exact zeros to the smallest positive lattice point changes nothing else
    uniforms = np.maximum(rng.random(n), 2.0**-53)
    eps = gumbel_loc - gumbel_scale * np.log(-np.log(uniforms))
    x = np.column_stack([np.ones(n), regressors])
    y = x @ np.asarray(GUMBEL_BETA) + eps
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
    """Mean-inference DGP from a user generator drawing n values."""

    draw: Callable[[int, np.random.Generator], np.ndarray]
    target: float
    name: str = "custom"
    family = "mean"

    def sample(self, n: int, seed: SeedLike) -> Sample:
        return Sample(np.asarray(self.draw(n, _generator(seed)), dtype=float))


#: DGPs whose ``sample`` only draws values from the generator it is given,
#: so the harness may hand them a reset generator (``_CellStreams``).
_RESET_DGPS = (ExponentialMean, GumbelHeteroLinear)


# ---------------------------------------------------------------------------
# Interval methods (a CI operation plus its configuration)
# ---------------------------------------------------------------------------


class _CellRule(NamedTuple):
    """Every interval of a (method, n) cell as mean +/- half_width(sigma_hat^2),
    with ``half_width`` None when each is the whole line; ``alpha_min`` is the
    alpha_min tracked for every replication, or None."""

    half_width: Callable | None
    alpha_min: float | None = None


class _Method:
    """Shared defaults of the interval methods: no alpha_min is tracked, and
    no cell rule, so each replication calls ``interval``."""

    def alpha_min_value(self, data) -> float | None:
        return None

    def cell_rule(self, n: int, alpha: float) -> _CellRule | None:
        return None


@dataclass(frozen=True)
class CltMethod(_Method):
    family = "mean"
    navae = False
    label = "clt"

    def interval(self, sample: Sample, alpha: float) -> ConfidenceInterval:
        return ci_clt(sample, alpha)

    def cell_rule(self, n: int, alpha: float) -> _CellRule:
        return _CellRule(_clt_half_width(n, alpha))


@dataclass(frozen=True)
class StudentMethod(_Method):
    family = "mean"
    navae = False
    label = "student"

    def interval(self, sample: Sample, alpha: float) -> ConfidenceInterval:
        return ci_student(sample, alpha)

    def cell_rule(self, n: int, alpha: float) -> _CellRule:
        return _CellRule(_student_half_width(n, alpha))


@dataclass(frozen=True)
class ChebyshevMethod(_Method):
    var_bound: float
    family = "mean"
    navae = False
    label = "chebyshev"

    def interval(self, sample: Sample, alpha: float) -> ConfidenceInterval:
        return ci_chebyshev(sample, alpha, self.var_bound)


@dataclass(frozen=True)
class HoeffdingMethod(_Method):
    support_lower: float
    support_upper: float
    family = "mean"
    navae = False
    label = "hoeffding"

    def interval(self, sample: Sample, alpha: float) -> ConfidenceInterval:
        return ci_hoeffding(sample, alpha, self.support_lower, self.support_upper)


@dataclass(frozen=True)
class KnownVarianceMethod(_Method):
    sigma: float
    kurtosis_bound: float
    delta: DeltaProvider = BerryEsseen()
    family = "mean"
    navae = True
    label = "known-variance"

    def _config(self, alpha: float) -> MeanCiConfig:
        return MeanCiConfig(
            alpha=alpha,
            kurtosis_bound=self.kurtosis_bound,
            delta=self.delta,
            variance=KnownVariance(self.sigma**2),
        )

    def interval(self, sample: Sample, alpha: float) -> ConfidenceInterval:
        return ci_known_variance(sample, self.sigma, self._config(alpha))

    def cell_rule(self, n: int, alpha: float) -> _CellRule:
        half = _known_variance_half_width(n, self.sigma, self._config(alpha))
        return _CellRule(None if half is None else lambda sigma_hat_sq: half)


@dataclass(frozen=True)
class UnknownVarianceMethod(_Method):
    """Finite-sample mean interval; kurtosis bound fixed or plug-in (None)."""

    kurtosis_bound: float | None = 9.0
    delta: DeltaProvider = BerryEsseen()
    a_rule: ARule = DEFAULT_A_RULE
    plug_in_inflation: float = 0.0
    track_alpha_min: bool = False
    family = "mean"
    navae = True

    @property
    def label(self) -> str:
        k = "plugin" if self.kurtosis_bound is None else repr(self.kurtosis_bound)
        return f"unknown-variance[K={k},a={format_rule_like(self.a_rule)}]"

    def _bound(self, sample: Sample) -> float:
        if self.kurtosis_bound is not None:
            return self.kurtosis_bound
        return max(1.0, sample_kurtosis(sample, self.plug_in_inflation))

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

    def cell_rule(self, n: int, alpha: float) -> _CellRule | None:
        """None with a plug-in bound, which each sample sets."""
        if self.kurtosis_bound is None:
            return None
        half_width = _unknown_variance_half_width(n, self._config(alpha, self.kurtosis_bound))
        if not self.track_alpha_min:
            return _CellRule(half_width)
        return _CellRule(half_width, alpha_min(n, self.kurtosis_bound, self.a_rule, self.delta))


@dataclass(frozen=True)
class OlsAsympMethod(_Method):
    family = "ols"
    navae = False
    label = "asymp"

    def interval(self, design: Design, alpha: float) -> ConfidenceInterval:
        return ci_asymp(design, alpha)


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


def format_rule_like(rule: ARule) -> str:
    if isinstance(rule, OptimizedRule):
        return "optimized"
    try:
        return format_rule(rule)
    except AttributeError:
        return getattr(rule, "__name__", "custom")


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
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if replications >= 2**32:
            # a replication index is one 32-bit word of its stream key (_cell_keys)
            raise ConfigError(f"replications must be below 2**32, got {self.replications}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        n_grid = tuple(_integer(n, "n entry") for n in self.n_grid)
        if not n_grid or any(n < 1 for n in n_grid):
            raise ConfigError(f"invalid n grid {self.n_grid!r}")
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


def _aggregate(method, n, alpha, records) -> SimReportRow:
    m = len(records)
    covered = sum(1 for rec in records if rec[0])
    whole = sum(1 for rec in records if rec[1])
    widths = np.array([rec[2] for rec in records if rec[2] is not None], dtype=float)
    alpha_mins = np.array([rec[3] for rec in records if rec[3] is not None], dtype=float)
    coverage = covered / m
    return SimReportRow(
        method=method.label,
        n=n,
        alpha=alpha,
        replications=m,
        coverage=coverage,
        mc_se=math.sqrt(coverage * (1.0 - coverage) / m),
        mean_width=float(np.mean(widths)) if widths.size else None,
        whole_line_fraction=whole / m,
        mean_alpha_min=float(np.mean(alpha_mins)) if alpha_mins.size else None,
        median_alpha_min=float(np.median(alpha_mins)) if alpha_mins.size else None,
    )


#: Doubles in the buffer that one chunk of a cell-rule cell's draws is copied
#: into (512 KiB): a chunk is 2**16 // n replications, or one when n is larger.
_CHUNK_DOUBLES = 1 << 16


def _interval_records(
    spec: SimStudySpec, method_index: int, n: int, streams: _CellStreams, start: int, stop: int
) -> list:
    """Records of replications ``start`` to ``stop - 1``, one ``interval``
    call each."""
    dgp, alpha, method = spec.dgp, spec.alpha, spec.methods[method_index]
    records = []
    for r in range(start, stop):
        data = dgp.sample(n, streams.seed(r))
        ci = method.interval(data, alpha)
        amin = method.alpha_min_value(data)
        records.append((ci.contains(dgp.target), ci.whole_line, ci.width, amin))
    return records


def _chunk_records(dgp, n: int, rule: _CellRule, seeds, buffer: np.ndarray) -> list | None:
    """Records of one chunk of replications under a cell rule, one row of
    ``buffer`` per stream seed.  Row means and sigma_hat^2 are
    ``np.add.reduce(..., axis=1) / n``, which equals ``Sample.mean`` and
    ``Sample.sigma_hat_sq`` bit for bit, and the intervals take the rule's
    half-width expression, which ``interval`` evaluates too.  None when a
    sample is not n values long or an interval is not a finite ordered pair:
    ``interval`` then decides."""
    for j, seed in enumerate(seeds):
        values = dgp.sample(n, seed).values
        if values.size != n:
            return None
        if rule.half_width is not None:
            buffer[j] = values
    if rule.half_width is None:
        return [(True, True, None, rule.alpha_min)] * len(buffer)
    # an overflow here sends the chunk to interval, which warns as it always has
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.add.reduce(buffer, axis=1) / n
        np.subtract(buffer, means[:, None], out=buffer)
        np.multiply(buffer, buffer, out=buffer)
        half = rule.half_width(np.add.reduce(buffer, axis=1) / n)
        lower, upper = means - half, means + half
    if not (np.isfinite(lower).all() and np.isfinite(upper).all() and (lower <= upper).all()):
        return None
    target = dgp.target
    covered = ((lower <= target) & (target <= upper)).tolist()
    return [(c, False, w, rule.alpha_min) for c, w in zip(covered, (upper - lower).tolist())]


def _run_slice(method_index: int, n: int, start: int, stop: int, spec: SimStudySpec) -> list:
    """Records ``(covered, whole_line, width, alpha_min)`` of replications
    ``start`` to ``stop - 1`` of the (method, n) cell, in order.

    Replication r draws from the stream ``substream(base_seed, method_index,
    n, r)`` seeds, for the built-in DGPs through one generator reset to
    each key (``_CellStreams``).  A method with a cell rule (the
    fixed-tuning mean intervals) runs in chunks of at most
    ``_CHUNK_DOUBLES`` drawn values, each evaluated by array arithmetic that
    equals ``interval``'s bit for bit.  If the rule or anything in a chunk
    raises, or a chunk has a value ``_chunk_records`` leaves to
    ``interval``, those replications run again one ``interval`` call each,
    in order, so any error raised is the one the serial loop raises first.
    """
    method = spec.methods[method_index]
    streams = _CellStreams(spec.dgp, spec.base_seed, method_index, n, start, stop)
    try:
        rule = method.cell_rule(n, spec.alpha)
    except Exception:  # interval raises it again, after its replication's draw
        rule = None
    if rule is None:
        return _interval_records(spec, method_index, n, streams, start, stop)
    rows = max(1, _CHUNK_DOUBLES // n)
    buffer = np.empty((min(rows, stop - start), n))
    records = []
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
        try:
            chunk = _chunk_records(
                spec.dgp, n, rule, map(streams.seed, range(lo, hi)), buffer[: hi - lo]
            )
        except Exception:  # the rerun raises it again, or an earlier error
            chunk = None
        if chunk is None:
            chunk = _interval_records(spec, method_index, n, streams, lo, hi)
        records += chunk
    return records


def _run_slices(spec: SimStudySpec, cells: list, start: int, stop: int) -> tuple:
    """``_run_slice`` of replications ``start`` to ``stop - 1`` of each cell in
    order, stopping at the first error: ``(records per finished cell, error
    or None)``, so the failed cell is the one after the last finished."""
    done = []
    try:
        for i, n in cells:
            done.append(_run_slice(i, n, start, stop, spec))
    except Exception as exc:
        return done, exc
    return done, None


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):
            pass


def _child_slices(spec: SimStudySpec, cells: list, start: int, stop: int, write_fd: int) -> None:
    """A forked child's whole life: run its slice of every cell, pickle the
    outcome into its pipe and leave through ``os._exit``, never returning
    into the caller's stack."""
    status = 1
    try:
        done, error = _run_slices(spec, cells, start, stop)
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


def _forked_slices(spec: SimStudySpec, cells: list, cuts: list) -> list:
    """``_run_slices`` of slice k for every k, in k order: slice 0 runs in the
    calling process, every other slice in a child it forks.  A child that
    exits without a readable report is a ``RuntimeError``; every child is
    reaped before this returns or raises."""
    pids, pipes = [], []
    reaped = 0
    try:
        for k in range(1, len(cuts) - 1):
            _flush_std_streams()
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child_slices(spec, cells, cuts[k], cuts[k + 1], write_fd)
            os.close(write_fd)
            pids.append(pid)
            pipes.append(open(read_fd, "rb"))
        slices = [_run_slices(spec, cells, cuts[0], cuts[1])]
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

    The whole real line counts as covering.  Replication r of method i at
    size n consumes the stream keyed (base_seed, i, n, r) at any worker
    count, so the report does not depend on ``workers`` (which must be >= 1
    and is capped at the replication count).  With one worker the study runs
    in the calling process.  With k > 1, each cell's replications are cut
    into k contiguous slices: the calling process runs the first slice of
    every cell and k - 1 children it forks run the others, each stopping at
    its own first error; the slices are joined in replication order.  The
    first replication error in (method, n, replication) order is raised, as
    the serial run raises it.  Where the platform has no ``os.fork`` the
    study runs serially.
    """
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    workers = min(workers, spec.replications)
    cells = [(i, n) for i in range(len(spec.methods)) for n in spec.n_grid]
    if workers == 1 or not hasattr(os, "fork"):
        records = (_run_slice(i, n, 0, spec.replications, spec) for i, n in cells)
    else:
        cuts = [spec.replications * k // workers for k in range(workers + 1)]
        slices = _forked_slices(spec, cells, cuts)
        errors = [(len(done), k, exc) for k, (done, exc) in enumerate(slices) if exc is not None]
        if errors:
            raise min(errors, key=lambda e: e[:2])[2]
        records = [[rec for done, _ in slices for rec in done[c]] for c in range(len(cells))]
    return SimReport(tuple(
        _aggregate(spec.methods[i], n, spec.alpha, recs) for (i, n), recs in zip(cells, records)
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


def _known_variance_ratio(n: int, alpha: float, method: KnownVarianceMethod) -> float | None:
    delta = delta_of(method.delta, n, method.kurtosis_bound)
    if delta >= alpha / 2.0:
        return None
    return std_normal_quantile(1.0 - alpha / 2.0 + delta) / std_normal_quantile(1.0 - alpha / 2.0)


def _unknown_variance_ratio(n: int, alpha: float, method: UnknownVarianceMethod) -> float | None:
    if method.kurtosis_bound is None:
        raise ConfigError("deterministic width ratio needs a fixed kurtosis bound")
    factor = unknown_variance_width_factor(n, method._config(alpha, method.kurtosis_bound))
    if factor is None:
        return None
    return factor / std_normal_quantile(1.0 - alpha / 2.0)


def width_curve(
    dgp,
    method,
    n_grid: Sequence[int],
    alpha: float,
    replications: int = 0,
    base_seed: int = 0,
) -> tuple[WidthCurveRow, ...]:
    """Mean widths and width ratios relative to the CLT/asymptotic baseline.

    For the mean methods the ratio is deterministic (the data cancels):
    q(1-alpha/2+delta)/q(1-alpha/2) with known variance, times C_n with the
    estimated variance.  For the OLS method the ratio is the Monte Carlo
    averaged width against the sandwich CLT interval on the same datasets.
    ``mean_width`` needs replications > 0 for the stochastic-width methods.
    """
    base_seed = _seed(base_seed)
    rows: list[WidthCurveRow] = []
    if isinstance(method, KnownVarianceMethod):
        for n in n_grid:
            ratio = _known_variance_ratio(n, alpha, method)
            width = (
                None
                if ratio is None
                else 2.0
                * method.sigma
                / math.sqrt(n)
                * std_normal_quantile(1.0 - alpha / 2.0)
                * ratio
            )
            rows.append(WidthCurveRow(method.label, n, alpha, width, ratio))
        return tuple(rows)
    if isinstance(method, UnknownVarianceMethod):
        for n in n_grid:
            ratio = _unknown_variance_ratio(n, alpha, method)
            width = None
            if ratio is not None and replications > 0:
                study = SimStudySpec(
                    dgp=dgp,
                    methods=(method,),
                    n_grid=(n,),
                    replications=replications,
                    alpha=alpha,
                    base_seed=base_seed,
                )
                width = run_coverage_study(study).rows[0].mean_width
            rows.append(WidthCurveRow(method.label, n, alpha, width, ratio))
        return tuple(rows)
    if isinstance(method, OlsEdgMethod):
        if replications < 1:
            raise ConfigError("OLS width curves need replications >= 1")
        for n in n_grid:
            edg_widths: list[float] = []
            asymp_widths: list[float] = []
            streams = _CellStreams(dgp, base_seed, 0, n, 0, replications)
            for r in range(replications):
                design = dgp.sample(n, streams.seed(r))
                fit = ols_fit(design)
                edg_ci = ci_edg(design, alpha, method.bounds, method.tuning, fit=fit)
                asymp_ci = ci_asymp(design, alpha, fit=fit)
                if edg_ci.width is not None:
                    edg_widths.append(edg_ci.width)
                asymp_widths.append(asymp_ci.width)
            mean_edg = float(np.mean(edg_widths)) if edg_widths else None
            mean_asymp = float(np.mean(asymp_widths))
            ratio = None if mean_edg is None else mean_edg / mean_asymp
            rows.append(WidthCurveRow(method.label, n, alpha, mean_edg, ratio))
        return tuple(rows)
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


def _take(config: dict, *, required: dict, optional: dict, what: str) -> dict:
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
        raise ConfigError(f"seed must be >= 0, got {value!r}")
    return seed


def _delta(value) -> DeltaProvider:
    """The delta provider a config string names; a non-string is a
    ``ConfigError``."""
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
        values = _take(cfg, required={}, optional={"rate": 1.0}, what="exponential-mean")
        return ExponentialMean(rate=_number(values["rate"], "rate"))
    if kind == "gumbel-hetero-linear":
        values = _take(
            cfg, required={}, optional={"u": (0.0, 0.0, 1.0)}, what="gumbel-hetero-linear"
        )
        u = values["u"]
        if not isinstance(u, (list, tuple)):
            raise ConfigError(f"u must be a list of numbers, got {u!r}")
        return GumbelHeteroLinear(u=tuple(_number(v, "u entry") for v in u))
    raise ConfigError(f"unknown DGP kind {kind!r}")


def _bound_spec(value, name: str) -> float | PlugIn:
    if isinstance(value, str):
        if value == "plugin":
            return PlugIn()
        raise ConfigError(f"bound must be a number or 'plugin', got {value!r}")
    return _number(value, name)


def method_from_config(config: dict):
    cfg = _section(config, "method")
    name = cfg.pop("name", None)
    if name == "clt":
        _take(cfg, required={}, optional={}, what="clt")
        return CltMethod()
    if name == "student":
        _take(cfg, required={}, optional={}, what="student")
        return StudentMethod()
    if name == "chebyshev":
        values = _take(cfg, required={"var_bound": None}, optional={}, what="chebyshev")
        return ChebyshevMethod(var_bound=_number(values["var_bound"], "var_bound"))
    if name == "hoeffding":
        values = _take(cfg, required={"support": None}, optional={}, what="hoeffding")
        support = values["support"]
        if not isinstance(support, (list, tuple)) or len(support) != 2:
            raise ConfigError(f"hoeffding support must be two numbers [a, b], got {support!r}")
        return HoeffdingMethod(
            support_lower=_number(support[0], "support entry"),
            support_upper=_number(support[1], "support entry"),
        )
    if name == "known-variance":
        values = _take(
            cfg,
            required={"sigma": None, "K": None},
            optional={"delta": "be"},
            what="known-variance",
        )
        return KnownVarianceMethod(
            sigma=_number(values["sigma"], "sigma"),
            kurtosis_bound=_number(values["K"], "K"),
            delta=_delta(values["delta"]),
        )
    if name == "unknown-variance":
        values = _take(
            cfg,
            required={},
            optional={
                "K": 9.0,
                "delta": "be",
                "a_rule": "1+n^-0.2",
                "inflation": 0.0,
                "track_alpha_min": False,
            },
            what="unknown-variance",
        )
        kurt = None if values["K"] == "plugin" else _number(values["K"], "K")
        return UnknownVarianceMethod(
            kurtosis_bound=kurt,
            delta=_delta(values["delta"]),
            a_rule=parse_rule(str(values["a_rule"])),
            plug_in_inflation=_number(values["inflation"], "inflation"),
            track_alpha_min=_flag(values["track_alpha_min"], "track_alpha_min"),
        )
    if name == "asymp":
        _take(cfg, required={}, optional={}, what="asymp")
        return OlsAsympMethod()
    if name == "edg":
        values = _take(
            cfg,
            required={"bounds": None},
            optional={
                "delta": "be",
                "omega_rule": "n^-1/5",
                "a_rule": "1+20*n^-2/5",
            },
            what="edg",
        )
        bounds_cfg = _take(
            _section(values["bounds"], "edg bounds"),
            required={"lambda_reg": None, "k_reg": None, "k_eps": None, "k_xi": None},
            optional={},
            what="edg bounds",
        )
        bounds = OlsBounds(**{name: _bound_spec(value, name) for name, value in bounds_cfg.items()})
        omega_rule = parse_rule(str(values["omega_rule"]))
        a_rule = parse_rule(str(values["a_rule"]))
        if isinstance(omega_rule, OptimizedRule) or isinstance(a_rule, OptimizedRule):
            raise ConfigError("edg tuning rules must be explicit formulas")
        tuning = OlsTuning(
            omega_rule=omega_rule,
            a_rule=a_rule,
            delta=_delta(values["delta"]),
        )
        return OlsEdgMethod(bounds=bounds, tuning=tuning)
    raise ConfigError(f"unknown method name {name!r}")


def study_from_config(config: dict) -> SimStudySpec:
    """Build a study from the JSON document schema; unknown keys rejected."""
    values = _take(
        _section(config, "simulation study"),
        required={"dgp": None, "methods": None, "n": None, "alpha": None, "replications": None},
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
    n_grid = tuple(_integer(n, "n entry") for n in n_values)
    return SimStudySpec(
        dgp=dgp_from_config(values["dgp"]),
        methods=methods,
        n_grid=n_grid,
        replications=_integer(values["replications"], "replications"),
        alpha=_number(values["alpha"], "alpha"),
        base_seed=_integer(values["seed"], "seed"),
    )
