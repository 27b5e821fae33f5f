"""Data-generating processes and the Monte Carlo coverage/width harness.

Reproducibility contract: every replication draws from its own Philox
counter-based stream keyed by (base seed, method index, n, replication
index), and a report depends only on the study and its seed, not on the
worker count.  With one worker every replication runs in the calling
process, in order.  With more, each (method, n) cell's replications are cut
into contiguous slices that run in forked worker processes; the slices are
joined back in replication order before any row is computed.  Where the
platform cannot fork, studies run serially at any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

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

SeedLike = Union[int, np.random.SeedSequence]


def _seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def _generator(seed: SeedLike) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_seed_sequence(seed)))


def substream(base_seed: int, method_index: int, n: int, replication: int) -> np.random.SeedSequence:
    """Deterministic per-replication stream key."""
    return np.random.SeedSequence(int(base_seed), spawn_key=(method_index, n, replication))


def sample_exponential(n: int, seed: SeedLike, rate: float = 1.0) -> Sample:
    """Exponential draws by inverse CDF -ln(U)/rate with U uniform in (0,1]."""
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    if rate <= 0.0:
        raise DomainError(f"rate must be positive, got {rate!r}")
    u = _generator(seed).random(n)
    return Sample(-np.log1p(-u) / rate)


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


# ---------------------------------------------------------------------------
# Interval methods (a CI operation plus its configuration)
# ---------------------------------------------------------------------------


class _Method:
    """Shared default of the interval methods: no alpha_min is tracked."""

    def alpha_min_value(self, data) -> float | None:
        return None


@dataclass(frozen=True)
class CltMethod(_Method):
    family = "mean"
    navae = False
    label = "clt"

    def interval(self, sample: Sample, alpha: float) -> ConfidenceInterval:
        return ci_clt(sample, alpha)


@dataclass(frozen=True)
class StudentMethod(_Method):
    family = "mean"
    navae = False
    label = "student"

    def interval(self, sample: Sample, alpha: float) -> ConfidenceInterval:
        return ci_student(sample, alpha)


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

    def interval(self, sample: Sample, alpha: float) -> ConfidenceInterval:
        cfg = MeanCiConfig(
            alpha=alpha,
            kurtosis_bound=self.kurtosis_bound,
            delta=self.delta,
            variance=KnownVariance(self.sigma**2),
        )
        return ci_known_variance(sample, self.sigma, cfg)


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

    def interval(self, sample: Sample, alpha: float) -> ConfidenceInterval:
        cfg = MeanCiConfig(
            alpha=alpha,
            kurtosis_bound=self._bound(sample),
            delta=self.delta,
            a_rule=self.a_rule,
            variance=UnknownVariance(),
        )
        return ci_unknown_variance(sample, cfg)

    def alpha_min_value(self, sample: Sample) -> float | None:
        if not self.track_alpha_min:
            return None
        return alpha_min(sample.n, self._bound(sample), self.a_rule, self.delta)


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
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ConfigError(f"invalid n grid {self.n_grid!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0,1), got {self.alpha!r}")
        for method in self.methods:
            if method.family != self.dgp.family:
                raise ConfigError(
                    f"method {method.label!r} targets a {method.family!r} "
                    f"parameter but the DGP is {self.dgp.family!r}"
                )
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))


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


#: The study the workers of a running pool read: set before the pool forks
#: them and cleared when it is shut down, so they inherit it by fork and it
#: is never pickled (a ``CustomMeanDgp`` may hold a lambda).
_POOL_SPEC: SimStudySpec | None = None


def _run_slice(
    method_index: int, n: int, start: int, stop: int, spec: SimStudySpec | None = None
) -> list:
    """Records ``(covered, whole_line, width, alpha_min)`` of replications
    ``start`` to ``stop - 1`` of the (method, n) cell, in order.

    ``spec`` defaults to the study a pool worker inherited.
    """
    spec = _POOL_SPEC if spec is None else spec
    dgp, alpha, method = spec.dgp, spec.alpha, spec.methods[method_index]
    records = []
    for r in range(start, stop):
        data = dgp.sample(n, substream(spec.base_seed, method_index, n, r))
        ci = method.interval(data, alpha)
        amin = method.alpha_min_value(data)
        records.append((ci.contains(dgp.target), ci.whole_line, ci.width, amin))
    return records


def _fork_context():
    """multiprocessing's fork context, or None where the platform has none."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _pool_slices(spec: SimStudySpec, workers: int, tasks: list, context) -> list:
    """``_run_slice`` of each task, in task order, from ``workers`` forked
    processes.  A failed task re-raises its error, the first in task order."""
    from concurrent.futures import ProcessPoolExecutor

    global _POOL_SPEC
    _POOL_SPEC = spec
    pool = ProcessPoolExecutor(workers, mp_context=context)
    try:
        return list(pool.map(_run_slice, *zip(*tasks)))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _POOL_SPEC = None


def run_coverage_study(spec: SimStudySpec, workers: int = 1) -> SimReport:
    """Coverage, width, and whole-line shares per (method, n).

    The whole real line counts as covering.  Replication r of method i at
    size n consumes the stream keyed (base_seed, i, n, r) at any worker
    count, so the report does not depend on ``workers`` (which must be >= 1
    and is capped at the replication count).  With one worker the study runs
    in the calling process.  With more, each cell's replications are cut
    into ``workers`` contiguous slices that a pool of forked processes runs;
    the slices are joined in replication order.  The first replication error
    in (method, n, replication) order is raised, as the serial run raises it.
    Where the platform has no ``fork`` start method the study runs serially.
    """
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    workers = min(workers, spec.replications)
    cells = [(i, n) for i in range(len(spec.methods)) for n in spec.n_grid]
    context = _fork_context() if workers > 1 else None
    if context is None:
        records = (_run_slice(i, n, 0, spec.replications, spec) for i, n in cells)
    else:
        cuts = [spec.replications * k // workers for k in range(workers + 1)]
        tasks = [(i, n, lo, hi) for i, n in cells for lo, hi in zip(cuts, cuts[1:])]
        slices = _pool_slices(spec, workers, tasks, context)
        records = [
            [rec for part in slices[c * workers:(c + 1) * workers] for rec in part]
            for c in range(len(cells))
        ]
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
    cfg = MeanCiConfig(
        alpha=alpha,
        kurtosis_bound=method.kurtosis_bound,
        delta=method.delta,
        a_rule=method.a_rule,
        variance=UnknownVariance(),
    )
    factor = unknown_variance_width_factor(n, cfg)
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
            for r in range(replications):
                design = dgp.sample(n, substream(base_seed, 0, n, r))
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


def _number(value, name: str, kind=float):
    """``kind(value)`` for a config field; a value that is not a number is a
    ``ConfigError`` naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc


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
    n_grid = tuple(_number(n, "n entry", int) for n in n_values)
    return SimStudySpec(
        dgp=dgp_from_config(values["dgp"]),
        methods=methods,
        n_grid=n_grid,
        replications=_number(values["replications"], "replications", int),
        alpha=_number(values["alpha"], "alpha"),
        base_seed=_number(values["seed"], "seed", int),
    )
