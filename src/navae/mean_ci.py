"""Confidence intervals for a scalar expectation.

Baselines (CLT, Student, Chebyshev, Hoeffding) plus the finite-sample-valid
intervals built by enlarging the CLT interval:

* known variance:   mean +/- (sigma/sqrt(n)) * q(1 - alpha/2 + delta_n),
  or the whole real line when delta_n >= alpha/2;
* unknown variance: mean +/- (sigma_hat/sqrt(n)) * C_n * q(arg) with
  arg = 1 - alpha/2 + delta_n + nu/2,
  nu = exp(-n (1 - 1/a_n)^2 / (2K)) controlling the downward deviation of
  the variance estimator, and C_n = (1/a_n - q(arg)^2/n)^(-1/2),
  or the whole real line when arg >= Phi(sqrt(n/a_n)).

The informative branch exists only for levels above the feasibility boundary;
``feasible_a_interval``, ``optimize_a``, and ``alpha_min`` expose that
machinery.  The variance estimator uses divisor n throughout; the Student
baseline applies its sqrt(n/(n-1)) correction explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np
from scipy.special import betainc, betaincinv

from .edgeworth import BerryEsseen, DeltaProvider, delta_of
from .errors import (
    ConfigError,
    DataError,
    DegenerateSampleError,
    DomainError,
    FeasibilityError,
    InsufficientDataError,
    InvariantError,
)
from .rules import OPTIMIZED, OptimizedRule, PowerRule
from .specialfn import std_normal_cdf, std_normal_quantile

__all__ = [
    "ConfidenceInterval",
    "Sample",
    "KnownVariance",
    "UnknownVariance",
    "MeanCiConfig",
    "ci_clt",
    "ci_student",
    "ci_chebyshev",
    "ci_hoeffding",
    "nu_var",
    "ci_known_variance",
    "ci_unknown_variance",
    "feasible_a_interval",
    "optimize_a",
    "alpha_min",
    "sample_kurtosis",
    "student_quantile",
    "student_cdf",
    "unknown_variance_width_factor",
]

ARule = Union[Callable[[int], float], OptimizedRule]

#: Conventional fixed tuning rule a_n = 1 + n^(-1/5); used as the default and
#: always seeded into optimizer grids so optimized choices dominate it.
DEFAULT_A_RULE = PowerRule(1.0, 1.0, -0.2)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A bounded interval or the whole real line, never +/-inf endpoints."""

    level: float
    method: str
    lower: float | None = None
    upper: float | None = None
    whole_line: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise DomainError(f"confidence level must be in (0,1), got {self.level!r}")
        if self.whole_line:
            if self.lower is not None or self.upper is not None:
                raise InvariantError("whole-line interval cannot carry endpoints")
            return
        if self.lower is None or self.upper is None:
            raise InvariantError("bounded interval requires both endpoints")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise InvariantError("bounded interval endpoints must be finite")
        if self.lower > self.upper:
            raise InvariantError(f"lower {self.lower!r} exceeds upper {self.upper!r}")

    @classmethod
    def bounded(cls, lower: float, upper: float, level: float, method: str) -> "ConfidenceInterval":
        return cls(level=level, method=method, lower=float(lower), upper=float(upper))

    @classmethod
    def whole(cls, level: float, method: str) -> "ConfidenceInterval":
        return cls(level=level, method=method, whole_line=True)

    @property
    def width(self) -> float | None:
        if self.whole_line:
            return None
        return self.upper - self.lower

    @property
    def is_degenerate(self) -> bool:
        return not self.whole_line and self.lower == self.upper

    def contains(self, x: float) -> bool:
        if self.whole_line:
            return True
        return self.lower <= x <= self.upper


@dataclass(frozen=True)
class Sample:
    """An i.i.d. univariate sample; the variance estimator uses divisor n."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size < 1:
            raise InsufficientDataError("sample must contain at least one value")
        if not np.all(np.isfinite(v)):
            raise DataError("sample values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @cached_property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @cached_property
    def sigma_hat_sq(self) -> float:
        return float(np.mean((self.values - self.mean) ** 2))

    def sigma0_sq(self, hypothesized_mean: float) -> float:
        """Oracle variance estimator centered at a hypothesized mean."""
        return float(np.mean((self.values - hypothesized_mean) ** 2))


@dataclass(frozen=True)
class KnownVariance:
    sigma_sq: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma_sq) or self.sigma_sq <= 0.0:
            raise DomainError(f"known variance must be positive, got {self.sigma_sq!r}")


@dataclass(frozen=True)
class UnknownVariance:
    pass


@dataclass(frozen=True)
class MeanCiConfig:
    """Everything the finite-sample mean intervals need besides the data."""

    alpha: float
    kurtosis_bound: float
    delta: DeltaProvider = BerryEsseen()
    a_rule: ARule = DEFAULT_A_RULE
    variance: KnownVariance | UnknownVariance = UnknownVariance()

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0,1), got {self.alpha!r}")
        if not math.isfinite(self.kurtosis_bound) or self.kurtosis_bound < 1.0:
            raise ConfigError(
                f"kurtosis bound must be >= 1, got {self.kurtosis_bound!r}"
            )


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha!r}")
    return alpha


def ci_clt(sample: Sample, alpha: float) -> ConfidenceInterval:
    """Plain CLT interval mean +/- (sigma_hat/sqrt(n)) q(1-alpha/2)."""
    alpha = _check_alpha(alpha)
    if sample.n < 2:
        raise InsufficientDataError("CLT interval needs n >= 2")
    half = (
        math.sqrt(sample.sigma_hat_sq)
        / math.sqrt(sample.n)
        * std_normal_quantile(1.0 - alpha / 2.0)
    )
    return ConfidenceInterval.bounded(
        sample.mean - half, sample.mean + half, 1.0 - alpha, "clt"
    )


def student_cdf(t: float, df: int) -> float:
    """CDF of the Student distribution with df degrees of freedom."""
    if df < 1:
        raise DomainError(f"degrees of freedom must be >= 1, got {df}")
    t = float(t)
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * float(betainc(0.5 * df, 0.5, x))
    return 1.0 - tail if t > 0 else tail


def student_quantile(p: float, df: int) -> float:
    """Student quantile via the inverse regularized incomplete beta."""
    if df < 1:
        raise DomainError(f"degrees of freedom must be >= 1, got {df}")
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"student_quantile requires 0 < p < 1, got {p!r}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_quantile(1.0 - p, df)
    x = float(betaincinv(0.5 * df, 0.5, 2.0 * (1.0 - p)))
    return math.sqrt(df * (1.0 - x) / x)


def ci_student(sample: Sample, alpha: float) -> ConfidenceInterval:
    """Student baseline with the unbiased-variance correction sqrt(n/(n-1))."""
    alpha = _check_alpha(alpha)
    n = sample.n
    if n < 2:
        raise InsufficientDataError("Student interval needs n >= 2")
    s = math.sqrt(sample.sigma_hat_sq * n / (n - 1))
    half = student_quantile(1.0 - alpha / 2.0, n - 1) * s / math.sqrt(n)
    return ConfidenceInterval.bounded(
        sample.mean - half, sample.mean + half, 1.0 - alpha, "student"
    )


def ci_chebyshev(sample: Sample, alpha: float, var_bound: float) -> ConfidenceInterval:
    """Bienayme-Chebyshev interval mean +/- sqrt(M) / sqrt(alpha n)."""
    alpha = _check_alpha(alpha)
    if not math.isfinite(var_bound) or var_bound <= 0.0:
        raise DomainError(f"variance bound must be positive, got {var_bound!r}")
    half = math.sqrt(var_bound) / math.sqrt(alpha * sample.n)
    return ConfidenceInterval.bounded(
        sample.mean - half, sample.mean + half, 1.0 - alpha, "chebyshev"
    )


def ci_hoeffding(
    sample: Sample, alpha: float, support_lower: float, support_upper: float
) -> ConfidenceInterval:
    """Hoeffding interval mean +/- ((b-a)/2) sqrt(2 ln(2/alpha)) / sqrt(n)."""
    alpha = _check_alpha(alpha)
    if not support_lower < support_upper:
        raise DomainError(
            f"support must satisfy a < b, got [{support_lower!r}, {support_upper!r}]"
        )
    lo = float(np.min(sample.values))
    hi = float(np.max(sample.values))
    if lo < support_lower or hi > support_upper:
        raise DataError(
            f"sample range [{lo}, {hi}] escapes the declared support "
            f"[{support_lower}, {support_upper}]"
        )
    half = (
        (support_upper - support_lower)
        / 2.0
        * math.sqrt(2.0 * math.log(2.0 / alpha))
        / math.sqrt(sample.n)
    )
    return ConfidenceInterval.bounded(
        sample.mean - half, sample.mean + half, 1.0 - alpha, "hoeffding"
    )


def nu_var(a: float, n: int, kurtosis_bound: float) -> float:
    """Lower-deviation control exp(-n (1 - 1/a)^2 / (2K)) for the variance ratio."""
    a = float(a)
    if not math.isfinite(a) or a <= 1.0:
        raise DomainError(f"tuning parameter a must exceed 1, got {a!r}")
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    if kurtosis_bound < 1.0:
        raise DomainError(f"kurtosis bound must be >= 1, got {kurtosis_bound!r}")
    return math.exp(-n * (1.0 - 1.0 / a) ** 2 / (2.0 * kurtosis_bound))


def ci_known_variance(
    sample: Sample, sigma_known: float, cfg: MeanCiConfig
) -> ConfidenceInterval:
    """Finite-sample-valid interval when the variance is known.

    Whole real line exactly when delta_n >= alpha/2; otherwise the CLT
    interval with the quantile argument enlarged by delta_n.
    """
    if not math.isfinite(sigma_known) or sigma_known <= 0.0:
        raise DomainError(f"sigma_known must be positive, got {sigma_known!r}")
    if not isinstance(cfg.variance, KnownVariance):
        raise ConfigError("ci_known_variance requires cfg.variance = KnownVariance")
    n = sample.n
    delta = delta_of(cfg.delta, n, cfg.kurtosis_bound)
    if delta >= cfg.alpha / 2.0:
        return ConfidenceInterval.whole(1.0 - cfg.alpha, "known-variance")
    half = (
        sigma_known
        / math.sqrt(n)
        * std_normal_quantile(1.0 - cfg.alpha / 2.0 + delta)
    )
    return ConfidenceInterval.bounded(
        sample.mean - half, sample.mean + half, 1.0 - cfg.alpha, "known-variance"
    )


def _resolve_a(cfg: MeanCiConfig, n: int) -> float | None:
    """The tuning value a_n for a sample size, or None when optimization finds
    no feasible value (the interval is then the whole real line for every a)."""
    if isinstance(cfg.a_rule, OptimizedRule):
        try:
            return optimize_a(n, cfg.alpha, cfg.kurtosis_bound, cfg.delta)
        except FeasibilityError:
            return None
    a = float(cfg.a_rule(n))
    if not math.isfinite(a) or a <= 1.0:
        raise ConfigError(f"a_rule({n}) = {a!r}; fixed rules must return a > 1")
    return a


def ci_unknown_variance(sample: Sample, cfg: MeanCiConfig) -> ConfidenceInterval:
    """Finite-sample-valid interval with estimated variance.

    Bounded exactly when 1 - alpha/2 + delta_n + nu/2 < Phi(sqrt(n/a_n)); the
    feasibility condition also guarantees the C_n radicand 1/a - q^2/n is
    positive, which is asserted rather than assumed.
    """
    if not isinstance(cfg.variance, UnknownVariance):
        raise ConfigError("ci_unknown_variance requires cfg.variance = UnknownVariance")
    n = sample.n
    level = 1.0 - cfg.alpha
    a = _resolve_a(cfg, n)
    if a is None:
        return ConfidenceInterval.whole(level, "unknown-variance")
    delta = delta_of(cfg.delta, n, cfg.kurtosis_bound)
    nu = nu_var(a, n, cfg.kurtosis_bound)
    arg = 1.0 - cfg.alpha / 2.0 + delta + nu / 2.0
    if arg >= std_normal_cdf(math.sqrt(n / a)):
        return ConfidenceInterval.whole(level, "unknown-variance")
    q = std_normal_quantile(arg)
    radicand = 1.0 / a - q * q / n
    if radicand <= 0.0:
        raise InvariantError(
            "C_n radicand is not positive although the feasibility condition "
            f"held (a={a!r}, n={n}, q={q!r})"
        )
    c_n = radicand**-0.5
    half = math.sqrt(sample.sigma_hat_sq) / math.sqrt(n) * c_n * q
    return ConfidenceInterval.bounded(
        sample.mean - half, sample.mean + half, level, "unknown-variance"
    )


def _feasibility_gap(a: float, n: int, alpha: float, kurtosis_bound: float, delta: float) -> float:
    """g(a) = 1 - alpha/2 + delta + nu(a)/2 - Phi(sqrt(n/a)); feasible iff < 0."""
    return (
        1.0
        - alpha / 2.0
        + delta
        + nu_var(a, n, kurtosis_bound) / 2.0
        - std_normal_cdf(math.sqrt(n / a))
    )


#: Log-spaced scan points over (1, 1e6], dense both in a and in a - 1.
_SCAN_GRID = np.unique(
    np.concatenate(
        [
            np.exp(np.linspace(math.log(1.0 + 1e-9), math.log(1e6), 512)),
            1.0 + np.exp(np.linspace(math.log(1e-9), math.log(1e6 - 1.0), 512)),
        ]
    )
)
_SCAN_GRID.setflags(write=False)


def feasible_a_interval(
    n: int, alpha: float, kurtosis_bound: float, delta: DeltaProvider
) -> tuple[float, float] | None:
    """The open interval of tuning values a > 1 with an informative interval.

    Scans a log-spaced grid over (1, 1e6] (extended upward geometrically when
    the boundary itself is feasible), then locates both endpoints by bisection
    to relative tolerance 1e-10.  Returns None when no grid point is feasible.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise DomainError(f"feasible_a_interval requires alpha in (0, 1/2), got {alpha!r}")
    d = delta_of(delta, n, kurtosis_bound)

    def gap(a: float) -> float:
        return _feasibility_gap(a, n, alpha, kurtosis_bound, d)

    grid = _SCAN_GRID
    values = np.array([gap(float(a)) for a in grid])
    feasible = np.nonzero(values < 0.0)[0]
    if feasible.size == 0:
        return None
    first = int(feasible[0])
    last = int(feasible[-1])

    lo_bracket = (float(grid[first - 1]) if first > 0 else 1.0 + 1e-14, float(grid[first]))
    a_low = _bisect_to_feasible(gap, lo_bracket[0], lo_bracket[1], descending=True)

    hi = float(grid[last])
    if last == grid.size - 1:
        step = hi
        while gap(hi) < 0.0:
            step *= 2.0
            hi = step
            if hi > 1e18:
                raise InvariantError("feasible region failed to close below a = 1e18")
        a_high = _bisect_to_feasible(gap, float(grid[last]), hi, descending=False)
    else:
        a_high = _bisect_to_feasible(gap, float(grid[last]), float(grid[last + 1]), descending=False)
    return a_low, a_high


def _bisect_to_feasible(
    gap: Callable[[float], float], lo: float, hi: float, *, descending: bool
) -> float:
    """Bisect a sign change of g between lo and hi to relative width 1e-10.

    ``descending=True`` means g goes + -> - left to right (the lower endpoint);
    otherwise - -> + (the upper endpoint).
    """
    for _ in range(200):
        if hi - lo <= 1e-10 * hi:
            break
        mid = 0.5 * (lo + hi)
        if (gap(mid) < 0.0) == descending:
            hi = mid
        else:
            lo = mid
    # return the feasible side so downstream evaluations stay informative
    return hi if descending else lo


def _width_factor(
    a: float, n: int, alpha: float, kurtosis_bound: float, delta: float
) -> float:
    """C_n(a) * q(arg), the data-free width multiplier; +inf when infeasible."""
    if a <= 1.0:
        return math.inf
    nu = nu_var(a, n, kurtosis_bound)
    arg = 1.0 - alpha / 2.0 + delta + nu / 2.0
    if arg >= std_normal_cdf(math.sqrt(n / a)):
        return math.inf
    q = std_normal_quantile(arg)
    radicand = 1.0 / a - q * q / n
    if radicand <= 0.0:
        return math.inf
    return q / math.sqrt(radicand)


def _golden_min(
    fn: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Golden-section minimization; returns (argmin, min)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = c if fc < fd else d
    return x, min(fc, fd)


@lru_cache(maxsize=1024)
def _optimize_a_cached(
    n: int, alpha: float, kurtosis_bound: float, delta: DeltaProvider
) -> float:
    d = delta_of(delta, n, kurtosis_bound)

    def width(a: float) -> float:
        return _width_factor(a, n, alpha, kurtosis_bound, d)

    feasible = feasible_a_interval(n, alpha, kurtosis_bound, delta)
    if feasible is None:
        raise FeasibilityError(
            f"no tuning value a > 1 is feasible at (n={n}, alpha={alpha}, "
            f"K={kurtosis_bound}) under provider {delta.label!r}"
        )
    a_low, a_high = feasible
    inner = np.exp(np.linspace(math.log(a_low), math.log(a_high), 258))[1:-1]
    candidates = list(inner)
    conventional = DEFAULT_A_RULE(n)
    if a_low < conventional < a_high:
        candidates.append(conventional)
    candidates.sort()
    widths = [width(a) for a in candidates]
    best = int(np.argmin(widths))
    bracket_lo = candidates[best - 1] if best > 0 else a_low
    bracket_hi = candidates[best + 1] if best + 1 < len(candidates) else a_high
    refined, refined_w = _golden_min(width, bracket_lo, bracket_hi, tol=1e-8)
    if refined_w <= widths[best]:
        return float(refined)
    return float(candidates[best])


def optimize_a(
    n: int, alpha: float, kurtosis_bound: float, delta: DeltaProvider
) -> float:
    """Width-minimizing tuning value a over the feasible interval.

    Coarse log grid (over 200 points, always containing the conventional
    1 + n^(-1/5) when feasible) followed by golden-section refinement to an
    argument tolerance of 1e-8; the result's width never exceeds that of any
    grid point.  Raises FeasibilityError when the feasible interval is empty.
    """
    return _optimize_a_cached(int(n), float(alpha), float(kurtosis_bound), delta)


def _alpha_min_at(a: float, n: int, kurtosis_bound: float, delta: float) -> float:
    return 2.0 * (
        1.0
        - std_normal_cdf(math.sqrt(n / a))
        + delta
        + nu_var(a, n, kurtosis_bound) / 2.0
    )


def alpha_min(
    n: int, kurtosis_bound: float, a_rule: ARule, delta: DeltaProvider
) -> float:
    """Smallest nominal alpha with an informative unknown-variance interval.

    Closed form 2 (1 - Phi(sqrt(n/a)) + delta_n + nu(a)/2) at a fixed rule's
    a; for the optimized rule, the infimum of that expression over a > 1 by
    grid search plus golden-section refinement.  Clamped to 1.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    d = delta_of(delta, n, kurtosis_bound)
    if not isinstance(a_rule, OptimizedRule):
        a = float(a_rule(n))
        if not math.isfinite(a) or a <= 1.0:
            raise ConfigError(f"a_rule({n}) = {a!r}; fixed rules must return a > 1")
        return min(1.0, _alpha_min_at(a, n, kurtosis_bound, d))

    def objective(a: float) -> float:
        return _alpha_min_at(a, n, kurtosis_bound, d)

    grid = list(_SCAN_GRID)
    conventional = DEFAULT_A_RULE(n)
    grid.append(conventional)
    grid.sort()
    values = [objective(a) for a in grid]
    best = int(np.argmin(values))
    lo = grid[best - 1] if best > 0 else 1.0 + 1e-14
    hi = grid[best + 1] if best + 1 < len(grid) else grid[best] * 2.0
    refined, refined_v = _golden_min(objective, lo, hi, tol=1e-10)
    return min(1.0, min(values[best], refined_v))


def unknown_variance_width_factor(n: int, cfg: MeanCiConfig) -> float | None:
    """C_n q(1 - alpha/2 + delta + nu/2): half-width per unit sigma_hat/sqrt(n).

    Deterministic given (n, cfg) because the data enters the interval only
    through sigma_hat.  None when the configuration is in the whole-real-line
    regime at this n.
    """
    a = _resolve_a(cfg, n)
    if a is None:
        return None
    d = delta_of(cfg.delta, n, cfg.kurtosis_bound)
    w = _width_factor(a, n, cfg.alpha, cfg.kurtosis_bound, d)
    return None if math.isinf(w) else w


def sample_kurtosis(sample: Sample, inflation: float = 0.0) -> float:
    """Plug-in kurtosis m4 / sigma_hat^4, optionally inflated by (1 + M/sqrt(n)).

    The inflation multiplier trades tightness for robustness of the plug-in;
    the default 0 reproduces the raw estimate.
    """
    if inflation < 0.0:
        raise DomainError(f"inflation must be >= 0, got {inflation!r}")
    var = sample.sigma_hat_sq
    if var <= 0.0:
        raise DegenerateSampleError("kurtosis undefined for a zero-variance sample")
    centered = sample.values - sample.mean
    m4 = float(np.mean(centered**4))
    k = m4 / (var * var)
    return k * (1.0 + inflation / math.sqrt(sample.n))
