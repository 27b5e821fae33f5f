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
machinery.  One kernel evaluates nu, the feasibility excess and the width
multiplier C_n q at a float or a numpy array of a, so the searches and the
interval decide feasibility with the same arithmetic: each search is one
array scan of a grid followed by scalar bisection or golden-section
refinement on that kernel.  The variance estimator uses divisor n
throughout; the Student baseline applies its sqrt(n/(n-1)) correction
explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np
from scipy.special import betainc, betaincinv, ndtr, ndtri

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
from .specialfn import std_normal_quantile

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
        if not np.isfinite(v).all():
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


def _root(x):
    """Correctly rounded square root of a float, or of each entry of an array."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _sigma_hat_half_width(n: int, factor: float) -> Callable:
    """sigma_hat^2 -> (sigma_hat / sqrt(n)) factor, at one sigma_hat^2 or an
    array of them: the half-width of the CLT and unknown-variance intervals."""
    return lambda sigma_hat_sq: _root(sigma_hat_sq) / math.sqrt(n) * factor


def _clt_half_width(n: int, alpha: float) -> Callable:
    """The CLT half-width as a function of sigma_hat^2 at sample size n."""
    alpha = _check_alpha(alpha)
    if n < 2:
        raise InsufficientDataError("CLT interval needs n >= 2")
    return _sigma_hat_half_width(n, std_normal_quantile(1.0 - alpha / 2.0))


def ci_clt(sample: Sample, alpha: float) -> ConfidenceInterval:
    """Plain CLT interval mean +/- (sigma_hat/sqrt(n)) q(1-alpha/2)."""
    half = _clt_half_width(sample.n, alpha)(sample.sigma_hat_sq)
    return ConfidenceInterval.bounded(
        sample.mean - half, sample.mean + half, 1.0 - float(alpha), "clt"
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


def _student_half_width(n: int, alpha: float) -> Callable:
    """The Student half-width t(1-alpha/2, n-1) sqrt(sigma_hat^2 n/(n-1)) /
    sqrt(n) as a function of sigma_hat^2 at sample size n."""
    alpha = _check_alpha(alpha)
    if n < 2:
        raise InsufficientDataError("Student interval needs n >= 2")
    t = student_quantile(1.0 - alpha / 2.0, n - 1)
    return lambda sigma_hat_sq: t * _root(sigma_hat_sq * n / (n - 1)) / math.sqrt(n)


def ci_student(sample: Sample, alpha: float) -> ConfidenceInterval:
    """Student baseline with the unbiased-variance correction sqrt(n/(n-1))."""
    half = _student_half_width(sample.n, alpha)(sample.sigma_hat_sq)
    return ConfidenceInterval.bounded(
        sample.mean - half, sample.mean + half, 1.0 - float(alpha), "student"
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
    return float(_tuning_terms(a, n, kurtosis_bound, 0.0)[0])


def _known_variance_half_width(n: int, sigma_known: float, cfg: MeanCiConfig) -> float | None:
    """The known-variance half-width (sigma/sqrt(n)) q(1 - alpha/2 + delta_n)
    at sample size n; None when delta_n >= alpha/2 makes the interval the
    whole real line."""
    if not math.isfinite(sigma_known) or sigma_known <= 0.0:
        raise DomainError(f"sigma_known must be positive, got {sigma_known!r}")
    if not isinstance(cfg.variance, KnownVariance):
        raise ConfigError("ci_known_variance requires cfg.variance = KnownVariance")
    if not math.isclose(sigma_known, math.sqrt(cfg.variance.sigma_sq), rel_tol=1e-12):
        raise ConfigError(
            f"sigma_known = {sigma_known!r} disagrees with the configured known "
            f"variance {cfg.variance.sigma_sq!r}"
        )
    delta = delta_of(cfg.delta, n, cfg.kurtosis_bound)
    if delta >= cfg.alpha / 2.0:
        return None
    return sigma_known / math.sqrt(n) * std_normal_quantile(1.0 - cfg.alpha / 2.0 + delta)


def ci_known_variance(
    sample: Sample, sigma_known: float, cfg: MeanCiConfig
) -> ConfidenceInterval:
    """Finite-sample-valid interval when the variance is known.

    Whole real line exactly when delta_n >= alpha/2; otherwise the CLT
    interval with the quantile argument enlarged by delta_n.  ``sigma_known``
    must match ``cfg.variance.sigma_sq`` to a relative 1e-12.
    """
    half = _known_variance_half_width(sample.n, sigma_known, cfg)
    if half is None:
        return ConfidenceInterval.whole(1.0 - cfg.alpha, "known-variance")
    return ConfidenceInterval.bounded(
        sample.mean - half, sample.mean + half, 1.0 - cfg.alpha, "known-variance"
    )


def _resolve_a(cfg: MeanCiConfig, n: int) -> float | None:
    """The tuning value a_n for a sample size, or None when optimization finds
    no feasible value (the interval is then the whole real line for every a)."""
    if isinstance(cfg.a_rule, OptimizedRule):
        return _optimize_a_cached(
            int(n), float(cfg.alpha), float(cfg.kurtosis_bound), cfg.delta
        )
    a = float(cfg.a_rule(n))
    if not math.isfinite(a) or a <= 1.0:
        raise ConfigError(f"a_rule({n}) = {a!r}; fixed rules must return a > 1")
    return a


def _unknown_variance_half_width(n: int, cfg: MeanCiConfig) -> Callable | None:
    """The unknown-variance half-width (sigma_hat/sqrt(n)) times
    ``unknown_variance_width_factor`` as a function of sigma_hat^2 at sample
    size n; None in the whole-real-line regime."""
    if not isinstance(cfg.variance, UnknownVariance):
        raise ConfigError("ci_unknown_variance requires cfg.variance = UnknownVariance")
    factor = unknown_variance_width_factor(n, cfg)
    return None if factor is None else _sigma_hat_half_width(n, factor)


def ci_unknown_variance(sample: Sample, cfg: MeanCiConfig) -> ConfidenceInterval:
    """Finite-sample-valid interval with estimated variance.

    Bounded exactly when 1 - alpha/2 + delta_n + nu/2 < Phi(sqrt(n/a_n)); the
    half-width is (sigma_hat/sqrt(n)) times ``unknown_variance_width_factor``.
    """
    level = 1.0 - cfg.alpha
    half_width = _unknown_variance_half_width(sample.n, cfg)
    if half_width is None:
        return ConfidenceInterval.whole(level, "unknown-variance")
    half = half_width(sample.sigma_hat_sq)
    return ConfidenceInterval.bounded(
        sample.mean - half, sample.mean + half, level, "unknown-variance"
    )


def _tuning_terms(
    a: float | np.ndarray, n: int, kurtosis_bound: float, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """(nu(a), excess(a)) at a float or an array of tuning values a > 1, with
    excess(a) = 1 - Phi(sqrt(n/a)) + delta_n + nu(a)/2.

    At level alpha, a is feasible (the unknown-variance interval is bounded)
    exactly when the gap excess(a) - alpha/2 is negative, so 2 excess(a) is
    the smallest level with a bounded interval at this a.
    """
    nu = np.exp(-n * (1.0 - 1.0 / a) ** 2 / (2.0 * kurtosis_bound))
    return nu, 1.0 - ndtr(np.sqrt(n / a)) + delta + nu / 2.0


def _width_multiplier(
    a: float | np.ndarray, n: int, alpha: float, kurtosis_bound: float, delta: float
) -> float | np.ndarray:
    """C_n(a) q(arg) with arg = 1 - alpha/2 + delta_n + nu(a)/2, at a float or
    an array of a > 1: the half-width per unit sigma_hat/sqrt(n), +inf where a
    is infeasible.

    Feasibility gives q(arg) < sqrt(n/a), hence a positive C_n radicand
    1/a - q^2/n; that is asserted (InvariantError) rather than assumed.  A
    float takes a scalar path, without the masks and reductions of an array.
    """
    nu, excess = _tuning_terms(a, n, kurtosis_bound, delta)
    feasible = excess < alpha / 2.0
    scalar = not isinstance(a, np.ndarray)
    if scalar and not feasible:
        return math.inf
    a_in, nu_in = (a, nu) if scalar else (a[feasible], nu[feasible])
    q = ndtri(1.0 - alpha / 2.0 + delta + nu_in / 2.0)
    radicand = 1.0 / a_in - q * q / n
    if (radicand <= 0.0) if scalar else (radicand <= 0.0).any():
        raise InvariantError(
            "C_n radicand is not positive although the feasibility condition "
            f"held (a={np.extract(radicand <= 0.0, a_in)}, n={n}, alpha={alpha!r})"
        )
    if scalar:
        return float(q / math.sqrt(radicand))
    width = np.full(a.shape, np.inf)
    width[feasible] = q / np.sqrt(radicand)
    return width


def _grid_then_golden(
    fn: Callable, grid: np.ndarray, lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Minimize fn: argmin of one array evaluation over the sorted grid, then
    golden-section search between the argmin's grid neighbours (``lo``/``hi``
    past the ends) down to a bracket of width tol.

    Returns (argmin, min); the refined point replaces the grid's best only
    when it is no worse.
    """
    values = fn(grid)
    best = int(np.argmin(values))
    a = float(grid[best - 1]) if best > 0 else lo
    b = float(grid[best + 1]) if best + 1 < grid.size else hi
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
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
    x, fx = (c, fc) if fc < fd else (d, fd)
    if fx <= values[best]:
        return x, float(fx)
    return float(grid[best]), float(values[best])


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

    Evaluates the feasibility gap on a log-spaced grid over (1, 1e6] in one
    array call (extending upward geometrically when the boundary itself is
    feasible), then locates both endpoints by scalar bisection on the same gap
    to relative tolerance 1e-10.  Returns None when no grid point is feasible.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise DomainError(f"feasible_a_interval requires alpha in (0, 1/2), got {alpha!r}")
    d = delta_of(delta, n, kurtosis_bound)

    def gap(a):
        return _tuning_terms(a, n, kurtosis_bound, d)[1] - alpha / 2.0

    grid = _SCAN_GRID
    feasible = np.nonzero(gap(grid) < 0.0)[0]
    if feasible.size == 0:
        return None
    first, last = int(feasible[0]), int(feasible[-1])

    lo_bracket = (float(grid[first - 1]) if first > 0 else 1.0 + 1e-14, float(grid[first]))
    a_low = _bisect_to_feasible(gap, lo_bracket[0], lo_bracket[1], descending=True)

    if last == grid.size - 1:
        hi = float(grid[last])
        while gap(hi) < 0.0:
            hi *= 2.0
            if hi > 1e18:
                raise InvariantError("feasible region failed to close below a = 1e18")
    else:
        hi = float(grid[last + 1])
    a_high = _bisect_to_feasible(gap, float(grid[last]), hi, descending=False)
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


@lru_cache(maxsize=1024)
def _optimize_a_cached(
    n: int, alpha: float, kurtosis_bound: float, delta: DeltaProvider
) -> float | None:
    """optimize_a's search; None when no a is feasible, so that failed
    searches are cached too."""
    d = delta_of(delta, n, kurtosis_bound)
    feasible = feasible_a_interval(n, alpha, kurtosis_bound, delta)
    if feasible is None:
        return None
    a_low, a_high = feasible
    candidates = np.exp(np.linspace(math.log(a_low), math.log(a_high), 258))[1:-1]
    conventional = DEFAULT_A_RULE(n)
    if a_low < conventional < a_high:
        candidates = np.sort(np.append(candidates, conventional))

    def width(a):
        return _width_multiplier(a, n, alpha, kurtosis_bound, d)

    a_star, _ = _grid_then_golden(width, candidates, a_low, a_high, tol=1e-8)
    return a_star


def optimize_a(
    n: int, alpha: float, kurtosis_bound: float, delta: DeltaProvider
) -> float:
    """Width-minimizing tuning value a over the feasible interval.

    One array evaluation of the width on a 256-point log grid inside
    ``feasible_a_interval`` (plus the conventional 1 + n^(-1/5) when
    feasible), then scalar golden-section refinement between the best grid
    point's neighbours to an argument tolerance of 1e-8; the result's width
    never exceeds that of any grid point.  Results are cached per
    (n, alpha, K, provider), failed searches included.  Raises
    FeasibilityError when the feasible interval is empty.
    """
    a = _optimize_a_cached(int(n), float(alpha), float(kurtosis_bound), delta)
    if a is None:
        raise FeasibilityError(
            f"no tuning value a > 1 is feasible at (n={n}, alpha={alpha}, "
            f"K={kurtosis_bound}) under provider {delta.label!r}"
        )
    return a


def alpha_min(
    n: int, kurtosis_bound: float, a_rule: ARule, delta: DeltaProvider
) -> float:
    """Smallest nominal alpha with an informative unknown-variance interval.

    Closed form 2 (1 - Phi(sqrt(n/a)) + delta_n + nu(a)/2) at a fixed rule's
    a; for the optimized rule, the infimum of that expression over a > 1: one
    array evaluation over the scan grid of ``feasible_a_interval`` (plus the
    conventional 1 + n^(-1/5)), then scalar golden-section refinement between
    the best point's neighbours to tolerance 1e-10.  Clamped to 1.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    d = delta_of(delta, n, kurtosis_bound)

    def objective(a):
        return 2.0 * _tuning_terms(a, n, kurtosis_bound, d)[1]

    if not isinstance(a_rule, OptimizedRule):
        a = float(a_rule(n))
        if not math.isfinite(a) or a <= 1.0:
            raise ConfigError(f"a_rule({n}) = {a!r}; fixed rules must return a > 1")
        return min(1.0, float(objective(a)))
    grid = np.sort(np.append(_SCAN_GRID, DEFAULT_A_RULE(n)))
    _, value = _grid_then_golden(objective, grid, 1.0 + 1e-14, 2.0 * float(grid[-1]), tol=1e-10)
    return min(1.0, value)


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
    w = float(_width_multiplier(a, n, cfg.alpha, cfg.kurtosis_bound, d))
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
    # squaring twice avoids numpy's generic float power (about 40x slower)
    sq = centered * centered
    m4 = float(np.mean(sq * sq))
    k = m4 / (var * var)
    return k * (1.0 + inflation / math.sqrt(sample.n))
