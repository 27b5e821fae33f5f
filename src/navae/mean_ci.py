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
multiplier C_n q at a float or a numpy array of a, with the same arithmetic
either way, so the searches and the interval decide feasibility alike.  The
searches run on lanes, one per (K, delta_n) at a sample size n: each lane's
search is one array scan of a grid followed by bisection or golden-section
refinement, all lanes advancing in lockstep and each dropping out when it
converges, so a lane computes exactly what a search of its own would.  The
public searches are one-lane calls; the coverage study runs a lane per
replication's plug-in K.  The variance estimator uses divisor n
throughout; the Student baseline applies its sqrt(n/(n-1)) correction
explicitly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np
from scipy.special import betainc, betaincinv, ndtr, ndtri

from .edgeworth import BerryEsseen, DeltaProvider, _check_nk, delta_of
from .errors import (
    ConfigError,
    DataError,
    DegenerateSampleError,
    DomainError,
    FeasibilityError,
    InsufficientDataError,
    InvariantError,
)
from .rules import OptimizedRule, PowerRule, _rule_value
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
        """[lower, upper] of ``method``; an endpoint that overflows is a
        DataError naming the method (the data's scale, not an invariant)."""
        lower, upper = float(lower), float(upper)
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise DataError(f"{method} interval overflows: an endpoint is not finite; "
                            "rescale the data")
        return cls(level=level, method=method, lower=lower, upper=upper)

    @classmethod
    def whole(cls, level: float, method: str) -> "ConfidenceInterval":
        return cls(level=level, method=method, whole_line=True)

    @property
    def width(self) -> float | None:
        if self.whole_line:
            return None
        return self.upper - self.lower

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
    def _moments(self) -> tuple[float, float]:
        """(mean, sigma_hat^2): ``_centred_moments`` of the sample as a stack of
        one; a DataError when the sum of the finite values overflows."""
        (mean,), (var,) = _centred_moments(self.values[None].copy(), 2).tolist()
        if not math.isfinite(mean):
            raise DataError("sample mean overflows: the values are too large to average")
        return mean, var

    @property
    def mean(self) -> float:
        """The sample mean; a DataError when the sum of finite values overflows."""
        return self._moments[0]

    @property
    def sigma_hat_sq(self) -> float:
        """sigma_hat^2; +inf when the squared deviations overflow."""
        return self._moments[1]


def _centred_moments(rows: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` (1 to 3) of the mean, sigma_hat^2 and the fourth
    moment of the deviations of each row of ``rows`` (R, n), as (count, R).

    Each is ``np.add.reduce(..., axis=1) / n``, as ``np.mean`` takes it, of
    the values, their squared deviations and the squares of those, which
    overwrite ``rows`` in turn.  A moment that overflows is +inf or NaN, with
    no warning: the caller judges it.
    """
    n = rows.shape[1]
    moments = np.empty((count, len(rows)))
    with np.errstate(over="ignore", invalid="ignore"):
        means, *powers = moments
        np.divide(np.add.reduce(rows, axis=1), n, out=means)
        np.subtract(rows, means[:, None], out=rows)
        for power in powers:
            np.multiply(rows, rows, out=rows)
            np.divide(np.add.reduce(rows, axis=1), n, out=power)
    return moments


@dataclass(frozen=True)
class KnownVariance:
    """A known variance, given by its standard deviation sigma (sigma^2 itself
    may lie outside the float range when sigma does not)."""

    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma) or self.sigma <= 0.0:
            raise DomainError(f"sigma_known must be positive, got {self.sigma!r}")


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


def _check_inflation(inflation: float) -> None:
    """A plug-in inflation M must be finite and >= 0."""
    if not math.isfinite(inflation) or inflation < 0.0:
        raise DomainError(f"inflation must be >= 0, got {inflation!r}")


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


def _centered(
    sample: Sample, half_width: Callable | None, alpha: float, method: str, scaled: bool = True
):
    """mean +/- half_width(sigma_hat^2), or the whole line when half_width is
    None; endpoints that overflow are ``ConfidenceInterval.bounded``'s
    DataError.  When the half-width scales with sigma_hat (``scaled``), a
    sigma_hat^2 below the normal float range is a DataError unless the
    sample is constant: the squared deviations have underflowed, and the
    interval would be too narrow to cover."""
    level = 1.0 - float(alpha)
    if half_width is None:
        return ConfidenceInterval.whole(level, method)
    var = sample.sigma_hat_sq
    if scaled and var < sys.float_info.min and (sample.values != sample.values[0]).any():
        raise DataError(
            f"{method} interval: sigma_hat^2 = {var!r} underflows the float range; "
            "rescale the data"
        )
    half = half_width(var)
    return ConfidenceInterval.bounded(sample.mean - half, sample.mean + half, level, method)


def _clt_half_width(n: int, alpha: float) -> Callable:
    """The CLT half-width as a function of sigma_hat^2 at sample size n."""
    alpha = _check_alpha(alpha)
    if n < 2:
        raise InsufficientDataError("CLT interval needs n >= 2")
    return _sigma_hat_half_width(n, std_normal_quantile(1.0 - alpha / 2.0))


def ci_clt(sample: Sample, alpha: float) -> ConfidenceInterval:
    """Plain CLT interval mean +/- (sigma_hat/sqrt(n)) q(1-alpha/2)."""
    return _centered(sample, _clt_half_width(sample.n, alpha), alpha, "clt")


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
    return _centered(sample, _student_half_width(sample.n, alpha), alpha, "student")


def ci_chebyshev(sample: Sample, alpha: float, var_bound: float) -> ConfidenceInterval:
    """Bienayme-Chebyshev interval mean +/- sqrt(M) / sqrt(alpha n)."""
    alpha = _check_alpha(alpha)
    if not math.isfinite(var_bound) or var_bound <= 0.0:
        raise DomainError(f"variance bound must be positive, got {var_bound!r}")
    half = math.sqrt(var_bound) / math.sqrt(alpha * sample.n)
    return _centered(sample, lambda _: half, alpha, "chebyshev", scaled=False)


def ci_hoeffding(
    sample: Sample, alpha: float, support_lower: float, support_upper: float
) -> ConfidenceInterval:
    """Hoeffding interval mean +/- ((b-a)/2) sqrt(2 ln(2/alpha)) / sqrt(n)."""
    alpha = _check_alpha(alpha)
    if not (support_lower < support_upper and math.isfinite(support_upper - support_lower)):
        raise DomainError(
            f"support must satisfy a < b with a finite width b - a, got "
            f"[{support_lower!r}, {support_upper!r}]"
        )
    lo = float(np.min(sample.values))
    hi = float(np.max(sample.values))
    if lo < support_lower or hi > support_upper:
        raise DataError(
            f"sample range [{lo}, {hi}] escapes the declared support "
            f"[{support_lower}, {support_upper}]"
        )
    half = ((support_upper - support_lower) / 2.0 * math.sqrt(2.0 * math.log(2.0 / alpha))
            / math.sqrt(sample.n))
    return _centered(sample, lambda _: half, alpha, "hoeffding", scaled=False)


def nu_var(a: float, n: int, kurtosis_bound: float) -> float:
    """Lower-deviation control exp(-n (1 - 1/a)^2 / (2K)) for the variance ratio."""
    a = float(a)
    if not math.isfinite(a) or a <= 1.0:
        raise DomainError(f"tuning parameter a must exceed 1, got {a!r}")
    return float(_tuning_terms(a, *_check_nk(n, kurtosis_bound), 0.0)[0])


def _known_variance_factor(n: int, sigma_known: float, cfg: MeanCiConfig) -> float | None:
    """q(1 - alpha/2 + delta_n), the known-variance half-width per unit
    sigma/sqrt(n) at sample size n; None when delta_n >= alpha/2 makes the
    interval the whole real line."""
    if not math.isfinite(sigma_known) or sigma_known <= 0.0:
        raise DomainError(f"sigma_known must be positive, got {sigma_known!r}")
    if not isinstance(cfg.variance, KnownVariance):
        raise ConfigError("ci_known_variance requires cfg.variance = KnownVariance")
    if not math.isclose(sigma_known, cfg.variance.sigma, rel_tol=1e-12):
        raise ConfigError(
            f"sigma_known = {sigma_known!r} disagrees with the configured known "
            f"variance's sigma {cfg.variance.sigma!r}"
        )
    delta = delta_of(cfg.delta, n, cfg.kurtosis_bound)
    if delta >= cfg.alpha / 2.0:
        return None
    return std_normal_quantile(1.0 - cfg.alpha / 2.0 + delta)


def _known_variance_half_width(n: int, sigma_known: float, cfg: MeanCiConfig) -> Callable | None:
    """The known-variance half-width (sigma/sqrt(n)) ``_known_variance_factor``
    as a constant function of sigma_hat^2; None in the whole-real-line regime."""
    factor = _known_variance_factor(n, sigma_known, cfg)
    if factor is None:
        return None
    half = sigma_known / math.sqrt(n) * factor
    return lambda sigma_hat_sq: half


def ci_known_variance(
    sample: Sample, sigma_known: float, cfg: MeanCiConfig
) -> ConfidenceInterval:
    """Finite-sample-valid interval when the variance is known.

    Whole real line exactly when delta_n >= alpha/2; otherwise the CLT
    interval with the quantile argument enlarged by delta_n.  ``sigma_known``
    must match ``cfg.variance.sigma`` to a relative 1e-12.
    """
    return _centered(sample, _known_variance_half_width(sample.n, sigma_known, cfg), cfg.alpha,
                     "known-variance", scaled=False)


def _resolve_a(cfg: MeanCiConfig, n: int) -> float | None:
    """The tuning value a_n for a sample size, or None when optimization finds
    no feasible value (the interval is then the whole real line for every a)."""
    if isinstance(cfg.a_rule, OptimizedRule):
        return _optimize_a_cached(
            int(n), float(cfg.alpha), float(cfg.kurtosis_bound), cfg.delta
        )
    return _fixed_a(cfg.a_rule, n)


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
    return _centered(sample, _unknown_variance_half_width(sample.n, cfg), cfg.alpha,
                     "unknown-variance")


def _tuning_terms(
    a: float | np.ndarray, n: int, kurtosis_bound, delta
) -> tuple[np.ndarray, np.ndarray]:
    """(nu(a), excess(a)) at a float or an array of tuning values a > 1, with
    excess(a) = 1 - Phi(sqrt(n/a)) + delta_n + nu(a)/2; K and delta_n are
    floats or arrays that broadcast against a.  A grid of a shared by lanes
    of (K, delta_n) evaluates its K-free terms once, by broadcasting.  The
    square is a product, for a float as for an array (a float's ``** 2`` is
    libm's pow, which can differ from an array's square in the last ulp).

    At level alpha, a is feasible (the unknown-variance interval is bounded)
    exactly when the gap excess(a) - alpha/2 is negative, so 2 excess(a) is
    the smallest level with a bounded interval at this a.
    """
    s = 1.0 - 1.0 / a
    # -n s^2/(2K) as (-n/2) s^2/K: halving is exact, and 2K overflows above K = 9e307
    nu = np.exp((-0.5 * n) * (s * s) / kurtosis_bound)
    return nu, 1.0 - ndtr(np.sqrt(n / a)) + delta + nu / 2.0


def _width_multiplier(a, n: int, alpha: float, kurtosis_bound, delta) -> np.ndarray:
    """C_n(a) q(arg) with arg = 1 - alpha/2 + delta_n + nu(a)/2, at a float or
    an array of a > 1, with K and delta_n floats or arrays of a's shape: the
    half-width per unit sigma_hat/sqrt(n), +inf where a is infeasible.

    Feasibility gives q(arg) < sqrt(n/a), hence a positive C_n radicand
    1/a - q^2/n; that is asserted (InvariantError) rather than assumed.
    """
    a = np.asarray(a, dtype=float)
    nu, excess = _tuning_terms(a, n, kurtosis_bound, delta)
    feasible = excess < alpha / 2.0
    a_in, nu_in = a[feasible], nu[feasible]
    delta_in = delta[feasible] if isinstance(delta, np.ndarray) else delta
    q = ndtri(1.0 - alpha / 2.0 + delta_in + nu_in / 2.0)
    radicand = 1.0 / a_in - q * q / n
    if (radicand <= 0.0).any():
        raise InvariantError(
            "C_n radicand is not positive although the feasibility condition "
            f"held (a={a_in[radicand <= 0.0]}, n={n}, alpha={alpha!r})"
        )
    width = np.full(a.shape, np.inf)
    width[feasible] = q / np.sqrt(radicand)
    return width


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

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# The searches below run on lanes: lane l is the search at one n for the
# kurtosis bound k[l] and delta_n d[l].  Every lane runs exactly the
# arithmetic of a search of its own; the lanes only share numpy calls, and a
# lane drops out of the loops once it has converged.  The public functions
# are one-lane calls.


def _golden_lanes(fn: Callable, grid: np.ndarray, values: np.ndarray, lo, hi, tol: float):
    """Minimize each lane: the argmin of its row of ``values`` (fn on the
    sorted row of ``grid``), then golden-section search between that point's
    row neighbours (``lo``/``hi`` past the ends) down to a bracket of width
    tol.  ``fn(x, lanes)`` evaluates lane lanes[j] at x[j].

    Returns (argmin, min) per lane; the refined point replaces the grid's
    best only when it is no worse.
    """
    lanes = np.arange(len(values))
    best = np.argmin(values, axis=1)
    a = np.where(best > 0, grid[lanes, best - 1], lo)
    b = np.where(best + 1 < grid.shape[1], grid[lanes, np.minimum(best + 1, grid.shape[1] - 1)], hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = np.split(fn(np.concatenate([c, d]), np.concatenate([lanes, lanes])), 2)
    active = lanes[b - a > tol]
    while active.size:
        # the lanes with fc < fd keep [a, d] and take a new c; the others
        # keep [c, b] and take a new d
        left = fc[active] < fd[active]
        lft, rgt = active[left], active[~left]
        b[lft], d[lft], fd[lft] = d[lft], c[lft], fc[lft]
        a[rgt], c[rgt], fc[rgt] = c[rgt], d[rgt], fd[rgt]
        c[lft] = b[lft] - _INVPHI * (b[lft] - a[lft])
        d[rgt] = a[rgt] + _INVPHI * (b[rgt] - a[rgt])
        fx = fn(np.concatenate([c[lft], d[rgt]]), np.concatenate([lft, rgt]))
        fc[lft], fd[rgt] = fx[: lft.size], fx[lft.size :]
        active = active[b[active] - a[active] > tol]
    x, fx = np.where(fc < fd, c, d), np.where(fc < fd, fc, fd)
    grid_best, value_best = grid[lanes, best], values[lanes, best]
    keep = fx <= value_best
    return np.where(keep, x, grid_best), np.where(keep, fx, value_best)


def _bisect_lanes(gap: Callable, lo: np.ndarray, hi: np.ndarray, lanes: np.ndarray,
                  descending: np.ndarray) -> np.ndarray:
    """Bisect, for each j, a sign change of gap(., lanes[j]) between lo[j] and
    hi[j] to relative width 1e-10, in at most 200 halvings.

    ``descending[j]`` means g goes + -> - left to right (a lower endpoint);
    otherwise - -> + (an upper endpoint).  Returns the feasible side, so that
    downstream evaluations stay informative.
    """
    active = np.arange(lo.size)
    for _ in range(200):
        active = active[~(hi[active] - lo[active] <= 1e-10 * hi[active])]
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        down = (gap(mid, lanes[active]) < 0.0) == descending[active]
        hi[active[down]] = mid[down]
        lo[active[~down]] = mid[~down]
    return np.where(descending, hi, lo)


def _check_search_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise DomainError(f"feasible_a_interval requires alpha in (0, 1/2), got {alpha!r}")
    return alpha


def _feasible_lanes(n: int, alpha: float, k: np.ndarray, d: np.ndarray) -> tuple:
    """``feasible_a_interval`` of each lane: arrays (a_low, a_high), NaN in
    the lanes where no grid point is feasible."""
    alpha = _check_search_alpha(alpha)

    def gap(a, lanes):
        return _tuning_terms(a, n, k[lanes], d[lanes])[1] - alpha / 2.0

    grid = _SCAN_GRID
    excess = _tuning_terms(grid, n, k[:, None], d[:, None])[1]
    feasible = excess - alpha / 2.0 < 0.0
    lanes = np.nonzero(feasible.any(axis=1))[0]
    feasible = feasible[lanes]
    first = np.argmax(feasible, axis=1)
    last = grid.size - 1 - np.argmax(feasible[:, ::-1], axis=1)

    hi = grid[np.minimum(last + 1, grid.size - 1)]
    # lanes feasible at the top of the grid extend it geometrically
    rising = np.nonzero(last == grid.size - 1)[0]
    while rising.size:
        rising = rising[gap(hi[rising], lanes[rising]) < 0.0]
        hi[rising] *= 2.0
        if (hi[rising] > 1e18).any():
            raise InvariantError("feasible region failed to close below a = 1e18")
    # both endpoints of every lane in one lockstep bisection
    ends = _bisect_lanes(
        gap,
        np.concatenate([np.where(first > 0, grid[first - 1], 1.0 + 1e-14), grid[last]]),
        np.concatenate([grid[first], hi]),
        np.concatenate([lanes, lanes]),
        np.arange(2 * lanes.size) < lanes.size,
    )
    a_low, a_high = np.full(k.shape, np.nan), np.full(k.shape, np.nan)
    a_low[lanes], a_high[lanes] = np.split(ends, 2)
    return a_low, a_high


def feasible_a_interval(
    n: int, alpha: float, kurtosis_bound: float, delta: DeltaProvider
) -> tuple[float, float] | None:
    """The open interval of tuning values a > 1 with an informative interval.

    Evaluates the feasibility gap on a log-spaced grid over (1, 1e6] in one
    array call (extending upward geometrically when the boundary itself is
    feasible), then locates both endpoints by bisection on the same gap to
    relative tolerance 1e-10.  Returns None when no grid point is feasible.
    """
    _check_search_alpha(alpha)
    d = delta_of(delta, n, kurtosis_bound)
    a_low, a_high = _feasible_lanes(n, alpha, np.array([float(kurtosis_bound)]), np.array([d]))
    return None if math.isnan(a_low[0]) else (float(a_low[0]), float(a_high[0]))


def _optimize_lanes(n: int, alpha: float, k: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``optimize_a``'s search for each lane: the width-minimizing a, NaN in
    the lanes where no a is feasible."""
    a_low, a_high = _feasible_lanes(n, alpha, k, d)
    lanes = np.nonzero(~np.isnan(a_low))[0]
    a_star = np.full(k.shape, np.nan)
    if not lanes.size:
        return a_star
    lo, hi = a_low[lanes], a_high[lanes]
    # np.linspace(log lo, log hi, 258) per lane: its start + i * step, with
    # the last point set to the stop; logs by math.log, as a float's are
    start = np.array([math.log(x) for x in lo.tolist()])
    stop = np.array([math.log(x) for x in hi.tolist()])
    steps = np.arange(258.0) * ((stop - start) / 257)[:, None] + start[:, None]
    steps[:, -1] = stop
    # 256 candidates plus the conventional rule's a where it is feasible;
    # the other rows end in a duplicate of their largest candidate, whose
    # value is masked and whose place stands for hi
    candidates = np.exp(steps)[:, 1:-1]
    conventional = DEFAULT_A_RULE(n)
    seeded = (lo < conventional) & (conventional < hi)
    grid = np.sort(np.column_stack([candidates, np.where(seeded, conventional, candidates[:, -1])]))
    kl, dl = k[lanes], d[lanes]

    def width(a, rows):
        return _width_multiplier(a, n, alpha, kl[rows], dl[rows])

    values = width(grid, np.broadcast_to(np.arange(lanes.size)[:, None], grid.shape))
    values[~seeded, -1] = np.inf
    grid[~seeded, -1] = hi[~seeded]
    a_star[lanes] = _golden_lanes(width, grid, values, lo, hi, tol=1e-8)[0]
    return a_star


@lru_cache(maxsize=1024)
def _optimize_a_cached(
    n: int, alpha: float, kurtosis_bound: float, delta: DeltaProvider
) -> float | None:
    """optimize_a's search; None when no a is feasible, so that failed
    searches are cached too."""
    d = delta_of(delta, n, kurtosis_bound)
    a = float(_optimize_lanes(n, alpha, np.array([kurtosis_bound]), np.array([d]))[0])
    return None if math.isnan(a) else a


def optimize_a(
    n: int, alpha: float, kurtosis_bound: float, delta: DeltaProvider
) -> float:
    """Width-minimizing tuning value a over the feasible interval.

    One array evaluation of the width on a 256-point log grid inside
    ``feasible_a_interval`` (plus the conventional 1 + n^(-1/5) when
    feasible), then golden-section refinement between the best grid point's
    neighbours to an argument tolerance of 1e-8; the result's width never
    exceeds that of any grid point.  Results are cached per
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


def _fixed_a(a_rule: Callable[[int], float], n: int) -> float:
    a = _rule_value(a_rule, n, "a_rule")
    if not math.isfinite(a) or a <= 1.0:
        raise ConfigError(f"a_rule({n}) = {a!r}; fixed rules must return a > 1")
    return a


def _alpha_min_lanes(n: int, a_rule: ARule, k: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``alpha_min`` of each lane."""
    if not isinstance(a_rule, OptimizedRule):
        value = 2.0 * _tuning_terms(_fixed_a(a_rule, n), n, k, d)[1]
    else:
        grid = np.sort(np.append(_SCAN_GRID, DEFAULT_A_RULE(n)))
        values = 2.0 * _tuning_terms(grid, n, k[:, None], d[:, None])[1]

        def objective(a, lanes):
            return 2.0 * _tuning_terms(a, n, k[lanes], d[lanes])[1]

        grid = np.broadcast_to(grid, values.shape)
        value = _golden_lanes(objective, grid, values, 1.0 + 1e-14, 2.0 * grid[0, -1], tol=1e-10)[1]
    return np.where(value < 1.0, value, 1.0)


def alpha_min(
    n: int, kurtosis_bound: float, a_rule: ARule, delta: DeltaProvider
) -> float:
    """Smallest nominal alpha with an informative unknown-variance interval.

    Closed form 2 (1 - Phi(sqrt(n/a)) + delta_n + nu(a)/2) at a fixed rule's
    a; for the optimized rule, the infimum of that expression over a > 1: one
    array evaluation over the scan grid of ``feasible_a_interval`` (plus the
    conventional 1 + n^(-1/5)), then golden-section refinement between the
    best point's neighbours to tolerance 1e-10.  Clamped to 1.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    d = delta_of(delta, n, kurtosis_bound)
    return float(_alpha_min_lanes(n, a_rule, np.array([float(kurtosis_bound)]), np.array([d]))[0])


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


def _unknown_variance_lanes(
    n: int, alpha: float, a_rule: ARule, delta: DeltaProvider, k: np.ndarray, track: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """For an array of kurtosis bounds K >= 1 at sample size n, one lane
    search over all of them: each K's ``unknown_variance_width_factor``
    (+inf where it is None) and, when ``track``, its ``alpha_min`` (else
    None), bit for bit as the one-K functions give them."""
    d = np.array([delta_of(delta, n, kl) for kl in k.tolist()])
    if isinstance(a_rule, OptimizedRule):
        a = _optimize_lanes(n, alpha, k, d)
    else:
        a = np.full(k.shape, _fixed_a(a_rule, n))
    # a NaN a (no feasible a) fails the feasibility test: factor +inf
    factors = _width_multiplier(a, n, alpha, k, d)
    return factors, _alpha_min_lanes(n, a_rule, k, d) if track else None


def _plug_in_kurtosis(fourth, second_sq, n: int, inflation: float):
    """The plug-in kurtosis bound max(1, (m4 / sigma_hat^4)(1 + M/sqrt(n))) of n
    centred values, from fourth = m4 and second_sq = sigma_hat^4, at floats or
    arrays alike (a kurtosis is >= 1; the max absorbs last-ulp rounding).  NaN
    where fourth is not finite or second_sq is outside the normal float range,
    where the quotient is inaccurate (``_deviation_kurtosis`` rescales there)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.maximum(np.divide(fourth, second_sq) * (1.0 + inflation / math.sqrt(n)), 1.0)
    direct = np.isfinite(fourth) & (second_sq >= sys.float_info.min) & (second_sq < math.inf)
    return np.where(direct, k, math.nan)


def _means(a: np.ndarray):
    """The mean of each row (last axis) of ``a``, by ``np.mean``'s sum and
    division: one value for a 1-D array, and bit for bit that value for each
    row of a stack."""
    return np.add.reduce(a, axis=-1) / a.shape[-1]


def _deviation_kurtosis(x: np.ndarray, second_sq, inflation: float = 0.0):
    """``_plug_in_kurtosis`` of the deviations x, with second_sq the caller's
    rounding of mean(x^2)^2 > 0 (+inf when it overflows).  x is one sample
    (a float is returned) or a stack of rows with one second_sq each (an
    array is returned).  Outside the normal float range a row is first
    divided by its max|x|, which leaves the ratio unchanged.  A DataError if
    a row has overflowed."""
    rows = np.atleast_2d(x)
    with np.errstate(over="ignore"):
        # squaring twice avoids numpy's generic float power (about 40x slower)
        sq = rows * rows
        k = _plug_in_kurtosis(_means(sq * sq), second_sq, rows.shape[1], inflation)
    for r in np.flatnonzero(np.isnan(k)):
        scale = float(np.max(np.abs(rows[r])))
        if not math.isfinite(scale):
            raise DataError("fourth moment overflows: the deviations are too large to standardise")
        z_sq = np.square(rows[r] / scale)
        fourth, second = float(np.mean(z_sq * z_sq)), float(np.mean(z_sq))
        k[r] = _plug_in_kurtosis(fourth, second**2, rows.shape[1], inflation)
    return k if x.ndim > 1 else float(k[0])


def sample_kurtosis(sample: Sample, inflation: float = 0.0) -> float:
    """Plug-in kurtosis bound max(1, (m4 / sigma_hat^4)(1 + M/sqrt(n))), M >= 0.

    The inflation multiplier trades tightness for robustness of the plug-in;
    the default 0 reproduces the raw estimate, which does not depend on the
    scale of the data (``_deviation_kurtosis``).
    """
    _check_inflation(inflation)
    var = sample.sigma_hat_sq
    if var <= 0.0:
        raise DegenerateSampleError("kurtosis undefined for a zero-variance sample")
    return _deviation_kurtosis(sample.values - sample.mean, var * var, inflation)
