"""Heteroskedasticity-robust OLS inference with finite-sample guarantees.

The pipeline: least-squares fit through the pseudo-inverse of
S = n^-1 sum X_i X_i', the sandwich variance V = S^+ (n^-1 sum X_i X_i' e_i^2) S^+,
the asymptotic interval u'beta  +/-  q(1-alpha/2) sqrt(u'Vu/n), and the enlarged
interval whose half-width

    (sqrt(a_n) * q(1 - alpha/2 + nu_edg) * sqrt(u'Vu + |u|^2 R_var) + R_lin) / sqrt(n)

adds explicit linearization (R_lin) and variance-estimation (R_var) error
bounds evaluated at gamma = omega_n * alpha / 2, plus the quantile
perturbation nu_edg.  The half-width is the algebraically expanded form of
the "modified quantile" construction, which removes the 0/0 that the
ratio form develops when the variance term vanishes.

Below the threshold n0 (the last sample size at which either
n <= 2 K_reg/(omega_n alpha) or nu_edg >= alpha/2 holds) the interval is the
whole real line.  ``n_zero`` brackets each condition's last violation by
doubling n, then bisects the part of the bracket where the condition is
provably monotone (past a computed n*, for power-rule tunings with
nonpositive exponents and a delta bound that does not grow in n) and scans
the rest back one n at a time; both give the same integer.  Each condition's
result is cached on the inputs it reads: (alpha, tuning, K_reg) for the
first, (alpha, tuning, K_xi) for the second.

The four distribution-class constants (lambda_reg, K_reg, K_eps, K_xi) may
be fixed a priori or estimated by plug-in; plug-in trades the formal
finite-sample guarantee for practicality.

The fit, the plug-in bounds and the interval arithmetic are written once,
over a stack of R designs of one size (``_Fits``, ``_fit``, ``_resolved_rows``,
``_asymp_halves``, ``_edg_halves``): ``ols_fit``, ``resolve_bounds`` (and
``plug_in_bounds`` through it), ``ci_asymp`` and ``ci_edg`` are their case
R = 1, and the coverage-study harness (``dgp_sim``) hands them a block of
replications; ``_edg_halves`` and ``r_var`` read R_var's moments from the
stack, and ``OlsFit``'s arrays are views of its stack of one.
Every product of a stack is numpy's per-matrix BLAS or LAPACK call on the
layout a single design has, and every reduction runs along a contiguous
last axis, so each design's numbers are bit for bit those of a stack of one.
n_zero stays one (cached) scalar call per design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .edgeworth import BerryEsseen, DeltaProvider, delta_of
from .errors import (
    ConfigError,
    DataError,
    DegenerateSampleError,
    DomainError,
    FeasibilityError,
    UnboundedScanError,
)
from .linalg import _eigh_desc, _psd_sqrt_array, _pseudo_inverse_of, _symmetrized
from .mean_ci import (ConfidenceInterval, _check_alpha, _check_inflation, _deviation_kurtosis,
                      _fixed_a, _means)
from .rules import PowerRule, _rule_value
from .specialfn import std_normal_quantile

__all__ = [
    "BOUND_KEYS",
    "Design",
    "OlsFit",
    "PlugIn",
    "OlsBounds",
    "OlsTuning",
    "ols_fit",
    "ci_asymp",
    "r_lin",
    "r_var",
    "nu_edg",
    "n_zero",
    "ci_edg",
    "plug_in_bounds",
    "rate_r",
    "tuning_for_rate",
]

#: Hard cap for the n0 upward scan.
N_SCAN_CAP = 10**9


def _check_direction(u: np.ndarray, p: int) -> None:
    """A direction u of the target u'beta must be p finite values, not all zero."""
    if u.size != p:
        raise ConfigError(f"direction length {u.size} does not match p={p}")
    if not np.all(np.isfinite(u)) or not np.any(u != 0.0):
        raise DomainError("direction u must be finite and nonzero")


@dataclass(frozen=True)
class Design:
    """Regression data plus the direction u of the target functional u'beta."""

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        u = np.asarray(self.u, dtype=float).reshape(-1)
        if x.ndim != 2:
            raise DataError(f"design matrix must be 2-D, got shape {x.shape}")
        n, p = x.shape
        if p < 1 or n < p:
            raise DataError(f"need n >= p >= 1, got n={n}, p={p}")
        if y.size != n:
            raise DataError(f"outcome length {y.size} does not match n={n}")
        _check_direction(u, p)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DataError("design and outcome entries must be finite")
        # x in Fortran order: x.T is then the C-ordered (p, n) array that
        # ols_fit and plug_in_bounds take their products and row sums from
        for name, arr in (("x", x), ("y", y), ("u", u)):
            arr = arr.copy(order="F")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


class _Fits(NamedTuple):
    """Least-squares fits of a stack of R designs of one size n, every array
    with a leading axis of length R: x' as ``xt`` (R, p, n), C-ordered, the
    layout ``Design`` gives ``x.T``; S, its eigenvalues (descending), S^+,
    the sandwich middle n^-1 sum X_i X_i' e_i^2 and V (R, p, p), symmetrized;
    beta (R, p) and the residuals (R, n)."""

    xt: np.ndarray
    s: np.ndarray
    eigenvalues: np.ndarray
    s_dagger: np.ndarray
    beta: np.ndarray
    residuals: np.ndarray
    mid: np.ndarray
    v_hat: np.ndarray


def _fit(xt: np.ndarray, y: np.ndarray) -> _Fits:
    """Least-squares fits of finite designs x' (R, p, n), C-ordered, and y
    (R, n) via the pseudo-inverse (min-norm for singular S).

    S = x'x / n is BLAS's symmetric product of x' with its own transpose;
    x'y, the residuals and the sandwich middle are products with x' too.  A
    DataError when S, S^+, the sandwich middle or V is not finite (for any
    design of the stack).
    """
    n = xt.shape[-1]
    x = np.swapaxes(xt, -1, -2)
    # the designs are finite, but x'x can still overflow: _symmetrized rejects that
    s = _symmetrized(xt @ x / n)
    eigenvalues, eigenvectors = _eigh_desc(s)
    s_dagger = _pseudo_inverse_of(eigenvalues, eigenvectors)
    # a response that overflows here is the DataError below
    with np.errstate(over="ignore", invalid="ignore"):
        beta = (s_dagger @ (xt @ y[..., None] / n))[..., 0]
        residuals = y - (beta[..., None, :] @ xt)[..., 0, :]
        mid = (xt * (residuals * residuals)[..., None, :]) @ x / n
    if not np.isfinite(mid).all():
        raise DataError("OLS fit overflows: the squared residuals are too large; rescale the response")
    v_hat = _symmetrized(s_dagger @ mid @ s_dagger)
    for a in (residuals, beta):
        a.setflags(write=False)
    return _Fits(xt, s, eigenvalues, s_dagger, beta, residuals, mid, v_hat)


def _col_sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared norm of each column of ``a`` (of each matrix of a stack).  A
    (p, n) temporary passed here is freed on return; kept alive beside the
    (n,) ones after it, it made malloc trim the heap and fault it in again
    on every call at large n."""
    return np.einsum("...ij,...ij->...j", a, a)


def _row_moments(fits: _Fits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n^-1 sum |X_i|^4, n^-1 sum |X_i|^3 |e_i| and n^-1 sum |X_i e_i|^2 of
    each fit; the moments of large but finite regressors may be +inf, which
    r_var carries."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm_sq = _col_sq_norms(fits.xt)
        e = np.abs(fits.residuals)
        return (_means(norm_sq * norm_sq), _means(norm_sq * np.sqrt(norm_sq) * e),
                _means(norm_sq * (e * e)))


def _t4(fits: _Fits) -> np.ndarray:
    """The spectral norm of n^-1 sum X_i X_i' S^+ e_i^2 of each fit, as
    np.linalg.norm(..., 2) takes it: the largest singular value."""
    return np.linalg.svd(fits.mid @ fits.s_dagger, compute_uv=False)[..., 0]


def _centres(fits: _Fits, u: np.ndarray) -> np.ndarray:
    """u'beta of each fit."""
    return (fits.beta[..., None, :] @ u)[..., 0]


def _quadratic(u: np.ndarray, fits: _Fits) -> np.ndarray:
    """u'V u of each fit."""
    return ((u @ fits.v_hat)[..., None, :] @ u)[..., 0]


@dataclass(frozen=True)
class OlsFit:
    """A least-squares fit: ``_fits``, the fit as a stack of one (``_fit``),
    and read-only views of its arrays: beta, the residuals, S, S^+ and the
    sandwich variance V = S^+ (n^-1 sum X_i X_i' e_i^2) S^+ (``v_hat``).
    ``r_var`` and ``ci_edg`` take R_var's moments from ``_fits``."""

    design: Design
    beta_hat: np.ndarray
    residuals: np.ndarray
    s: np.ndarray
    s_dagger: np.ndarray
    v_hat: np.ndarray
    _fits: _Fits


def ols_fit(design: Design) -> OlsFit:
    """Least-squares fit via the pseudo-inverse (min-norm for singular S):
    ``_fit`` of the stack of one, ``design.x.T``, which is C-ordered because
    Design keeps x in Fortran order."""
    fits = _fit(design.x.T[None], design.y[None])
    return OlsFit(
        design=design,
        beta_hat=fits.beta[0],
        residuals=fits.residuals[0],
        s=fits.s[0],
        s_dagger=fits.s_dagger[0],
        v_hat=fits.v_hat[0],
        _fits=fits,
    )


def _one_interval(fits: _Fits, u: np.ndarray, halves: tuple, alpha: float, method: str) -> ConfidenceInterval:
    """The interval of a stack of one from its ``(half-widths, whole-line
    mask)``, centred at u'beta."""
    half, whole = halves
    if whole[0]:
        return ConfidenceInterval.whole(1.0 - alpha, method)
    centre, half = float(_centres(fits, u)[0]), float(half[0])
    return ConfidenceInterval.bounded(centre - half, centre + half, 1.0 - alpha, method)


def _asymp_halves(fits: _Fits, u: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths q(1-alpha/2) sqrt(u'Vu/n) of the asymptotic intervals of
    a stack of fits (u'Vu below 0 counts as 0), and their whole-line mask:
    none is the whole line."""
    variance = _quadratic(u, fits)
    half = (std_normal_quantile(1.0 - alpha / 2.0) * np.sqrt(np.where(variance < 0.0, 0.0, variance))
            / math.sqrt(fits.xt.shape[-1]))
    return half, np.zeros(half.shape, dtype=bool)


def ci_asymp(design: Design, alpha: float, fit: OlsFit | None = None) -> ConfidenceInterval:
    """CLT-based interval for u'beta with the sandwich variance."""
    alpha = _check_alpha(alpha)
    if fit is None:
        fit = ols_fit(design)
    return _one_interval(fit._fits, design.u, _asymp_halves(fit._fits, design.u, alpha), alpha, "asymp")


@dataclass(frozen=True)
class PlugIn:
    """Estimate the bound from the data, inflated by (1 + inflation/sqrt(n))."""

    inflation: float = 0.0

    def __post_init__(self) -> None:
        _check_inflation(self.inflation)


BoundSpec = Union[float, PlugIn]


@dataclass(frozen=True)
class OlsBounds:
    """The four class constants, each fixed to a value or tagged plug-in."""

    lambda_reg: BoundSpec
    k_reg: BoundSpec
    k_eps: BoundSpec
    k_xi: BoundSpec

    def __post_init__(self) -> None:
        for name in BOUND_KEYS:
            value = getattr(self, name)
            if isinstance(value, PlugIn):
                continue
            value = float(value)
            if not math.isfinite(value) or value < 0.0:
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)
        # K_reg and K_eps may be exactly 0 in degenerate designs (an
        # intercept-only model has K_reg_hat = 0); the identification bound
        # and the kurtosis bound have hard floors
        if not isinstance(self.lambda_reg, PlugIn) and self.lambda_reg <= 0.0:
            raise ConfigError(f"lambda_reg must be positive, got {self.lambda_reg!r}")
        if not isinstance(self.k_xi, PlugIn) and self.k_xi < 1.0:
            raise ConfigError(f"k_xi must be >= 1, got {self.k_xi!r}")

    @property
    def is_resolved(self) -> bool:
        return not any(isinstance(getattr(self, name), PlugIn) for name in BOUND_KEYS)

    @classmethod
    def all_plug_in(cls, inflation: float = 0.0) -> "OlsBounds":
        return cls(**dict.fromkeys(BOUND_KEYS, PlugIn(inflation)))


#: The names of the four class constants, in field order.
BOUND_KEYS = tuple(field.name for field in fields(OlsBounds))


@dataclass(frozen=True)
class OlsTuning:
    """Tuning sequences omega_n in (0,1) and a_n > 1, plus the delta provider."""

    # the heteroskedastic simulation design: omega_n = n^(-1/5), a_n = 1 + 20 n^(-2/5)
    omega_rule: Callable[[int], float] = PowerRule(0.0, 1.0, -0.2)
    a_rule: Callable[[int], float] = PowerRule(1.0, 20.0, -0.4)
    delta: DeltaProvider = BerryEsseen()

    def omega(self, n: int) -> float:
        w = _rule_value(self.omega_rule, n, "omega_rule")
        if not 0.0 < w < 1.0:
            raise ConfigError(f"omega_rule({n}) = {w!r}; must lie in (0,1)")
        return w

    def a(self, n: int) -> float:
        return _fixed_a(self.a_rule, n)


def _require_resolved(bounds: OlsBounds, what: str) -> None:
    if not bounds.is_resolved:
        raise ConfigError(f"{what} requires resolved (numeric) bounds; "
                          "resolve plug-in tags against a fit first")


def _gamma_tilde(gamma: float, n: int, k_reg: float) -> float:
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must be in (0,1), got {gamma!r}")
    gt = math.sqrt(k_reg / (n * gamma))
    if gt >= 1.0:
        raise FeasibilityError(
            f"gamma={gamma!r} is infeasible at n={n}: sqrt(K_reg/(n gamma)) = "
            f"{gt:.6f} >= 1"
        )
    return gt


def r_lin(gamma: float, n: int, bounds: OlsBounds, u_norm: float) -> float:
    """Linearization error bound sqrt(2)|u| lambda^(-1/2) (g/(1-g)) (K_eps/gamma)^(1/4),
    with g = sqrt(K_reg/(n gamma))."""
    _require_resolved(bounds, "r_lin")
    gt = _gamma_tilde(gamma, n, bounds.k_reg)
    return (
        math.sqrt(2.0)
        * float(u_norm)
        * bounds.lambda_reg**-0.5
        * (gt / (1.0 - gt))
        * (bounds.k_eps / gamma) ** 0.25
    )


def r_var(gamma: float, fit: OlsFit, bounds: OlsBounds) -> float:
    """Variance-estimation error bound: the four-term sum consuming the fit
    moments, which it takes from the fit's stack of one as ``ci_edg`` does."""
    weights = _r_var_weights(gamma, fit.design.n, bounds)
    return _r_var(weights, [float(m[0]) for m in (*_row_moments(fit._fits), _t4(fit._fits))])


def _r_var(weights: Sequence[float], moments: Sequence[float]) -> float:
    """The four-term sum of r_var: each weight times its moment (m4, m31,
    m_xe2, t4)."""
    (w1, w2, w3, w4), (m4, m31, m_xe2, t4) = weights, moments
    return w1 * m4 + w2 * m31 + w3 * m_xe2 + w4 * t4


def _r_var_weights(gamma: float, n: int, bounds: OlsBounds) -> tuple[float, float, float, float]:
    """The weights of the four moments in r_var; every check of r_var runs
    here, before a moment is read."""
    _require_resolved(bounds, "r_var")
    lam = bounds.lambda_reg
    gt = _gamma_tilde(gamma, n, bounds.k_reg)
    ratio = gt / (1.0 - gt)
    try:  # a float's ** raises OverflowError; the cube is the first power to overflow
        lam3 = lam**3
    except OverflowError as exc:
        raise DataError(f"r_var overflows: lambda_reg = {lam!r} is too large to cube; "
                        "rescale the regressors") from exc
    scale = 2.0 / (n * lam3) if n * lam3 > 0.0 else math.inf
    if math.isinf(scale):
        raise ConfigError(f"lambda_reg = {lam!r} is too small: 2/(n lambda_reg^3) in r_var "
                          "overflows")
    return (
        scale * (ratio + 1.0) ** 2 * math.sqrt(bounds.k_eps / gamma),
        2.0 * math.sqrt(2.0) / (lam**2.5 * math.sqrt(n)) * (ratio + 1.0) * (bounds.k_eps / gamma) ** 0.25,
        (bounds.k_reg / (n * gamma)) / (lam**2 * (1.0 - gt) ** 2),
        2.0 * gt / (lam * (1.0 - gt)),
    )


def nu_edg(n: int, alpha: float, tuning: OlsTuning, k_xi: float) -> float:
    """Quantile perturbation (omega_n alpha + exp(-n(1-1/a_n)^2/(2 K_xi)))/2 + delta_n."""
    alpha = _check_alpha(alpha)
    omega = tuning.omega(n)
    a = tuning.a(n)
    delta = delta_of(tuning.delta, n, k_xi)
    var_term = math.exp(-n * (1.0 - 1.0 / a) ** 2 / (2.0 * k_xi))
    return (omega * alpha + var_term) / 2.0 + delta


_MARGIN = 1e-3


def _last_violation(
    value: Callable[[int], float],
    level: Callable[[int], float],
    monotone_from: int | None,
    name: str,
    at_cap: Callable[[str], str] | None = None,
) -> int:
    """Largest n violating value(n) >= level(n), assuming violations die out.

    The one place that judges a sample size, evaluating value and level once
    per n: n violates when value >= level, and it satisfies the condition
    with margin when value <= level (1 - _MARGIN).  A ConfigError from
    value (a tuning rule outside its range at n) counts as a violation.

    Geometric scan (doubling) until three consecutive grid points satisfy the
    condition with margin; the answer lies between the last grid violation
    and the first of those points, first_clean.  Capped at N_SCAN_CAP; the
    ``UnboundedScanError`` raised there names the condition and adds
    ``at_cap(text)``, with text the value at the cap (or ``undefined (...)``).

    On [monotone_from, first_clean] the caller guarantees that the violating
    points all come before the others; that part of the bracket is bisected
    on this split (about 22 evaluations at n0 = 3.4M).  Below monotone_from,
    or everywhere when it is None, the bracket is scanned back from
    first_clean - 1 one n at a time.
    """

    def judge(n: int) -> tuple[bool, bool, float | ConfigError]:
        """(violated, satisfied with margin, the value or the ConfigError) at n."""
        try:
            v, lv = value(n), level(n)
        except ConfigError as exc:
            return True, False, exc
        return v >= lv, v <= lv * (1.0 - _MARGIN), v

    clean_streak = 0
    first_clean = None
    last_seen_violation = 0
    n = 1
    while n <= N_SCAN_CAP:
        violated, clean, _ = judge(n)
        if violated:
            last_seen_violation = n
            clean_streak = 0
            first_clean = None
        elif clean:
            if clean_streak == 0:
                first_clean = n
            clean_streak += 1
            if clean_streak >= 3:
                break
        else:
            # satisfied but without margin; keep scanning before trusting it
            clean_streak = 0
            first_clean = None
        n *= 2
    else:
        detail = ""
        if at_cap is not None:
            v = judge(N_SCAN_CAP)[2]
            detail = at_cap(f"undefined ({v})" if isinstance(v, ConfigError) else f"{v:.6g}")
        raise UnboundedScanError(
            f"condition {name} still violated with insufficient margin "
            f"beyond n = {N_SCAN_CAP}{detail}"
        )
    top = first_clean
    if monotone_from is not None:
        lo = max(monotone_from, last_seen_violation + 1)
        if lo < top:
            if judge(lo)[0]:
                hi = top
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if judge(mid)[0]:
                        lo = mid
                    else:
                        hi = mid
                return lo
            top = lo
    for m in range(top - 1, last_seen_violation, -1):
        if judge(m)[0]:
            return m
    return last_seen_violation


def _real_roots(a2: float, a1: float, a0: float) -> list[float]:
    """Real roots of a2 t^2 + a1 t + a0 (none for the zero polynomial)."""
    if a2 == 0.0:
        return [-a0 / a1] if a1 != 0.0 else []
    disc = a1 * a1 - 4.0 * a2 * a0
    if not disc >= 0.0:
        return []
    return [(-a1 - math.sqrt(disc)) / (2.0 * a2), (-a1 + math.sqrt(disc)) / (2.0 * a2)]


def _positive_beyond(rule: PowerRule, coeffs: tuple[float, float, float]) -> int | None:
    """An n* with p(t(n)) > 0 for every n >= n*, or None if none is found.

    p(t) = a2 t^2 + a1 t + a0 for ``coeffs`` = (a2, a1, a0), and
    t(n) = c2 n^e is the varying part of ``rule``, for a nonpositive exponent
    e.  t is monotone in n, so p(t(n)) keeps one sign past the last n at which
    t(n) meets a real root of p.  n* is twice that n (at least 2), which keeps
    the derivatives the caller needs away from zero, and the sign is read
    off at n* itself.
    """
    c2, e = rule.c2, rule.exponent
    if not e <= 0.0:
        return None
    log_n = 0.0
    if c2 != 0.0 and e != 0.0:
        for root in _real_roots(*coeffs):
            if root / c2 > 0.0:
                log_n = max(log_n, math.log(root / c2) / e)
    if log_n > math.log(N_SCAN_CAP):
        return None
    n_star = math.ceil(2.0 * math.exp(log_n))
    a2, a1, a0 = coeffs
    t = c2 * float(n_star) ** e
    return n_star if (a2 * t + a1) * t + a0 > 0.0 else None


@lru_cache(maxsize=4096)
def _last_reg_violation(alpha: float, tuning: OlsTuning, k_reg: float) -> int:
    """The last n with n <= 2 K_reg/(omega_n alpha) (cond_reg; ``n_zero``)."""
    rule = tuning.omega_rule
    reg_from = (_positive_beyond(rule, (0.0, 1.0 + rule.exponent, rule.c1))
                if isinstance(rule, PowerRule) else None)
    return _last_violation(lambda n: 2.0 * k_reg / (tuning.omega(n) * alpha), lambda n: n,
                           reg_from, "n <= 2 K_reg/(omega_n alpha)")


@lru_cache(maxsize=4096)
def _last_edg_violation(alpha: float, tuning: OlsTuning, k_xi: float) -> int:
    """The last n with nu_edg(n) >= alpha/2 (cond_edg; ``n_zero``)."""
    omega_rule, a_rule = tuning.omega_rule, tuning.a_rule
    edg_from = None
    if (isinstance(omega_rule, PowerRule) and isinstance(a_rule, PowerRule)
            and omega_rule.c2 * omega_rule.exponent <= 0.0 and tuning.delta.nonincreasing):
        c1, e = a_rule.c1, a_rule.exponent
        edg_from = _positive_beyond(a_rule, (1.0, 2.0 * c1 - 1.0 + 2.0 * e, c1 * (c1 - 1.0)))
    half_alpha = alpha / 2.0
    return _last_violation(
        lambda n: nu_edg(n, alpha, tuning, k_xi), lambda n: half_alpha, edg_from,
        "nu_edg >= alpha/2",
        lambda text: f": nu_edg = {text} at n = {N_SCAN_CAP}, alpha/2 = {half_alpha:.6g}",
    )


def n_zero(alpha: float, tuning: OlsTuning, bounds: OlsBounds) -> int:
    """Last sample size forced into the whole-real-line regime (0 if none).

    The larger of the last violations of cond_reg(n), n <= 2 K_reg/(omega_n
    alpha), and then of cond_edg(n), nu_edg(n) >= alpha/2, each cached on the
    inputs it reads: (alpha, tuning, K_reg) and (alpha, tuning, K_xi).  A
    tuning that cannot be hashed is scanned without the caches.  A sample size where a tuning rule leaves its
    range (omega(1) = 1 for every power rule) counts as violating.

    ``_last_violation`` bisects from n* on, where a condition holds on an
    initial segment of [n*, first_clean] and fails after it.  That is proved
    here for power rules omega_n = w1 + w2 n^f and a_n = c1 + c2 n^e with
    f, e <= 0; any other rule, a provider that is not ``nonincreasing``, and
    the bracket below n* keep the exact back-scan.

    * Out-of-range points come first.  A power rule is monotone in n, so the
      n where it lies in its range form an interval, and that interval holds
      first_clean, where the margin check evaluated the rule.  On
      [n*, first_clean] the out-of-range points therefore form an initial
      segment.
    * cond_reg.  Where omega_n > 0 it reads g(n) <= 2 K_reg/alpha with
      g(n) = n omega_n = w1 n + w2 n^(1+f) and g'(n) = w1 + (1+f) s,
      s = w2 n^f.  s is monotone in n, so g' changes sign at most once; from
      n*_reg on g' > 0, g increases, and cond_reg fails for good once it
      fails.
    * cond_edg.  nu_edg = (omega_n alpha + exp(-h(n)/(2 K_xi)))/2 + delta_n
      with h(n) = n (1 - 1/a_n)^2 is nonincreasing in n when each term is:
      - omega_n alpha: omega is nonincreasing iff w2 f <= 0.
      - the exp term: h must be nondecreasing.  With t = c2 n^e, a = c1 + t
        and a' = e t/n, h'(n) = (a-1)/a^3 Q(t) with
        Q(t) = a(a-1) + 2 e t = t^2 + (2 c1 - 1 + 2e) t + c1 (c1 - 1).
        In range a > 1, so h' has the sign of Q(t).  t is monotone in n, so
        Q(t(n)) changes sign at most twice, where t(n) meets a real root of
        Q; from n*_edg on Q(t(n)) > 0.
      - delta_n: the provider reports ``nonincreasing``.  Berry-Esseen and
        the Edgeworth leading terms fall like n^-1/2 or n^-1, a table takes
        its minimum over rows that only grow with n, and a minimum of
        nonincreasing bounds is nonincreasing.
      So nu_edg >= alpha/2 holds on an initial segment of [n*_edg, inf).

    Rounding: +, *, / and sqrt are correctly rounded and so monotone in each
    argument, and pow and exp err by under an ulp, while between consecutive
    n the terms move by a relative step of order |e|/n or |f|/n, which
    ``_positive_beyond`` keeps away from zero by placing n* at twice the last
    sign change.  This assumes |e| and |f| stay well above n eps over the
    scanned range (n eps is about 2e-7 at N_SCAN_CAP).  For exponents closer
    to zero, which a rule such as n^-1/1000000 has, the argument does not
    hold, and that the bisection returns the integer the back-scan returns
    rests on the keys checked in ``test_n_zero_matches_backscan``.
    """
    alpha = _check_alpha(alpha)
    _require_resolved(bounds, "n_zero")
    return _last_violations(alpha, tuning, float(bounds.k_reg), float(bounds.k_xi))


def _last_violations(alpha: float, tuning: OlsTuning, k_reg: float | None, k_xi: float | None) -> int:
    """The largest last violation of cond_reg at K_reg, then cond_edg at K_xi, of those given (0 if none)."""
    try:
        hash(tuning)
    except TypeError:  # an unhashable custom rule or provider
        reg, edg = _last_reg_violation.__wrapped__, _last_edg_violation.__wrapped__
    else:
        reg, edg = _last_reg_violation, _last_edg_violation
    return max(reg(alpha, tuning, k_reg) if k_reg is not None else 0,
               edg(alpha, tuning, k_xi) if k_xi is not None else 0)


def _plug_in_estimates(fits: _Fits, u: np.ndarray, names: set) -> dict[str, np.ndarray]:
    """The uninflated plug-in estimates of the bounds ``names`` (of
    ``BOUND_KEYS``) of each fit of a stack (``plug_in_bounds``), raising an
    estimate's error if any fit has one.  A bound not named is neither
    computed nor checked; a numerically singular S is an error whatever is
    named."""
    eigenvalues = fits.eigenvalues
    lam_min, lam_max = eigenvalues[..., -1], eigenvalues[..., 0]
    if (lam_min <= np.maximum(lam_max, 1.0) * 1e-12).any():
        raise DataError(
            "design second-moment matrix is numerically singular; plug-in "
            "bounds are undefined (lambda_min(S) = 0 means no identification)"
        )
    estimates = {"lambda_reg": lam_min} if "lambda_reg" in names else {}
    # moments that overflow are a DataError below, not a warning here
    with np.errstate(over="ignore", invalid="ignore"):
        if names & {"k_reg", "k_eps"}:
            # the rotated rows, transposed ((S^+)^(1/2) is symmetric)
            rot_sq = _col_sq_norms(_psd_sqrt_array(fits.s_dagger) @ fits.xt)
            rot_sq2 = rot_sq * rot_sq
        if "k_reg" in names:
            estimates["k_reg"] = _means(rot_sq2 - 2.0 * rot_sq + fits.xt.shape[-2])
        if "k_eps" in names:
            # fourth powers as squares of squares: numpy's generic ** 4 on a signed
            # base costs tens of times as much
            res_sq = fits.residuals * fits.residuals
            estimates["k_eps"] = _means(rot_sq2 * (res_sq * res_sq))
        if "k_xi" in names:
            influence = ((fits.s_dagger @ u)[..., None, :] @ fits.xt)[..., 0, :] * fits.residuals
            second = _means(influence * influence)
    if not all(np.isfinite(estimate).all() for estimate in estimates.values()):  # lambda_min(S) is finite
        raise DataError(
            "plug-in moments K_reg/K_eps overflow: the regressors or residuals are "
            "too large to take to the fourth power; rescale the data"
        )
    if "k_xi" in names:
        if (second <= 0.0).any():
            raise DegenerateSampleError(
                "all estimated influence values are zero; K_xi plug-in undefined"
            )
        # a float's ** raises OverflowError past sqrt(max float), where the ratio rescales
        second_sq = np.array([v**2 if v < 1e154 else math.inf for v in second.tolist()])
        estimates["k_xi"] = _deviation_kurtosis(influence, second_sq)
    return estimates


def plug_in_bounds(fit: OlsFit, u: np.ndarray, inflation: float = 0.0) -> OlsBounds:
    """Estimate all four class constants from the fit: ``resolve_bounds`` of
    ``OlsBounds.all_plug_in(inflation)``.

    lambda_reg_hat = lambda_min(S); K_reg_hat, K_eps_hat use the rotated rows
    (S^+)^(1/2) X_i; K_xi_hat is the kurtosis of the estimated influence
    values u'S^+ X_i e_i; both are products with the C-ordered x' of the
    fit's Fortran-ordered design.
    """
    return resolve_bounds(OlsBounds.all_plug_in(inflation), fit, u)


def _resolved_rows(bounds: OlsBounds, fits: _Fits, u: np.ndarray) -> list[OlsBounds]:
    """``resolve_bounds`` for each fit of a stack: one plug-in estimate per
    fit of each bound tagged plug-in, and of no other.  A tag with inflation
    M multiplies an upper-bound estimate by (1 + M/sqrt(n)) and divides the
    lower bound lambda_reg_hat by it, which is the conservative direction
    for a lower bound."""
    if bounds.is_resolved:
        return [bounds] * fits.xt.shape[0]
    specs = {name: getattr(bounds, name) for name in BOUND_KEYS}
    root_n = math.sqrt(fits.xt.shape[-1])
    mults = {name: 1.0 + spec.inflation / root_n for name, spec in specs.items() if isinstance(spec, PlugIn)}
    columns = {name: [spec] * fits.xt.shape[0] for name, spec in specs.items()}
    for name, estimate in _plug_in_estimates(fits, u, set(mults)).items():
        mult = mults[name]
        columns[name] = [e / mult if name == "lambda_reg" else e * mult for e in estimate.tolist()]
    return [OlsBounds(**dict(zip(columns, row))) for row in zip(*columns.values())]


def resolve_bounds(bounds: OlsBounds, fit: OlsFit, u: np.ndarray) -> OlsBounds:
    """Replace plug-in tags with estimates computed from one shared fit."""
    return _resolved_rows(bounds, fit._fits, np.asarray(u, dtype=float))[0]


def _edg_halves(fits: _Fits, u: np.ndarray, alpha: float, bounds: OlsBounds,
                tuning: OlsTuning) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths of the edg intervals of a stack of fits, NaN where an
    interval is the whole real line, and that whole-line mask.

    An interval is the whole line when n <= n0 of its resolved bounds (one
    cached ``n_zero`` call per fit); otherwise its half-width is
    (sqrt(a_n) q(1-alpha/2+nu_edg) sqrt(u'Vu + |u|^2 R_var) + R_lin)/sqrt(n),
    the expanded form that stays well-defined when the variance term is
    zero, evaluated fit by fit in the order ``ci_edg`` has always used.
    R_var's moments (m4, m31, m_xe2, t4) are taken from the stack once, and
    only when some interval is bounded.
    """
    n = fits.xt.shape[-1]
    # validate the tuning rules at this n up front (config errors beat the
    # whole-line branch)
    omega = tuning.omega(n)
    a = tuning.a(n)
    resolved = _resolved_rows(bounds, fits, u)
    whole = np.array([n <= n_zero(alpha, tuning, b) for b in resolved])
    half = np.full(whole.shape, math.nan)
    if whole.all():
        return half, whole
    moments = list(zip(*(m.tolist() for m in (*_row_moments(fits), _t4(fits)))))
    gamma = omega * alpha / 2.0
    u_norm = float(np.sqrt(u @ u))
    variance = _quadratic(u, fits).tolist()
    for r in np.flatnonzero(~whole).tolist():
        quantile = std_normal_quantile(1.0 - alpha / 2.0 + nu_edg(n, alpha, tuning, float(resolved[r].k_xi)))
        weights = _r_var_weights(gamma, n, resolved[r])
        variance_term = max(variance[r], 0.0) + u_norm**2 * _r_var(weights, moments[r])
        lin_term = r_lin(gamma, n, resolved[r], u_norm)
        half[r] = (math.sqrt(a) * quantile * math.sqrt(variance_term) + lin_term) / math.sqrt(n)
    return half, whole


def ci_edg(
    design: Design,
    alpha: float,
    bounds: OlsBounds,
    tuning: OlsTuning,
    fit: OlsFit | None = None,
) -> ConfidenceInterval:
    """Finite-sample-valid interval for u'beta.

    Whole real line when n <= n0; otherwise centered at u'beta with
    half-width (sqrt(a_n) q(1-alpha/2+nu_edg) sqrt(u'Vu + |u|^2 R_var) + R_lin)/sqrt(n),
    the expanded form that stays well-defined when the variance term is zero.
    """
    alpha = _check_alpha(alpha)
    if fit is None:
        fit = ols_fit(design)
    halves = _edg_halves(fit._fits, design.u, alpha, bounds, tuning)
    return _one_interval(fit._fits, design.u, halves, alpha, "edg")


def rate_r(rho: float) -> float:
    """Coverage-convergence rate exponent as a function of the moment excess rho.

    2/11 below rho = 2/11, the identity on [2/11, 1/5], and 1/5 beyond.
    """
    rho = float(rho)
    if math.isnan(rho) or rho < 0.0:
        raise DomainError(f"rho must be >= 0 (or +inf), got {rho!r}")
    if rho < 2.0 / 11.0:
        return 2.0 / 11.0
    if rho <= 0.2:
        return rho
    return 0.2


def tuning_for_rate(
    rho: float, delta: DeltaProvider = BerryEsseen(), a_coefficient: float = OlsTuning.a_rule.c2
) -> OlsTuning:
    """Tuning with omega_n = n^(-r(rho)) and a_n = 1 + a_coefficient * n^(-2/5); the
    coefficient defaults to that of ``OlsTuning``'s a_n rule."""
    return OlsTuning(
        omega_rule=PowerRule(0.0, 1.0, -rate_r(rho)),
        a_rule=PowerRule(1.0, float(a_coefficient), -0.4),
        delta=delta,
    )
