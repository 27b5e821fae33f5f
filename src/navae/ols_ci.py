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
the rest back one n at a time; both give the same integer.

The four distribution-class constants (lambda_reg, K_reg, K_eps, K_xi) may
be fixed a priori or estimated by plug-in; plug-in trades the formal
finite-sample guarantee for practicality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

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
from .linalg import SymMatrix, psd_sqrt, pseudo_inverse, sym_eigen
from .mean_ci import ConfidenceInterval
from .rules import PowerRule
from .specialfn import std_normal_quantile

__all__ = [
    "Design",
    "OlsFit",
    "PlugIn",
    "OlsBounds",
    "OlsTuning",
    "ols_fit",
    "sandwich_variance",
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

#: Tuning used in the heteroskedastic simulation design:
#: omega_n = n^(-1/5), a_n = 1 + 20 n^(-2/5).
DEFAULT_OMEGA_RULE = PowerRule(0.0, 1.0, -0.2)
DEFAULT_OLS_A_RULE = PowerRule(1.0, 20.0, -0.4)


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
        if u.size != p:
            raise ConfigError(f"direction length {u.size} does not match p={p}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DataError("design and outcome entries must be finite")
        if not np.all(np.isfinite(u)) or not np.any(u != 0.0):
            raise DomainError("direction u must be finite and nonzero")
        for name, arr in (("x", x), ("y", y), ("u", u)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class OlsFit:
    """Fit artifacts shared by every downstream operation.

    ``m4``, ``m31``, ``m_xe2`` are the sample moments n^-1 sum |X_i|^4,
    n^-1 sum |X_i|^3 |e_i|, n^-1 sum |X_i e_i|^2, and ``t4`` the spectral
    norm of n^-1 sum X_i X_i' S^+ e_i^2, all consumed by the variance-error
    bound.
    """

    design: Design
    beta_hat: np.ndarray
    residuals: np.ndarray
    s: SymMatrix
    s_dagger: SymMatrix
    v_hat: SymMatrix
    m4: float
    m31: float
    m_xe2: float
    t4: float

    @property
    def n(self) -> int:
        return self.design.n


def _row_sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of a 2-D array.

    Accumulated one column at a time: for the few columns of a design this
    is several times faster than ``np.sum(a * a, axis=1)``, whose reduction
    runs over a short inner axis per row, and it adds the squares in the same
    order for up to 7 columns.
    """
    out = a[:, 0] * a[:, 0]
    for j in range(1, a.shape[1]):
        col = a[:, j]
        out += col * col
    return out


def ols_fit(design: Design) -> OlsFit:
    """Least-squares fit via the pseudo-inverse (min-norm for singular S)."""
    x, y = design.x, design.y
    n = design.n
    # Design has checked x, but x'x can still overflow: _built rejects that
    s = SymMatrix._built(x.T @ x / n)
    s_dagger = pseudo_inverse(s)
    beta = s_dagger.array @ (x.T @ y / n)
    residuals = y - x @ beta
    res_sq = residuals * residuals
    norm_sq = _row_sq_norms(x)
    m4 = float(np.mean(norm_sq * norm_sq))
    m31 = float(np.mean(norm_sq * np.sqrt(norm_sq) * np.abs(residuals)))
    m_xe2 = float(np.mean(norm_sq * res_sq))
    mid = (x * res_sq[:, None]).T @ x / n
    v_hat = SymMatrix(s_dagger.array @ mid @ s_dagger.array)
    t4 = float(np.linalg.norm(mid @ s_dagger.array, 2))
    residuals = residuals.copy()
    residuals.setflags(write=False)
    beta.setflags(write=False)
    return OlsFit(
        design=design,
        beta_hat=beta,
        residuals=residuals,
        s=s,
        s_dagger=s_dagger,
        v_hat=v_hat,
        m4=m4,
        m31=m31,
        m_xe2=m_xe2,
        t4=t4,
    )


def sandwich_variance(fit: OlsFit) -> SymMatrix:
    """S^+ (n^-1 sum X_i X_i' e_i^2) S^+, the robust coefficient variance."""
    return fit.v_hat


def _check_ci_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha!r}")
    return alpha


def ci_asymp(design: Design, alpha: float, fit: OlsFit | None = None) -> ConfidenceInterval:
    """CLT-based interval for u'beta with the sandwich variance."""
    alpha = _check_ci_alpha(alpha)
    if fit is None:
        fit = ols_fit(design)
    u = design.u
    center = float(u @ fit.beta_hat)
    variance = max(float(u @ fit.v_hat.array @ u), 0.0)
    half = std_normal_quantile(1.0 - alpha / 2.0) * math.sqrt(variance) / math.sqrt(design.n)
    return ConfidenceInterval.bounded(center - half, center + half, 1.0 - alpha, "asymp")


@dataclass(frozen=True)
class PlugIn:
    """Estimate the bound from the data, inflated by (1 + inflation/sqrt(n))."""

    inflation: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.inflation) or self.inflation < 0.0:
            raise ConfigError(f"inflation must be >= 0, got {self.inflation!r}")


BoundSpec = Union[float, PlugIn]


@dataclass(frozen=True)
class OlsBounds:
    """The four class constants, each fixed to a value or tagged plug-in."""

    lambda_reg: BoundSpec
    k_reg: BoundSpec
    k_eps: BoundSpec
    k_xi: BoundSpec

    def __post_init__(self) -> None:
        for name in ("lambda_reg", "k_reg", "k_eps", "k_xi"):
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
        return not any(
            isinstance(getattr(self, name), PlugIn)
            for name in ("lambda_reg", "k_reg", "k_eps", "k_xi")
        )

    @classmethod
    def all_plug_in(cls, inflation: float = 0.0) -> "OlsBounds":
        tag = PlugIn(inflation)
        return cls(lambda_reg=tag, k_reg=tag, k_eps=tag, k_xi=tag)


@dataclass(frozen=True)
class OlsTuning:
    """Tuning sequences omega_n in (0,1) and a_n > 1, plus the delta provider."""

    omega_rule: Callable[[int], float] = DEFAULT_OMEGA_RULE
    a_rule: Callable[[int], float] = DEFAULT_OLS_A_RULE
    delta: DeltaProvider = BerryEsseen()
    rho: float | None = None

    def omega(self, n: int) -> float:
        w = float(self.omega_rule(n))
        if not 0.0 < w < 1.0:
            raise ConfigError(f"omega_rule({n}) = {w!r}; must lie in (0,1)")
        return w

    def a(self, n: int) -> float:
        a = float(self.a_rule(n))
        if not math.isfinite(a) or a <= 1.0:
            raise ConfigError(f"a_rule({n}) = {a!r}; must exceed 1")
        return a


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
    """Variance-estimation error bound: the four-term sum consuming the fit moments."""
    _require_resolved(bounds, "r_var")
    n = fit.n
    lam = bounds.lambda_reg
    gt = _gamma_tilde(gamma, n, bounds.k_reg)
    ratio = gt / (1.0 - gt)
    term1 = 2.0 / (n * lam**3) * (ratio + 1.0) ** 2 * math.sqrt(bounds.k_eps / gamma) * fit.m4
    term2 = (
        2.0
        * math.sqrt(2.0)
        / (lam**2.5 * math.sqrt(n))
        * (ratio + 1.0)
        * (bounds.k_eps / gamma) ** 0.25
        * fit.m31
    )
    term3 = (bounds.k_reg / (n * gamma)) / (lam**2 * (1.0 - gt) ** 2) * fit.m_xe2
    term4 = 2.0 * gt / (lam * (1.0 - gt)) * fit.t4
    return term1 + term2 + term3 + term4


def nu_edg(n: int, alpha: float, tuning: OlsTuning, k_xi: float) -> float:
    """Quantile perturbation (omega_n alpha + exp(-n(1-1/a_n)^2/(2 K_xi)))/2 + delta_n."""
    alpha = _check_ci_alpha(alpha)
    omega = tuning.omega(n)
    a = tuning.a(n)
    delta = delta_of(tuning.delta, n, k_xi)
    var_term = math.exp(-n * (1.0 - 1.0 / a) ** 2 / (2.0 * k_xi))
    return (omega * alpha + var_term) / 2.0 + delta


def _last_violation(
    condition: Callable[[int], bool],
    margin_ok: Callable[[int], bool],
    monotone_from: int | None,
    name: str,
    at_cap: Callable[[], str] = lambda: "",
) -> int:
    """Largest n with condition(n) true, assuming violations die out.

    Geometric scan (doubling) until the margin check passes at three
    consecutive grid points; the answer lies between the last grid violation
    and the first of those points, first_clean.  Capped at N_SCAN_CAP; the
    ``UnboundedScanError`` raised there names the condition and adds
    ``at_cap()``, the condition's terms at the cap.

    On [monotone_from, first_clean] the caller guarantees that the points
    where condition holds all come before the points where it fails; that
    part of the bracket is bisected on this split (about 22 evaluations at
    n0 = 3.4M).  Below monotone_from, or everywhere when it is None, the
    bracket is scanned back from first_clean - 1 one n at a time.
    """
    clean_streak = 0
    first_clean = None
    last_seen_violation = 0
    n = 1
    while n <= N_SCAN_CAP:
        if condition(n):
            last_seen_violation = n
            clean_streak = 0
            first_clean = None
        elif margin_ok(n):
            if clean_streak == 0:
                first_clean = n
            clean_streak += 1
            if clean_streak >= 3:
                break
        else:
            # failed but without margin; keep scanning before trusting it
            clean_streak = 0
            first_clean = None
        n *= 2
    else:
        raise UnboundedScanError(
            f"condition {name} still violated with insufficient margin "
            f"beyond n = {N_SCAN_CAP}{at_cap()}"
        )
    top = first_clean
    if monotone_from is not None:
        lo = max(monotone_from, last_seen_violation + 1)
        if lo < top:
            if condition(lo):
                hi = top
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if condition(mid):
                        lo = mid
                    else:
                        hi = mid
                return lo
            top = lo
    for m in range(top - 1, last_seen_violation, -1):
        if condition(m):
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


_MARGIN = 1e-3


def _n_zero_impl(alpha: float, tuning: OlsTuning, k_reg: float, k_xi: float) -> int:
    """The larger of the last violations of cond_reg and cond_edg.

    cond_reg(n) is n <= 2 K_reg/(omega_n alpha) and cond_edg(n) is
    nu_edg(n) >= alpha/2.  A sample size where a tuning rule leaves its
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
        the Edgeworth leading terms fall like n^-1/2 or n^-1, and a minimum
        of nonincreasing bounds is nonincreasing.  A delta table raises below
        its first row, so it keeps the scan.
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

    def cond_reg(n: int) -> bool:
        try:
            return n <= 2.0 * k_reg / (tuning.omega(n) * alpha)
        except ConfigError:
            return True

    def cond_reg_margin(n: int) -> bool:
        try:
            return 2.0 * k_reg / (tuning.omega(n) * alpha) <= n * (1.0 - _MARGIN)
        except ConfigError:
            return False

    def cond_edg(n: int) -> bool:
        try:
            return nu_edg(n, alpha, tuning, k_xi) >= alpha / 2.0
        except ConfigError:
            return True

    def cond_edg_margin(n: int) -> bool:
        try:
            return nu_edg(n, alpha, tuning, k_xi) <= (alpha / 2.0) * (1.0 - _MARGIN)
        except ConfigError:
            return False

    def edg_at_cap() -> str:
        try:
            value = f"{nu_edg(N_SCAN_CAP, alpha, tuning, k_xi):.6g}"
        except ConfigError as exc:
            value = f"undefined ({exc})"
        return f": nu_edg = {value} at n = {N_SCAN_CAP}, alpha/2 = {alpha / 2.0:.6g}"

    omega_rule, a_rule = tuning.omega_rule, tuning.a_rule
    reg_from = edg_from = None
    if isinstance(omega_rule, PowerRule):
        reg_from = _positive_beyond(omega_rule, (0.0, 1.0 + omega_rule.exponent, omega_rule.c1))
        if (
            isinstance(a_rule, PowerRule)
            and omega_rule.c2 * omega_rule.exponent <= 0.0
            and tuning.delta.nonincreasing
        ):
            c1, e = a_rule.c1, a_rule.exponent
            edg_from = _positive_beyond(a_rule, (1.0, 2.0 * c1 - 1.0 + 2.0 * e, c1 * (c1 - 1.0)))
    return max(
        _last_violation(cond_reg, cond_reg_margin, reg_from, "n <= 2 K_reg/(omega_n alpha)"),
        _last_violation(cond_edg, cond_edg_margin, edg_from, "nu_edg >= alpha/2", edg_at_cap),
    )


@lru_cache(maxsize=4096)
def _n_zero_cached(alpha: float, tuning: OlsTuning, k_reg: float, k_xi: float) -> int:
    return _n_zero_impl(alpha, tuning, k_reg, k_xi)


def n_zero(alpha: float, tuning: OlsTuning, bounds: OlsBounds) -> int:
    """Last sample size forced into the whole-real-line regime (0 if none)."""
    alpha = _check_ci_alpha(alpha)
    _require_resolved(bounds, "n_zero")
    try:
        return _n_zero_cached(alpha, tuning, float(bounds.k_reg), float(bounds.k_xi))
    except TypeError:
        # unhashable custom rules; compute without the cache
        return _n_zero_impl(alpha, tuning, float(bounds.k_reg), float(bounds.k_xi))


def plug_in_bounds(fit: OlsFit, u: np.ndarray, inflation: float = 0.0) -> OlsBounds:
    """Estimate all four class constants from the fit.

    lambda_reg_hat = lambda_min(S); K_reg_hat, K_eps_hat use the rotated rows
    (S^+)^(1/2) X_i; K_xi_hat is the kurtosis of the estimated influence
    values u'S^+ X_i e_i.  Upper-bound estimates are multiplied by
    (1 + inflation/sqrt(n)); the lower bound lambda_reg_hat is divided by it,
    which is the conservative direction for a lower bound.
    """
    if not math.isfinite(inflation) or inflation < 0.0:
        raise DomainError(f"inflation must be >= 0, got {inflation!r}")
    x = fit.design.x
    n, p = fit.design.n, fit.design.p
    eigenvalues, _ = sym_eigen(fit.s)
    lam_min = float(eigenvalues[-1])
    lam_max = float(eigenvalues[0])
    if lam_min <= max(lam_max, 1.0) * 1e-12:
        raise DataError(
            "design second-moment matrix is numerically singular; plug-in "
            "bounds are undefined (lambda_min(S) = 0 means no identification)"
        )
    rot_sq = _row_sq_norms(x @ psd_sqrt(fit.s_dagger).array)
    rot_sq2 = rot_sq * rot_sq
    k_reg = float(np.mean(rot_sq2 - 2.0 * rot_sq + p))
    # fourth powers as squares of squares: numpy's generic ** 4 on a signed
    # base costs tens of times as much
    res_sq = fit.residuals * fit.residuals
    k_eps = float(np.mean(rot_sq2 * (res_sq * res_sq)))
    influence = (x @ (fit.s_dagger.array @ np.asarray(u, dtype=float))) * fit.residuals
    infl_sq = influence * influence
    second = float(np.mean(infl_sq))
    if second <= 0.0:
        raise DegenerateSampleError(
            "all estimated influence values are zero; K_xi plug-in undefined"
        )
    # >= 1 by Jensen; the max only absorbs last-ulp rounding
    k_xi = max(1.0, float(np.mean(infl_sq * infl_sq)) / second**2)
    mult = 1.0 + inflation / math.sqrt(n)
    return OlsBounds(
        lambda_reg=lam_min / mult,
        k_reg=k_reg * mult,
        k_eps=k_eps * mult,
        k_xi=k_xi * mult,
    )


def resolve_bounds(bounds: OlsBounds, fit: OlsFit, u: np.ndarray) -> OlsBounds:
    """Replace plug-in tags with estimates computed from one shared fit."""
    if bounds.is_resolved:
        return bounds
    inflations = {
        spec.inflation
        for spec in (bounds.lambda_reg, bounds.k_reg, bounds.k_eps, bounds.k_xi)
        if isinstance(spec, PlugIn)
    }
    estimates = {m: plug_in_bounds(fit, u, m) for m in inflations}

    def pick(name: str) -> float:
        spec = getattr(bounds, name)
        if isinstance(spec, PlugIn):
            return float(getattr(estimates[spec.inflation], name))
        return float(spec)

    return OlsBounds(
        lambda_reg=pick("lambda_reg"),
        k_reg=pick("k_reg"),
        k_eps=pick("k_eps"),
        k_xi=pick("k_xi"),
    )


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
    alpha = _check_ci_alpha(alpha)
    if fit is None:
        fit = ols_fit(design)
    n = design.n
    # validate the tuning rules at this n up front (config errors beat the
    # whole-line branch)
    omega = tuning.omega(n)
    a = tuning.a(n)
    resolved = resolve_bounds(bounds, fit, design.u)
    level = 1.0 - alpha
    if n <= n_zero(alpha, tuning, resolved):
        return ConfidenceInterval.whole(level, "edg")
    gamma = omega * alpha / 2.0
    u = design.u
    u_norm = float(np.sqrt(u @ u))
    nu = nu_edg(n, alpha, tuning, float(resolved.k_xi))
    quantile = std_normal_quantile(1.0 - alpha / 2.0 + nu)
    variance_term = max(float(u @ fit.v_hat.array @ u), 0.0)
    variance_term += u_norm**2 * r_var(gamma, fit, resolved)
    lin_term = r_lin(gamma, n, resolved, u_norm)
    half = (math.sqrt(a) * quantile * math.sqrt(variance_term) + lin_term) / math.sqrt(n)
    center = float(u @ fit.beta_hat)
    return ConfidenceInterval.bounded(center - half, center + half, level, "edg")


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
    rho: float, delta: DeltaProvider = BerryEsseen(), a_coefficient: float = 1.0
) -> OlsTuning:
    """Tuning with omega_n = n^(-r(rho)) and a_n = 1 + a_coefficient * n^(-2/5)."""
    return OlsTuning(
        omega_rule=PowerRule(0.0, 1.0, -rate_r(rho)),
        a_rule=PowerRule(1.0, float(a_coefficient), -0.4),
        delta=delta,
        rho=float(rho),
    )
