"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's own code paths: quantiles
come from mpmath (50-digit erfinv), Student quantiles from closed forms,
and the OLS interval from a straightforward numpy.linalg transcription of
the defining formulas.  The n0 oracle keeps the library's own predicates
but finds their last violation by the original exhaustive back-scan.
The CSV loader oracles are the CLI's original csv.reader + float() row
loops, kept verbatim, and the sample moment oracle is ``Sample``'s original
``np.mean`` arithmetic.  The coverage-study oracles are plain loops in
(n, replication, method) order: one fresh generator per (n, replication),
keyed by the stream rule itself, and one ``interval`` call per method (or
one OLS fit) on its draw.  The tuning-search oracles run one
scalar search per (n, alpha, K, delta_n), each point a float through the
library's kernel, where the library advances many searches at once.
Tests compare library output against these.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Callable

import mpmath as mp
import numpy as np

from navae.cli import _parse_vector
from navae.dgp_sim import SimReport, _aggregate
from navae.errors import ConfigError, DataError, UnboundedScanError
from navae.mean_ci import DEFAULT_A_RULE, Sample, _SCAN_GRID, _tuning_terms, _width_multiplier
from navae.ols_ci import N_SCAN_CAP, Design, ci_asymp, ci_edg, nu_edg, ols_fit

mp.mp.dps = 50


def mp_cdf(x: float) -> float:
    return float(0.5 * mp.erfc(-mp.mpf(x) / mp.sqrt(2)))


def mp_quantile(p: float) -> float:
    return float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1))


def t_quantile_df1(p: float) -> float:
    """Closed-form Student quantile with 1 degree of freedom."""
    return float(mp.tan(mp.pi * (mp.mpf(p) - mp.mpf("0.5"))))


def t_quantile_df2(p: float) -> float:
    """Closed-form Student quantile with 2 degrees of freedom."""
    a = 2 * mp.mpf(p) - 1
    return float(a * mp.sqrt(2 / (1 - a**2)))


def delta_be(n: int, k: float) -> float:
    return 0.4690 * k**0.75 / math.sqrt(n)


def ols_fit_oracle(x: np.ndarray, y: np.ndarray) -> dict:
    """Plain numpy.linalg fit: a path independent of the library's solver."""
    n = x.shape[0]
    s = x.T @ x / n
    s_dagger = np.linalg.pinv(s, hermitian=True)
    beta = s_dagger @ (x.T @ y / n)
    residuals = y - x @ beta
    mid = (x * residuals[:, None] ** 2).T @ x / n
    v_hat = s_dagger @ mid @ s_dagger
    return {
        "s": s,
        "s_dagger": s_dagger,
        "beta": beta,
        "residuals": residuals,
        "mid": mid,
        "v_hat": v_hat,
    }


def plug_in_oracle(x: np.ndarray, y: np.ndarray, u: np.ndarray, inflation: float = 0.0) -> dict:
    """Plug-in bound estimates via numpy.linalg only."""
    n, p = x.shape
    fit = ols_fit_oracle(x, y)
    eigenvalues = np.linalg.eigvalsh(fit["s"])
    lam_min = float(eigenvalues[0])
    # (S^+)^(1/2) through numpy's eigendecomposition
    w, v = np.linalg.eigh(fit["s_dagger"])
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    rotated = x @ root
    rot_sq = np.sum(rotated**2, axis=1)
    k_reg = float(np.mean(rot_sq**2 - 2.0 * rot_sq + p))
    k_eps = float(np.mean(rot_sq**2 * fit["residuals"] ** 4))
    influence = (x @ (fit["s_dagger"] @ u)) * fit["residuals"]
    k_xi = float(np.mean(influence**4) / np.mean(influence**2) ** 2)
    mult = 1.0 + inflation / math.sqrt(n)
    return {
        "lambda_reg": lam_min / mult,
        "k_reg": k_reg * mult,
        "k_eps": k_eps * mult,
        "k_xi": k_xi * mult,
    }


def r_var_oracle(
    gamma: float,
    x: np.ndarray,
    residuals: np.ndarray,
    s_dagger: np.ndarray,
    lam: float,
    k_reg: float,
    k_eps: float,
) -> float:
    """The four-term variance-error bound transcribed directly."""
    n = x.shape[0]
    gt = math.sqrt(k_reg / (n * gamma))
    row_norms = np.linalg.norm(x, axis=1)
    m4 = float(np.mean(row_norms**4))
    m31 = float(np.mean(row_norms**3 * np.abs(residuals)))
    m_xe2 = float(np.mean(row_norms**2 * residuals**2))
    t4 = float(
        np.linalg.norm((x * residuals[:, None] ** 2).T @ x @ s_dagger / n, ord=2)
    )
    term1 = 2.0 / (n * lam**3) * (gt / (1 - gt) + 1) ** 2 * math.sqrt(k_eps / gamma) * m4
    term2 = (
        2.0 * math.sqrt(2.0) / (lam**2.5 * math.sqrt(n))
        * (gt / (1 - gt) + 1)
        * (k_eps / gamma) ** 0.25
        * m31
    )
    term3 = (k_reg / (n * gamma)) / (lam**2 * (1 - gt) ** 2) * m_xe2
    term4 = 2.0 * gt / (lam * (1 - gt)) * t4
    return term1 + term2 + term3 + term4


def ci_edg_oracle(
    x: np.ndarray,
    y: np.ndarray,
    u: np.ndarray,
    alpha: float,
    lam: float,
    k_reg: float,
    k_eps: float,
    k_xi: float,
    omega_exponent: float = -0.2,
    a_coefficient: float = 20.0,
    a_exponent: float = -0.4,
) -> tuple[float, float]:
    """End-to-end informative-branch interval from the defining formulas.

    Returns (lower, upper); assumes the caller is past the whole-line regime.
    """
    n = x.shape[0]
    fit = ols_fit_oracle(x, y)
    omega = n**omega_exponent
    a = 1.0 + a_coefficient * n**a_exponent
    gamma = omega * alpha / 2.0
    delta = delta_be(n, k_xi)
    nu_edg = (omega * alpha + math.exp(-n * (1 - 1 / a) ** 2 / (2 * k_xi))) / 2.0 + delta
    gt = math.sqrt(k_reg / (n * gamma))
    u_norm = float(np.linalg.norm(u))
    rlin = math.sqrt(2.0) * u_norm / math.sqrt(lam) * (gt / (1 - gt)) * (k_eps / gamma) ** 0.25
    rvar = r_var_oracle(gamma, x, fit["residuals"], fit["s_dagger"], lam, k_reg, k_eps)
    variance = float(u @ fit["v_hat"] @ u) + u_norm**2 * rvar
    q = mp_quantile(1.0 - alpha / 2.0 + nu_edg)
    half = (math.sqrt(a) * q * math.sqrt(variance) + rlin) / math.sqrt(n)
    center = float(u @ fit["beta"])
    return center - half, center + half


def _last_violation(
    condition: Callable[[int], bool],
    margin_ok: Callable[[int], bool],
    name: str,
    at_cap: Callable[[], str] = lambda: "",
) -> int:
    """Largest n with condition(n) true, assuming violations die out.

    Geometric scan (doubling) until the margin check passes at three
    consecutive grid points, then an exact linear back-scan from the first of
    those points.  Capped at N_SCAN_CAP; the error there names the condition
    and adds ``at_cap()``.
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
    for m in range(first_clean - 1, last_seen_violation, -1):
        if condition(m):
            return m
    return last_seen_violation


_MARGIN = 1e-3


def n_zero_backscan_oracle(alpha: float, tuning, k_reg: float, k_xi: float) -> int:
    """n0 by doubling and an exact linear back-scan, one nu_edg call per n."""
    # a sample size where the tuning rules leave their ranges (omega(1) = 1
    # for every power rule) is forced uninformative, i.e. counts as violating
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

    return max(
        _last_violation(cond_reg, cond_reg_margin, "n <= 2 K_reg/(omega_n alpha)"),
        _last_violation(cond_edg, cond_edg_margin, "nu_edg >= alpha/2", edg_at_cap),
    )


def sample_moments_oracle(values: np.ndarray) -> tuple[float, float]:
    """(mean, sigma_hat^2) of a sample by ``np.mean``, as ``Sample`` took them
    before it shared the study engine's row reduction; the DataError of an
    overflowing mean, and sigma_hat^2 = +inf when the squared deviations
    overflow."""
    with np.errstate(over="ignore"):
        mean = float(np.mean(values))
    if not math.isfinite(mean):
        raise DataError("sample mean overflows: the values are too large to average")
    with np.errstate(over="ignore"):
        return mean, float(np.mean((values - mean) ** 2))


def load_mean_csv_oracle(path: str | Path) -> Sample:
    """Read a single numeric column; optional header ``x``; blanks skipped."""
    values: list[float] = []
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            cell = row[0].strip()
            if lineno == 1 and cell.lower() == "x":
                continue
            try:
                values.append(float(cell))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric cell {cell!r}") from exc
    if not values:
        raise DataError(f"{path}: no numeric rows")
    return Sample(np.asarray(values))


def load_ols_csv_oracle(path: str | Path, add_intercept: bool, u_spec: str) -> Design:
    """Read ``y,x1,...,xp`` rows into a design targeting direction ``u_spec``.

    With ``add_intercept`` the intercept column is prepended and the first
    coordinate of ``u_spec`` refers to it.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = [cell.strip().lower() for cell in next(reader)]
        except StopIteration as exc:
            raise DataError(f"{path}: empty file") from exc
        p_file = len(header) - 1
        if p_file < 1 or header[0] != "y" or header[1:] != [f"x{i}" for i in range(1, p_file + 1)]:
            raise DataError(f"{path}: expected header 'y,x1,...,xp', got {header!r}")
        ys: list[float] = []
        xs: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != p_file + 1:
                raise ConfigError(
                    f"{path}:{lineno}: ragged row with {len(row)} cells, "
                    f"expected {p_file + 1}"
                )
            try:
                numbers = [float(cell) for cell in row]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            ys.append(numbers[0])
            xs.append(numbers[1:])
    if not xs:
        raise DataError(f"{path}: no data rows")
    x = np.asarray(xs)
    if add_intercept:
        x = np.column_stack([np.ones(len(xs)), x])
    u = _parse_vector(u_spec)
    if u.size != x.shape[1]:
        raise ConfigError(
            f"direction u has {u.size} coordinates but the design has "
            f"{x.shape[1]} columns (intercept {'included' if add_intercept else 'absent'})"
        )
    return Design(x=x, y=np.asarray(ys), u=u)



def stream_oracle(seed: int, n: int, replication: int) -> np.random.Generator:
    """Replication r's generator at size n, by the key rule: Philox keyed
    k0 | r << 64, with k0 the first 64-bit word of SeedSequence(seed,
    spawn_key=(n,))."""
    k0 = int(np.random.SeedSequence(seed, spawn_key=(n,)).generate_state(1, np.uint64)[0])
    return np.random.Generator(np.random.Philox(key=k0 | replication << 64))


def replication_records_oracle(spec, n: int) -> np.ndarray:
    """``(covered, whole_line, width, alpha_min)`` of every method and
    replication at n, as the engine's (methods, 4, replications) records:
    each replication drawn once from ``stream_oracle`` and given one
    ``interval`` call per method, NaN for a whole line's width and an
    untracked alpha_min."""
    dgp = spec.dgp
    records = np.empty((len(spec.methods), 4, spec.replications))
    for r in range(spec.replications):
        data = dgp.sample(n, stream_oracle(spec.base_seed, n, r))
        for record, method in zip(records, spec.methods):
            ci = method.interval(data, spec.alpha)
            amin = method.alpha_min_value(data)
            record[:, r] = [ci.contains(dgp.target), ci.whole_line, np.nan if ci.width is None else ci.width,
                            np.nan if amin is None else amin]
    return records


def coverage_study_oracle(spec) -> SimReport:
    """``run_coverage_study`` as one serial loop over (n, replication, method)."""
    records = [replication_records_oracle(spec, n) for n in spec.n_grid]
    return SimReport(tuple(
        _aggregate(method, n, spec.alpha, recs[i])
        for i, method in enumerate(spec.methods)
        for n, recs in zip(spec.n_grid, records)
    ))


def ols_width_means_oracle(dgp, method, n: int, alpha: float, replications: int, base_seed: int):
    """(mean edg width or None, mean sandwich width, share of whole-line edg
    intervals) of the OLS width curve at n: one fit per replication, each
    drawn from ``stream_oracle``."""
    edg_widths, asymp_widths = [], []
    for r in range(replications):
        design = dgp.sample(n, stream_oracle(base_seed, n, r))
        fit = ols_fit(design)
        edg_ci = ci_edg(design, alpha, method.bounds, method.tuning, fit=fit)
        if edg_ci.width is not None:
            edg_widths.append(edg_ci.width)
        asymp_widths.append(ci_asymp(design, alpha, fit=fit).width)
    return ((float(np.mean(edg_widths)) if edg_widths else None), float(np.mean(asymp_widths)),
            (replications - len(edg_widths)) / replications)


# ---------------------------------------------------------------------------
# tuning searches, one scalar search at a time
# ---------------------------------------------------------------------------


def _grid_then_golden_oracle(fn, grid, lo, hi, tol):
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


def _bisect_oracle(gap, lo, hi, descending):
    for _ in range(200):
        if hi - lo <= 1e-10 * hi:
            break
        mid = 0.5 * (lo + hi)
        if (gap(mid) < 0.0) == descending:
            hi = mid
        else:
            lo = mid
    return hi if descending else lo


def feasible_a_interval_oracle(n: int, alpha: float, k: float, d: float):
    """feasible_a_interval at delta_n = d, or None."""

    def gap(a):
        return _tuning_terms(a, n, k, d)[1] - alpha / 2.0

    grid = _SCAN_GRID
    feasible = np.nonzero(gap(grid) < 0.0)[0]
    if feasible.size == 0:
        return None
    first, last = int(feasible[0]), int(feasible[-1])
    lo = float(grid[first - 1]) if first > 0 else 1.0 + 1e-14
    a_low = _bisect_oracle(gap, lo, float(grid[first]), descending=True)
    if last == grid.size - 1:
        hi = float(grid[last])
        while gap(hi) < 0.0:
            hi *= 2.0
    else:
        hi = float(grid[last + 1])
    return a_low, _bisect_oracle(gap, float(grid[last]), hi, descending=False)


def optimize_a_oracle(n: int, alpha: float, k: float, d: float):
    """optimize_a at delta_n = d, or None where no a is feasible."""
    feasible = feasible_a_interval_oracle(n, alpha, k, d)
    if feasible is None:
        return None
    a_low, a_high = feasible
    candidates = np.exp(np.linspace(math.log(a_low), math.log(a_high), 258))[1:-1]
    conventional = DEFAULT_A_RULE(n)
    if a_low < conventional < a_high:
        candidates = np.sort(np.append(candidates, conventional))

    def width(a):
        return _width_multiplier(a, n, alpha, k, d)

    return _grid_then_golden_oracle(width, candidates, a_low, a_high, tol=1e-8)[0]


def alpha_min_oracle(n: int, k: float, d: float) -> float:
    """alpha_min under the optimized rule at delta_n = d."""

    def objective(a):
        return 2.0 * _tuning_terms(a, n, k, d)[1]

    grid = np.sort(np.append(_SCAN_GRID, DEFAULT_A_RULE(n)))
    _, value = _grid_then_golden_oracle(objective, grid, 1.0 + 1e-14, 2.0 * float(grid[-1]), 1e-10)
    return min(1.0, value)
