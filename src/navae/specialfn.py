"""Standard normal CDF, density, and quantile at library-grade precision.

Every interval construction in this package reduces to evaluating the
standard normal distribution function Phi, its density phi, and the inverse
q(p) = Phi^{-1}(p).  The CDF goes through the stdlib complementary error
function, which keeps full relative accuracy deep in the tails (Phi(-37) is
still a normal double).  The quantile is the cephes ``ndtri`` routine from
``scipy.special``; this module adds the domain check in front of it.
"""

from __future__ import annotations

import math

from scipy.special import ndtri

from .errors import DomainError

__all__ = ["std_normal_cdf", "std_normal_pdf", "std_normal_quantile"]

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def std_normal_cdf(x: float) -> float:
    """Phi(x), evaluated as erfc(-x/sqrt(2))/2.

    The erfc route avoids the catastrophic cancellation of ``1 - Phi(-x)``
    in the far tails; values stay strictly positive for ``|x| <= 37``.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"std_normal_cdf requires finite x, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_pdf(x: float) -> float:
    """Standard normal density phi(x)."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"std_normal_pdf requires finite x, got {x!r}")
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, evaluated by ``scipy.special.ndtri``.

    Contract: strictly increasing, q(1-p) = -q(p) (exactly, for pairs whose
    floating-point sum is 1), and |Phi(q(p)) - p| <= 1e-12 on
    p in [1e-10, 1 - 1e-10].  Raises for p outside the open interval (0, 1);
    callers owning a "probability >= 1" branch (the whole-real-line regime)
    must take it before calling.
    """
    p = float(p)
    if not math.isfinite(p) or p <= 0.0 or p >= 1.0:
        raise DomainError(f"std_normal_quantile requires 0 < p < 1, got {p!r}")
    return float(ndtri(p))
