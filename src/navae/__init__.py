"""Confidence intervals that are valid at every sample size and exact in the limit.

The package covers two targets: a scalar expectation (under a kurtosis bound)
and a linear functional u'beta of OLS coefficients (under explicit moment
bounds, heteroskedasticity allowed).  The finite-sample intervals enlarge the
usual CLT intervals by normal-approximation error bounds that vanish as n
grows, so they coincide with the classical intervals asymptotically.  A
Monte Carlo harness reproduces the associated coverage and width studies.
"""

from .edgeworth import (
    BerryEsseen,
    DeltaProvider,
    EdgeworthContinuousLeading,
    EdgeworthLeading,
    MinOf,
    TableProvider,
    UserSupplied,
    delta_berry_esseen,
    delta_edgeworth_continuous_leading,
    delta_edgeworth_leading,
    delta_of,
    provider_from_string,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateSampleError,
    DomainError,
    FeasibilityError,
    InsufficientDataError,
    InvariantError,
    NavaeError,
    NotPositiveDefiniteError,
    ProviderError,
    UnboundedScanError,
)
from .linalg import SymMatrix, cholesky, psd_sqrt, pseudo_inverse, sym_eigen
from .mean_ci import (
    ConfidenceInterval,
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
    feasible_a_interval,
    nu_var,
    optimize_a,
    sample_kurtosis,
    student_cdf,
    student_quantile,
    unknown_variance_width_factor,
)
from .ols_ci import (
    Design,
    OlsBounds,
    OlsFit,
    OlsTuning,
    PlugIn,
    ci_asymp,
    ci_edg,
    n_zero,
    nu_edg,
    ols_fit,
    plug_in_bounds,
    r_lin,
    r_var,
    rate_r,
    resolve_bounds,
    tuning_for_rate,
)
from .rules import OPTIMIZED, OptimizedRule, PowerRule, parse_rule
from .specialfn import std_normal_cdf, std_normal_pdf, std_normal_quantile

__version__ = "0.2.0"
