"""Dense symmetric linear algebra for small matrices (p up to ~100).

The factorizations are LAPACK's, through numpy: ``np.linalg.eigh`` for the
eigendecomposition (from which the pseudo-inverse and the PSD square root
derive), ``np.linalg.eigvalsh`` for the spectral norm, and
``np.linalg.cholesky``.  This module adds what LAPACK leaves to the caller:
input validation through ``SymMatrix``, the rank cutoff of the pseudo-inverse,
the clamp of round-off negative eigenvalues in the square root, and a
relative pivot floor that makes Cholesky reject numerically singular input.

Validation runs where a matrix enters from outside.  ``SymMatrix(...)``,
``SymMatrix.from_array`` and every public function handed a raw array check
the shape, finiteness and symmetry in full.  Matrices the library has just
built symmetric itself (x'x/n in ``ols_fit`` and the results of
``pseudo_inverse`` and ``psd_sqrt``) are wrapped by ``SymMatrix._built``,
which keeps the finite check and the symmetrisation and skips the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, NotPositiveDefiniteError

__all__ = [
    "SymMatrix",
    "sym_eigen",
    "pseudo_inverse",
    "psd_sqrt",
    "spectral_norm",
    "cholesky",
]

_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class SymMatrix:
    """Immutable symmetric matrix; symmetrized as (M + M')/2 on construction.

    The public constructor rejects a non-square shape, non-finite entries and
    asymmetry beyond 1e-12 relative to the largest entry magnitude.
    ``_built``, for arrays the library has just built symmetric, only
    symmetrizes and rejects non-finite entries.
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise DataError("matrix entries must be finite")
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        if asym > _SYMMETRY_RTOL * max(scale, 1e-300):
            raise DomainError(
                f"matrix is not symmetric: max asymmetry {asym:.3e} exceeds "
                f"{_SYMMETRY_RTOL:.0e} * scale {scale:.3e}"
            )
        sym = 0.5 * (a + a.T)
        sym.setflags(write=False)
        object.__setattr__(self, "array", sym)

    @classmethod
    def _built(cls, a: np.ndarray) -> "SymMatrix":
        """Wrap a square array built symmetric up to round-off by this library.

        The finite check runs on the symmetrized array, so it also catches an
        overflow in (M + M')/2.
        """
        sym = 0.5 * (a + a.T)
        if not np.isfinite(sym).all():
            raise DataError("matrix entries must be finite")
        sym.setflags(write=False)
        m = object.__new__(cls)
        object.__setattr__(m, "array", sym)
        return m

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @classmethod
    def from_array(cls, values) -> "SymMatrix":
        return cls(np.array(values, dtype=float))


def _as_sym(m: SymMatrix | np.ndarray) -> SymMatrix:
    return m if isinstance(m, SymMatrix) else SymMatrix.from_array(m)


def sym_eigen(m: SymMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors (as columns)."""
    values, vectors = np.linalg.eigh(_as_sym(m).array)
    return values[::-1], vectors[:, ::-1]


def spectral_norm(m: SymMatrix | np.ndarray) -> float:
    """Largest absolute eigenvalue."""
    values = np.linalg.eigvalsh(_as_sym(m).array)
    return float(np.max(np.abs(values))) if values.size else 0.0


def pseudo_inverse(m: SymMatrix | np.ndarray, rtol: float | None = None) -> SymMatrix:
    """Moore-Penrose pseudo-inverse via the eigendecomposition.

    Eigenvalues with |lambda| <= rtol * max|lambda| are treated as zero; the
    default rtol is p * machine epsilon, the usual cutoff for rank decisions.
    """
    sym = _as_sym(m)
    values, vectors = sym_eigen(sym)
    if rtol is None:
        rtol = sym.dim * np.finfo(float).eps
    cutoff = rtol * float(np.max(np.abs(values))) if values.size else 0.0
    inv = np.where(np.abs(values) > cutoff, 1.0 / np.where(values == 0.0, 1.0, values), 0.0)
    return SymMatrix._built((vectors * inv) @ vectors.T)


def psd_sqrt(m: SymMatrix | np.ndarray) -> SymMatrix:
    """Symmetric PSD square root; tiny negative eigenvalues are clamped to 0."""
    sym = _as_sym(m)
    values, vectors = sym_eigen(sym)
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    floor = -1e-10 * max(scale, 1e-300)
    if np.any(values < floor):
        raise NotPositiveDefiniteError(
            f"matrix has a materially negative eigenvalue {float(np.min(values)):.6e}"
        )
    roots = np.sqrt(np.clip(values, 0.0, None))
    return SymMatrix._built((vectors * roots) @ vectors.T)


def cholesky(m: SymMatrix | np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L' = M for strictly positive-definite M.

    Rejects M when a pivot L[j, j]^2 is at most 1e-12 times its spectral norm,
    which LAPACK alone would accept.
    """
    sym = _as_sym(m)
    try:
        L = np.linalg.cholesky(sym.array)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"Cholesky factorization failed: {exc}") from exc
    pivots = np.diag(L) ** 2
    pivot_floor = 1e-12 * max(spectral_norm(sym), 1e-300)
    too_small = pivots <= pivot_floor
    if np.any(too_small):
        j = int(np.argmax(too_small))
        raise NotPositiveDefiniteError(
            f"Cholesky pivot {pivots[j]:.6e} at column {j} is not positive enough"
        )
    return L
