"""Dense symmetric linear algebra for small matrices (p up to ~100).

The factorizations are LAPACK's, through numpy (``eigh``, ``cholesky`` and
``eigvalsh``).  This module adds what LAPACK leaves to the caller: input
validation (``SymMatrix`` and every public function check shape, finiteness
and symmetry in full; ``_symmetrized`` keeps only the finite check for the
matrices the library has just built symmetric), the pseudo-inverse's rank
cutoff, the square root's clamp of round-off negative eigenvalues, and a
relative pivot floor that makes Cholesky reject numerically singular input.
The private helpers take one matrix or a stack of them (leading axes), and
do to each matrix of a stack what they do to one matrix alone.
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
    "cholesky",
]

_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class SymMatrix:
    """Immutable symmetric matrix; symmetrized as (M + M')/2 on construction.

    The public constructor rejects a non-square shape, non-finite entries and
    asymmetry beyond 1e-12 relative to the largest entry magnitude.
    ``_of`` wraps an array that ``_symmetrized`` returned, unchecked.
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
    def _of(cls, sym: np.ndarray) -> "SymMatrix":
        """Wrap a matrix that ``_symmetrized`` returned (or one of its stack) as it is."""
        m = object.__new__(cls)
        object.__setattr__(m, "array", sym)
        return m


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """(A + A')/2 of a square array (or of each matrix of a stack), read-only.

    The finite check runs on the symmetrized array, so it also catches an
    overflow in (A + A')/2.
    """
    sym = 0.5 * (a + np.swapaxes(a, -1, -2))
    if not np.isfinite(sym).all():
        raise DataError("matrix entries must be finite")
    sym.setflags(write=False)
    return sym


def _as_sym(m: SymMatrix | np.ndarray) -> SymMatrix:
    return m if isinstance(m, SymMatrix) else SymMatrix(m)


def _eigh_desc(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a symmetric array or stack, eigenvalues descending."""
    values, vectors = np.linalg.eigh(a)
    return values[..., ::-1], vectors[..., ::-1]


def sym_eigen(m: SymMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors (as columns)."""
    return _eigh_desc(_as_sym(m).array)


def pseudo_inverse(m: SymMatrix | np.ndarray) -> SymMatrix:
    """Moore-Penrose pseudo-inverse via the eigendecomposition.

    Eigenvalues with |lambda| <= p * machine epsilon * max|lambda|, the usual
    cutoff for rank decisions, are treated as zero.
    """
    return SymMatrix._of(_pseudo_inverse_of(*sym_eigen(m)))


def _largest_magnitude(values: np.ndarray) -> np.ndarray:
    """max |eigenvalue| of each matrix, kept as a trailing axis of length 1
    (0 for a 0 x 0 matrix)."""
    return np.max(np.abs(values), axis=-1, keepdims=True, initial=0.0)


def _pseudo_inverse_of(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``pseudo_inverse(...).array`` of the matrix (or stack) whose
    ``_eigh_desc`` is (values, vectors)."""
    cutoff = values.shape[-1] * np.finfo(float).eps * _largest_magnitude(values)
    inv = np.where(np.abs(values) > cutoff, 1.0 / np.where(values == 0.0, 1.0, values), 0.0)
    return _symmetrized((vectors * inv[..., None, :]) @ np.swapaxes(vectors, -1, -2))


def psd_sqrt(m: SymMatrix | np.ndarray) -> SymMatrix:
    """Symmetric PSD square root; tiny negative eigenvalues are clamped to 0."""
    return SymMatrix._of(_symmetrized(_psd_sqrt_array(_as_sym(m).array)))


def _psd_sqrt_array(sym: np.ndarray) -> np.ndarray:
    """``psd_sqrt`` of a symmetric array (or stack) without the wrapper:
    ``_symmetrized`` leaves its (R + R')/2 as it is."""
    values, vectors = _eigh_desc(sym)
    floor = -1e-10 * np.maximum(_largest_magnitude(values), 1e-300)
    if np.any(values < floor):
        raise NotPositiveDefiniteError(
            f"matrix has a materially negative eigenvalue {float(np.min(values)):.6e}"
        )
    roots = np.sqrt(np.clip(values, 0.0, None))
    root = (vectors * roots[..., None, :]) @ np.swapaxes(vectors, -1, -2)
    return 0.5 * (root + np.swapaxes(root, -1, -2))


def cholesky(m: SymMatrix | np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L' = M for strictly positive-definite M.

    Rejects M when a pivot L[j, j]^2 is at most 1e-12 times its spectral norm
    (its largest |eigenvalue|), which LAPACK alone would accept.
    """
    sym = _as_sym(m)
    try:
        L = np.linalg.cholesky(sym.array)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"Cholesky factorization failed: {exc}") from exc
    pivots = np.diag(L) ** 2
    norm = float(np.max(np.abs(np.linalg.eigvalsh(sym.array)), initial=0.0))
    pivot_floor = 1e-12 * max(norm, 1e-300)
    too_small = pivots <= pivot_floor
    if np.any(too_small):
        j = int(np.argmax(too_small))
        raise NotPositiveDefiniteError(
            f"Cholesky pivot {pivots[j]:.6e} at column {j} is not positive enough"
        )
    return L
