import math

import numpy as np
import pytest

from navae.errors import DataError, DomainError, NotPositiveDefiniteError
from navae.linalg import (
    SymMatrix,
    cholesky,
    psd_sqrt,
    pseudo_inverse,
    spectral_norm,
    sym_eigen,
)


def random_symmetric(rng, p, rank=None):
    a = rng.standard_normal((p, p))
    m = a + a.T
    if rank is not None and rank < p:
        values, vectors = np.linalg.eigh(m)
        values[: p - rank] = 0.0
        m = (vectors * values) @ vectors.T
        m = 0.5 * (m + m.T)
    return m


def test_symmetrization_and_rejection():
    m = SymMatrix.from_array([[1.0, 2.0 + 1e-14], [2.0, 3.0]])
    assert m.array[0, 1] == m.array[1, 0]
    with pytest.raises(DomainError):
        SymMatrix.from_array([[1.0, 2.0], [0.5, 3.0]])
    with pytest.raises(DataError):
        SymMatrix.from_array([[math.nan, 0.0], [0.0, 1.0]])


def test_eigen_identity():
    values, vectors = sym_eigen(np.eye(3))
    assert values == pytest.approx([1.0, 1.0, 1.0])
    assert np.allclose(vectors @ vectors.T, np.eye(3), atol=1e-12)


def test_eigen_2x2_hand():
    values, vectors = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert values == pytest.approx([3.0, 1.0], abs=1e-12)
    top = vectors[:, 0]
    assert abs(top[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert top[0] == pytest.approx(top[1], abs=1e-12)


def test_eigen_diagonal():
    values, _ = sym_eigen(np.diag([5.0, 0.0, -1.0]))
    assert values == pytest.approx([5.0, 0.0, -1.0], abs=1e-14)


def test_eigen_contracts_random():
    rng = np.random.default_rng(42)
    for p in (1, 2, 3, 5, 8, 10):
        m = random_symmetric(rng, p)
        values, vectors = sym_eigen(m)
        scale = max(1.0, np.linalg.norm(m, 2))
        assert np.linalg.norm(m @ vectors - vectors * values) <= 1e-10 * scale
        assert np.linalg.norm(vectors.T @ vectors - np.eye(p)) <= 1e-10
        # reconstruction
        assert np.linalg.norm((vectors * values) @ vectors.T - m) <= 1e-10 * scale
        # descending order
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_eigen_larger_dimension():
    rng = np.random.default_rng(5)
    m = random_symmetric(rng, 40)
    values, vectors = sym_eigen(m)
    scale = max(1.0, np.linalg.norm(m, 2))
    assert np.linalg.norm(m @ vectors - vectors * values) <= 1e-10 * scale
    assert np.linalg.norm(vectors.T @ vectors - np.eye(40)) <= 1e-10


def test_pseudo_inverse_identity_and_diagonal():
    assert np.allclose(pseudo_inverse(np.eye(2)).array, np.eye(2), atol=1e-14)
    pinv = pseudo_inverse(np.diag([2.0, 0.0]))
    assert pinv.array == pytest.approx(np.diag([0.5, 0.0]), abs=1e-14)


def test_pseudo_inverse_hand_2x2():
    pinv = pseudo_inverse(np.array([[3.0, 3.0], [3.0, 5.0]]))
    expected = np.array([[5.0, -3.0], [-3.0, 3.0]]) / 6.0
    assert pinv.array == pytest.approx(expected, abs=1e-12)


def penrose_residuals(m, pinv):
    mp_ = m @ pinv
    pm = pinv @ m
    return (
        np.linalg.norm(m @ pinv @ m - m),
        np.linalg.norm(pinv @ m @ pinv - pinv),
        np.linalg.norm(mp_.T - mp_),
        np.linalg.norm(pm.T - pm),
    )


def test_penrose_conditions_random_including_rank_deficient():
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        p = int(rng.integers(1, 11))
        rank = int(rng.integers(1, p + 1)) if trial % 2 else None
        m = random_symmetric(rng, p, rank=rank)
        pinv = pseudo_inverse(m).array
        scale = max(1.0, np.linalg.norm(m, 2), np.linalg.norm(pinv, 2))
        for residual in penrose_residuals(m, pinv):
            assert residual <= 1e-9 * scale


def test_pseudo_inverse_cuts_eigenvalues_below_p_eps():
    # 1e-17 is below the default cutoff 2 * eps * 1.0, so it is rank-deficient
    pinv = pseudo_inverse(np.diag([1.0, 1e-17]))
    assert np.array_equal(pinv.array, np.diag([1.0, 0.0]))


def test_psd_sqrt_examples():
    assert psd_sqrt(np.diag([4.0, 9.0])).array == pytest.approx(np.diag([2.0, 3.0]), abs=1e-12)
    assert psd_sqrt(np.eye(3)).array == pytest.approx(np.eye(3), abs=1e-14)
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    root = psd_sqrt(m).array
    assert root @ root == pytest.approx(m, abs=1e-10)


def test_psd_sqrt_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = int(rng.integers(1, 9))
        b = rng.standard_normal((p, p))
        m = b @ b.T
        root = psd_sqrt(m).array
        scale = max(1.0, np.linalg.norm(m, 2))
        assert np.linalg.norm(root @ root - m) <= 1e-9 * scale


def test_psd_sqrt_of_square_is_identity():
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = int(rng.integers(1, 8))
        b = rng.standard_normal((p, p))
        m = b @ b.T  # PSD
        recovered = psd_sqrt(m @ m).array
        scale = max(1.0, np.linalg.norm(m, 2))
        assert np.linalg.norm(recovered - m) <= 1e-9 * scale


def test_psd_sqrt_clamps_tiny_negative_but_rejects_material():
    m = np.diag([1.0, -1e-14])
    root = psd_sqrt(m).array
    assert root[1, 1] == 0.0
    with pytest.raises(NotPositiveDefiniteError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_spectral_norm():
    assert spectral_norm(np.diag([-3.0, 2.0])) == pytest.approx(3.0, abs=1e-12)
    assert spectral_norm(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0, abs=1e-12)
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_cholesky_identity_and_hand():
    assert np.allclose(cholesky(np.eye(3)), np.eye(3))
    cov = np.array([[1.0, 0.5 * math.sqrt(2.0)], [0.5 * math.sqrt(2.0), 2.0]])
    L = cholesky(cov)
    assert L[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert L[1, 0] == pytest.approx(0.70711, abs=1e-4)
    assert L[1, 1] == pytest.approx(1.22474, abs=1e-4)
    assert L @ L.T == pytest.approx(cov, rel=1e-10)
    assert cholesky(np.array([[4.0]])) == pytest.approx(np.array([[2.0]]))


def test_cholesky_rejects_non_pd():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(np.diag([1.0, 0.0]))
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_enforces_relative_pivot_floor():
    # positive definite in exact arithmetic, but the pivot 1e-13 is below
    # 1e-12 * ||M||, so the factorization must refuse it
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(np.diag([1.0, 1e-13]))


def test_cholesky_random_round_trip():
    rng = np.random.default_rng(77)
    for _ in range(100):
        p = int(rng.integers(1, 9))
        b = rng.standard_normal((p, p))
        m = b @ b.T + np.eye(p) * 0.1
        L = cholesky(m)
        assert np.tril(L) == pytest.approx(L)
        assert np.linalg.norm(L @ L.T - m) <= 1e-10 * np.linalg.norm(m, 2)


@pytest.mark.parametrize("fn", [sym_eigen, pseudo_inverse, psd_sqrt])
@pytest.mark.parametrize(
    "raw, error",
    [
        ([[math.nan, 0.0], [0.0, 1.0]], DataError),
        ([[1.0, math.inf], [math.inf, 1.0]], DataError),
        ([[1.0, 2.0], [0.5, 3.0]], DomainError),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], DomainError),
    ],
)
def test_public_functions_validate_raw_arrays(fn, raw, error):
    with pytest.raises(error):
        fn(np.array(raw))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_pseudo_inverse_rejects_overflowing_result():
    # both eigenvalues pass the rank cutoff, but their inverses overflow
    with pytest.raises(DataError):
        pseudo_inverse(SymMatrix.from_array(np.diag([1e-310, 2e-310])))


def test_pseudo_inverse_and_psd_sqrt_results_are_symmetric():
    # V diag(d) V' is symmetric only up to round-off; the results are not
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = int(rng.integers(2, 9))
        b = rng.standard_normal((p, p))
        for result in (pseudo_inverse(b + b.T), psd_sqrt(b @ b.T)):
            assert np.array_equal(result.array, result.array.T)
            assert not result.array.flags.writeable
