"""Banded symmetric storage, matvec, restriction, and SPD solves."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracle_utils import banded_from_dense

from iga_explicit.banded import BandedSymmetricMatrix
from iga_explicit.dualbasis import approximate_dual, constrain_dual
from iga_explicit.errors import NumericalError
from iga_explicit.splinecore import uniform_space


def random_banded_dense(n, hw, periodic, seed, spd=False):
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            d = min((j - i) % n, (i - j) % n) if periodic else j - i
            if d <= hw:
                A[i, j] = A[j, i] = rng.normal()
    if spd:
        A += np.eye(n) * (np.abs(A).sum(axis=1).max() + 1.0)
    return A


@pytest.mark.parametrize("periodic", [False, True])
def test_dense_roundtrip(periodic):
    A = random_banded_dense(9, 2, periodic, seed=0)
    B = banded_from_dense(A, 2, periodic=periodic)
    assert_allclose(B.to_dense(), A, atol=0)


@pytest.mark.parametrize("periodic", [False, True])
def test_matvec_matches_dense(periodic):
    # n = 7 at halfwidth 3 is the tightest periodic band: 2 * halfwidth = n - 1
    for n, hw in ((11, 3), (7, 3)):
        A = random_banded_dense(n, hw, periodic, seed=1)
        B = banded_from_dense(A, hw, periodic=periodic)
        rng = np.random.default_rng(2)
        x = rng.normal(size=n)
        assert_allclose(B.matvec(x), A @ x, atol=1e-13)
        X = rng.normal(size=(n, 4))
        assert_allclose(B.matvec(X), A @ X, atol=1e-13)
        assert_allclose(B.to_dense(), A, atol=0)
        assert_allclose(B.rowsums(), A.sum(axis=1), atol=1e-13)


@pytest.mark.parametrize("periodic", [False, True])
def test_matvec_is_the_csr_product_bit_for_bit(periodic):
    # the entries are summed in the CSR form's order, so the products with
    # and without that form agree to the last bit
    for n, hw in ((11, 3), (7, 3), (40, 5)):
        B = banded_from_dense(random_banded_dense(n, hw, periodic, seed=3), hw,
                              periodic=periodic)
        csr = B.to_coo().tocsr()
        X = np.random.default_rng(4).normal(size=(n, 5))
        assert np.array_equal(B.matvec(X[:, 0]), csr @ X[:, 0])
        assert np.array_equal(B.matvec(X), csr @ X)


def test_bands_are_frozen_once_solved():
    # an apply reads the bands on every call; the first solve factors them,
    # and an edit after it would leave the factor and the inverse stale
    A = random_banded_dense(9, 2, False, seed=8, spd=True)
    B = banded_from_dense(A, 2)
    assert_allclose(B.matvec(np.eye(9)), A, atol=0)
    B.bands[0, 0] += 1.0  # edits after an apply are seen
    A[0, 0] += 1.0
    assert_allclose(B.matvec(np.eye(9)), A, atol=0)
    assert_allclose(B.solve(A), np.eye(9), atol=1e-12)
    with pytest.raises(ValueError):
        B.bands[0, 0] = 0.0


def test_submatrix_and_constrained_dual_apply_like_dense():
    A = random_banded_dense(12, 3, False, seed=9, spd=True)
    B = banded_from_dense(A, 3)
    B.solve(np.ones(12))  # the parent's factor must not leak into the restriction
    sub = B.submatrix(2, 10)
    X = np.random.default_rng(10).normal(size=(8, 3))
    assert_allclose(sub.matvec(X), A[2:10, 2:10] @ X, atol=1e-13)

    # the constrained dual edits the bands of its restriction after submatrix
    dual = approximate_dual(uniform_space(14, 3))
    cd = constrain_dual(dual, left=True, right=True)
    dense = cd.S.to_dense()
    S = dual.S.to_dense()
    c = [0, -1]
    schur = S[1:-1, 1:-1] - S[1:-1][:, c] @ np.linalg.solve(S[np.ix_(c, c)], S[c][:, 1:-1])
    scale = np.abs(S).max()
    assert_allclose(dense, schur, atol=1e-12 * scale)
    x = np.random.default_rng(11).normal(size=dense.shape[0])
    assert_allclose(cd.S.matvec(x), dense @ x, atol=1e-13 * scale)
    assert_allclose(cd.S.rowsums(), dense.sum(axis=1), atol=1e-13 * scale)


@pytest.mark.parametrize("periodic", [False, True])
def test_spd_solve(periodic):
    A = random_banded_dense(10, 2, periodic, seed=3, spd=True)
    B = banded_from_dense(A, 2, periodic=periodic)
    rng = np.random.default_rng(4)
    b = rng.normal(size=10)
    assert_allclose(B.solve(b), np.linalg.solve(A, b), atol=1e-11)
    assert B.is_spd()


def test_non_spd_reported():
    A = random_banded_dense(8, 2, False, seed=5)
    A -= np.eye(8) * (np.abs(A).sum() + 1.0)
    B = banded_from_dense(A, 2)
    assert not B.is_spd()
    with pytest.raises(NumericalError):
        B.solve(np.ones(8))
    assert B.smallest_eigenvalue() < 0


def test_submatrix():
    A = random_banded_dense(9, 2, False, seed=6)
    B = banded_from_dense(A, 2)
    sub = B.submatrix(1, 8)
    assert_allclose(sub.to_dense(), A[1:8, 1:8], atol=0)


def test_submatrix_periodic_rejected():
    B = BandedSymmetricMatrix(8, 1, periodic=True)
    with pytest.raises(ValueError):
        B.submatrix(1, 7)


def test_rowsums():
    A = random_banded_dense(7, 2, False, seed=7)
    B = banded_from_dense(A, 2)
    assert_allclose(B.rowsums(), A.sum(axis=1), atol=1e-13)
