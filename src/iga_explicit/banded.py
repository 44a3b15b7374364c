"""Symmetric banded matrices, optionally with periodic (wrap-around) band structure."""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import NumericalError


def circulant_symbols(columns):
    """The symbol q(k) = sum_l c_l cos(2 pi (l k mod m) / m), k = 0 .. m // 2,
    of the symmetric circulant (c_l = c_{m - l}) of each first column c, the
    last axis of ``columns``: its eigenvalue at Fourier modes k and m - k.
    Real products over the rows l nonzero in some column, which keep
    numpy.fft and complex BLAS (each paging in a few hundred kB) out of a run.
    """
    columns = np.asarray(columns, dtype=float)
    m = columns.shape[-1]
    nonzero = np.flatnonzero(np.any(columns.reshape(-1, m), axis=0))
    angle = 2.0 * np.pi / m * (np.outer(nonzero, np.arange(m // 2 + 1)) % m)
    return columns[..., nonzero] @ np.cos(angle)


class BandedSymmetricMatrix:
    """Symmetric matrix stored by diagonals.

    ``bands[d, i]`` holds the entry ``(i, i + d)`` for offsets ``d = 0 .. halfwidth``;
    symmetry supplies the lower triangle. With ``periodic=True`` the column index
    wraps modulo ``n``, which requires ``2 * halfwidth < n`` so that wrapped
    diagonals cannot collide with themselves.

    For clamped (non-periodic) storage, ``bands[d, i]`` is meaningful for
    ``i < n - d``; the trailing entries of each diagonal are kept at zero.

    ``to_coo``, ``to_dense``, ``rowsums`` and ``matvec`` read the bands on
    every call. The first SPD solve factors the matrix by Cholesky (banded,
    or dense for periodic storage), which certifies that it is SPD, and
    forms the dense inverse from the factor; every solve is then one matrix
    product. Factoring makes ``bands`` read-only, so an edit after that
    fails loudly instead of leaving the factor and the inverse stale.
    """

    def __init__(self, n, halfwidth, periodic=False, bands=None):
        if n < 1:
            raise ValueError("matrix dimension must be positive")
        if halfwidth < 0:
            raise ValueError("halfwidth must be non-negative")
        if periodic:
            if 2 * halfwidth >= n:
                raise ValueError("periodic band storage requires 2*halfwidth < n")
        else:
            halfwidth = min(halfwidth, n - 1)
        self.n = n
        self.halfwidth = halfwidth
        self.periodic = periodic
        if bands is None:
            bands = np.zeros((halfwidth + 1, n))
        else:
            bands = np.asarray(bands, dtype=float)
            if bands.shape != (halfwidth + 1, n):
                raise ValueError("bands array has wrong shape")
        self.bands = bands
        self._chol = None
        self._inv = None

    def _entries(self):
        """The entries (data, rows, cols) of the full matrix, periodic wrap and
        lower triangle included, row by row in ascending column order: the
        order of its CSR form."""
        n, hw = self.n, self.halfwidth
        rows = np.broadcast_to(np.arange(n)[:, None], (n, 2 * hw + 1))
        offsets = np.broadcast_to(np.arange(-hw, hw + 1), rows.shape)
        cols = rows + offsets
        if self.periodic:
            cols = cols % n
            order = np.argsort(cols, axis=1)
            cols, offsets = (np.take_along_axis(a, order, axis=1) for a in (cols, offsets))
            stored = np.ones(rows.shape, dtype=bool)
        else:
            stored = (cols >= 0) & (cols < n)
        # entry (i, j) is bands[|i - j|] at the upper one of the pair
        data = self.bands[np.abs(offsets), np.where(offsets >= 0, rows, cols)]
        return data[stored], rows[stored], cols[stored]

    def to_coo(self):
        data, rows, cols = self._entries()
        return sp.coo_matrix((data, (rows, cols)), shape=(self.n, self.n))

    def to_dense(self):
        data, rows, cols = self._entries()
        out = np.zeros((self.n, self.n))
        out[rows, cols] = data
        return out

    def matvec(self, x):
        """Product with a vector, or with a matrix along its first axis; the
        entries are summed in column order, as a CSR product sums them."""
        x = np.asarray(x, dtype=float)
        return (self.to_coo() @ x.reshape(self.n, -1)).reshape(x.shape)

    def rowsums(self):
        """Each row's entries summed in column order, as a CSR product with
        ones sums them."""
        data, rows, _ = self._entries()
        return np.bincount(rows, weights=data, minlength=self.n)

    def submatrix(self, lo, hi):
        """Restriction to the index range ``[lo, hi)`` (non-periodic only)."""
        if self.periodic:
            raise ValueError("cannot restrict a periodic banded matrix")
        if not (0 <= lo <= hi <= self.n):
            raise ValueError("invalid restriction range")
        m = hi - lo
        hw = min(self.halfwidth, m - 1)
        out = BandedSymmetricMatrix(m, hw)
        for d in range(hw + 1):
            out.bands[d, : m - d] = self.bands[d, lo : lo + m - d]
        return out

    # -- SPD solves ---------------------------------------------------------

    def _upper_ab(self):
        hw = self.halfwidth
        ab = np.zeros((hw + 1, self.n))
        for d in range(hw + 1):
            ab[hw - d, d:] = self.bands[d, : self.n - d]
        return ab

    def _factorize(self):
        if self._chol is not None:
            return self._chol
        self.bands.flags.writeable = False
        try:
            if self.periodic:
                self._chol = ("dense", scipy.linalg.cho_factor(self.to_dense()))
            else:
                cb = scipy.linalg.cholesky_banded(self._upper_ab(), lower=False)
                self._chol = ("banded", cb)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError) as exc:
            raise NumericalError(
                f"banded Cholesky failed (matrix not SPD): {exc}; "
                f"smallest eigenvalue ~ {self.smallest_eigenvalue():.3e}"
            ) from None
        return self._chol

    def dense_inverse(self):
        """The inverse as a read-only dense array, formed from the Cholesky
        factor on first use. The matrices solved with are 1D factors of a few
        hundred rows at most, where one product with the inverse beats the
        column-by-column triangular solves of LAPACK."""
        if self._inv is None:
            kind, fac = self._factorize()
            eye = np.eye(self.n)
            if kind == "dense":
                self._inv = scipy.linalg.cho_solve(fac, eye)
            else:
                self._inv = scipy.linalg.cho_solve_banded((fac, False), eye)
            self._inv.flags.writeable = False
        return self._inv

    def solve(self, b):
        """SPD solve; ``b`` may be a vector or a matrix of columns."""
        b = np.asarray(b, dtype=float)
        return (self.dense_inverse() @ b.reshape(self.n, -1)).reshape(b.shape)

    def is_spd(self):
        try:
            self._factorize()
        except NumericalError:
            return False
        return True

    def smallest_eigenvalue(self):
        if self.periodic:
            return float(np.linalg.eigvalsh(self.to_dense())[0])
        w = scipy.linalg.eig_banded(
            self._upper_ab(), lower=False, eigvals_only=True, select="i", select_range=(0, 0)
        )
        return float(w[0])
