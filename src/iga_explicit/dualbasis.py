"""Grammian assembly, exact and approximate dual bases, boundary-constrained
variants, and quasi-projection.

The approximate dual coefficient matrix S is the symmetric banded minimizer of
the Frobenius distance ||S G - I||_F subject to exact reproduction of all
monomial coefficient vectors up to the polynomial degree. It is symmetric
positive definite (verified, not imposed), has local support, and every row of
the product C = S G sums to one, so rowsum lumping of C yields the identity.

On a clamped direction S comes from the SVD of the equilibrated constraint
matrix A, assembled a chunk of rows at a time and held in its (row, window)
layout, the 2 hw + 1 columns around each row. When the knots are symmetric
under x -> a + b - x, A commutes with the mirror of band entries and signed
constraints. Each side then has an orthogonal basis, mirror-even columns
first, held as index maps (the columns each index enters, with their
values), in which A is block-diagonal; the mirror's index arithmetic on
the window layout gives both blocks' entries, without a sort, and the
blocks are filled and decomposed one at a time, their factors kept per
block. The split is taken only when the measured coupling of the halves is
round-off (at most 1e-12 of the largest entry); asymmetric meshes use
identity bases and one dense block. The objective then picks S in all of
the constraints' null space.

A weighted Grammian calls its weight once, on all quadrature points.

Homogeneous boundary constraints keep the dual banded: the inverse of S^{-1}
restricted to the free indices is the Schur complement
S_ff - S_fc S_cc^{-1} S_cf, whose correction stays inside the band of S near
each constrained end, so the inverse of S is never formed.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
import scipy.linalg

from .banded import BandedSymmetricMatrix, circulant_symbols
from .errors import NumericalError
from .quadrature import element_quadrature, moments
from .splinecore import eval_basis, greville

# largest constraint residual, relative to the largest right-hand side, at
# which the clamped duality constraints count as satisfied
FEASIBILITY_TOL = 1e-9
# cap on the iterative refinement of the filtered pseudo-inverse solution
REFINEMENT_STEPS = 30
# floats of the constraint moment windows filled at one time
WINDOW_FLOATS = 1 << 16

__all__ = [
    "BandedSymmetricMatrix",
    "ApproximateDualBasis",
    "ConstrainedDual",
    "grammian",
    "exact_dual_coeffs",
    "approximate_dual",
    "constrain_dual",
    "quasi_project",
]


def grammian(space, weight=None, points_per_element=None):
    """Banded matrix of products <B_i, B_j> (optionally with a positive weight).

    ``weight`` is called once, on the array of all quadrature points, and its
    result must broadcast to that array. A weight that is not positive and
    finite at some point is an error naming the first such point.
    """
    p = space.degree
    if points_per_element is None:
        points_per_element = p + 1 if weight is None else p + 2
    xq, wq = element_quadrature(space, points_per_element)
    if weight is not None:
        wx = np.broadcast_to(weight(xq), xq.shape)
        bad = np.flatnonzero(~((wx > 0.0) & (wx < np.inf)))
        if len(bad):
            x, v = xq[bad[0]], wx[bad[0]]
            raise ValueError(f"{'non-positive' if v <= 0.0 else 'non-finite'} weight {v} "
                             f"at quadrature point {x}")
        wq = wq * wx
    return _grammian(space, wq, eval_basis(space, xq))


def _grammian(space, wq, ev):
    """The Grammian from quadrature weights and the basis evaluated at the points."""
    p = space.degree
    n = space.dimension
    hw = min(p, n - 1) if not space.periodic else p
    # every pair a <= b of the functions alive at a point adds to band b - a
    # of row indices[a]; np.add.at sums in the order of a loop over points
    vals = ev.values[:, 0]
    a, b = np.triu_indices(p + 1)
    bands = np.zeros((hw + 1, n))
    np.add.at(bands, (b - a, ev.indices[:, a]), wq[:, None] * vals[:, a] * vals[:, b])
    return BandedSymmetricMatrix(n, hw, periodic=space.periodic, bands=bands)


def exact_dual_coeffs(space, cap=512):
    """Dense inverse of the Grammian; the coefficients of the exact dual basis.

    Intended as a small-N oracle; refuse beyond the cap.
    """
    if space.dimension > cap:
        raise ValueError(f"exact dual oracle capped at N={cap}")
    return np.linalg.inv(grammian(space).to_dense())


@dataclass(frozen=True)
class ApproximateDualBasis:
    """Banded SPD coefficient matrix S defining locally supported dual functions."""

    space: object
    S: BandedSymmetricMatrix
    halfwidth: int
    G: BandedSymmetricMatrix
    # how the clamped construction went (empty for periodic directions):
    # mirror_split and block_shapes of the constraint SVD (the shapes of the
    # blocks decomposed, whose rows and columns add up to those of A),
    # mirror_coupling (largest coupling entry relative to max|A|),
    # null_directions (singular values below the 1e-14 threshold plus, for
    # hw > p, each block's columns beyond its rows), min_kept_sv_rel
    # (smallest kept singular value over the largest of all blocks),
    # refinement_steps and refinement_capped, and constraint_residual
    # (max-norm, relative to the right-hand side scale)
    diagnostics: Mapping = field(default_factory=lambda: MappingProxyType({}), compare=False)

    def apply(self, x):
        return self.S.matvec(x)

    @property
    def product_dense(self):
        """Dense C = S G, the parametric Petrov mass of this direction."""
        return self.S.to_dense() @ self.G.to_dense()


def approximate_dual(space, halfwidth=None):
    """Construct the approximate dual coefficient matrix for a space.

    The half-bandwidth defaults to the degree and may not be below it.
    Duality constraints that are infeasible at that width, and a result that
    is not SPD, are reported as errors. A clamped S is checked by its banded
    Cholesky factor, which later solves reuse; a periodic one by its symbol,
    the exact eigenvalues of a symmetric circulant, and factored only when
    first solved with. Either way S's bands are read-only on return.
    """
    p = space.degree
    hw = p if halfwidth is None else int(halfwidth)
    if hw < p:
        raise ValueError(f"dual halfwidth {hw} is below the degree {p}")
    if space.periodic:
        G = grammian(space)
        S, diagnostics = _periodic_dual(space, G, hw), {}
        S.bands.flags.writeable = False
    else:
        G, S, diagnostics = _clamped_dual(space, hw)
        if not S.is_spd():
            raise NumericalError(
                "approximate dual coefficient matrix is not SPD "
                f"(halfwidth {hw}, smallest eigenvalue {S.smallest_eigenvalue():.3e})"
            )
    return ApproximateDualBasis(space, S, hw, G, MappingProxyType(diagnostics))


def _clamped_dual(space, hw):
    """Constrained Frobenius minimizer over symmetric banded matrices, with
    the Grammian G it is built from: (G, S, diagnostics).

    The duality constraints are assembled per row in the local polynomial
    basis ((x - g_r)/h)^m with g_r the row's Greville point: the same
    constraint set as reproduction of global monomial coefficient vectors,
    but with O(1)-scaled, well-conditioned data. The right-hand sides are
    the local polynomials' own B-spline coefficients, evaluated exactly via
    the de Boor-Fix dual functional. G and the constraint moments share one
    evaluation of the basis at the p+1 Gauss points of every element.
    """
    n = space.dimension
    p = space.degree
    a, b = space.domain
    hbar = (b - a) / space.n_elements
    rows = np.arange(n)[:, None]

    # band entry (i, i + d) is unknown start[i] + d; column j = r - hw + t of
    # row r's window is unknown ids[r, t] where it exists (inside)
    counts = np.minimum(hw, n - 1 - rows[:, 0]) + 1
    start = np.cumsum(counts) - counts
    ns = int(counts.sum())
    width = 2 * hw + 1
    cols = rows - hw + np.arange(width)
    inside = (cols >= 0) & (cols < n)
    cols = np.clip(cols, 0, n - 1)
    ids = start[np.minimum(rows, cols)] + np.abs(rows - cols)

    xq, wq = element_quadrature(space, p + 1)
    ev = eval_basis(space, xq)
    G = _grammian(space, wq, ev)
    # constraint (r, m) has vals[r, m, t] in column ids[r, t] of its window,
    # zero outside; the dense (p+1)n x ns matrix A is never formed
    vals, rhs = _constraint_rows(space, hw, xq, wq, ev)

    def constraints(s):
        return (vals * s[ids][:, None, :]).sum(axis=2).ravel()

    # the mirror x -> a + b - x maps band entry (i, d) to (n-1-i-d, d)
    entry_row = np.repeat(np.arange(n), counts)
    entry_off = np.arange(ns) - start[entry_row]
    Qr, Qc, factors, split = _mirror_svd(vals, ids, inside,
                                         start[n - 1 - entry_row - entry_off] + entry_off)
    # the singular values of all blocks, sorted, set only the thresholds and
    # the diagnostics
    sv = np.sort(np.concatenate([s for _, _, _, s, _ in factors]))[::-1]
    sig0 = sv[0]
    # Filtered pseudo-inverse: keeps genuinely tiny singular directions (the
    # constraint system is consistent but extremely graded), while the exact
    # numerical nullspace is reserved for the Frobenius objective below.
    alpha = 1e-13 * sig0
    null_cut = 1e-14 * sig0
    filts = [s / (s**2 + alpha**2) for _, _, _, s, _ in factors]

    (rslots, rcoefs), (cslots, ccoefs) = Qr, Qc

    def pinv_apply(vec):
        # Qc y, y the blocks' filtered V S^+ U^T of their rows of
        # x = Qr^T vec, both by the index maps; x sums its terms from +0
        x = np.bincount(rslots.ravel(), weights=(rcoefs * vec[:, None]).ravel(),
                        minlength=len(rslots))
        y = np.concatenate([vt[: len(s)].T @ (filt * (u.T @ x[rs]))
                            for (rs, _, u, s, vt), filt in zip(factors, filts)])
        return (ccoefs * y[cslots]).sum(axis=1)

    s_opt = pinv_apply(rhs)
    scale = max(1.0, np.max(np.abs(rhs)))
    steps = 0
    for _ in range(REFINEMENT_STEPS):
        dr = rhs - constraints(s_opt)
        if np.max(np.abs(dr)) < 5e-15 * scale:
            break
        s_opt = s_opt + pinv_apply(dr)
        steps += 1
    residual = np.max(np.abs(constraints(s_opt) - rhs))
    if residual > FEASIBILITY_TOL * scale:
        raise NumericalError(
            f"duality constraints infeasible at halfwidth {hw} (residual {residual:.3e})"
        )

    # null space: each block's singular directions below the threshold, and,
    # on a block with fewer rows than columns (hw > p), the complement of its
    # row space, which the block's full vt holds past its singular values
    nulls = [(cs, np.concatenate([vt[: len(s)][s < null_cut], vt[len(s) :]]).T)
             for _, cs, _, s, vt in factors]
    del factors, filts  # from here on only the null directions are needed
    k = sum(V.shape[1] for _, V in nulls)
    if k:
        # Z = Qc V, V the blocks' null directions side by side
        Z = np.zeros((ns, k))
        at = 0
        for cs, V in nulls:
            zr, za = np.nonzero((cslots >= cs.start) & (cslots < cs.stop) & (ccoefs != 0.0))
            Z[zr, at : at + V.shape[1]] = ccoefs[zr, za, None] * V[cslots[zr, za] - cs.start]
            at += V.shape[1]
        del nulls, V
        # with s = h S and F = G / h, ||S G - I||_F^2 / 2 is, up to a constant,
        # the sum over rows r of s_r^T (F^2)_{J_r J_r} s_r / 2 - s_r^T F_{J_r r},
        # s_r the row's unknowns on its window columns J_r. Gwin holds F on
        # the window rows and the columns within p of them, zero outside F
        near = rows - hw - p + np.arange(width + 2 * p)
        j, c = cols[:, :, None], np.clip(near, 0, n - 1)[:, None, :]
        off = np.minimum(abs(j - c), G.halfwidth + 1)  # past the band: a zero row
        Gwin = np.vstack([G.bands, np.zeros(n)])[off, np.minimum(j, c)] / hbar
        Gwin *= inside[..., None] & ((near >= 0) & (near < n))[:, None]
        G2 = Gwin @ Gwin.transpose(0, 2, 1)
        blin = np.zeros(ns)
        np.add.at(blin, ids[inside], Gwin[:, :, hw + p][inside])
        gred = Z.T @ blin
        Hred = np.zeros((k, k))
        # Z on the window columns of a chunk of rows holds no more floats
        # than the larger of Hred and G2
        chunk = max(1, max(k * k, G2.size) // (width * k))
        for lo in range(0, n, chunk):
            Zw = Z[ids[lo : lo + chunk]]
            ZwT = Zw.reshape(-1, k).T
            gred -= ZwT @ (G2[lo : lo + chunk] @ s_opt[ids[lo : lo + chunk]][..., None]).ravel()
            Hred += ZwT @ (G2[lo : lo + chunk] @ Zw).reshape(-1, k)
        s_opt = s_opt + Z @ np.linalg.solve(Hred, gred)

    S = BandedSymmetricMatrix(n, hw)
    S.bands[entry_off, entry_row] = s_opt / hbar
    kept = sv[sv >= null_cut]
    diagnostics = {
        "mirror_split": len(split["block_shapes"]) > 1,
        "block_shapes": split["block_shapes"],
        "mirror_coupling": split["coupling"],
        "null_directions": k,
        "min_kept_sv_rel": float(kept[-1] / sig0),
        "refinement_steps": steps,
        "refinement_capped": steps == REFINEMENT_STEPS,
        "constraint_residual": float(residual / scale),
    }
    return G, S, diagnostics


def _constraint_rows(space, hw, xq, wq, ev):
    """The equilibrated duality constraints and their right-hand sides:
    vals (n, p+1, 2hw+1), constraint (r, m) on the window columns
    r - hw .. r + hw of row r, zero outside the matrix, and rhs, row
    r * (p+1) + m. xq, wq and ev are the p+1 Gauss points of every element,
    their weights and the basis evaluated there.

    The moments of the local polynomials against the window columns come
    from the elements whose first function lies in [r - hw - p, r + hw]
    (the p+1 Gauss points are exact for degree 2p). Each row's moments are
    one product of its powers with its moment window, whose columns are
    padded by p on each side to take those elements' other functions; slots
    past the last element weigh 0. The windows are filled and multiplied a
    chunk of rows at a time, through one flat index.
    """
    n = space.dimension
    p = space.degree
    n_el = space.n_elements
    a, b = space.domain
    hbar = (b - a) / n_el
    grev = greville(space)
    rows = np.arange(n)[:, None]
    width = 2 * hw + 1
    cols = rows - hw + np.arange(width)
    inside = (cols >= 0) & (cols < n)

    xq, wq = xq.reshape(n_el, p + 1), wq.reshape(n_el, p + 1)
    values = ev.values[:, 0].reshape(n_el, p + 1, p + 1)
    first = ev.first_index[:: p + 1]
    n_win = 2 * hw + p + 1
    n_col = width + 2 * p
    el = np.searchsorted(first, rows - hw - p) + np.arange(n_win)
    live = el < n_el
    el = np.minimum(el, n_el - 1)
    live &= first[el] <= rows + hw
    # the weight of Gauss point k of row r's element slot s times function f
    # of that element goes to window[r, s, k, at[r, s, f]]; flat holds those
    # places in a chunk's windows, laid out one after another
    at = np.clip(first[el] - rows + hw + p, 0, width + p - 1)[..., None] + np.arange(p + 1)
    slot_point = (np.arange(n_win)[:, None] * (p + 1) + np.arange(p + 1)) * n_col
    row_size = n_win * (p + 1) * n_col
    chunk = max(1, WINDOW_FLOATS // row_size)
    Mloc = np.empty((n, p + 1, n_col))
    for lo in range(0, n, chunk):
        r = slice(lo, lo + chunk)
        m_rows = len(el[r])
        loc = (xq[el[r]] - grev[r, None, None]) / hbar
        powers = np.stack([loc**m for m in range(p + 1)], axis=-1)
        flat = (slot_point[..., None] + at[r, :, None]
                + (np.arange(m_rows) * row_size)[:, None, None, None])
        window = np.zeros(m_rows * row_size)
        window[flat.ravel()] = (np.where(live[r, :, None], wq[el[r]], 0.0)[..., None]
                                * values[el[r]]).ravel()
        Mloc[r] = powers.reshape(m_rows, -1, p + 1).transpose(0, 2, 1) @ window.reshape(
            m_rows, n_win * (p + 1), n_col)
    vals = np.where(inside[:, None, :], Mloc[:, :, p : p + width] / hbar, 0.0)

    # de Boor-Fix coefficient of ((x - g_r)/h)^m for basis function r.
    # psi is expanded around g_r (its roots cluster there), which keeps the
    # coefficients h-scaled and avoids cancellation; then
    # psi^(p-m)(g_r) = (p-m)! * [coefficient of u^(p-m)], with the
    # coefficients multiplied out root by root as np.poly does
    roots = space.knot_vector.knots[rows + 1 + np.arange(p)] - grev[:, None]
    cpoly = np.repeat(np.eye(1, p + 1), n, axis=0)
    for k in range(p):
        cpoly[:, 1 : k + 2] -= roots[:, k : k + 1] * cpoly[:, : k + 1]
    m = np.arange(p + 1)
    fact = np.array([math.factorial(k) for k in m], dtype=float)
    rhs = ((-1.0) ** m * fact * fact[::-1] / (fact[p] * hbar**m) * cpoly).ravel()

    # equilibrate constraint rows so the residual filter acts on O(1) data
    rownorm = np.maximum(np.abs(vals).max(axis=2), 1e-300)
    vals /= rownorm[..., None]
    rhs /= rownorm.ravel()
    return vals, rhs


def _mirror_svd(vals, ids, inside, col_mirror):
    """SVD of the constraint matrix A, given in its (row, window) layout
    (vals, ids and inside of _clamped_dual; row r * (p+1) + m) with the
    mirror of its columns, block-diagonalized by the mirror x -> a + b - x
    when A has that symmetry.

    The mirror maps constraint (r, m) to (n-1-r, m) with sign (-1)^m, since
    ((x - g_r)/h)^m changes sign, and column c to col_mirror[c]; window
    slot t of row r goes to slot 2hw - t of row n-1-r. In the orthogonal
    bases Qr and Qc of _mirror_basis, C = Qr^T A Qc is block-diagonal when A
    commutes with the mirror. Its entries come straight from the window
    layout by that index arithmetic (_mirror_entries): T = Qr^T A first,
    then T Qc, each entry a sum of at most two terms added from +0, as a
    sparse product adds them. The coupling blocks of C are measured, not
    assumed zero; when they exceed 1e-12 max|A| (an asymmetric mesh), the
    bases are the identity and A is decomposed as one dense block. Each
    block is filled and factored in its own memory; one that is not finite
    or whose SVD does not converge is a NumericalError. Returns Qr and Qc,
    per block (row slice, column slice, u, s, vt), with vt square on a block
    with fewer rows than columns, and the block shapes and coupling.
    """
    n, q, width = vals.shape
    nr, nc = n * q, len(col_mirror)
    r, m = np.divmod(np.arange(nr), q)
    Qr, re = _mirror_basis((n - 1 - r) * q + m, (-1.0) ** m)
    Qc, ce = _mirror_basis(col_mirror, np.ones(nc))
    quads = _mirror_entries(vals, ids, inside, Qc[0][:, 0])
    cross = [np.abs(c).max(initial=0.0) for key in ((0, 1), (1, 0)) for _, _, c in quads[key]]
    coupling = np.max(cross) / np.abs(vals).max(where=inside[:, None], initial=0.0)
    blocks = [((slice(0, re), slice(0, ce)), quads[0, 0]),
              ((slice(re, nr), slice(ce, nc)), quads[1, 1])]
    del quads  # only the diagonal blocks' entries are needed from here on
    # the blocks must return as many singular triplets as one SVD of A
    if coupling > 1e-12 or (re - ce) * (nr - re - nc + ce) < 0:
        # the trivial mirror: every index fixed, an identity basis
        Qr, _ = _mirror_basis(np.arange(nr), np.ones(nr))
        Qc, _ = _mirror_basis(np.arange(nc), np.ones(nc))
        r, t = np.nonzero(inside)
        blocks = [((slice(0, nr), slice(0, nc)),
                   [(r[:, None] * q + np.arange(q), ids[r, t, None], vals[r, :, t])])]
    factors, shapes = [], []
    for (rows, cols), entries in blocks:
        # Fortran order lets LAPACK factor B where it is, with no copy
        B = np.zeros((rows.stop - rows.start, cols.stop - cols.start), order="F")
        for i, j, c in entries:
            B[i, j] = c
        shapes.append(B.shape)
        try:
            u, s, vt = scipy.linalg.svd(B, full_matrices=B.shape[0] < B.shape[1], overwrite_a=True)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise NumericalError(f"constraint SVD of the {B.shape[0]} x {B.shape[1]} block "
                                 f"failed: {exc}") from None
        del B
        # C-ordered factors keep pinv_apply's products on the BLAS path that
        # fixes the bits of S
        u = np.ascontiguousarray(u)
        vt = np.ascontiguousarray(vt)
        factors.append((rows, cols, u, s, vt))
    return Qr, Qc, factors, {"block_shapes": shapes, "coupling": coupling}


def _mirror_entries(vals, ids, inside, col):
    """The entries of C = Qr^T A Qc for the mirror bases of _mirror_svd, per
    quadrant (row parity, column parity), 0 even and 1 odd: a list of
    (rows, columns, values) inside the quadrant's block, broadcast against
    each other. col[c] is column c's place in its parity's block, the same
    in both for a pair. _mirror_basis numbers the constraints of the row
    pairs r < n-1-r as r * (p+1) + m in both parities, and the centre's
    constraint (n // 2, m) after them, m // 2-th in its parity.

    Slot t of row r pairs column ids[r, t] with its mirror in slot 2hw - t
    of row n-1-r; there T is 0 + sq a from constraint (r, m) and
    0 + coef b from (n-1-r, m). Only at t* = n-1-2r+hw, column n-1-r, do
    both constraints meet one column, which is its own mirror, and T adds
    both in that order. The lower of two paired columns, which leads the
    pair, is row r's below t*. The centre's constraints are their own
    mirrors with sign (-1)^m, so T is 0 + 1 v + 0 v there, and its slot
    t < hw leads the pair of slot 2hw - t.
    """
    n, q, width = vals.shape
    hw = width // 2
    h = n // 2
    sq = np.sqrt(0.5)
    ccoef = np.array([sq, -sq])[:, None, None]  # of the pair's second column

    r, t = np.nonzero(inside[:h])
    fixed_at = n - 1 - 2 * r + hw
    pair, fixed = t != fixed_at, t == fixed_at
    Ta = 0.0 + sq * vals[r, :, t]
    Tb = 0.0 + sq * (-1.0) ** np.arange(q) * np.array([1.0, -1.0])[:, None, None] * vals[
        n - 1 - r, :, 2 * hw - t]
    rows, cols = r[:, None] * q + np.arange(q), col[ids[r, t], None]
    lead = (t < fixed_at)[pair, None]
    Ta_p, Tb_p = Ta[pair], Tb[:, pair]
    lo, hi = np.where(lead, Ta_p, Tb_p), np.where(lead, Tb_p, Ta_p)
    C = (0.0 + lo * sq)[:, None] + hi[:, None] * ccoef
    # Ta is never -0, so Ta + Tb adds the same as Ta + coef b
    Tf = Ta[fixed] + Tb[:, fixed]
    Cf = (0.0 + Tf * 1.0) + Tf * 0.0
    at_pair, at_fixed = (rows[pair], cols[pair]), (rows[fixed], cols[fixed])
    quads = {(rho, gamma): [(*at_pair, C[rho, gamma])] for rho in (0, 1) for gamma in (0, 1)}
    for rho in (0, 1):
        quads[rho, 0].append((*at_fixed, Cf[rho]))
    if n % 2:
        T = (0.0 + 1.0 * vals[h]) + 0.0 * vals[h]
        t = np.flatnonzero(inside[h, :hw])
        C = (0.0 + T[:, t] * sq) + T[:, 2 * hw - t] * ccoef
        Cf = (0.0 + T[:, hw] * 1.0) + T[:, hw] * 0.0
        rows, cols = h * q + np.arange(q) // 2, col[ids[h, t]]
        for rho in (0, 1):
            at = rows[rho::2]
            for gamma in (0, 1):
                quads[rho, gamma].append((at[:, None], cols, C[gamma, rho::2]))
            quads[rho, 0].append((at, col[ids[h, hw]], Cf[rho::2]))
    return quads


def _mirror_basis(mirror, sign):
    """Orthogonal basis Q of the +1 and -1 eigenvectors of the signed
    involution e_k -> sign_k e_mirror(k), as index maps, and the number of +1
    columns, which come first. Each parity's columns are its pairs
    k < mirror(k), (e_k +- sign_k e_mirror(k)) / sqrt(2), then its fixed
    points e_k with sign_k the eigenvalue.

    Row k of Q has its entries in columns slots[k] with values coefs[k]: a
    pair member's +1 and -1 columns, or a fixed point's one column listed
    twice, the second time with value 0. The maps are (slots, coefs).
    """
    n = len(mirror)
    k = np.arange(n)
    lead, fixed = k[k < mirror], k[k == mirror]
    even, odd = fixed[sign[fixed] == 1.0], fixed[sign[fixed] != 1.0]
    n_even = len(lead) + len(even)
    slots, coefs = np.empty((n, 2), dtype=int), np.zeros((n, 2))
    pair = np.arange(len(lead))
    slots[lead] = slots[mirror[lead]] = np.column_stack([pair, n_even + pair])
    coefs[lead] = np.sqrt(0.5)
    coefs[mirror[lead]] = np.sqrt(0.5) * sign[lead, None] * [1.0, -1.0]
    slots[even] = len(lead) + np.arange(len(even))[:, None]
    slots[odd] = n_even + len(lead) + np.arange(len(odd))[:, None]
    coefs[fixed, 0] = 1.0
    return (slots, coefs), n_even


def _periodic_dual(space, G, hw):
    """Circulant coefficient stencil for uniform periodic spaces.

    The symmetric stencil of width hw has hw+1 free values; they are fixed by
    requiring the product of the stencil symbol with the Grammian symbol to be
    tangent to 1 at zero angle through order theta^(2 hw). This matches the
    translation-invariant interior of the clamped construction and gives a
    quasi-projection of the same order.
    """
    n = space.dimension
    g = G.bands[:, 0].copy()
    dev = np.max(np.abs(G.bands - g[:, None]))
    if dev > 1e-12 * max(1.0, np.max(np.abs(g))):
        raise NumericalError("periodic Grammian is not circulant; non-uniform mesh?")

    mc = hw + 1  # tangency conditions at theta = 0, one per stencil entry
    d_g = np.arange(len(g))
    mult_g = np.where(d_g == 0, 1.0, 2.0)
    hbar = (space.domain[1] - space.domain[0]) / space.n_elements
    gs = g / hbar
    g_taylor = np.array(
        [(mult_g * gs * (-1.0) ** m * d_g ** (2 * m) / math.factorial(2 * m)).sum() for m in range(mc)]
    )
    d_s = np.arange(hw + 1)
    mult_s = np.where(d_s == 0, 1.0, 2.0)
    T = np.array([mult_s * (-1.0) ** m * d_s ** (2 * m) / math.factorial(2 * m) for m in range(mc)])
    C = np.zeros((mc, hw + 1))
    for m in range(mc):
        for a_ in range(m + 1):
            C[m] += g_taylor[m - a_] * T[a_]
    r = np.zeros(mc)
    r[0] = 1.0
    try:
        stencil = np.linalg.solve(C, r) / hbar
    except np.linalg.LinAlgError:
        raise NumericalError(f"periodic duality conditions singular at halfwidth {hw}") from None

    S = BandedSymmetricMatrix(n, hw, periodic=True, bands=np.tile(stencil[:, None], (1, n)))
    first = np.zeros(n)  # S's first column: entry d on rows d and n - d
    first[d_s] = first[-d_s] = stencil
    shat = circulant_symbols(first)
    if np.min(shat) <= 0.0:
        raise NumericalError(
            f"periodic dual stencil symbol not positive (min {np.min(shat):.3e})"
        )
    return S


class ConstrainedDual:
    """Dual coefficient operator with homogeneous end constraints.

    Holds the inverse of the submatrix of S^{-1} on the free indices f. By the
    block-inverse identity this is the Schur complement
    S_ff - S_fc S_cc^{-1} S_cf of the constrained block c, one or two ends.
    S_fc is nonzero only within the halfwidth of an end, so the correction
    stays inside the band of S_ff. Without constraints the view holds S.
    """

    def __init__(self, parent, left=False, right=False):
        if parent.space.periodic and (left or right):
            raise ValueError("cannot constrain a periodic direction")
        self.space = parent.space
        S = parent.S
        n = S.n
        lo, hi = (1 if left else 0), (n - 1 if right else n)
        self.free_slice = slice(lo, hi)
        constrained = [k for k, on in ((0, left), (n - 1, right)) if on]
        if not constrained:
            self.S = S
            return
        # S's constrained columns from its bands: entry (k + d, k) of the
        # left end and (k - d, k) of the right one is bands[d, min(row, k)],
        # added to +0 as a product with unit vectors sums it
        d = np.arange(S.halfwidth + 1)
        columns = np.zeros((n, len(constrained)))
        for a, k in enumerate(constrained):
            rows = k + d if k == 0 else k - d
            columns[rows, a] = 0.0 + S.bands[d, np.minimum(rows, k)]
        S_fc = columns[lo:hi]
        X = np.linalg.solve(columns[constrained], S_fc.T).T  # S_fc S_cc^{-1}
        self.S = S.submatrix(lo, hi)
        m = hi - lo
        for d in range(self.S.halfwidth + 1):
            self.S.bands[d, : m - d] -= np.einsum("ia,ia->i", X[: m - d], S_fc[d:])

    def apply(self, x):
        """Apply to a full-length moment vector; constrained entries are zero."""
        x = np.asarray(x, dtype=float)
        y = np.zeros(x.shape)
        y[self.free_slice] = self.S.matvec(x[self.free_slice])
        return y


def constrain_dual(basis, left=False, right=False):
    """Boundary-constrained view of an approximate dual basis."""
    return ConstrainedDual(basis, left=left, right=right)


def quasi_project(operator, f):
    """Coefficients of the quasi-projection u_i = sum_j S_ij <f, B_j>.

    ``operator`` is an ApproximateDualBasis or a ConstrainedDual; with the
    latter, constrained coefficients are zeroed (homogeneous end values).
    """
    return operator.apply(moments(operator.space, f))
