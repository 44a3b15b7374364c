"""Grammian, exact and approximate dual bases, end constraints, quasi-projection."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracle_utils import (
    add_at_grammian_bands,
    constraint_matrix,
    gauss_panels,
    loop_constraint_rows,
    loop_grammian_bands,
    naive_all_values,
    sparse_mirror_blocks,
    spline_l2_error,
)

from iga_explicit.banded import circulant_symbols
from iga_explicit.dualbasis import (
    _mirror_basis,
    approximate_dual,
    constrain_dual,
    exact_dual_coeffs,
    grammian,
    quasi_project,
)
from iga_explicit.errors import NumericalError
from iga_explicit.quadrature import element_quadrature, moments
from iga_explicit.splinecore import (
    CLAMPED,
    PERIODIC,
    eval_basis,
    make_space,
    monomial_coefficients,
    uniform_space,
)


def test_grammian_degree0_is_diag_h():
    space = uniform_space(5, 0)
    G = grammian(space)
    assert_allclose(G.to_dense(), np.diag(np.full(5, 0.2)), atol=1e-15)


def test_grammian_hat_interior_row():
    space = uniform_space(6, 1)
    h = 1.0 / 6.0
    G = grammian(space).to_dense()
    assert_allclose(G[3, 2:5], [h / 6, 4 * h / 6, h / 6], atol=1e-15)


def test_grammian_spd_and_symmetric():
    space = make_space([0.0, 0.3, 0.55, 1.0], 3)
    G = grammian(space)
    dense = G.to_dense()
    assert np.array_equal(dense, dense.T)
    assert G.is_spd()


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["clamped", PERIODIC])
def test_grammian_matches_point_loop(degree, kind):
    space = uniform_space(13, degree, boundary_kind=kind)

    def weight(x):
        return 1.0 + 0.5 * np.sin(3.0 * x)

    assert np.array_equal(grammian(space).bands, loop_grammian_bands(space))
    assert np.array_equal(grammian(space, weight=weight).bands,
                          loop_grammian_bands(space, weight=weight))


@pytest.mark.parametrize("degree", [0, 1, 3, 5])
@pytest.mark.parametrize("kind", ["clamped", PERIODIC])
def test_grammian_matches_the_add_at_sum(degree, kind):
    space = uniform_space(11, degree, 0.3, 1.9, boundary_kind=kind)

    def weight(x):
        return 1.0 + x * x

    for w in (None, weight):
        for points in (None, degree + 3):
            assert same_bits(grammian(space, w, points).bands,
                             add_at_grammian_bands(space, w, points)), (w, points)


@pytest.mark.parametrize("kind", [CLAMPED, PERIODIC])
def test_a_space_keeps_one_read_only_unweighted_grammian(kind):
    space = uniform_space(9, 3, boundary_kind=kind)
    G = grammian(space)
    assert grammian(space, points_per_element=4) is G and not G.bands.flags.writeable
    assert same_bits(G.bands, loop_grammian_bands(space))
    # a weight or another point count builds a new, writable Grammian
    for other in (grammian(space, weight=lambda x: 1.0 + x), grammian(space, points_per_element=5)):
        assert other is not G and other.bands.flags.writeable


def test_duals_and_their_constrained_views_are_read_only():
    # a write to S or G would change every customized mass built from them
    for kind in (CLAMPED, PERIODIC):
        dual = approximate_dual(uniform_space(20, 3, boundary_kind=kind))
        ends = [(True, True), (True, False)] if kind == CLAMPED else []
        views = [constrain_dual(dual, *e).S for e in [(False, False)] + ends]
        for matrix in (dual.S, dual.G, *views):
            with pytest.raises(ValueError, match="read-only"):
                matrix.bands[0, 0] = 1.0


def test_grammian_names_the_first_non_positive_weight():
    space = uniform_space(4, 2)
    # one midpoint per element: 0.125, 0.375, 0.625, 0.875
    with pytest.raises(ValueError, match=r"non-positive weight -1\.0 at quadrature point 0\.625$"):
        grammian(space, weight=lambda x: np.where(x < 0.5, 1.0, -1.0), points_per_element=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_grammian_names_the_first_non_finite_weight(bad):
    space = uniform_space(4, 2)
    with pytest.raises(ValueError, match=rf"non-finite weight {bad} at quadrature point 0\.375$"):
        grammian(space, weight=lambda x: np.where(x < 0.25, 1.0, bad), points_per_element=1)


def test_grammian_calls_its_weight_once_on_all_points():
    space = uniform_space(5, 3)
    calls = []

    def weight(x):
        calls.append(np.array(x))
        return 1.0 + x

    G = grammian(space, weight=weight)
    xq, _ = element_quadrature(space, 5)
    assert len(calls) == 1 and np.array_equal(calls[0], xq)
    assert np.array_equal(G.bands, loop_grammian_bands(space, weight=weight))


def test_exact_dual_degree0():
    space = uniform_space(4, 0)
    assert_allclose(exact_dual_coeffs(space), np.diag(np.full(4, 4.0)), atol=1e-12)


def test_exact_dual_inverse_property():
    space = uniform_space(7, 3)
    Ginv = exact_dual_coeffs(space)
    G = grammian(space).to_dense()
    assert np.max(np.abs(G @ Ginv - np.eye(7 + 3))) <= 1e-10


def test_exact_dual_biorthogonal_by_quadrature():
    # <lambda_i, B_j> assembled with an independent composite Gauss rule
    space = uniform_space(8, 2)  # N = 10
    Ginv = exact_dual_coeffs(space)
    n = space.dimension

    def pair(i, j):
        def f(x):
            vals = naive_all_values(space, x)
            lam = Ginv[i] @ vals
            return lam * vals[j]

        return gauss_panels(f, 0.0, 1.0, n_panels=64, n_pts=6)

    for i in range(0, n, 3):
        for j in range(n):
            assert abs(pair(i, j) - (1.0 if i == j else 0.0)) <= 1e-10


def test_exact_dual_cap():
    space = uniform_space(30, 2)
    with pytest.raises(ValueError):
        exact_dual_coeffs(space, cap=16)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_polynomial_duality_constraints(degree):
    space = uniform_space(40 - degree, degree)  # N = 40
    dual = approximate_dual(space)
    G = dual.G.to_dense()
    S = dual.S.to_dense()
    Ginv = np.linalg.inv(G)
    for q in range(degree + 1):
        c = monomial_coefficients(space, q)
        # independent oracle: c must equal G^{-1} times the moment vector of x^q
        m = moments(space, lambda x: x**q)
        assert_allclose(Ginv @ m, c, atol=1e-10)
        assert np.max(np.abs(S @ (G @ c) - c)) <= 1e-10


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_rowsum_of_product_is_one(degree):
    space = uniform_space(25, degree)
    dual = approximate_dual(space)
    C = dual.product_dense
    assert np.max(np.abs(C.sum(axis=1) - 1.0)) <= 1e-12


def test_rowsum_lumping_of_product_is_identity(degree=3):
    space = uniform_space(20, degree)
    dual = approximate_dual(space)
    C = dual.product_dense
    lumped = np.diag(C.sum(axis=1))
    assert np.max(np.abs(lumped - np.eye(space.dimension))) <= 1e-12


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_single_element_gives_exact_inverse(degree):
    space = make_space([0.0, 1.0], degree)
    dual = approximate_dual(space)
    Ginv = np.linalg.inv(dual.G.to_dense())
    assert_allclose(dual.S.to_dense(), Ginv, rtol=1e-9, atol=1e-9 * np.abs(Ginv).max())


def test_dual_matrix_symmetric_by_storage():
    space = uniform_space(12, 3)
    S = approximate_dual(space).S.to_dense()
    assert np.array_equal(S, S.T)


def test_customized_mass_equivalence_small():
    # solving with the inverse of S equals applying S
    space = uniform_space(9, 2)
    dual = approximate_dual(space)
    Ghat = np.linalg.inv(dual.S.to_dense())
    rng = np.random.default_rng(8)
    f = rng.normal(size=space.dimension)
    assert_allclose(np.linalg.solve(Ghat, f), dual.apply(f), atol=1e-10)


def test_unconstrained_view_equals_plain_apply():
    space = uniform_space(10, 3)
    dual = approximate_dual(space)
    view = constrain_dual(dual)
    rng = np.random.default_rng(9)
    x = rng.normal(size=space.dimension)
    assert_allclose(view.apply(x), dual.apply(x), atol=0)


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_halfwidth_below_degree_rejected(degree):
    with pytest.raises(ValueError, match="below the degree"):
        approximate_dual(uniform_space(10, degree), halfwidth=degree - 1)


def test_infeasible_constraints_raise_at_the_requested_halfwidth(monkeypatch):
    # a negative tolerance makes every constraint residual count as infeasible
    from iga_explicit import dualbasis

    monkeypatch.setattr(dualbasis, "FEASIBILITY_TOL", -1.0)
    with pytest.raises(NumericalError, match="infeasible at halfwidth 4"):
        approximate_dual(uniform_space(10, 3), halfwidth=4)


def frobenius_defect(dual):
    return np.linalg.norm(dual.product_dense - np.eye(dual.space.dimension))


@pytest.mark.parametrize("degree, halfwidth",
                         [(p, b) for p in range(1, 6) for b in range(p + 1, 2 * p + 1)])
def test_clamped_dual_above_the_degree_is_spd_and_reproduces(degree, halfwidth):
    # wider than the degree, the constraint matrix has fewer rows than
    # unknowns; the minimizer over its whole null space stays SPD, and its
    # band contains the one of halfwidth p, so its objective is no larger
    spaces = [uniform_space(n - degree, degree) for n in (degree + 3, 20, 31)]
    spaces.append(make_space([0.0, 0.1, 0.35, 0.5, 0.8, 1.0], degree))
    if degree >= 2:
        spaces.append(make_space(np.linspace(0.0, 1.0, 9), degree, regularity=degree - 2))
    for space in spaces:
        dual = approximate_dual(space, halfwidth=halfwidth)
        assert dual.S.is_spd()
        for q in range(degree + 1):
            c = monomial_coefficients(space, q)
            residual = dual.S.matvec(dual.G.matvec(c)) - c
            assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(c))
        narrow = frobenius_defect(approximate_dual(space))
        assert frobenius_defect(dual) <= narrow * (1.0 + 1e-10)


@pytest.mark.parametrize("left,right", [(True, False), (False, True), (True, True)])
@pytest.mark.parametrize("degree", [2, 3, 4])
def test_woodbury_matches_dense_submatrix_inverse(degree, left, right):
    space = uniform_space(20, degree)  # N <= 40 oracle regime
    dual = approximate_dual(space)
    n = space.dimension
    Ghat = np.linalg.inv(dual.S.to_dense())
    lo = 1 if left else 0
    hi = n - 1 if right else n
    oracle = np.linalg.inv(Ghat[lo:hi, lo:hi])
    con = constrain_dual(dual, left=left, right=right)
    assert_allclose(con.S.to_dense(), oracle, atol=1e-10 * np.abs(oracle).max())


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_constrained_projection_reproduces_vanishing_polynomials(degree):
    space = uniform_space(14, degree)
    dual = approximate_dual(space)
    con = constrain_dual(dual, left=True, right=True)

    def f(x):
        return x * (1.0 - x) * x ** (degree - 2)

    coeffs = quasi_project(con, f)
    err = spline_l2_error(space, coeffs, f, n_panels=80, n_pts=6)
    assert err <= 1e-10
    assert coeffs[0] == 0.0 and coeffs[-1] == 0.0


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_single_side_constraint_reproduces(degree):
    space = uniform_space(11, degree)
    dual = approximate_dual(space)
    con = constrain_dual(dual, left=True)
    coeffs = quasi_project(con, lambda x: x**degree)
    err = spline_l2_error(space, coeffs, lambda x: x**degree)
    assert err <= 1e-10


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_quasi_projection_monomial_exactness(degree):
    space = uniform_space(10, degree)
    dual = approximate_dual(space)
    for q in range(degree + 1):
        coeffs = quasi_project(dual, lambda x, q=q: x**q)
        assert_allclose(coeffs, monomial_coefficients(space, q), atol=1e-10)


def test_quasi_projection_zero():
    space = uniform_space(6, 2)
    dual = approximate_dual(space)
    assert_allclose(quasi_project(dual, lambda x: 0.0), np.zeros(space.dimension), atol=0)


def test_quasi_projection_convergence_rate():
    errs = []
    for n_el in (10, 20, 40):
        space = uniform_space(n_el, 3)
        dual = approximate_dual(space)
        coeffs = quasi_project(dual, lambda x: np.sin(np.pi * x))
        errs.append(spline_l2_error(space, coeffs, lambda x: np.sin(np.pi * x)))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(slopes) >= 3.8


P5_DRIFT = (
    "the p=5 clamped dual is numerically undetermined: the equilibrated constraint "
    "matrix has singular values at the 1e-14 null threshold of the SVD construction, "
    "and at n=160 its interior rows drift far from the periodic stencil"
)


@pytest.mark.parametrize("degree, n", [
    (2, 60), (3, 60), (4, 60), (5, 60),
    pytest.param(5, 160, marks=pytest.mark.xfail(strict=True, reason=P5_DRIFT)),
])
def test_clamped_dual_interior_matches_periodic_stencil(degree, n):
    S = approximate_dual(uniform_space(n, degree)).S.to_dense()
    stencil = approximate_dual(uniform_space(n, degree, boundary_kind=PERIODIC)).S.bands[:, 0]
    mid = S.shape[0] // 2
    row = S[mid, mid - degree : mid + degree + 1]
    want = np.concatenate([stencil[:0:-1], stencil])
    assert np.max(np.abs(row - want)) <= 1e-6 * np.max(np.abs(want))


def unsplit_svd(vals, ids, inside, col_mirror):
    """The constraint SVD as one dense block of A, from its window layout,
    in identity bases, whatever the mirror symmetry."""
    dense = constraint_matrix(vals, ids, inside, len(col_mirror)).toarray()
    shape = dense.shape
    svd = np.linalg.svd(dense, full_matrices=shape[0] < shape[1])
    block = (slice(None), slice(None), *svd)
    Qr, Qc = (_mirror_basis(np.arange(n), np.ones(n))[0] for n in shape)
    return Qr, Qc, [block], {"block_shapes": [shape], "coupling": float("nan")}


def same_bits(a, b):
    """Equal arrays, sign bits of zeros included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def oracle_meshes(degree):
    """(space, mirror symmetric): a uniform mesh of odd and one of even
    dimension, and an asymmetric one."""
    return [(uniform_space(13 - degree % 2, degree), True),
            (uniform_space(14 - degree % 2, degree), True),
            (make_space([0.0, 0.1, 0.35, 0.5, 0.8, 1.0, 1.1, 1.4, 1.5], degree), False)]


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_constraint_rows_match_the_row_loop_oracle(degree):
    from iga_explicit.dualbasis import _constraint_rows

    for space, _ in oracle_meshes(degree):
        xq, wq = element_quadrature(space, degree + 1)
        ev = eval_basis(space, xq)
        for hw in range(degree, 2 * degree + 1):
            vals, rhs = _constraint_rows(space, hw, xq, wq, ev)
            want_vals, want_rhs = loop_constraint_rows(space, hw)
            assert same_bits(vals, want_vals), (space.dimension, hw)
            assert same_bits(rhs, want_rhs), (space.dimension, hw)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_mirror_blocks_match_sparse_products(degree, monkeypatch):
    import scipy.linalg

    from iga_explicit import dualbasis

    layouts, blocks = [], []
    mirror_svd, svd = dualbasis._mirror_svd, scipy.linalg.svd
    monkeypatch.setattr(dualbasis, "_mirror_svd",
                        lambda *layout: layouts.append(layout) or mirror_svd(*layout))
    monkeypatch.setattr(scipy.linalg, "svd",
                        lambda B, **kwargs: blocks.append(B.copy()) or svd(B, **kwargs))
    for space, symmetric in oracle_meshes(degree):
        for hw in range(degree, 2 * degree + 1):
            del layouts[:], blocks[:]
            diagnostics = approximate_dual(space, hw).diagnostics
            [layout] = layouts
            C, re, ce = sparse_mirror_blocks(*layout)
            assert diagnostics["mirror_split"] == symmetric
            if symmetric:
                want = [C[:re, :ce], C[re:, ce:]]
                cross = np.concatenate([C[:re, ce:].ravel(), C[re:, :ce].ravel()])
                assert same_bits(diagnostics["mirror_coupling"],
                                 np.abs(cross).max() / np.abs(layout[0]).max())
            else:
                # the identity-basis path: A itself
                want = [constraint_matrix(*layout[:3], len(layout[3])).toarray()]
            assert len(blocks) == len(want)
            assert all(same_bits(B, W) for B, W in zip(blocks, want)), (space.dimension, hw)


def band_entry_mirror(n, hw):
    """Mirror x -> 1 - x of the band entries (i, d), d <= min(hw, n-1-i),
    numbered row by row: (i, d) goes to (n-1-i-d, d)."""
    entries = [(i, d) for i in range(n) for d in range(min(hw, n - 1 - i) + 1)]
    number = {entry: k for k, entry in enumerate(entries)}
    return np.array([number[n - 1 - i - d, d] for i, d in entries])


def constraint_row_mirror(n, q):
    """Mirror of constraint (r, m), row r * q + m: to (n-1-r, m), sign (-1)^m."""
    r, m = np.divmod(np.arange(n * q), q)
    return (n - 1 - r) * q + m, (-1.0) ** m


@pytest.mark.parametrize("mirror, sign, fixed_signs", [
    (*constraint_row_mirror(7, 4), {1.0, -1.0}),  # the centre row's constraints
    (band_entry_mirror(9, 3), np.ones(30), {1.0}),  # entries (4, 0) and (3, 2)
], ids=["constraint-rows", "band-entries"])
def test_mirror_basis_is_orthogonal_and_splits_the_parities(mirror, sign, fixed_signs):
    k = np.arange(len(mirror))
    assert set(sign[mirror == k]) == fixed_signs
    (slots, coefs), n_even = _mirror_basis(mirror, sign)
    Q = np.zeros((len(k), len(k)))
    np.add.at(Q, (np.repeat(k, 2), slots.ravel()), coefs.ravel())
    assert np.max(np.abs(Q.T @ Q - np.eye(len(k)))) <= 1e-15
    P = np.zeros((len(k), len(k)))
    P[mirror, k] = sign  # e_k -> sign_k e_mirror(k)
    assert np.array_equal(P @ Q[:, :n_even], Q[:, :n_even])
    assert np.array_equal(P @ Q[:, n_even:], -Q[:, n_even:])


# (degree, dimension, tolerance). At p=5 and n=45, 60 the construction's own
# round-off is larger: one against two BLAS threads moves S by 7e-11 and
# 4.8e-9 there without any split, so those cases get 1e-9 and 1e-8.
SPLIT_CASES = [(p, n, 1e-10) for p in range(1, 5) for n in (p + 2, 11, 20, 31, 45, 60)]
SPLIT_CASES += [(5, n, 1e-10) for n in (7, 11, 20, 31)] + [(5, 45, 1e-9), (5, 60, 1e-8)]


@pytest.mark.parametrize("degree, n, tol", SPLIT_CASES)
def test_mirror_split_matches_one_block_svd(degree, n, tol, monkeypatch):
    from iga_explicit import dualbasis

    space = uniform_space(n - degree, degree)
    split = approximate_dual(space)
    assert split.diagnostics["mirror_split"]
    assert sum(rows for rows, _ in split.diagnostics["block_shapes"]) == (degree + 1) * n
    monkeypatch.setattr(dualbasis, "_mirror_svd", unsplit_svd)
    whole = approximate_dual(space)
    assert not whole.diagnostics["mirror_split"]
    S, S1 = split.S.bands, whole.S.bands
    assert np.max(np.abs(S - S1)) <= tol * np.max(np.abs(S1))


def test_asymmetric_mesh_is_not_split_and_unchanged(monkeypatch):
    from iga_explicit import dualbasis

    space = make_space([0.0, 0.1, 0.35, 0.5, 0.8, 1.0], 3)
    dual = approximate_dual(space)
    assert not dual.diagnostics["mirror_split"]
    assert dual.diagnostics["mirror_coupling"] > 1e-3
    monkeypatch.setattr(dualbasis, "_mirror_svd", unsplit_svd)
    assert np.array_equal(dual.S.bands, approximate_dual(space).S.bands)


def one_blas_thread(code):
    """Standard output of ``code`` run in a fresh interpreter on one BLAS
    thread, with the package and the test oracles importable."""
    here = os.path.dirname(__file__)
    path = [os.path.join(here, os.pardir, "src"), here, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Peak RSS growth of the p=3 clamped dual on 250 functions, in MB, 1.1 times
# its measured 16.9 (halfwidth 3) and 33.7 MB (halfwidth 6) on one BLAS
# thread (numpy 2.4.6, scipy 1.17.1; the largest of three runs each). numpy's
# SVD, which factors a copy of each mirror block and copies its factors out,
# peaked at 25.5 and 44.3 MB.
CLAMPED_DUAL_RSS_MB = {3: 18.7, 6: 37.1}


@pytest.mark.parametrize("halfwidth", [3, 6])
def test_clamped_dual_factors_its_mirror_blocks_in_place(halfwidth):
    # the real peak, LAPACK's buffers included, which tracemalloc does not
    # see: the growth of a fresh process's resident high-water mark (Linux
    # VmHWM; ru_maxrss would count the parent's pages at the fork) over one
    # that has imported the package and built a small dual of the same width
    out = one_blas_thread(
        "import json, re\n"
        "from iga_explicit.dualbasis import approximate_dual\n"
        "from iga_explicit.splinecore import uniform_space\n"
        "def high_water():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return int(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read()).group(1)) * 1024\n"
        f"approximate_dual(uniform_space(20, 3), halfwidth={halfwidth})\n"
        "before = high_water()\n"
        f"dual = approximate_dual(uniform_space(247, 3), halfwidth={halfwidth})\n"
        "print(json.dumps([(high_water() - before) / 1e6, dual.diagnostics['block_shapes'],\n"
        "                  dual.diagnostics['null_directions']]))\n"
    )
    grown_mb, shapes, null_directions = json.loads(out)
    rows, ns = map(sum, zip(*shapes))
    assert (rows, ns) == (4 * 250, sum(min(halfwidth, 249 - i) + 1 for i in range(250)))
    assert len(shapes) == 2 and (null_directions > 0) == (halfwidth > 3)
    assert grown_mb <= CLAMPED_DUAL_RSS_MB[halfwidth]


def test_in_place_block_svd_gives_numpy_svd_s_bit_for_bit():
    # on one BLAS thread: on more, numpy's and scipy's OpenBLAS builds split
    # their products differently, and S moves in its last bits, as it does
    # between thread counts with either SVD
    out = one_blas_thread(
        "import json\n"
        "import numpy as np\n"
        "from oracle_utils import numpy_mirror_svd\n"
        "from iga_explicit import dualbasis\n"
        "from iga_explicit.splinecore import make_space, uniform_space\n"
        "cases = [(uniform_space(247, 3), 3), (uniform_space(245, 5), 5),\n"
        "         (uniform_space(57, 3), 6), (make_space([0.0, 0.1, 0.35, 0.5, 0.8, 1.0], 3), 3)]\n"
        "duals = [dualbasis.approximate_dual(space, hw) for space, hw in cases]\n"
        "dualbasis._mirror_svd = numpy_mirror_svd\n"
        "print(json.dumps([[d.diagnostics['mirror_split'], np.array_equal(d.S.bands,\n"
        "    dualbasis.approximate_dual(space, hw).S.bands)] for d, (space, hw) in zip(duals, cases)]))\n"
    )
    assert json.loads(out) == [[True, True], [True, True], [True, True], [False, True]]


@pytest.mark.parametrize("space, halfwidth", [
    (uniform_space(37, 3), 3),  # two blocks, more rows than columns
    (uniform_space(37, 3), 6),  # two blocks, fewer rows than columns
    (make_space([0.0, 0.1, 0.35, 0.5, 0.8, 1.0], 3), 3),  # one block
], ids=["split", "split-wide", "one-block"])
def test_mirror_svd_factors_are_c_contiguous(space, halfwidth, monkeypatch):
    from iga_explicit import dualbasis

    returned = []
    mirror_svd = dualbasis._mirror_svd
    monkeypatch.setattr(dualbasis, "_mirror_svd",
                        lambda *args: returned.append(mirror_svd(*args)) or returned[-1])
    approximate_dual(space, halfwidth)
    [(_, _, factors, split)] = returned
    assert len(factors) == len(split["block_shapes"]) == (2 if space.n_elements == 37 else 1)
    assert all(u.flags.c_contiguous and vt.flags.c_contiguous for _, _, u, _, vt in factors)


def test_block_svd_that_does_not_converge_is_a_numerical_error(monkeypatch):
    import scipy.linalg

    space = uniform_space(8, 3)
    m, n = approximate_dual(space).diagnostics["block_shapes"][0]

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(scipy.linalg, "svd", no_convergence)
    with pytest.raises(NumericalError, match=f"the {m} x {n} block failed: SVD did not converge"):
        approximate_dual(space)


def test_non_finite_block_is_a_numerical_error():
    from iga_explicit.dualbasis import _mirror_svd

    # two rows of two constraints, halfwidth 1: unknowns (0, 0), (0, 1),
    # (1, 0), of which the mirror swaps the first and the last
    vals = np.arange(12.0).reshape(2, 2, 3)
    vals[0, 1, 2] = np.nan
    inside = np.array([[False, True, True], [True, True, False]])
    ids = np.array([[0, 0, 1], [1, 2, 2]])
    with pytest.raises(NumericalError, match="the 2 x 2 block failed: .*infs or NaNs"):
        _mirror_svd(vals, ids, inside, np.array([2, 1, 0]))


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_uniform_clamped_dual_is_persymmetric(degree):
    for n in (degree + 2, degree + 3, 11, 20, 31, 60):
        dual = approximate_dual(uniform_space(n - degree, degree))
        S = dual.S.to_dense()
        defect = np.max(np.abs(S - S[::-1, ::-1])) / np.max(np.abs(S))
        # round-off amplified by the smallest kept singular value of the
        # constraints: 2e-7 of the largest at p=4, n=31, 2e-9 at n=60
        assert defect <= np.finfo(float).eps / dual.diagnostics["min_kept_sv_rel"]
        if degree <= 4 and n <= 31:
            assert defect <= 1e-12


def test_dual_diagnostics_report_the_clamped_construction():
    diag = approximate_dual(uniform_space(20, 3)).diagnostics
    assert diag["mirror_split"] and diag["null_directions"] == 0
    assert not diag["refinement_capped"] and diag["refinement_steps"] <= 2
    assert diag["constraint_residual"] <= 1e-14
    with pytest.raises(TypeError):
        diag["null_directions"] = 1
    # p=5, 160 elements: one singular value below the 1e-14 null threshold,
    # the next kept at 2.6e-14, and the refinement runs to its cap
    diag = approximate_dual(uniform_space(160, 5)).diagnostics
    assert diag["null_directions"] == 1
    assert 1e-14 <= diag["min_kept_sv_rel"] <= 1e-13
    assert diag["refinement_capped"] and diag["refinement_steps"] == 30
    # halfwidth 4 on 23 functions: 105 band entries against 92 constraints,
    # so at least 13 null directions besides any small singular values
    assert approximate_dual(uniform_space(20, 3), halfwidth=4).diagnostics["null_directions"] >= 13
    assert approximate_dual(uniform_space(16, 3, boundary_kind=PERIODIC)).diagnostics == {}


def test_periodic_dual_spd_and_rowsum(monkeypatch):
    import iga_explicit.dualbasis as dualbasis

    columns = []
    monkeypatch.setattr(dualbasis, "circulant_symbols",
                        lambda first: columns.append(first) or circulant_symbols(first))
    space = uniform_space(16, 3, boundary_kind=PERIODIC)
    dual = approximate_dual(space)
    assert dual.S.is_spd()
    C = dual.product_dense
    assert np.max(np.abs(C.sum(axis=1) - 1.0)) <= 1e-12
    # its positivity check reads the symbol of S's first column, which is
    # S's spectrum: wavenumbers 1 .. n/2 - 1 stand for n - k too
    S = dual.S.to_dense()
    [first] = columns
    assert np.array_equal(first, S[:, 0])
    symbol = circulant_symbols(first)
    every = np.sort(np.concatenate([symbol, symbol[1 : len(S) // 2]]))
    eig = np.linalg.eigvalsh(S)
    assert np.max(np.abs(every - eig)) <= 1e-13 * np.max(np.abs(eig))


def test_periodic_quasi_projection_rate():
    f = lambda x: np.sin(2 * np.pi * x)
    errs = []
    for n_el in (16, 32, 64):
        space = uniform_space(n_el, 3, boundary_kind=PERIODIC)
        dual = approximate_dual(space)
        coeffs = quasi_project(dual, f)
        errs.append(spline_l2_error(space, coeffs, f, n_panels=128, n_pts=6))
    slope = np.log2(errs[0] / errs[1])
    assert slope >= 3.5
    assert np.log2(errs[1] / errs[2]) >= 3.5


def test_constraining_periodic_rejected():
    space = uniform_space(16, 2, boundary_kind=PERIODIC)
    dual = approximate_dual(space)
    with pytest.raises(ValueError):
        constrain_dual(dual, left=True)
