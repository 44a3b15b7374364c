"""Knot vectors, Cox-de Boor evaluation, Greville points, monomial coefficients."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracle_utils import full_clamped_knots, naive_all_values, scalar_ders_basis

from iga_explicit.splinecore import (
    CLAMPED,
    PERIODIC,
    KnotVector,
    eval_basis,
    greville,
    make_space,
    monomial_coefficients,
    uniform_space,
)


def test_single_element_open_knots():
    space = make_space([0.0, 1.0], 2)
    assert_allclose(space.knot_vector.knots, [0, 0, 0, 1, 1, 1])
    assert space.dimension == 3


def test_interior_multiplicity_from_regularity():
    space = make_space([0.0, 0.5, 1.0], 2, regularity=[1])
    assert_allclose(space.knot_vector.knots, [0, 0, 0, 0.5, 1, 1, 1])
    assert space.dimension == 4


def test_reduced_regularity_knot_count():
    space = make_space([0.0, 0.5, 1.0], 3, regularity=[1])
    assert_allclose(space.knot_vector.knots, [0, 0, 0, 0, 0.5, 0.5, 1, 1, 1, 1])
    assert space.dimension == len(space.knot_vector.knots) - 3 - 1 == 6


def test_make_space_errors():
    with pytest.raises(ValueError):
        make_space([0.0, 0.6, 0.5, 1.0], 2)
    with pytest.raises(ValueError, match="finite"):
        make_space([0.0, 0.5, np.inf], 2)
    with pytest.raises(ValueError, match="finite"):
        make_space([np.nan, 0.5, 1.0], 2, boundary_kind=PERIODIC)
    with pytest.raises(ValueError):
        make_space([0.0, 0.5, 1.0], 2, regularity=[2])
    with pytest.raises(ValueError):
        make_space([0.0, 0.5, 1.0], 2, regularity=[-1])


def test_hat_functions_midpoint():
    space = make_space([0.0, 1.0], 1)
    ev = eval_basis(space, 0.5)
    assert_allclose(ev.values[0], [0.5, 0.5])


def test_quadratic_uniform_values():
    # hand Cox-de Boor on uniform quadratic: interior point of middle element
    space = make_space([0.0, 1.0, 2.0, 3.0], 2)
    ev = eval_basis(space, 1.5)
    assert_allclose(ev.values[0], [0.125, 0.75, 0.125], atol=1e-15)


@pytest.mark.parametrize("degree,kind", [(2, CLAMPED), (3, CLAMPED), (5, CLAMPED), (3, PERIODIC)])
def test_partition_of_unity(degree, kind):
    space = uniform_space(12, degree, boundary_kind=kind)
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.0, 1.0, size=1000):
        ev = eval_basis(space, x)
        assert abs(ev.values[0].sum() - 1.0) <= 1e-13


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_values_match_recursive_oracle(degree):
    space = make_space([0.0, 0.2, 0.55, 0.8, 1.0], degree)
    rng = np.random.default_rng(3)
    for x in rng.uniform(0.0, 0.999, size=40):
        dense = np.zeros(space.dimension)
        ev = eval_basis(space, x)
        dense[ev.indices] = ev.values[0]
        assert_allclose(dense, naive_all_values(space, x), atol=1e-12)


def test_periodic_values_match_recursive_oracle():
    space = uniform_space(10, 3, boundary_kind=PERIODIC)
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.0, 1.0, size=40):
        dense = np.zeros(space.dimension)
        ev = eval_basis(space, x)
        for l, j in enumerate(ev.indices):
            dense[j] += ev.values[0, l]
        assert_allclose(dense, naive_all_values(space, x), atol=1e-12)


def test_local_support_and_count():
    space = uniform_space(10, 3)
    ev = eval_basis(space, 0.37)
    assert len(ev.values[0]) == 4
    # functions outside [xi_i, xi_{i+p+1}] vanish
    knots = space.knot_vector.knots
    for i in range(space.dimension):
        lo, hi = knots[i], knots[i + space.degree + 1]
        for x in (lo - 0.05, hi + 0.05):
            if 0.0 <= x <= 1.0:
                ev = eval_basis(space, x)
                if i in ev.indices:
                    l = list(ev.indices).index(i)
                    assert abs(ev.values[0, l]) < 1e-14


@pytest.mark.parametrize("kind", [CLAMPED, PERIODIC])
def test_first_derivative_matches_finite_difference(kind):
    space = uniform_space(8, 3, boundary_kind=kind)
    rng = np.random.default_rng(5)
    h = 1e-6
    for x in rng.uniform(0.05, 0.95, size=25):
        ev = eval_basis(space, x, max_deriv=1)
        up = np.zeros(space.dimension)
        dn = np.zeros(space.dimension)
        for arr, xx in ((up, x + h), (dn, x - h)):
            e = eval_basis(space, xx)
            for l, j in enumerate(e.indices):
                arr[j] += e.values[0, l]
        fd = (up - dn) / (2 * h)
        for l, j in enumerate(ev.indices):
            if abs(ev.values[1, l]) > 1e-3:
                assert abs(fd[j] - ev.values[1, l]) / abs(ev.values[1, l]) < 1e-5


def test_second_derivative_available_up_to_degree():
    space = uniform_space(6, 2)
    ev = eval_basis(space, 0.3, max_deriv=2)
    assert ev.values.shape == (3, 3)
    with pytest.raises(ValueError):
        eval_basis(space, 0.3, max_deriv=3)


def test_eval_outside_domain_raises():
    space = uniform_space(4, 2)
    with pytest.raises(ValueError):
        eval_basis(space, 1.5)


BATCH_SPACES = (
    [(f"clamped-p{p}", uniform_space(7, p)) for p in range(6)]
    + [(f"periodic-p{p}", uniform_space(11, p, boundary_kind=PERIODIC)) for p in range(6)]
    + [("nonuniform-p3", make_space([0, 0.3, 0.55, 1], 3)),
       ("regularity1-p3", make_space([0, 0.25, 0.5, 0.75, 1], 3, regularity=1))]
)


@pytest.mark.parametrize("space", [s for _, s in BATCH_SPACES], ids=[i for i, _ in BATCH_SPACES])
def test_eval_basis_array_matches_scalar(space):
    a, b = space.domain
    xs = [a, b, *space.breakpoints, *np.random.default_rng(13).uniform(a, b, 40)]
    if space.periodic:
        # points outside the period, and points whose wrap lands on b
        xs += [a - 0.3, b + 0.7, 3 * b, -1e-17, a - 1e-17 * (b - a)]
    xs = np.array(xs)
    for d in range(space.degree + 1):
        batch = eval_basis(space, xs, max_deriv=d)
        assert batch.values.shape == (len(xs), d + 1, space.degree + 1)
        for i, x in enumerate(xs):
            ev = eval_basis(space, x, max_deriv=d)
            assert batch.first_index[i] == ev.first_index
            assert np.array_equal(batch.indices[i], ev.indices)
            assert np.array_equal(batch.values[i], ev.values)
    if not space.periodic:
        with pytest.raises(ValueError) as scalar:
            eval_basis(space, b + 0.5)
        with pytest.raises(ValueError) as batched:
            eval_basis(space, np.array([a, 0.5 * (a + b), b + 0.5, b + 1.0]))
        assert str(batched.value) == str(scalar.value)


def test_right_end_closed():
    space = uniform_space(4, 2)
    ev = eval_basis(space, 1.0)
    assert ev.values[0].sum() == pytest.approx(1.0, abs=1e-14)
    assert ev.values[0][-1] == pytest.approx(1.0, abs=1e-14)


def test_greville_simple():
    space = make_space([0.0, 1.0], 2)
    assert_allclose(greville(space), [0.0, 0.5, 1.0])


def test_greville_p1_equals_breakpoints():
    space = make_space([0.0, 0.25, 0.7, 1.0], 1)
    assert_allclose(greville(space), [0.0, 0.25, 0.7, 1.0])


def test_greville_knot_averages():
    space = make_space([0.0, 0.5, 1.0], 3)
    assert_allclose(space.knot_vector.knots, [0, 0, 0, 0, 0.5, 1, 1, 1, 1])
    assert_allclose(greville(space), [0.0, 1 / 6, 1 / 2, 5 / 6, 1.0])


@pytest.mark.parametrize("breakpoints", [
    np.linspace(0.0, 1.0, 12),
    [0.0, 0.1, 0.35, 0.5, 0.8, 1.0],
    np.sort(np.random.default_rng(7).uniform(-2.0, 3.0, 9)),
])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 7, 9])
def test_greville_is_the_loop_of_knot_averages(breakpoints, degree):
    for regularity in sorted({degree - 1, max(degree - 2, 0), 0}):
        space = make_space(breakpoints, degree, regularity=regularity)
        knots = space.knot_vector.knots
        loop = [knots[i + 1 : i + degree + 1].mean() for i in range(space.dimension)]
        assert np.array_equal(greville(space), loop)


def test_monomial_constant_is_ones():
    space = uniform_space(7, 3)
    assert_allclose(monomial_coefficients(space, 0), np.ones(space.dimension))


def test_monomial_linear_is_greville():
    space = uniform_space(9, 4)
    assert_allclose(monomial_coefficients(space, 1), greville(space), atol=1e-13)


def test_monomial_quadratic_single_element():
    space = make_space([0.0, 1.0], 2)
    assert_allclose(monomial_coefficients(space, 2), [0.0, 0.0, 1.0], atol=1e-13)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_monomial_reproduction_pointwise(degree):
    space = uniform_space(8, degree)
    xs = np.linspace(0.0, 1.0, 100)
    for q in range(degree + 1):
        c = monomial_coefficients(space, q)
        worst = 0.0
        for x in xs:
            ev = eval_basis(space, x)
            worst = max(worst, abs(np.dot(c[ev.indices], ev.values[0]) - x**q))
        assert worst <= 1e-12


def test_monomial_above_degree_rejected():
    space = uniform_space(4, 2)
    with pytest.raises(ValueError):
        monomial_coefficients(space, 3)


def test_periodic_requires_uniform_partition():
    with pytest.raises(ValueError):
        make_space([0.0, 0.3, 1.0], 2, boundary_kind=PERIODIC)


def test_periodic_requires_maximal_smoothness():
    with pytest.raises(ValueError):
        make_space(np.linspace(0, 1, 9), 2, regularity=0, boundary_kind=PERIODIC)


def test_unknown_boundary_kind():
    with pytest.raises(ValueError):
        make_space([0.0, 1.0], 2, boundary_kind="open")


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_a_built_space_is_immutable():
    knots = np.array([0.0, 0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.0, 1.0])
    kv = KnotVector(knots, 2)
    assert kv.knots is not knots and not np.shares_memory(kv.knots, knots)
    knots[3] = 0.3  # the caller's array stays the caller's
    assert kv.knots[3] == 0.25
    space = uniform_space(4, 2)
    with pytest.raises(ValueError, match="read-only"):
        space.knot_vector.knots[3] = 0.3
    assert_allclose(space.breakpoints, [0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize("kind", [CLAMPED, PERIODIC])
def test_breakpoints_are_computed_once_and_read_only(kind):
    space = uniform_space(6, 2, boundary_kind=kind)
    bps = space.breakpoints
    assert space.breakpoints is bps and not bps.flags.writeable
    assert space.n_elements == 6
    knots = space.knot_vector.knots
    assert same_bits(bps, np.unique(knots[2 : len(knots) - 2]))
    with pytest.raises(ValueError, match="read-only"):
        bps[0] = -1.0


def oracle_breakpoints(degree):
    """(breakpoints, regularity) triples: uniform, reduced regularity at
    every interior breakpoint, and non-uniform with one per breakpoint."""
    uniform = np.linspace(0.0, 1.0, 7)
    rough = np.array([-0.3, 0.1, 0.35, 0.5, 0.8, 1.7])
    regs = [None] * 3 if degree == 0 else [
        None, 0, [(k * 2) % degree for k in range(4)]]
    return [(uniform, regs[0]), (uniform, regs[1]), (rough, regs[2])]


@pytest.mark.parametrize("degree", range(6))
def test_clamped_knots_repeat_each_breakpoint_by_its_multiplicity(degree):
    for bps, regularity in oracle_breakpoints(degree):
        n_interior = len(bps) - 2
        if regularity is None:
            regs = [degree - 1] * n_interior
        else:
            regs = list(np.broadcast_to(regularity, n_interior))
        space = make_space(bps, degree, regularity)
        want = full_clamped_knots(bps, degree, regs)
        assert same_bits(space.knot_vector.knots, want), (bps, regularity)
        assert space.dimension == len(want) - degree - 1


def test_periodic_uniformity_is_the_allclose_test():
    accepted = []
    h0 = 0.1
    tol = 1e-14 + 1e-12 * h0
    for shift in np.linspace(0.5, 1.5, 41) * tol:
        for at in (1, 4, 8):
            bps = h0 * np.arange(11)
            bps[at] += shift
            h = np.diff(bps)
            want = bool(np.allclose(h, h[0], rtol=1e-12, atol=1e-14))
            try:
                make_space(bps, 2, boundary_kind=PERIODIC)
                got = True
            except ValueError as exc:
                assert "uniform" in str(exc)
                got = False
            assert got == want, (shift, at)
            accepted.append(got)
    assert any(accepted) and not all(accepted)


@pytest.mark.parametrize("degree", range(1, 6))
@pytest.mark.parametrize("kind", [CLAMPED, PERIODIC])
def test_ders_basis_matches_the_scalar_levels(degree, kind):
    from iga_explicit.splinecore import _ders_basis

    space = (make_space([0.0, 0.1, 0.35, 0.5, 0.8, 1.0, 1.1, 1.4, 1.5, 2.0], degree)
             if kind == CLAMPED else uniform_space(2 * degree + 3, degree, 0.2, 1.7, kind))
    knots = space.knot_vector.knots
    # both ends and three inner points of every element, with its span
    lo, hi = space.breakpoints[:-1], space.breakpoints[1:]
    t = np.r_[0.0, np.random.default_rng(degree).uniform(size=3), 1.0]
    x = (lo[:, None] + t * (hi - lo)[:, None]).ravel()
    mu = np.repeat(np.searchsorted(knots, lo, side="right") - 1, len(t))
    for nd in range(degree + 1):
        values = _ders_basis(knots, degree, mu, x, nd)
        for xi, mi, v in zip(x, mu, values):
            assert same_bits(v, scalar_ders_basis(knots, degree, mi, xi, nd)), (xi, nd)
