"""Explicit spline dynamics with higher-order accurate dual-basis mass lumping.

The package provides univariate B-spline spaces, approximate L2 dual bases
with banded SPD coefficient matrices, Kronecker-factorized mass operators,
matrix-free stiffness actions on tensor-product patches, explicit Runge-Kutta
time stepping with critical-timestep analysis, and the benchmark drivers
behind the ``iga-explicit`` command line tool.
"""

from .assembly import (
    DiscreteSystem,
    KroneckerOperator,
    mass_operator,
    project_initial,
    stiffness_apply,
)
from .banded import BandedSymmetricMatrix
from .benchmarks import annulus_solution, bessel_j, bessel_zero, l2_error, string_frequencies
from .dualbasis import (
    ApproximateDualBasis,
    ConstrainedDual,
    approximate_dual,
    constrain_dual,
    exact_dual_coeffs,
    grammian,
    quasi_project,
)
from .dynamics import (
    RK2,
    RK4,
    RK6,
    ButcherTableau,
    DynamicState,
    critical_dt,
    eigensolve,
    max_frequency,
    outlier_removal,
    rk_step,
    stability_limit,
)
from .errors import ConfigError, NumericalError
from .geometry import GeometryMap, annulus_map, identity_map, weight_field
from .quadrature import QuadratureRule, gauss_rule
from .splinecore import (
    BasisEval,
    KnotVector,
    SplineSpace,
    eval_basis,
    greville,
    make_space,
    monomial_coefficients,
    uniform_space,
)

__version__ = "0.1.0"
