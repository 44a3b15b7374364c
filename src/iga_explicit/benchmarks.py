"""Analytic oracles: Bessel functions and zeros, the vibrating-annulus
manufactured solution, string eigenfrequencies, and L2 error norms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import contract

_SERIES_CUTOFF = 12.0


def bessel_j(n, x):
    """Bessel function of the first kind J_n, accurate to ~1e-12 on [0, 60].

    Uses the ascending series for small arguments and Miller's backward
    recurrence with J0-sum normalization for moderate and large arguments.
    Accepts scalars or arrays. Each distinct argument is evaluated once and
    scattered back; the series cutoff, the Miller start index and its
    rescaling depend only on the set of arguments, so this changes no value.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("argument must be non-negative")
    xs, inverse = np.unique(x, return_inverse=True)
    out = np.empty_like(xs)
    small = xs <= _SERIES_CUTOFF
    if np.any(small):
        out[small] = _bessel_series(n, xs[small])
    if np.any(~small):
        out[~small] = _bessel_miller(n, xs[~small])
    return float(out[0]) if x.ndim == 0 else out[inverse.reshape(x.shape)]


def _bessel_series(n, x):
    half = 0.5 * x
    term = np.ones_like(x)
    for m in range(1, n + 1):
        term = term * half / m
    total = term.copy()
    halfsq = half * half
    for k in range(1, 80):
        term = -term * halfsq / (k * (n + k))
        total += term
        if np.max(np.abs(term)) < 1e-18 * max(1.0, float(np.max(np.abs(total)))):
            break
    return total


def _bessel_miller(n, x):
    """Miller's backward recurrence f_{k-1} = (2k/x) f_k - f_{k+1}, rescaled
    wherever |f_k| passes 1e250.

    The overflow check runs only once a scalar bound on max|f_k| could pass
    1e250: the bound grows by the recurrence with 2k / min(x) and a margin
    for round-off, and restarts from the true maxima after each check, so
    the result is the same, bit for bit, as checking every step."""
    xmax, xmin = float(np.max(x)), float(np.min(x))
    start = int(xmax + 12.0 * xmax ** (1.0 / 3.0) + n + 20)
    if start % 2:
        start += 1
    f_up = np.zeros_like(x)  # f_{k+1}
    f_k = np.full_like(x, 1e-30)
    bound, bound_up = 1e-30, 0.0  # bounds on max|f_k| and max|f_{k+1}|
    target = np.zeros_like(x)
    even_sum = np.zeros_like(x)
    if n == start:
        target = f_k.copy()
    for k in range(start, 0, -1):
        f_dn = (2.0 * k / x) * f_k - f_up
        f_up = f_k
        f_k = f_dn
        bound, bound_up = (2.0 * k / xmin * bound + bound_up) * (1.0 + 1e-15), bound
        idx = k - 1
        if idx == n:
            target = f_k.copy()
        if idx >= 2 and idx % 2 == 0:
            even_sum += 2.0 * f_k
        if bound > 1e250:
            big = np.abs(f_k) > 1e250
            if np.any(big):
                scale = np.where(big, 1.0 / np.abs(f_k), 1.0)
                f_k *= scale
                f_up *= scale
                target *= scale
                even_sum *= scale
                bound_up = float(np.max(np.abs(f_up)))
            bound = float(np.max(np.abs(f_k)))
    norm = f_k + even_sum  # f_0 + 2 sum_{even k >= 2} f_k = 1
    return target / norm


def bessel_zero(n, k):
    """k-th positive zero of J_n by sign-bracketing and bisection, to an
    interval of 1e-12."""
    if k < 1:
        raise ValueError("zero index starts at 1")
    step = np.pi / 8.0
    x = max(n, 1.0) * 1.0 + 1e-6
    limit = x + (n + 10 + k) * 4.0 * np.pi
    found = 0
    prev_x = x
    prev_v = bessel_j(n, x)
    while x < limit:
        x += step
        v = bessel_j(n, x)
        if prev_v == 0.0:
            found += 1
            if found == k:
                return prev_x
        elif prev_v * v < 0.0:
            found += 1
            if found == k:
                lo, hi = prev_x, x
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    vm = bessel_j(n, mid)
                    if prev_v * vm <= 0.0:
                        hi = mid
                    else:
                        lo, prev_v = mid, vm
                    if hi - lo < 1e-12:
                        break
                return 0.5 * (lo + hi)
        prev_x, prev_v = x, v
    raise ValueError(f"zero {k} of J_{n} not found in scan window")


@dataclass(frozen=True)
class ManufacturedSolution:
    """Separable free-vibration field on the annulus with homogeneous edges.

    u(r, theta, t) = R(r) cos(omega t) cos(m theta) with R a Bessel function
    whose zeros are the annulus radii; it solves u_tt = kappa Lap(u) with
    kappa = omega**2.
    """

    angular_wavenumber: int
    omega: float
    inner_radius: float
    outer_radius: float

    @property
    def period(self):
        return 2.0 * np.pi / self.omega

    @property
    def kappa(self):
        return self.omega**2

    def radial(self, r):
        return bessel_j(self.angular_wavenumber, r)

    def value(self, r, theta, t):
        return (
            self.radial(r)
            * np.cos(self.omega * t)
            * np.cos(self.angular_wavenumber * np.asarray(theta))
        )

    def velocity(self, r, theta, t):
        return (
            -self.omega
            * self.radial(r)
            * np.sin(self.omega * t)
            * np.cos(self.angular_wavenumber * np.asarray(theta))
        )


def annulus_solution():
    """The benchmark field: J_4 radial profile between its 2nd and 4th zeros."""
    lam2 = bessel_zero(4, 2)
    lam4 = bessel_zero(4, 4)
    return ManufacturedSolution(
        angular_wavenumber=4, omega=lam2, inner_radius=lam2, outer_radius=lam4
    )


def string_frequencies(k):
    """Exact fixed-fixed unit-string frequencies omega_k = k pi."""
    return np.pi * np.asarray(k, dtype=float)


def l2_error(system, coeffs_free, exact_xy):
    """Relative L2 distance between a coefficient grid and an exact field.

    ``exact_xy`` is a callable on physical coordinates (one argument in 1D,
    two in 2D). Quadrature uses the system's degree+2 points per element.
    """
    uh = contract([system.tables(k)[2].__matmul__ for k in range(system.ndim)],
                  system.inject(coeffs_free))
    ue = system.evaluate(exact_xy, physical=True)
    W, det, _ = system.quadrature_grid()
    W = W * det
    num = np.sum(W * (uh - ue) ** 2)
    den = np.sum(W * ue**2)
    if den <= 0.0:
        raise ValueError("exact field has zero norm")
    return float(np.sqrt(num / den))
