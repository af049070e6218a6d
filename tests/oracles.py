"""Independent oracles used to freeze expected values in the test suite.

These deliberately avoid the package's radial-angular engine: the double
integrals use uniform midpoint tensor grids with a per-row strip completion
at a much smaller scale than the engine's cutoff, and the operator oracle
works on the Fourier side.  Regenerate frozen constants with

    python -m tests.oracles
"""

from __future__ import annotations

import math

import numpy as np

# Sub-strip scale of the oracle; far below the engine default of 1e-4 * diam.
_R0 = 1e-7


def _strip_completion(u, du, x, s, delta, lo, hi, nodes=24):
    """Near-diagonal mass sum_pm int_0^delta |u(x)-u(x pm r)|^2 r^(-1-2s) dr,
    clipped to (lo, hi), via geometric direct quadrature on [r0, delta] plus
    the second-order closed form below r0."""
    xi, wgl = np.polynomial.legendre.leggauss(nodes)
    n_layers = int(math.ceil(math.log2(delta / _R0)))
    bounds = delta * 0.5 ** np.arange(n_layers + 1)
    bounds[-1] = _R0
    a, b = bounds[1:], bounds[:-1]
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    r = (mid[:, None] + half[:, None] * xi).ravel()       # (L*k,)
    w = (half[:, None] * wgl).ravel() * r ** (-1.0 - 2.0 * s)

    ux = u(x)[:, None]
    total = np.zeros_like(x)
    for sign in (+1.0, -1.0):
        y = x[:, None] + sign * r
        ok = (y > lo) & (y < hi)
        vals = np.where(ok, np.abs(ux - u(np.clip(y, lo, hi))) ** 2, 0.0)
        total += vals @ w
    # Both rays survive below r0 for interior x (r0 << cell size).
    total += 2.0 * np.abs(du(x)) ** 2 * _R0 ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    return total


def brute_gagliardo_1d(u, du, a, b, s, n=4000, strip_cells=8, block=256):
    """Squared classical Gagliardo seminorm of u on (a, b) by brute force.

    Uniform midpoint tensor grid with the diagonal strip excluded; the strip
    itself is completed per row by direct graded quadrature down to r0 plus
    the analytic sub-r0 term (the kernel concentrates mass at scales no grid
    reaches once s is close to 1).
    """
    h = (b - a) / n
    x = a + (np.arange(n) + 0.5) * h
    ux = u(x)
    delta = (strip_cells - 0.5) * h
    far = 0.0
    for start in range(0, n, block):
        xi_blk = x[start : start + block, None]
        u_blk = ux[start : start + block, None]
        r = np.abs(xi_blk - x[None, :])
        mask = np.abs(np.arange(n)[None, :] - np.arange(start, min(start + block, n))[:, None]) >= strip_cells
        vals = np.where(mask, np.abs(u_blk - ux[None, :]) ** 2 * r ** np.where(mask, -1.0 - 2.0 * s, 0.0), 0.0)
        far += float(vals.sum()) * h * h
    strip = float(np.dot(_strip_completion(u, du, x, s, delta, a, b), np.full(n, h)))
    return far + strip


def spectral_fractional_gaussian(s, x, xi_max=40.0, nodes=800):
    """Classical fractional Laplacian of exp(-t^2) at x, via the Fourier side:
    (1/2pi) int |xi|^(2s) * sqrt(pi) e^(-xi^2/4) e^(i xi x) dxi."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    xi = 0.5 * xi_max * (t + 1.0)
    wq = 0.5 * xi_max * w
    vals = xi ** (2.0 * s) * np.exp(-(xi**2) / 4.0) * np.cos(xi * x)
    return float(np.dot(wq, vals)) / math.sqrt(math.pi)


def landau_fractional_gaussian_2d(s, x, a, radius=30.0, radial=300, angular=256):
    """(-Delta)^s_A of exp(-|y|^2) at x in 2D, for a linear antisymmetric
    potential A with a = A(x).  The midpoint phase at x is then
    e^{i (x-y).a} and x.a = 0, so the operator is the classical fractional
    Laplacian of e^{-i y.a} exp(-|y|^2), whose Fourier transform is a
    shifted Gaussian: (2pi)^-2 int |eta - a|^(2s) pi e^(-|eta|^2/4)
    e^(i eta.x) d eta.  The integral is taken in polar coordinates about a,
    with rho = radius t^2 on Gauss-Legendre nodes in t and the trapezoid
    rule in angle."""
    t, w = np.polynomial.legendre.leggauss(radial)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    rho = radius * t**2
    theta = 2.0 * math.pi * np.arange(angular) / angular
    eta = np.asarray(a, dtype=float) + rho[:, None, None] * np.stack((np.cos(theta), np.sin(theta)), -1)
    ring = np.exp(-np.sum(eta * eta, -1) / 4.0 + 1j * (eta @ np.asarray(x, dtype=float))).mean(1)
    # d eta = rho d rho d theta and d rho = 2 radius t dt; the angle mean is
    # the theta integral over 2 pi, so the factors are (2 pi)^-2 pi 2 pi = 1/2
    return 0.5 * complex((2.0 * radius * t * w * rho ** (2.0 * s + 1.0)) @ ring)


def gauss1d_energy_closed_form():
    """int_{-1}^{1} 4 x^2 e^{-2x^2} dx in closed form."""
    return -2.0 * math.exp(-2.0) + math.sqrt(math.pi / 2.0) * math.erf(math.sqrt(2.0))


def _main():
    u = lambda t: np.exp(-(t**2))
    du = lambda t: -2.0 * t * np.exp(-(t**2))
    print("# brute-force classical seminorms of exp(-x^2) on (-1, 1)")
    for s in (0.5, 0.8, 0.9, 0.95, 0.99):
        coarse = brute_gagliardo_1d(u, du, -1.0, 1.0, s, n=4000)
        fine = brute_gagliardo_1d(u, du, -1.0, 1.0, s, n=8000)
        print(f"s={s}: n=4000 -> {coarse!r}   n=8000 -> {fine!r}   drift {abs(fine-coarse)/fine:.2e}")
    print("# spectral fractional Laplacian of the Gaussian at 0")
    for s in (0.3, 0.5, 0.7, 0.8, 0.9, 0.95):
        v = spectral_fractional_gaussian(s, 0.0)
        closed = 4.0**s * math.gamma(s + 0.5) / math.sqrt(math.pi)
        print(f"s={s}: spectral {v!r}  closed {closed!r}  diff {abs(v-closed):.2e}")
    print("# local energy of the 1D Gaussian:", repr(gauss1d_energy_closed_form()))


if __name__ == "__main__":
    _main()
