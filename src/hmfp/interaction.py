"""Attractive interaction on the circle: kernel, density, potential solve.

The pair interaction is the 2pi-periodic, even, zero-average kernel

    W(theta) = -theta**2/(4*pi) + |theta|/2 - pi/6,   theta in [-pi, pi],

whose second distributional derivative is a unit Dirac mass at 0 minus the
constant 1/(2*pi).  Convolving a density rho with W therefore solves

    phi'' = rho - M/(2*pi),   integral of phi = 0,

with M the total mass.  The production solve works in Fourier space with the
exact multiplier -1/m**2, which keeps the zero mean, the linearity and the
periodicity identities exact in floating point; a quadrature-based circulant
convolution with sampled kernel values is kept alongside as an independent
second-order cross check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TWO_PI, DistributionField, PhaseGrid, Potential


def _reduce_angle(theta):
    """Map angles into [-pi, pi] using the periodic wrap."""
    theta = np.asarray(theta, dtype=float)
    return theta - TWO_PI * np.round(theta / TWO_PI)


def kernel_W(theta):
    """Evaluate the interaction kernel W at theta (scalar or array).

    Parameters
    ----------
    theta : array_like
        Angles, reduced modulo 2*pi into [-pi, pi] before evaluation.

    Returns
    -------
    ndarray or float
        -theta**2/(4*pi) + |theta|/2 - pi/6 on the reduced argument.
    """
    t = _reduce_angle(theta)
    out = -t * t / (2.0 * TWO_PI) + 0.5 * np.abs(t) - np.pi / 6.0
    return out if out.ndim else float(out)


def kernel_W_prime(theta):
    """Evaluate W' at theta with the symmetric convention W'(0) = 0.

    On (-pi, pi) the derivative is -theta/(2*pi) + sign(theta)/2; it vanishes
    at 0 (trapezoid value across the jump) and at +-pi (one-sided limits
    agree there).
    """
    t = _reduce_angle(theta)
    out = -t / TWO_PI + 0.5 * np.sign(t)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Density:
    """Nonnegative line density on the theta nodes of a grid."""

    grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.grid.n_theta,):
            raise ValueError("density must have one value per theta node")
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def density(f: DistributionField) -> Density:
    """Integrate a field over v to a line density (midpoint rule per row)."""
    return Density(f.grid, f.values.sum(axis=1) * f.grid.d_v)


def potential_from_density(rho: Density) -> Potential:
    """Solve phi'' = rho - M/(2*pi) with zero mean, spectrally.

    The Fourier multiplier is exact, so the result inherits zero mean and
    linearity to machine precision and is exact on trigonometric densities.
    For even n_theta the unmatched Nyquist mode is dropped from both phi and
    phi' so the pair stays a consistent derivative couple under the spectral
    pairing used by the energy functionals.
    """
    n = rho.grid.n_theta
    rho_hat = np.fft.rfft(rho.values)
    m = np.arange(rho_hat.size)
    phi_hat = np.zeros_like(rho_hat)
    phi_hat[1:] = -rho_hat[1:] / m[1:] ** 2
    dphi_hat = 1j * m * phi_hat
    if n % 2 == 0:
        phi_hat[-1] = 0.0
        dphi_hat[-1] = 0.0
    phi = np.fft.irfft(phi_hat, n)
    dphi = np.fft.irfft(dphi_hat, n)
    return Potential(rho.grid, phi, dphi)


def solve_potential(f: DistributionField) -> Potential:
    """Self-consistent potential of a field: convolve its density with W."""
    return potential_from_density(density(f))


def convolution_potential(rho: Density) -> Potential:
    """Quadrature path: circulant convolution with the sampled kernel.

    phi_i = sum_k W(theta_i - theta_k) rho_k d_theta and the analogous sum
    with W' for the derivative.  Second order in d_theta; used to cross-check
    the spectral solve, not in production paths.
    """
    g = rho.grid
    w = kernel_W(g.theta)
    wp = kernel_W_prime(g.theta)
    rho_hat = np.fft.rfft(rho.values)
    phi = np.fft.irfft(np.fft.rfft(w) * rho_hat, g.n_theta) * g.d_theta
    dphi = np.fft.irfft(np.fft.rfft(wp) * rho_hat, g.n_theta) * g.d_theta
    return Potential(g, phi, dphi)
