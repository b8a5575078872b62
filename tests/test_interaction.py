"""Interaction kernel and the periodic field solve."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hmfp.grid import DistributionField, field_from_function, make_grid
from hmfp.interaction import (
    Density,
    convolution_potential,
    density,
    kernel_W,
    kernel_W_prime,
    potential_from_density,
    solve_potential,
)

from conftest import maxwellian, smooth_random_field

TWO_PI = 2.0 * math.pi


def test_kernel_pointwise_values():
    assert kernel_W(0.0) == pytest.approx(-math.pi / 6.0, rel=1e-15)
    assert kernel_W(math.pi) == pytest.approx(math.pi / 12.0, rel=1e-15)
    assert kernel_W(-math.pi) == pytest.approx(math.pi / 12.0, rel=1e-15)
    assert kernel_W_prime(0.0) == 0.0


def test_kernel_symmetry_and_periodicity():
    t = np.linspace(-10.0, 10.0, 501)
    assert np.allclose(kernel_W(t), kernel_W(-t), atol=1e-15)
    assert np.allclose(kernel_W(t), kernel_W(t + TWO_PI), atol=1e-13)
    assert np.allclose(kernel_W_prime(t), -kernel_W_prime(-t), atol=1e-15)
    assert np.max(np.abs(kernel_W(t))) <= math.pi / 6.0 + 1e-15
    assert np.max(np.abs(kernel_W_prime(t))) <= 0.5 + 1e-15


def test_kernel_node_sum_closed_form():
    # the sampled kernel is not zero-average; the defect has a closed form
    # that the convolution solve relies on cancelling against the background
    for n in (64, 256):
        g = make_grid(n, 8, 1.0)
        total = float(kernel_W(g.theta).sum()) * g.d_theta
        assert total == pytest.approx(-math.pi ** 2 / (3.0 * n * n), rel=1e-12)
    n = 250000
    nodes = (TWO_PI / n) * np.arange(n)
    total = float(kernel_W(nodes).sum()) * (TWO_PI / n)
    assert abs(total) <= 1e-10


def test_potential_of_cosine_density_is_exact():
    g = make_grid(256, 8, 1.0)
    rho = Density(g, 1.0 + np.cos(g.theta))
    phi = potential_from_density(rho)
    assert np.max(np.abs(phi.values + np.cos(g.theta))) <= 1e-14
    assert np.max(np.abs(phi.derivative - np.sin(g.theta))) <= 1e-14


def test_homogeneous_density_gives_zero_potential():
    g = make_grid(64, 8, 1.0)
    phi = potential_from_density(Density(g, np.full(64, 3.7)))
    assert np.all(phi.values == 0.0)
    assert np.all(phi.derivative == 0.0)


def test_nyquist_mode_is_dropped():
    g = make_grid(64, 8, 1.0)
    alternating = 1.0 + 0.5 * (-1.0) ** np.arange(64)
    phi = potential_from_density(Density(g, alternating))
    assert np.max(np.abs(phi.values)) <= 1e-15
    assert np.max(np.abs(phi.derivative)) <= 1e-15


def test_solve_is_linear_and_mean_free():
    g = make_grid(128, 64, 6.0)
    f1 = smooth_random_field(g, seed=3)
    f2 = smooth_random_field(g, seed=4)
    r1, r2 = density(f1), density(f2)
    phi1 = potential_from_density(r1)
    phi2 = potential_from_density(r2)
    both = potential_from_density(Density(g, r1.values + r2.values))
    assert np.allclose(both.values, phi1.values + phi2.values, atol=1e-14)
    assert abs(phi1.values.mean()) <= 1e-15
    assert abs(both.values.mean()) <= 1e-15


def _field_pairs(shape):
    unit = arrays(np.float64, shape, elements=st.floats(0.0, 1.0))
    return st.tuples(unit, unit)


@settings(max_examples=100, deadline=None)
@given(fields=st.tuples(st.integers(8, 40), st.integers(8, 40)).flatmap(_field_pairs),
       a=st.floats(0.0, 4.0), b=st.floats(0.0, 4.0))
# constant fields have a zero potential; the solve's rounding left 1.23e-14
@example(fields=(np.full((17, 8), 0.75), np.full((17, 8), 0.96875)),
         a=4.0, b=2.875)
def test_solve_potential_is_linear_in_f(fields, a, b):
    f, h = fields
    g = make_grid(*f.shape, 6.0)
    phi_f = solve_potential(DistributionField(g, f))
    phi_h = solve_potential(DistributionField(g, h))
    both = solve_potential(DistributionField(g, a * f + b * h))
    # the rounding of the solve grows with the combined input, up to 8
    atol = 1e-14 * max(1.0, abs(a) + abs(b))
    assert np.allclose(both.values, a * phi_f.values + b * phi_h.values,
                       atol=atol)
    assert np.allclose(both.derivative,
                       a * phi_f.derivative + b * phi_h.derivative, atol=atol)


def test_density_reduces_rows():
    g = make_grid(16, 32, 4.0)
    f = smooth_random_field(g, seed=11)
    rho = density(f)
    assert rho.values == pytest.approx(f.values.sum(axis=1) * g.d_v)
    assert float(rho.values.sum()) * g.d_theta == pytest.approx(
        float(f.values.sum()) * g.cell_area)


def test_potential_satisfies_discrete_poisson():
    # second spectral derivative of phi must return the zero-mean density
    g = make_grid(128, 64, 6.0)
    f = smooth_random_field(g, seed=5)
    rho = density(f)
    phi = solve_potential(f)
    phi_hat = np.fft.rfft(phi.values)
    m = np.arange(phi_hat.size)
    lap = np.fft.irfft(-(m ** 2) * phi_hat, g.n_theta)
    target = rho.values - rho.values.mean()
    # the Nyquist component of rho is unrepresentable and excluded
    t_hat = np.fft.rfft(target)
    t_hat[-1] = 0.0
    target = np.fft.irfft(t_hat, g.n_theta)
    assert np.max(np.abs(lap - target)) <= 1e-11


def test_integration_by_parts_pairing():
    # sum phi rho dtheta = -sum phi'^2 dtheta, exactly in the DFT pairing
    g = make_grid(128, 64, 6.0)
    f = smooth_random_field(g, seed=6)
    rho = density(f)
    phi = solve_potential(f)
    lhs = float(phi.values @ rho.values) * g.d_theta
    rhs = -float(phi.derivative @ phi.derivative) * g.d_theta
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_convolution_agrees_with_spectral_solve():
    # the quadrature path is second order; one refinement cuts the gap 4x
    gaps = []
    for n in (64, 128, 256):
        g = make_grid(n, 16, 6.0)
        rho = Density(g, 1.0 + 0.8 * np.cos(g.theta) + 0.3 * np.sin(2 * g.theta))
        spect = potential_from_density(rho)
        conv = convolution_potential(rho)
        gaps.append(np.max(np.abs(conv.values - spect.values)))
    assert gaps[0] <= 2e-3
    assert gaps[1] <= 0.30 * gaps[0]
    assert gaps[2] <= 0.30 * gaps[1]


def test_convolution_derivative_tracks_spectral():
    g = make_grid(256, 16, 6.0)
    rho = Density(g, 1.0 + 0.8 * np.cos(g.theta))
    spect = potential_from_density(rho)
    conv = convolution_potential(rho)
    assert np.max(np.abs(conv.derivative - spect.derivative)) <= 2e-4


def test_maxwellian_has_no_field():
    g = make_grid(64, 128, 6.0)
    phi = solve_potential(maxwellian(g, TWO_PI))
    assert np.max(np.abs(phi.values)) <= 1e-15


def test_density_validation():
    g = make_grid(16, 8, 1.0)
    with pytest.raises(ValueError):
        Density(g, np.ones(8))
    with pytest.raises(ValueError):
        Density(g, -np.ones(16))
