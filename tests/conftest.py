"""Shared helpers for the test suite: deterministic random fields and
common reference profiles.  Everything here is seeded, so any test that
imports from this module is reproducible run to run.
"""

import math

import numpy as np

from hmfp.grid import DistributionField, make_grid

TWO_PI = 2.0 * math.pi
SQRT_TWO_PI = math.sqrt(TWO_PI)


def smooth_random_field(grid, seed, floor=0.0):
    """Smooth positive random field: low-harmonic bump times a Gaussian.

    The bump 1 + a cos(theta - p1) + b cos(2 theta - p2) stays positive
    because a + b < 1, and the velocity profile is exp(-(w v)^2 / 2) with a
    random width, so the field is resolved on coarse grids.  An optional
    floor keeps the values strictly positive for tests that divide by f.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 0.6)
    b = rng.uniform(0.1, 0.5 * (0.95 - a))
    p1, p2 = rng.uniform(0.0, TWO_PI, size=2)
    c = rng.uniform(0.5, 1.5)
    w = rng.uniform(0.8, 1.6)
    bump = 1.0 + a * np.cos(grid.theta - p1) + b * np.cos(2.0 * grid.theta - p2)
    profile = np.exp(-0.5 * (w * grid.v) ** 2)
    return DistributionField(grid, c * bump[:, None] * profile[None, :] + floor)


def maxwellian(grid, m1):
    """Homogeneous Maxwell-Boltzmann field with total mass m1."""
    amp = m1 / (TWO_PI * SQRT_TWO_PI)
    values = np.broadcast_to(
        amp * np.exp(-0.5 * grid.v ** 2), (grid.n_theta, grid.n_v)
    )
    return DistributionField(grid, values.copy())


def drain_field():
    """Two dense theta rows on a 16^2 grid whose force kicks all mass out
    of the v_max = 1 box in one step of dt = 0.5."""
    values = np.zeros((16, 16))
    values[[0, 4]] = 100.0
    return DistributionField(make_grid(16, 16, 1.0), values)


def default_grid(n=64, v_max=6.0):
    return make_grid(n, n, v_max)
