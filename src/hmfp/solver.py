"""Strang-split semi-Lagrangian time integration of the mean-field flow.

The kinetic equation transports phase-space density along ballistic
characteristics in theta and along the self-consistent force in v.  Each
step advances theta by half a step, refreshes the potential, advances v by
a full step, then finishes theta.  Departure points are interpolated with
either linear (positive, monotone) or cubic Lagrange (higher order,
clipped) weights.  Advection in theta is periodic and conservative per v
row; advection in v loses mass through the open ends of the velocity box,
and that loss is tallied rather than hidden.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SolverAbort
from .functionals import mass
from .grid import DistributionField
from .interaction import solve_potential

LINEAR = "linear"
CUBIC = "cubic"


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping knobs: step size, horizon, interpolation, cadence."""

    dt: float
    t_end: float
    interpolation: str = LINEAR
    record_every: int = 1

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if self.dt > 0.5:
            raise ValueError("dt must not exceed 0.5")
        if not 0.0 <= self.t_end < np.inf:
            raise ValueError("t_end must be finite and nonnegative")
        if self.interpolation not in (LINEAR, CUBIC):
            raise ValueError("interpolation must be 'linear' or 'cubic'")
        if int(self.record_every) != self.record_every or self.record_every < 1:
            raise ValueError("record_every must be a positive integer")


@dataclass(frozen=True)
class StepLosses:
    """Mass removed during one v advection.

    outflow is the net mass that left through the velocity boundary,
    clipped_mass the nonnegativity clipping applied in cubic mode.
    """

    outflow: float = 0.0
    clipped_mass: float = 0.0


@dataclass(frozen=True)
class EvolveResult:
    """Final state of an evolve run plus its bookkeeping tallies."""

    field: DistributionField
    time: float
    steps: int
    boundary_loss: float
    clipped_mass: float


def _split_shift(shift):
    """Split real shifts into integer base and fraction in [0, 1)."""
    base = np.floor(shift)
    frac = shift - base
    return base.astype(np.int64), frac


def _interpolate(take, u, interpolation):
    """Interpolate at fraction u past the lower node.

    take(k) gathers the samples k nodes past the lower node.  Linear
    weights use nodes 0 and 1, cubic Lagrange weights nodes -1 to 2.
    """
    if interpolation == LINEAR:
        return (1.0 - u) * take(0) + u * take(1)
    wm1 = -u * (u - 1.0) * (u - 2.0) / 6.0
    w0 = (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0
    w1 = -(u + 1.0) * u * (u - 2.0) / 2.0
    w2 = (u + 1.0) * u * (u - 1.0) / 6.0
    return wm1 * take(-1) + w0 * take(0) + w1 * take(1) + w2 * take(2)


@functools.lru_cache(maxsize=8)
def _theta_stencil(grid, dt):
    """Flat gather index and fraction of the theta shift by v*dt.

    The departure angle of node i is theta_i - v dt, i.e. index i + s with
    s = -v dt / d_theta, one shift per v column; it depends only on the
    grid and dt, so every step of a run reuses one entry.  index holds
    lower * n_v + col for the lower stencil node, reduced modulo n_theta.
    Both arrays are read-only because every caller shares them.
    """
    n_v = grid.n_v
    base, u = _split_shift(-grid.v * dt / grid.d_theta)
    lower = (np.arange(grid.n_theta)[:, None] + base[None, :]) % grid.n_theta
    index = lower * n_v + np.arange(n_v)[None, :]
    index.flags.writeable = False
    u.flags.writeable = False
    return index, u


def advect_theta(f, dt, interpolation=LINEAR):
    """Transport f along theta by v*dt with periodic interpolation.

    Each v row shifts rigidly at its own speed.  The interpolated row is
    rescaled to its original sum, so mass is conserved row by row up to
    rounding; linear weights keep the result nonnegative and cubic
    clipping is absorbed by the same rescale.
    """
    grid = f.grid
    n_v = grid.n_v
    values = f.values
    index, u = _theta_stencil(grid, dt)
    # wrapped row r is values row (r - 1) mod n_theta, so stencil node k
    # of the lower node lies k + 1 rows into it: one index serves all nodes
    wrapped = np.concatenate((values[-1:], values, values[:2])).ravel()
    out = _interpolate(lambda k: wrapped[n_v * (k + 1):].take(index),
                       u, interpolation)
    if interpolation != LINEAR:
        np.maximum(out, 0.0, out=out)
        old = values.sum(axis=0)
        new = out.sum(axis=0)
        scale = np.where(new > 0.0, old / np.where(new > 0.0, new, 1.0), 1.0)
        out *= scale[None, :]
    return DistributionField(grid, out)


def advect_v(f, phi_prime, dt, interpolation=LINEAR):
    """Transport f along v by the force -phi' over time dt.

    The departure velocity of node j in column i is v_j + phi'_i dt;
    values beyond the velocity box count as zero, so mass drains through
    the open ends.  Returns the new field together with StepLosses.
    """
    grid = f.grid
    n_v = grid.n_v
    values = f.values
    s = np.asarray(phi_prime, dtype=float) * dt / grid.d_v
    if not np.all(np.isfinite(s)):
        raise ValueError("force is not finite")
    base, u = _split_shift(s)

    # A row shifted by more than n_v + 2 cells reads only zeros either
    # way, so clipping base bounds the padding.  pad zero guard cells per
    # side keep every window of stencil node k (k in -1..2) inside the row.
    np.clip(base, -(n_v + 2), n_v + 2, out=base)
    pad = int(np.abs(base).max()) + 2
    padded = np.zeros((grid.n_theta, n_v + 2 * pad))
    padded[:, pad:pad + n_v] = values
    windows = sliding_window_view(padded, n_v, axis=1)
    rows = np.arange(grid.n_theta)
    start = base + pad

    def take(k):
        return windows[rows, start + k]

    out = _interpolate(take, u[:, None], interpolation)
    clipped = 0.0
    if interpolation != LINEAR:
        negative = np.minimum(out, 0.0)
        clipped = -float(negative.sum()) * grid.cell_area + 0.0
        np.maximum(out, 0.0, out=out)
    outflow = float(values.sum() - out.sum()) * grid.cell_area + clipped
    return DistributionField(grid, out), StepLosses(outflow, clipped)


def strang_step(f, dt, interpolation=LINEAR):
    """One split step: half theta, field solve, full v, half theta.

    Evaluating the force at the temporal midpoint makes the composition
    second order in dt on smooth data.  Returns (field, StepLosses).
    """
    half = advect_theta(f, 0.5 * dt, interpolation)
    potential = solve_potential(half)
    kicked, losses = advect_v(half, potential.derivative, dt, interpolation)
    return advect_theta(kicked, 0.5 * dt, interpolation), losses


def evolve(f0, config, observer=None, t_start=0.0):
    """March f0 forward to t_end and return an EvolveResult.

    The number of steps is round(t_end / dt), so the final time matches
    t_end within one dt.  After every step the total mass is renormalized
    back to its initial value whenever the relative deviation exceeds
    1e-13, keeping long runs on the constraint manifold.

    When an observer is given it is called as observer(time, field) at
    step 0 and after every record_every-th step; what to measure there is
    the caller's choice.  One abort rule covers the step, the mass
    renormalization and the observer: a ValueError or ArithmeticError at
    step k (a non-finite force, all mass gone from the velocity box, a
    failed measurement) becomes SolverAbort("aborted at step k: ...").
    Other exceptions, such as an OSError from a snapshot write, pass
    through unwrapped.
    """
    steps = int(round(config.t_end / config.dt))
    m0 = mass(f0)
    f = f0
    outflow = clipped_mass = 0.0
    for k in range(steps + 1):
        try:
            if k > 0:
                f, losses = strang_step(f, config.dt, config.interpolation)
                outflow += losses.outflow
                clipped_mass += losses.clipped_mass
                m = mass(f)
                if m0 > 0.0 and abs(m - m0) > 1e-13 * m0:
                    if m == 0.0:
                        raise ValueError("all mass left the velocity box")
                    f = DistributionField(f.grid, f.values * (m0 / m))
            if observer is not None and k % config.record_every == 0:
                observer(t_start + k * config.dt, f)
        except (ValueError, ArithmeticError) as exc:
            raise SolverAbort("aborted at step %d: %s" % (k, exc)) from exc
    return EvolveResult(f, t_start + steps * config.dt, steps,
                        outflow, clipped_mass)
