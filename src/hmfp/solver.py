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

from dataclasses import dataclass

import numpy as np

from .errors import SolverAbort
from .functionals import diagnostics, mass
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


def advect_theta(f, dt, interpolation=LINEAR):
    """Transport f along theta by v*dt with periodic interpolation.

    Each v row shifts rigidly at its own speed.  The interpolated row is
    rescaled to its original sum, so mass is conserved row by row up to
    rounding; linear weights keep the result nonnegative and cubic
    clipping is absorbed by the same rescale.
    """
    grid = f.grid
    n = grid.n_theta
    values = f.values
    # Departure angle of node i is theta_i - v dt, i.e. index i + s with
    # s = -v dt / d_theta, one shift per v column.
    s = -grid.v * dt / grid.d_theta
    base, u = _split_shift(s)

    lower = (np.arange(n)[:, None] + base[None, :]) % n
    cols = np.arange(grid.n_v)[None, :]
    # lower is reduced already: one more modulo pass costs as much as the gather
    out = _interpolate(lambda k: values[(lower + k) % n if k else lower, cols],
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

    # Two zero guard cells on each side absorb any stencil index that
    # leaves the box after clipping.
    padded = np.zeros((grid.n_theta, n_v + 4))
    padded[:, 2:-2] = values
    cols = np.arange(n_v)[None, :] + base[:, None] + 2
    top = n_v + 3

    def take(offset):
        idx = np.clip(cols + offset, 0, top)
        return np.take_along_axis(padded, idx, axis=1)

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


def evolve(f0, config, observer=None, casimir=None, t_start=0.0):
    """March f0 forward to t_end and return an EvolveResult.

    The number of steps is round(t_end / dt), so the final time matches
    t_end within one dt.  After every step the total mass is renormalized
    back to its initial value whenever the relative deviation exceeds
    1e-13, keeping long runs on the constraint manifold.  Non-finite
    values abort with the offending step index.

    When an observer is given it is called as observer(record, field) at
    step 0 and after every record_every-th step, where record is the
    DiagnosticsRecord at that time.  The casimir argument selects which
    Casimir integral those records report; diagnostics are skipped
    entirely when no observer is attached.
    """
    if observer is not None and casimir is None:
        raise ValueError("recording diagnostics needs a casimir spec")
    steps = int(round(config.t_end / config.dt))
    m0 = mass(f0)
    f = f0
    outflow = clipped_mass = 0.0

    def record(k):
        if observer is not None:
            try:
                rec = diagnostics(f, casimir, t_start + k * config.dt)
            except (ValueError, FloatingPointError) as exc:
                raise SolverAbort("aborted at step %d: %s" % (k, exc)) from exc
            observer(rec, f)

    record(0)
    for k in range(1, steps + 1):
        try:
            f, losses = strang_step(f, config.dt, config.interpolation)
        except (ValueError, FloatingPointError) as exc:
            raise SolverAbort("aborted at step %d: %s" % (k, exc)) from exc
        outflow += losses.outflow
        clipped_mass += losses.clipped_mass
        m = mass(f)
        if m0 > 0.0 and abs(m - m0) > 1e-13 * m0:
            f = DistributionField(f.grid, f.values * (m0 / m))
        if k % config.record_every == 0:
            record(k)
    return EvolveResult(f, t_start + steps * config.dt, steps,
                        outflow, clipped_mass)
