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

import contextvars
import functools
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SolverAbort
from .functionals import mass
from .grid import DistributionField, PhaseGrid, _check_values
from .interaction import solve_potential

LINEAR = "linear"
CUBIC = "cubic"

# Steps run one at a time in Python, and even on the smallest 8x8 grid one
# costs about 0.1 ms (0.13 ms on a 2-CPU host), so this many take over a
# quarter of an hour there and hours at 512^2: a longer run is a mistyped
# dt or t_end, such as a tiny dt that would loop for 1e299 steps.
MAX_STEPS = 10**7


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
        # round(t_end / dt) <= MAX_STEPS, tested on the ratio, which a tiny
        # dt can make inf where round() would raise
        if not self.t_end / self.dt < MAX_STEPS + 0.5:
            raise ValueError("dt must leave round(t_end / dt) at most %d steps"
                             % MAX_STEPS)
        if self.interpolation not in (LINEAR, CUBIC):
            raise ValueError("interpolation must be 'linear' or 'cubic'")
        # the bounds come first: int() of inf or NaN raises its own error
        if not (1 <= self.record_every < np.inf
                and int(self.record_every) == self.record_every):
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


def _split_shift(shift, limit=np.inf, period=None):
    """Split real shifts into an integer base and a fraction in [0, 1)
    taken from the unchanged floor.  Before its int cast the base is
    clipped to +-limit, or reduced modulo period in floating point, which
    is exact, so the cast never sees a value beyond int64."""
    base = np.floor(shift)
    frac = shift - base
    if period is not None:
        base = base % period
    return np.clip(base, -limit, limit).astype(np.int64), frac


def _weights(u, interpolation):
    """Stencil of fraction u past the lower node: (node, weight) pairs.

    Linear weights use nodes 0 and 1, cubic Lagrange weights nodes -1 to 2.
    """
    if interpolation == LINEAR:
        return ((0, 1.0 - u), (1, u))
    return ((-1, -u * (u - 1.0) * (u - 2.0) / 6.0),
            (0, (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0),
            (1, -(u + 1.0) * u * (u - 2.0) / 2.0),
            (2, (u + 1.0) * u * (u - 1.0) / 6.0))


@functools.lru_cache(maxsize=8)
def _theta_stencil(grid, dt):
    """Flat gather index and stencils of the theta shift by v*dt.

    The departure angle of node i is theta_i - v dt, i.e. index i + s with
    s = -v dt / d_theta, one shift per v column; it depends only on the
    grid and dt, so every step of a run reuses one entry.  index holds
    lower * n_v + col for the lower stencil node, reduced modulo n_theta;
    stencils maps each interpolation to its per-column weights.  Every
    array is read-only because every caller shares them.
    """
    n_v = grid.n_v
    base, u = _split_shift(-grid.v * dt / grid.d_theta, period=grid.n_theta)
    # built in place: one n_theta x n_v int64 array at a time
    index = np.arange(grid.n_theta)[:, None] + base[None, :]
    index %= grid.n_theta
    index *= n_v
    index += np.arange(n_v)
    stencils = {mode: _weights(u, mode) for mode in (LINEAR, CUBIC)}
    index.flags.writeable = False
    for stencil in stencils.values():
        for _, weight in stencil:
            weight.flags.writeable = False
    return index, stencils


class _StepField(NamedTuple):
    """A field's grid and values without the copy, check and freeze of a
    DistributionField.  values is a workspace buffer that the next kernel
    call overwrites; mass and solve_potential read only these two names."""

    grid: PhaseGrid
    values: np.ndarray


class _Workspace:
    """The step buffers of one evolve call on one grid.

    Theta and v advection both write to half, which within a step is
    also their input: each reads its input whole, into a gather or into
    padded, before it writes.  product holds each weighted stencil node,
    and in linear mode the theta gather too.  gather, the cubic theta
    gather, is allocated by the first cubic theta advection, and padded,
    the zero-guarded copy that v advection reads, only ever grows.  A
    linear v advection called without a workspace needs no product, which
    is then None.  evolve gives half a new buffer after each record, whose
    field keeps the one the step wrote.
    """

    def __init__(self, grid, product=True):
        shape = (grid.n_theta, grid.n_v)
        self.half = np.empty(shape)
        self.product = np.empty(shape) if product else None
        self.gather = None
        self.padded = np.zeros((grid.n_theta, 0))


def _result(work, grid, values):
    """A kernel's output field: a view into the caller's workspace, or a
    DistributionField when the kernel ran on buffers of its own."""
    return DistributionField(grid, values) if work is None else _StepField(grid, values)


def advect_theta(f, dt, interpolation=LINEAR, work=None):
    """Transport f along theta by v*dt with periodic interpolation.

    Each v row shifts rigidly at its own speed.  The interpolated row is
    rescaled to its original sum, so mass is conserved row by row up to
    rounding; linear weights keep the result nonnegative and cubic
    clipping is absorbed by the same rescale.  With evolve's workspace the
    result is a view of its half buffer; without one the same kernel runs
    on fresh buffers and returns a DistributionField.

    The stencil index is reduced modulo n_theta and every weight is per v
    column, so stencil node k at row i is node 0 at row (i + k) mod
    n_theta: node 0 is gathered once, and each weighted node enters out as
    two contiguous row slices.  evolve passes half back in as f, so the
    gather and the cubic column sums are taken before out is written.
    """
    grid = f.grid
    n = grid.n_theta
    ws = _Workspace(grid) if work is None else work
    index, stencils = _theta_stencil(grid, dt)
    node = ws.product
    if interpolation != LINEAR:
        if ws.gather is None:
            ws.gather = np.empty_like(ws.product)
        node = ws.gather
        old = f.values.sum(axis=0)
    f.values.ravel().take(index, out=node, mode="clip")
    out = ws.half
    (k, weight), *rest = stencils[interpolation]
    m = k % n
    np.multiply(weight, node[m:], out=out[:n - m])
    np.multiply(weight, node[:m], out=out[n - m:])
    for k, weight in rest:
        m = k % n
        weighted = np.multiply(weight, node, out=ws.product)
        out[:n - m] += weighted[m:]
        out[n - m:] += weighted[:m]
    if interpolation != LINEAR:
        np.maximum(out, 0.0, out=out)
        new = out.sum(axis=0)
        scale = np.where(new > 0.0, old / np.where(new > 0.0, new, 1.0), 1.0)
        out *= scale[None, :]
    return _result(work, grid, out)


def advect_v(f, phi_prime, dt, interpolation=LINEAR, work=None):
    """Transport f along v by the force -phi' over time dt.

    The departure velocity of node j in column i is v_j + phi'_i dt;
    values beyond the velocity box count as zero, so mass drains through
    the open ends.  Returns the new field together with StepLosses; with
    evolve's workspace the field is a view of its half buffer, without one
    a DistributionField built from fresh buffers.  f may be that half
    buffer: it is copied into padded, and summed, before the first write.
    """
    grid = f.grid
    n_v = grid.n_v
    values = f.values
    s = np.asarray(phi_prime, dtype=float) * dt / grid.d_v
    if not np.all(np.isfinite(s)):
        raise ValueError("force is not finite")
    # A row shifted by more than n_v + 2 cells reads only zeros either
    # way, so clipping base, before its int cast, bounds the padding and
    # keeps a huge finite shift castable.  At least pad zero guard cells
    # per side keep every window of stencil node k (k in -1..2) inside
    # the row; only the middle n_v columns are ever written.
    base, u = _split_shift(s, n_v + 2)
    ws = (_Workspace(grid, product=interpolation != LINEAR)
          if work is None else work)
    pad = int(np.abs(base).max()) + 2
    if ws.padded.shape[1] < n_v + 2 * pad:
        ws.padded = np.zeros((grid.n_theta, n_v + 2 * pad))
    pad = (ws.padded.shape[1] - n_v) // 2
    ws.padded[:, pad:pad + n_v] = values
    total = values.sum()
    windows = sliding_window_view(ws.padded, n_v, axis=1)
    rows = np.arange(grid.n_theta)
    start = base + pad
    # each node is a fresh gather; weighting it in place and summing left
    # to right keeps the bits of w0 * x0 + w1 * x1 + ...
    (k, weight), *rest = _weights(u[:, None], interpolation)
    out = np.multiply(weight, windows[rows, start + k], out=ws.half)
    for k, weight in rest:
        node = windows[rows, start + k]
        out += np.multiply(weight, node, out=node)
    clipped = 0.0
    if interpolation != LINEAR:
        negative = np.minimum(out, 0.0, out=ws.product)
        clipped = -float(negative.sum()) * grid.cell_area + 0.0
        np.maximum(out, 0.0, out=out)
    outflow = float(total - out.sum()) * grid.cell_area + clipped
    return _result(work, grid, out), StepLosses(outflow, clipped)


def strang_step(f, dt, interpolation=LINEAR, work=None):
    """One split step: half theta, field solve, full v, half theta.

    Evaluating the force at the temporal midpoint makes the composition
    second order in dt on smooth data.  Returns (field, StepLosses); the
    field is a view into evolve's workspace when one is given, else a
    DistributionField.
    """
    ws = _Workspace(f.grid) if work is None else work
    half = advect_theta(f, 0.5 * dt, interpolation, ws)
    potential = solve_potential(half)
    kicked, losses = advect_v(half, potential.derivative, dt, interpolation, ws)
    out = advect_theta(kicked, 0.5 * dt, interpolation, ws)
    return _result(work, f.grid, out.values), losses


def _sole_refs():
    """What sys.getrefcount reports for an object that only one local name
    refers to; interpreters differ in whether the call's own argument counts."""
    probe = object()
    return sys.getrefcount(probe)


_SOLE_REFS = _sole_refs()


def _aborted(k, exc):
    return SolverAbort("aborted at step %d: %s" % (k, exc))


def _join(pending):
    """Wait for the observer call in flight, if any, and re-raise its
    failure under evolve's abort rule at the step it recorded."""
    if pending is not None:
        k, call = pending
        try:
            call.result()
        except (ValueError, ArithmeticError) as exc:
            raise _aborted(k, exc) from exc


def evolve(f0, config, observer=None, t_start=0.0):
    """March f0 forward to t_end and return an EvolveResult.

    The number of steps is round(t_end / dt), so the final time matches
    t_end within one dt.  After every step the total mass is renormalized
    back to its initial value whenever the relative deviation exceeds
    1e-13, keeping long runs on the constraint manifold.

    When an observer is given it is called as observer(time, field) at
    step 0 and after every record_every-th step; what to measure there is
    the caller's choice.  The calls run in record order on one worker
    thread, one at a time, each in a copy of the caller's context (so the
    caller's np.errstate holds there), while evolve steps on: a call may
    overlap the steps up to the next record, which waits for it.  One
    abort rule covers the step, the mass renormalization and the
    observer: a ValueError or ArithmeticError at step k (a non-finite
    force, all mass gone from the velocity box, a failed measurement of
    the record at step k) becomes SolverAbort("aborted at step k: ...").
    Other exceptions, such as an OSError from a snapshot write, pass
    through unwrapped.  The first failure in step order wins: an observer
    call's failure is raised when evolve waits for it, at the next record
    or at the end of the run, and a failing step first waits for the call
    in flight, whose failure then wins over the step's own.  No thread
    outlives the call.

    The state is stepped in place in one workspace, whose half buffer
    each step writes.  A record after step 0 (step 0 passes f0 itself)
    owns the buffer its step wrote: that buffer, renormalized and checked
    in the step, is frozen in place as the record's DistributionField,
    with no copy and no second check, and later steps write another
    buffer.  Once the previous record's observer call has returned, its
    buffer becomes the half buffer again if nothing outside evolve refers
    to it (neither that field, nor any view of its values); otherwise the
    half buffer is a fresh one, and a kept field or view never changes.
    The result is the last observed field when the last step was observed,
    else the last state frozen in place.
    """
    steps = int(round(config.t_end / config.dt))
    grid = f0.grid
    m0 = mass(f0)
    work = _Workspace(grid)
    state = kept = f0
    # values of the last record built here, once its call is submitted
    prev = None
    outflow = clipped_mass = 0.0
    pending = None
    with ThreadPoolExecutor(1) as pool:
        for k in range(steps + 1):
            record = observer is not None and k % config.record_every == 0
            try:
                if k > 0:
                    # the field of the last record, if any, stays with its
                    # observer call, not with the result
                    kept = None
                    state, losses = strang_step(state, config.dt,
                                                config.interpolation, work)
                    outflow += losses.outflow
                    clipped_mass += losses.clipped_mass
                    m = mass(state)
                    if m0 > 0.0 and abs(m - m0) > 1e-13 * m0:
                        if m == 0.0:
                            raise ValueError("all mass left the velocity box")
                        # a non-finite state has mass inf or NaN; its NaN
                        # products are left for the check below to report
                        with np.errstate(invalid="ignore"):
                            np.multiply(state.values, m0 / m, out=state.values)
                    _check_values(state.values, "field", nonnegative=True)
                    if record:
                        kept = state = DistributionField._frozen(grid, state.values)
            except BaseException as exc:
                _join(pending)
                if isinstance(exc, (ValueError, ArithmeticError)):
                    raise _aborted(k, exc) from exc
                raise
            if record:
                _join(pending)
                if k > 0:
                    # the worker may still hold the returned call's
                    # arguments, and with them prev: then a fresh buffer
                    if prev is not None and sys.getrefcount(prev) <= _SOLE_REFS:
                        prev.flags.writeable = True
                        work.half = prev
                    else:
                        work.half = np.empty_like(kept.values)
                    prev = kept.values
                pending = k, pool.submit(contextvars.copy_context().run, observer,
                                         t_start + k * config.dt, kept)
        _join(pending)
    if kept is None:
        kept = DistributionField._frozen(grid, state.values)
    return EvolveResult(kept, t_start + steps * config.dt, steps,
                        outflow, clipped_mass)
