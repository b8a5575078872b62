"""Strang-split semi-Lagrangian time integration of the mean-field flow.

The kinetic equation transports phase-space density along ballistic
characteristics in theta and along the self-consistent force in v.  Each
step advances theta by half a step, refreshes the potential, advances v by
a full step, then finishes theta.  Departure points are interpolated with
either linear (positive, monotone) or cubic Lagrange (higher order,
clipped) weights.  Advection in theta is periodic and conservative per v
row; advection in v loses mass through the open ends of the velocity box,
and that loss is tallied rather than hidden.

Every pass of a step except its whole-array sums is row-local, and each
is written once, as a body over a row range.  Under an observed evolve on
a large grid the caller's thread runs it on one row half and the worker
thread that runs the observer on the other; every other caller runs it
over all rows on one thread.  Both give the same bits.
"""

import contextvars
import functools
import sys
import threading
from dataclasses import dataclass
from itertools import chain
from queue import SimpleQueue
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


# A split pass hands one row half to evolve's worker thread.  Measured in
# a 512^2 linear evolve with a diagnostics observer on a 2-CPU host
# (Python 3.11, numpy 2.4), the hand-off costs about 40 us a pass: the
# worker starts a half a median 20-30 us after it is posted, and the
# caller resumes 13-16 us after the worker ends.  The six split passes of
# a linear step take about 11 ns a cell in all, so halving one of average
# cost repays its hand-off from about 2 * 40 us / (11 ns / 6) = 44k cells;
# the next power of two keeps 256^2, where such runs gained nothing, on
# one lane.
_SPLIT_CELLS = 2**16


class _Job:
    """One call posted to a _Lane: fn(*args) in a copy of the poster's
    context (so its np.errstate holds there).  Whoever claims the job
    first runs it, the worker or, through take_back, the poster."""

    __slots__ = ("_call", "_claim", "_done", "_error")

    def __init__(self, fn, args):
        self._call = functools.partial(contextvars.copy_context().run, fn, *args)
        self._claim = threading.Lock()
        self._done = threading.Lock()
        self._done.acquire()
        self._error = None

    def run(self):
        """Run the job on the worker unless it was taken back."""
        if not self._claim.acquire(blocking=False):
            return
        try:
            self._call()
        except BaseException as exc:  # returned by wait() to the poster
            self._error = exc
        finally:
            # the call's arguments go before the poster can wake: evolve
            # reads a record buffer's refcount once the call has returned
            self._call = None
            self._done.release()

    def take_back(self):
        """Claim the job for the poster if the worker has not started it."""
        if not self._claim.acquire(blocking=False):
            return False
        self._call = None
        return True

    def wait(self):
        """Wait for the worker to finish the job; return its failure."""
        self._done.acquire()
        return self._error


class _Lane:
    """evolve's one worker thread, started by the first post and joined
    by close.  It runs jobs in the order they were posted: observer calls,
    and the far row half of each split pass, which the caller takes back
    if the worker has not started it by the time the near half is done."""

    def __init__(self):
        self._jobs = SimpleQueue()
        self._thread = None

    def post(self, fn, *args):
        if self._thread is None:
            thread = threading.Thread(target=self._serve, name="hmfp-evolve")
            thread.start()
            self._thread = thread
        job = _Job(fn, args)
        self._jobs.put(job)
        return job

    def _serve(self):
        for job in iter(self._jobs.get, None):
            job.run()

    def split(self, body, n):
        """body(lo, hi) over the rows [0, n): the worker takes [n // 2, n)
        unless the caller, done with [0, n // 2), takes it back first.  A
        failure of either half is re-raised unchanged once both are over;
        the near half's wins."""
        mid = n // 2
        job = self.post(body, mid, n)
        try:
            body(0, mid)
        except BaseException:
            if not job.take_back():
                job.wait()
            raise
        if job.take_back():
            body(mid, n)
        elif (error := job.wait()) is not None:
            raise error

    def close(self):
        if self._thread is not None:
            self._jobs.put(None)
            self._thread.join()
            self._thread = None


class _Workspace:
    """The step buffers of one evolve call on one grid, and its lane.

    Theta and v advection both write to half, which within a step is
    also their input: each reads its input whole, into a gather or into
    padded, before it writes.  product holds each weighted stencil node,
    and in linear mode the theta gather too.  gather, the cubic theta
    gather, is allocated by the first cubic theta advection, and padded,
    the shifted copy that v advection reads, only ever grows.  halo,
    allocated by the first theta advection, holds for each row half the
    theta gathers of the up to three rows beyond it that its stencil
    reads, and two spare rows for their weighting.  evolve gives half a new
    buffer after each record, whose field keeps the one the step wrote.

    lane is evolve's worker thread, or None: each row-local pass of the
    kernels runs as one body over a row range through rows(), on both
    lanes when the grid has more than _SPLIT_CELLS cells.
    """

    def __init__(self, grid, lane=None):
        shape = (grid.n_theta, grid.n_v)
        self.half = np.empty(shape)
        self.product = np.empty(shape)
        self.gather = None
        self.padded = np.empty((grid.n_theta, 0))
        self.halo = None
        self.lane = lane

    def rows(self, body):
        """Run body(lo, hi) over every row, split in two on a large grid."""
        n = self.half.shape[0]
        if self.lane is None or self.half.size <= _SPLIT_CELLS:
            body(0, n)
        else:
            self.lane.split(body, n)


def _scale_rows(values, scale, lo, hi):
    """Multiply rows [lo, hi) of values by scale in place.  A body bound
    with functools.partial, so no frame of evolve keeps a name for the
    buffer: evolve's refcount test of a record buffer sees only its field."""
    np.multiply(values[lo:hi], scale, out=values[lo:hi])


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
    row slices.  A row range gathers its own rows of node 0, and the rows
    beyond it that its stencil reads into its halo buffer, so it never
    reads a row that another range weights in place.  evolve passes half
    back in as f, so every range gathers, and the cubic column sums are
    taken, before any range writes out.
    """
    grid = f.grid
    n = grid.n_theta
    ws = _Workspace(grid) if work is None else work
    index, stencils = _theta_stencil(grid, dt)
    stencil = stencils[interpolation]
    node = ws.product
    if interpolation != LINEAR:
        if ws.gather is None:
            ws.gather = np.empty_like(ws.product)
        node = ws.gather
        old = f.values.sum(axis=0)
    if ws.halo is None:
        ws.halo = np.empty((2, 5, grid.n_v))
    src = f.values.ravel()
    out = ws.half
    # stencil rows before and after a row range, read from its halo
    before, after = -stencil[0][0], stencil[-1][0]

    def gather(lo, hi):
        src.take(index[lo:hi], out=node[lo:hi], mode="clip")
        halo = ws.halo[1 if lo else 0]
        for slot, row in enumerate(chain(range(lo - before, lo), range(hi, hi + after))):
            src.take(index[row % n], out=halo[slot], mode="clip")

    def combine(lo, hi):
        halo = ws.halo[1 if lo else 0]
        spare = halo[before + after:]

        def edge(i, j, row, weight, weighted):
            # out rows [i, j) from node rows row, row + 1, ... beyond the
            # range; weighted, the range's weighted node, is None for the
            # first node, which out takes by assignment
            if j <= i:
                return
            slot = before + row - (lo if row < lo else hi)
            node_rows = halo[slot:slot + j - i]
            if weighted is None:
                np.multiply(weight, node_rows, out=out[i:j])
            else:
                out[i:j] += np.multiply(weight, node_rows, out=spare[:j - i])

        for m, (k, weight) in enumerate(stencil):
            # rows [a, b) read node rows [a + k, b + k) of the range, the
            # rows before a and from b on the rows beyond it
            a = min(max(lo, lo - k), hi)
            b = max(min(hi, hi - k), a)
            weighted = None
            if m == 0:
                np.multiply(weight, node[a + k:b + k], out=out[a:b])
            else:
                weighted = np.multiply(weight, node[lo:hi], out=ws.product[lo:hi])
                out[a:b] += weighted[a + k - lo:b + k - lo]
            edge(lo, a, lo + k, weight, weighted)
            edge(b, hi, b + k, weight, weighted)
        if interpolation != LINEAR:
            np.maximum(out[lo:hi], 0.0, out=out[lo:hi])

    ws.rows(gather)
    ws.rows(combine)
    if interpolation != LINEAR:
        new = out.sum(axis=0)
        scale = np.where(new > 0.0, old / np.where(new > 0.0, new, 1.0), 1.0)
        ws.rows(functools.partial(_scale_rows, out, scale))
    return _result(work, grid, out)


def advect_v(f, phi_prime, dt, interpolation=LINEAR, work=None):
    """Transport f along v by the force -phi' over time dt.

    The departure velocity of node j in column i is v_j + phi'_i dt;
    values beyond the velocity box count as zero, so mass drains through
    the open ends.  Returns the new field together with StepLosses; with
    evolve's workspace the field is a view of its half buffer, without one
    a DistributionField built from fresh buffers.  f may be that half
    buffer: it is summed first, and each row range copies its rows into
    padded before it writes them.
    """
    grid = f.grid
    n_v = grid.n_v
    values = f.values
    s = np.asarray(phi_prime, dtype=float) * dt / grid.d_v
    if not np.all(np.isfinite(s)):
        raise ValueError("force is not finite")
    # A row shifted by more than n_v + 2 cells reads only zeros either
    # way, so clipping base, before its int cast, bounds the padding and
    # keeps a huge finite shift castable.  Row i is copied into padded at
    # column pad - base_i, so stencil node k (k in -1..2) of every row is
    # the column slice starting at pad + k; pad >= |base| + 2 keeps each
    # slice inside the row.
    base, u = _split_shift(s, n_v + 2)
    ws = _Workspace(grid) if work is None else work
    pad = int(np.abs(base).max()) + 2
    if ws.padded.shape[1] < n_v + 2 * pad:
        ws.padded = np.empty((grid.n_theta, n_v + 2 * pad))
    padded = ws.padded
    pad = (padded.shape[1] - n_v) // 2
    windows = sliding_window_view(padded, n_v, axis=1, writeable=True)
    rows = np.arange(grid.n_theta)
    dest = pad - base
    stencil = _weights(u[:, None], interpolation)
    total = values.sum()
    out = ws.half

    # The node slices read the columns [pad - 1, pad + n_v + 2).  The copy
    # starts in [2, 2 pad - 2], so it covers [2 pad, n_v) of every row:
    # zeroing the read columns outside that band, [z0, a) and [b, z1),
    # leaves no stale value in any slice, at most n_v + 3 columns a row.
    z0, z1 = pad - 1, pad + n_v + 2
    a = min(2 * pad, z1)
    b = max(n_v, a)

    def kick(lo, hi):
        padded[lo:hi, z0:a] = 0.0
        padded[lo:hi, b:z1] = 0.0
        windows[rows[lo:hi], dest[lo:hi]] = values[lo:hi]
        # weighting each node and summing left to right keeps the bits of
        # w0 * x0 + w1 * x1 + ...
        (k, weight), *rest = stencil
        np.multiply(weight[lo:hi], padded[lo:hi, pad + k:pad + k + n_v],
                    out=out[lo:hi])
        for k, weight in rest:
            out[lo:hi] += np.multiply(weight[lo:hi], padded[lo:hi, pad + k:pad + k + n_v],
                                      out=ws.product[lo:hi])
        if interpolation != LINEAR:
            np.minimum(out[lo:hi], 0.0, out=ws.product[lo:hi])
            np.maximum(out[lo:hi], 0.0, out=out[lo:hi])

    ws.rows(kick)
    clipped = 0.0
    if interpolation != LINEAR:
        clipped = -float(ws.product.sum()) * grid.cell_area + 0.0
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
        error = call.wait()
        if isinstance(error, (ValueError, ArithmeticError)):
            raise _aborted(k, error) from error
        if error is not None:
            raise error


def evolve(f0, config, observer=None, t_start=0.0):
    """March f0 forward to t_end and return an EvolveResult.

    The number of steps is round(t_end / dt), so the final time matches
    t_end within one dt.  After every step the total mass is renormalized
    back to its initial value whenever the relative deviation exceeds
    1e-13, keeping long runs on the constraint manifold.

    When an observer is given it is called as observer(time, field) at
    step 0 and after every record_every-th step; what to measure there is
    the caller's choice.  The calls run in record order on evolve's one
    worker thread, one at a time, each in a copy of the caller's context
    (so the caller's np.errstate holds there), while evolve steps on: a
    call may overlap the steps up to the next record, which waits for it.
    With an observer, on a grid of more than _SPLIT_CELLS cells, the same
    thread also takes one row half of each row-local pass of the step,
    unless it is still busy with an observer call when the caller is done
    with the other half, which then takes it back: a step never waits on
    a measurement.
    One abort rule covers the step, the mass renormalization and the
    observer: a ValueError or ArithmeticError at step k (a non-finite
    force, all mass gone from the velocity box, a failed measurement of
    the record at step k) becomes SolverAbort("aborted at step k: ...").
    Other exceptions, such as an OSError from a snapshot write, pass
    through unwrapped.  The first failure in step order wins: an observer
    call's failure is raised when evolve waits for it, at the next record
    or at the end of the run, and a failing step first waits for the call
    in flight, whose failure then wins over the step's own.  The worker
    thread is started by its first job and joined on every exit, so no
    thread outlives the call.

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
    lane = _Lane()
    # On a 2-CPU Linux host a woken thread starts on its waker's CPU, and
    # the halves overlap only once the scheduler has moved the worker off
    # it, which it does while the worker runs observer calls.  With no
    # observer it stayed: a library 512^2 linear evolve with split steps
    # and no observer ran at process CPU time 0.99 of wall time and
    # 0.75-1.37x the parent's wall time over 10 pairs, so such a run
    # steps on one lane.
    work = _Workspace(grid, lane if observer is not None else None)
    state = kept = f0
    # values of the last record built here, once its call is posted
    prev = None
    outflow = clipped_mass = 0.0
    pending = None
    try:
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
                            work.rows(functools.partial(_scale_rows, state.values, m0 / m))
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
                pending = k, lane.post(observer, t_start + k * config.dt, kept)
        _join(pending)
    finally:
        lane.close()
    if kept is None:
        kept = DistributionField._frozen(grid, state.values)
    return EvolveResult(kept, t_start + steps * config.dt, steps,
                        outflow, clipped_mass)
