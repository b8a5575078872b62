"""Split-step transport: advection kernels, invariants, convergence."""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hmfp.solver
from hmfp.casimir import entropy_spec
from hmfp.errors import SolverAbort
from hmfp.functionals import mass, momentum, weighted_l1_distance
from hmfp.grid import (
    DistributionField,
    Potential,
    field_from_function,
    make_grid,
)
from hmfp.solver import (
    CUBIC,
    LINEAR,
    MAX_STEPS,
    SolverConfig,
    _split_shift,
    _StepField,
    _Lane,
    _theta_stencil,
    _Workspace,
    advect_theta,
    advect_v,
    evolve,
    strang_step,
)
from hmfp.steady import ConstraintSet, self_consistent_solve

from conftest import default_grid, drain_field, smooth_random_field

ROOT = Path(__file__).resolve().parents[1]


def wavy_gaussian(grid):
    return field_from_function(
        grid, lambda th, v: np.exp(-0.5 * v * v) * (1.0 + 0.3 * np.cos(th)))


@st.composite
def fields(draw, n_thetas=st.integers(8, 40)):
    """Nonnegative fields on 8-40 cells per side, zeros included.

    Nonzero values stay far above the subnormal range, so products with
    the stencil weights keep full relative precision.
    """
    n_theta = draw(n_thetas)
    n_v = draw(st.integers(8, 40))
    v_max = draw(st.floats(0.5, 20.0))
    values = draw(arrays(np.float64, (n_theta, n_v),
                         elements=st.just(0.0) | st.floats(1e-200, 1e6)))
    return DistributionField(make_grid(n_theta, n_v, v_max), values)


@st.composite
def forces(draw, grid, dt):
    """Row forces whose v shifts reach up to three box widths either way."""
    reach = 3.0 * grid.n_v
    cells = draw(arrays(np.float64, grid.n_theta,
                        elements=st.floats(-reach, reach)))
    return cells * grid.d_v / dt


steps = st.floats(1e-9, 0.5)
modes = st.sampled_from(["linear", "cubic"])


def reference_interpolate(take, u, interpolation):
    """The stencil sum as one expression of fresh temporaries."""
    if interpolation == "linear":
        return (1.0 - u) * take(0) + u * take(1)
    wm1 = -u * (u - 1.0) * (u - 2.0) / 6.0
    w0 = (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0
    w1 = -(u + 1.0) * u * (u - 2.0) / 2.0
    w2 = (u + 1.0) * u * (u - 1.0) / 6.0
    return wm1 * take(-1) + w0 * take(0) + w1 * take(1) + w2 * take(2)


def reference_advect_theta(f, dt, interpolation):
    """advect_theta through a modulo fancy index for every stencil node."""
    grid = f.grid
    n = grid.n_theta
    values = f.values
    base, u = _split_shift(-grid.v * dt / grid.d_theta)
    lower = (np.arange(n)[:, None] + base[None, :]) % n
    cols = np.arange(grid.n_v)[None, :]
    out = reference_interpolate(lambda k: values[(lower + k) % n, cols], u,
                                interpolation)
    if interpolation != "linear":
        np.maximum(out, 0.0, out=out)
        old = values.sum(axis=0)
        new = out.sum(axis=0)
        scale = np.where(new > 0.0, old / np.where(new > 0.0, new, 1.0), 1.0)
        out *= scale[None, :]
    return out


def reference_advect_v(f, phi_prime, dt, interpolation):
    """advect_v through clipped column indices into a 2-guard padded copy."""
    grid = f.grid
    n_v = grid.n_v
    values = f.values
    base, u = _split_shift(np.asarray(phi_prime, dtype=float) * dt / grid.d_v)
    padded = np.zeros((grid.n_theta, n_v + 4))
    padded[:, 2:-2] = values
    cols = np.arange(n_v)[None, :] + base[:, None] + 2

    def take(k):
        return np.take_along_axis(padded, np.clip(cols + k, 0, n_v + 3), axis=1)

    out = reference_interpolate(take, u[:, None], interpolation)
    clipped = 0.0
    if interpolation != "linear":
        clipped = -float(np.minimum(out, 0.0).sum()) * grid.cell_area + 0.0
        np.maximum(out, 0.0, out=out)
    outflow = float(values.sum() - out.sum()) * grid.cell_area + clipped
    return out, outflow, clipped


# ---------------------------------------------------------------------------
# advection kernels


def test_advect_theta_zero_dt_is_identity():
    f = wavy_gaussian(default_grid())
    for mode in ("linear", "cubic"):
        out = advect_theta(f, 0.0, mode)
        assert np.array_equal(out.values, f.values)


def test_advect_v_zero_force_is_identity():
    g = default_grid()
    f = wavy_gaussian(g)
    for mode in ("linear", "cubic"):
        out, losses = advect_v(f, np.zeros(g.n_theta), 0.5, mode)
        assert np.array_equal(out.values, f.values)
        assert losses.outflow == 0.0
        assert losses.clipped_mass == 0.0


def test_zero_field_stays_zero():
    g = default_grid()
    z = DistributionField(g, np.zeros((g.n_theta, g.n_v)))
    out, losses = advect_v(z, 0.3 * np.sin(g.theta), 0.4, "cubic")
    assert np.abs(out.values).max() == 0.0
    assert losses.outflow == 0.0
    out2 = advect_theta(z, 0.2, "linear")
    assert np.abs(out2.values).max() == 0.0


def test_node_aligned_theta_shift_is_exact():
    """A row whose displacement is exactly one cell lands on nodes."""
    g = default_grid()
    f = wavy_gaussian(g)
    j = 40
    dt = g.d_theta / g.v[j]
    out = advect_theta(f, dt, "linear")
    err = np.abs(out.values[:, j] - np.roll(f.values[:, j], 1)).max()
    assert err <= 1e-12


def test_advect_v_whole_cell_shift_drains_bottom_column():
    g = default_grid()
    f = wavy_gaussian(g)
    dt = 0.25
    phi_prime = np.full(g.n_theta, g.d_v / dt)
    out, losses = advect_v(f, phi_prime, dt, "linear")
    assert np.array_equal(out.values[:, :-1], f.values[:, 1:])
    assert np.all(out.values[:, -1] == 0.0)
    lost = float(f.values[:, 0].sum()) * g.cell_area
    assert losses.outflow == pytest.approx(lost, rel=1e-13)


@pytest.mark.parametrize("mode", ["linear", "cubic"])
@pytest.mark.parametrize("force", [1e200, -1e200])
def test_advect_v_huge_finite_force_drains_the_field_without_warning(force, mode):
    # the shift, about 1e201 cells, does not fit int64; its base is clipped
    # before the cast, so every row reads only the zero padding
    f = wavy_gaussian(make_grid(16, 16, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out, losses = advect_v(f, np.full(16, force), 0.5, mode)
    assert not out.values.any()
    assert losses.outflow == mass(f)
    assert losses.clipped_mass == 0.0


@pytest.mark.parametrize("mode", ["linear", "cubic"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_advect_v_rejects_a_force_that_is_not_finite(bad, mode):
    f = wavy_gaussian(make_grid(16, 16, 3.0))
    force = np.zeros(16)
    force[5] = bad
    with pytest.raises(ValueError, match="force is not finite"):
        advect_v(f, force, 0.5, mode)


def test_theta_advection_conserves_column_mass():
    g = default_grid()
    f = wavy_gaussian(g)
    before = f.values.sum(axis=0)
    for mode, dt in (("linear", 0.17), ("cubic", 0.31)):
        out = advect_theta(f, dt, mode)
        after = out.values.sum(axis=0)
        assert np.abs(after - before).max() <= 1e-13 * before.max()


def test_v_advection_mass_accounting_is_closed():
    """Mass lost by the field equals outflow minus the clipping refund."""
    g = default_grid()
    f = wavy_gaussian(g)
    for mode in ("linear", "cubic"):
        out, losses = advect_v(f, 0.4 * np.cos(g.theta) + 0.2, 0.3, mode)
        gap = mass(f) - mass(out) - (losses.outflow - losses.clipped_mass)
        assert abs(gap) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(f=fields(), dt=steps)
def test_linear_theta_advection_conserves_every_column_sum(f, dt):
    before = f.values.sum(axis=0)
    after = advect_theta(f, dt, "linear").values.sum(axis=0)
    assert np.all(np.abs(after - before) <= 1e-13 * before)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), f=fields(), dt=steps)
def test_linear_advection_is_positive_and_bounded(data, f, dt):
    top = f.values.max()
    out = advect_theta(f, dt, "linear")
    out2, _ = advect_v(f, data.draw(forces(f.grid, dt)), dt, "linear")
    for w in (out.values, out2.values):
        assert w.min() >= 0.0
        assert w.max() <= top * (1.0 + 1e-14)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), f=fields(), dt=steps, mode=modes)
def test_advections_match_the_reference_gathers_bitwise(data, f, dt, mode):
    out = advect_theta(f, dt, mode)
    assert out.values.tobytes() == reference_advect_theta(f, dt, mode).tobytes()
    phi_prime = data.draw(forces(f.grid, dt))
    out, losses = advect_v(f, phi_prime, dt, mode)
    ref, outflow, clipped = reference_advect_v(f, phi_prime, dt, mode)
    assert out.values.tobytes() == ref.tobytes()
    assert losses.outflow == outflow
    assert losses.clipped_mass == clipped


def test_standalone_linear_v_advection_allocates_only_what_it_uses():
    """Without a workspace, linear v advection needs its output, one
    weighted-node buffer, padded and the copy in the field it returns
    (2.1 MB peak at 256^2), not the theta gathers of a whole evolve
    workspace (3.1 MB peak with a second field-sized gather)."""
    g = make_grid(256, 256, 6.0)
    f = wavy_gaussian(g)
    phi_prime = 0.3 * np.sin(g.theta)
    advect_v(f, phi_prime, 0.1)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        out, _ = advect_v(f, phi_prime, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.values.nbytes == 256 * 256 * 8
    assert peak < 2.2e6


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), dt=steps)
def test_theta_advection_may_read_the_buffer_it_writes(parity, data, dt):
    """evolve passes half back in as the input: the kernel must gather
    before it writes, and write every cell it returns."""
    f = data.draw(fields(st.integers(4, 20).map(lambda k: 2 * k + parity)))
    ws = _Workspace(f.grid)
    advect_theta(f, dt, LINEAR, ws)
    assert ws.gather is None  # only cubic runs allocate the gather buffer
    ws.gather = np.empty_like(ws.product)
    for mode in (LINEAR, CUBIC):
        for buf in vars(ws).values():
            if isinstance(buf, np.ndarray):
                buf.fill(np.nan)
        ws.half[...] = f.values
        out = advect_theta(_StepField(f.grid, ws.half), dt, mode, ws)
        assert out.values is ws.half
        assert out.values.tobytes() == reference_advect_theta(f, dt, mode).tobytes()


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), dt=steps)
def test_v_advection_may_read_the_buffer_it_writes(parity, data, dt):
    """strang_step passes half to v advection as its input and its
    output: the kernel must copy and sum its input before it writes, and
    write every cell it returns."""
    f = data.draw(fields(st.integers(4, 20).map(lambda k: 2 * k + parity)))
    ws = _Workspace(f.grid)
    ws.gather = np.empty_like(ws.product)
    for mode in (LINEAR, CUBIC):
        phi_prime = data.draw(forces(f.grid, dt))
        # the kernel zeroes or copies every column of padded that it reads
        for buf in (ws.half, ws.product, ws.gather, ws.padded):
            buf.fill(np.nan)
        ws.half[...] = f.values
        out, losses = advect_v(_StepField(f.grid, ws.half), phi_prime, dt, mode, ws)
        ref, ref_losses = advect_v(f, phi_prime, dt, mode)
        assert out.values is ws.half
        assert out.values.tobytes() == ref.values.tobytes()
        assert losses == ref_losses


def _run_passes(f, phi_prime, dt, mode, ws):
    """Every split kernel on one workspace, each reading half itself
    except the first: the bytes of each output and the losses."""
    out = []
    theta = advect_theta(f, dt, mode, ws)
    out.append(theta.values.tobytes())
    theta = advect_theta(theta, dt, mode, ws)
    out.append(theta.values.tobytes())
    kicked, losses = advect_v(theta, phi_prime, dt, mode, ws)
    out += [kicked.values.tobytes(), losses]
    stepped, losses = strang_step(kicked, dt, mode, ws)
    out += [stepped.values.tobytes(), losses]
    return out


class _EagerLane(_Lane):
    """A lane whose worker has claimed each posted job, when it can within
    a few seconds, before post returns: the far half then runs on it."""

    def post(self, fn, *args):
        job = super().post(fn, *args)
        deadline = time.monotonic() + 5.0
        while not job._claim.locked() and time.monotonic() < deadline:
            time.sleep(1e-5)
        return job


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), dt=steps, mode=modes,
       worker=st.sampled_from(["busy", "eager", "racing"]))
def test_split_passes_match_the_single_lane_bytes(parity, data, dt, mode, worker):
    """Each row-local pass split between the caller and a worker thread
    gives the bytes of one body over all rows.  Halves differ in size when
    n_theta is odd, and the stencil wraps across row 0.  A busy worker
    makes the caller take back every far half, an eager one runs every
    far half, and a racing one is left to the scheduler."""
    f = data.draw(fields(st.integers(8, 40).filter(lambda n: n % 2 == parity)))
    phi_prime = data.draw(forces(f.grid, dt))
    single = _run_passes(f, phi_prime, dt, mode, _Workspace(f.grid))
    lane = _EagerLane() if worker == "eager" else _Lane()
    release = threading.Event()
    try:
        if worker == "busy":
            lane.post(release.wait, 60.0)
        with mock.patch.object(hmfp.solver, "_SPLIT_CELLS", 0):
            split = _run_passes(f, phi_prime, dt, mode, _Workspace(f.grid, lane))
    finally:
        release.set()
        lane.close()
    assert split == single


@pytest.mark.parametrize("mode", [LINEAR, CUBIC])
def test_evolve_on_a_split_grid_matches_the_single_lane_run(mode):
    """One row more than _SPLIT_CELLS cells, so the halves differ in size;
    the narrow velocity box makes mass leave, so every step renormalizes.
    Threads switch as often as the interpreter can during the split run."""
    n_v = 64
    grid = make_grid(hmfp.solver._SPLIT_CELLS // n_v + 1, n_v, 2.5)
    f0 = wavy_gaussian(grid)
    config = SolverConfig(dt=0.2, t_end=0.8, interpolation=mode)
    runs = []
    interval = sys.getswitchinterval()
    for cells, switch in ((hmfp.solver._SPLIT_CELLS, 1e-6), (math.inf, interval)):
        kept = []
        sys.setswitchinterval(switch)
        try:
            with mock.patch.object(hmfp.solver, "_SPLIT_CELLS", cells):
                res = evolve(f0, config, lambda t, fld: kept.append((t, fld)))
        finally:
            sys.setswitchinterval(interval)
        runs.append((res, [(t, fld.values.tobytes()) for t, fld in kept]))
    (res, kept), (ref, ref_kept) = runs
    assert len(kept) == 5 and kept == ref_kept
    assert res.field.values.tobytes() == ref.field.values.tobytes()
    assert res.boundary_loss > 0.0
    assert (res.boundary_loss, res.clipped_mass) == (ref.boundary_loss, ref.clipped_mass)


def test_evolve_without_an_observer_steps_on_one_lane(monkeypatch):
    """With no observer the worker thread would share the caller's CPU,
    so evolve hands it nothing, even on a grid above _SPLIT_CELLS."""
    def post(self, fn, *args):
        raise AssertionError("a job was posted")

    monkeypatch.setattr(_Lane, "post", post)
    monkeypatch.setattr(hmfp.solver, "_SPLIT_CELLS", 0)
    f0 = wavy_gaussian(make_grid(33, 32, 2.5))
    config = SolverConfig(dt=0.2, t_end=0.6, interpolation=CUBIC)
    res = evolve(f0, config)
    field, _, outflow, clipped = field_path_evolve(f0, config)
    assert res.field.values.tobytes() == field.values.tobytes()
    assert (res.boundary_loss, res.clipped_mass) == (outflow, clipped)


def test_evolve_recycles_a_record_buffer_renormalized_at_its_step(monkeypatch):
    """The record at step 2 renormalizes and step 3 does not: nothing in
    evolve still names step 2's buffer at the record of step 4, so steps
    5 and 6 write it again and the record of step 6 owns it."""
    f0 = wavy_gaussian(default_grid(16))
    m0 = mass(f0)
    steps = []

    def mass_at_step(f):
        # evolve's first call is m0, then one call a step
        steps.append(len(steps))
        return m0 * (1.0 + 1e-9) if steps[-1] == 2 else m0

    monkeypatch.setattr(hmfp.solver, "mass", mass_at_step)
    address = {}

    def observer(t, fld):
        address[round(t / 0.1)] = fld.values.__array_interface__["data"][0]

    evolve(f0, SolverConfig(dt=0.1, t_end=0.6, record_every=2), observer)
    assert len(steps) == 7
    assert sorted(address) == [0, 2, 4, 6]
    assert address[6] == address[2] != address[4]


@pytest.mark.parametrize("failing", ["near", "far", "both"])
def test_a_split_pass_re_raises_a_failing_half_unchanged(failing):
    """The near half's failure wins; either way both halves are over when
    the caller raises, and the lane serves the next pass."""
    lane = _Lane()
    errors = {0: FloatingPointError("near half"), 4: FloatingPointError("far half")}

    def body(lo, hi):
        if failing in ("both", "near" if lo == 0 else "far"):
            raise errors[lo]

    seen = []
    try:
        with pytest.raises(FloatingPointError) as info:
            lane.split(body, 9)
        lane.split(lambda lo, hi: seen.append((lo, hi)), 9)
    finally:
        lane.close()
    assert info.value is errors[4 if failing == "far" else 0]
    assert sorted(seen) == [(0, 4), (4, 9)]


def test_theta_stencil_is_built_once_per_grid_and_dt():
    advect_theta(wavy_gaussian(make_grid(24, 16, 3.0)), 0.123)
    before = _theta_stencil.cache_info()
    index, stencils = _theta_stencil(make_grid(24, 16, 3.0), 0.123)
    after = _theta_stencil.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    again = _theta_stencil(make_grid(24, 16, 3.0), 0.123)
    assert again[0] is index and again[1] is stencils
    assert not index.flags.writeable
    # u and 1 - u, then the four cubic weights, each shared and read-only
    assert [k for k, _ in stencils[LINEAR]] == [0, 1]
    assert [k for k, _ in stencils[CUBIC]] == [-1, 0, 1, 2]
    for mode in (LINEAR, CUBIC):
        for (_, weight), (_, shared) in zip(stencils[mode], again[1][mode]):
            assert weight is shared
            assert weight.shape == (16,)
            assert not weight.flags.writeable
    u = stencils[LINEAR][1][1]
    assert np.array_equal(stencils[LINEAR][0][1], 1.0 - u)


def test_theta_stencil_reduces_a_huge_shift_before_its_int_cast():
    # |v| dt / d_theta reaches about 3.6e19 here, beyond int64; the lower
    # node of row i must still be (i + floor(shift)) mod n_theta exactly
    grid = make_grid(9, 16, 1e21)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index, _ = _theta_stencil.__wrapped__(grid, 0.025)
    shift = -grid.v * 0.025 / grid.d_theta
    base = np.array([math.floor(s) % 9 for s in shift])
    lower = (np.arange(9)[:, None] + base[None, :]) % 9
    assert np.array_equal(index, lower * 16 + np.arange(16)[None, :])


@pytest.mark.parametrize("n, dt", [(512, 0.025), (256, 0.025), (37, 0.5)])
def test_theta_stencil_index_matches_the_unreduced_base(n, dt):
    grid = make_grid(n, n, 6.0)
    base = np.floor(-grid.v * dt / grid.d_theta).astype(np.int64)
    lower = (np.arange(n)[:, None] + base[None, :]) % n
    index, _ = _theta_stencil(grid, dt)
    assert np.array_equal(index, lower * n + np.arange(n)[None, :])


def test_cubic_clipping_is_reported():
    g = default_grid()
    values = np.zeros((g.n_theta, g.n_v))
    values[:, g.n_v // 2] = 1.0
    f = DistributionField(g, values)
    dt = 0.2
    out, losses = advect_v(f, np.full(g.n_theta, 0.5 * g.d_v / dt), dt, "cubic")
    assert losses.clipped_mass > 0.0
    assert out.values.min() >= 0.0


def test_full_period_return_oracle():
    """Exact free transport is matched at the expected interpolation order.

    A row whose speed divides the circle returns to its start after one
    lap; neighbouring rows probe fractional shifts.  The sup error against
    the analytic transport contracts at second order for linear weights
    and fourth order for cubic weights.
    """
    def prof(th, v):
        return np.exp(-0.5 * v * v) * (1.0 + 0.5 * np.cos(th) + 0.2 * np.sin(2 * th))

    errs = {}
    for n in (64, 128):
        g = make_grid(n, n, 6.0)
        f = field_from_function(g, prof)
        T = 2.0 * np.pi / g.v[int(0.8 * n)]
        exact = prof(g.theta[:, None] - g.v[None, :] * T, g.v[None, :])
        for mode in ("linear", "cubic"):
            out = advect_theta(f, T, mode)
            errs[mode, n] = np.abs(out.values - exact).max()
    assert errs["linear", 64] <= 2e-3
    assert errs["cubic", 64] <= 2e-5
    assert errs["linear", 128] <= 0.35 * errs["linear", 64]
    assert errs["cubic", 128] <= 0.15 * errs["cubic", 64]


def test_constant_force_momentum_transfer():
    """A uniform force changes momentum by force times mass times dt."""
    g = make_grid(128, 128, 6.0)
    f = field_from_function(
        g, lambda th, v: np.exp(-0.5 * (v - 0.5) ** 2) * (1.0 + 0.2 * np.cos(th)))
    c, dt = 0.37, 0.2
    for mode in ("linear", "cubic"):
        out, _ = advect_v(f, np.full(g.n_theta, c), dt, mode)
        dP = momentum(out) - momentum(f)
        assert abs(dP + c * dt * mass(f)) <= 1e-6


# ---------------------------------------------------------------------------
# strang steps on steady data


def test_homogeneous_state_is_invariant_per_step():
    g = make_grid(256, 256, 6.0)
    hom = field_from_function(g, lambda th, v: np.exp(-0.5 * v * v) * np.ones_like(th))
    w0 = weighted_l1_distance(hom, DistributionField(g, np.zeros_like(hom.values)))
    for mode in ("linear", "cubic"):
        out, _ = strang_step(hom, 0.05, mode)
        assert np.abs(out.values - hom.values).max() <= 1e-12
        assert weighted_l1_distance(out, hom) / w0 < 1e-6


def test_inhomogeneous_steady_state_drift_is_small_and_third_order():
    """One split step barely moves a converged steady state.

    The splitting defect on a critical point scales like dt cubed, so
    shrinking dt from 0.05 to 0.02 must shrink the drift by about
    (0.02 / 0.05)^3 = 0.064.
    """
    g = make_grid(256, 256, 6.0)
    seed = Potential(g, -0.5 * np.cos(g.theta), 0.5 * np.sin(g.theta))
    res = self_consistent_solve(entropy_spec(), ConstraintSet(m1=2.2 * np.pi), seed)
    f0 = res.field
    w0 = weighted_l1_distance(f0, DistributionField(g, np.zeros_like(f0.values)))
    drift = {}
    for dt in (0.05, 0.02):
        f1, _ = strang_step(f0, dt, "cubic")
        drift[dt] = weighted_l1_distance(f1, f0) / w0
    assert drift[0.05] < 5e-5
    assert drift[0.02] / drift[0.05] <= 0.15


def test_dt_halving_contracts_error_at_second_order():
    g = make_grid(128, 128, 6.0)
    f0 = field_from_function(
        g, lambda th, v: np.exp(-0.5 * v * v) * (1.0 + 0.5 * np.cos(th)))
    ref = evolve(f0, SolverConfig(dt=0.00625, t_end=1.0, interpolation="cubic")).field
    errs = []
    for dt in (0.1, 0.05):
        out = evolve(f0, SolverConfig(dt=dt, t_end=1.0, interpolation="cubic")).field
        errs.append(weighted_l1_distance(out, ref))
    ratio = errs[0] / errs[1]
    assert 2.8 <= ratio <= 5.0


def test_galilean_boost_shifts_the_solution():
    """Boosting the datum by two v cells translates the run accordingly.

    With v_max = 2 pi the boost speed 2 d_v moves the pattern four theta
    cells per unit time, so the boosted run is the unboosted one rolled
    in theta and shifted in v, up to interpolation error.
    """
    n = 64
    g = make_grid(n, n, 2 * np.pi)
    f0 = field_from_function(
        g, lambda th, v: np.exp(-0.5 * v * v) * (1.0 + 0.2 * np.cos(th)))
    shifted0 = DistributionField(g, np.concatenate(
        [np.zeros((n, 2)), f0.values[:, :-2]], axis=1))
    cfg = SolverConfig(dt=0.01, t_end=1.0)
    a = evolve(f0, cfg).field
    b = evolve(shifted0, cfg).field
    pred = np.roll(a.values, 4, axis=0)
    pred = np.concatenate([np.zeros((n, 2)), pred[:, :-2]], axis=1)
    dev = weighted_l1_distance(b, DistributionField(g, pred)) / mass(f0)
    assert dev <= 2e-2


# ---------------------------------------------------------------------------
# evolve driver


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.6, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=1.0, interpolation="quintic")
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=1.0, record_every=0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=1.0, record_every=1.5)
    for every in (np.inf, np.nan):
        with pytest.raises(ValueError, match="record_every must be a positive integer"):
            SolverConfig(dt=0.1, t_end=1.0, record_every=every)
    # the step count round(t_end / dt) is bounded, also where the ratio is inf
    SolverConfig(dt=0.5, t_end=0.5 * MAX_STEPS)
    for dt, t_end in ((0.5, 0.5 * (MAX_STEPS + 1)), (1e-300, 0.5), (5e-324, 0.5)):
        with pytest.raises(ValueError, match="at most %d steps" % MAX_STEPS):
            SolverConfig(dt=dt, t_end=t_end)


def test_evolve_zero_horizon_returns_the_datum():
    f0 = wavy_gaussian(default_grid())
    res = evolve(f0, SolverConfig(dt=0.1, t_end=0.0), t_start=3.0)
    assert res.steps == 0
    assert res.time == 3.0
    assert np.array_equal(res.field.values, f0.values)
    assert res.boundary_loss == 0.0


def test_evolve_record_cadence_and_times():
    f0 = wavy_gaussian(default_grid())
    rows = []
    res = evolve(f0, SolverConfig(dt=0.1, t_end=1.0, record_every=3),
                 observer=lambda t, fld: rows.append((t, fld)))
    assert res.steps == 10
    assert len(rows) == 10 // 3 + 1
    times = [t for t, _ in rows]
    assert times == pytest.approx([0.0, 0.3, 0.6, 0.9])
    assert rows[0][1] is f0
    assert mass(rows[-1][1]) == pytest.approx(mass(f0), rel=1e-13)


def test_evolve_keeps_mass_on_the_constraint():
    f0 = wavy_gaussian(default_grid())
    res = evolve(f0, SolverConfig(dt=0.05, t_end=2.0))
    assert abs(mass(res.field) - mass(f0)) <= 1e-12 * mass(f0)
    assert res.time == pytest.approx(2.0)


def test_evolve_aborts_when_the_observer_fails():
    f0 = wavy_gaussian(default_grid())
    calls = []

    def observer(t, fld):
        calls.append(t)
        if len(calls) == 3:
            raise ValueError("measurement failed")

    with pytest.raises(SolverAbort, match="aborted at step 6: measurement failed"):
        evolve(f0, SolverConfig(dt=0.1, t_end=1.0, record_every=3), observer)
    assert len(calls) == 3


def failing_steps(monkeypatch, exc, failed):
    """Make evolve's second strang_step set the event failed and raise exc."""
    step = hmfp.solver.strang_step
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 2:
            failed.set()
            raise exc
        return step(*args)

    monkeypatch.setattr(hmfp.solver, "strang_step", failing)


@pytest.mark.parametrize("exc", [ValueError("step failed"),
                                 RuntimeError("step failed"),
                                 OSError("step failed")])
def test_evolve_reports_the_observer_failure_before_a_later_step_failure(
        monkeypatch, exc):
    """The observer call of step 1 is still running when step 2 fails:
    evolve waits for it, and its earlier failure wins."""
    failed = threading.Event()
    failing_steps(monkeypatch, exc, failed)

    def observer(t, fld):
        if t > 0.0:
            assert failed.wait(10.0)
            raise ValueError("measurement failed")

    with pytest.raises(SolverAbort, match="aborted at step 1: measurement failed"):
        evolve(wavy_gaussian(default_grid(16)), SolverConfig(dt=0.1, t_end=0.5),
               observer)


@pytest.mark.parametrize("exc, raised, match", [
    (ValueError("step failed"), SolverAbort, "aborted at step 2: step failed"),
    (RuntimeError("step failed"), RuntimeError, "^step failed$")])
def test_evolve_reports_a_step_failure_after_the_observer_succeeds(
        monkeypatch, exc, raised, match):
    failed = threading.Event()
    failing_steps(monkeypatch, exc, failed)
    seen = []

    def observer(t, fld):
        if t > 0.0:
            assert failed.wait(10.0)
        seen.append(t)

    with pytest.raises(raised, match=match):
        evolve(wavy_gaussian(default_grid(16)), SolverConfig(dt=0.1, t_end=0.5),
               observer)
    assert seen == pytest.approx([0.0, 0.1])


def test_evolve_passes_an_observer_oserror_through_unwrapped():
    error = OSError("disk full")
    calls = []

    def observer(t, fld):
        calls.append(t)
        if len(calls) == 2:
            raise error

    with pytest.raises(OSError) as info:
        evolve(wavy_gaussian(default_grid(16)), SolverConfig(dt=0.1, t_end=1.0),
               observer)
    assert info.value is error
    assert len(calls) == 2


def test_evolve_leaves_no_thread_behind():
    f0 = wavy_gaussian(default_grid(16))
    config = SolverConfig(dt=0.1, t_end=0.5)
    before = threading.active_count()
    evolve(f0, config, lambda t, fld: None)
    assert threading.active_count() == before

    def observer(t, fld):
        if t > 0.25:
            raise ValueError("measurement failed")

    with pytest.raises(SolverAbort, match="aborted at step 3"):
        evolve(f0, config, observer)
    assert threading.active_count() == before
    with pytest.raises(SolverAbort, match="aborted at step 1: all mass left"):
        evolve(drain_field(), SolverConfig(dt=0.5, t_end=1.0), lambda t, fld: None)
    assert threading.active_count() == before


def test_evolve_observer_calls_arrive_in_order_one_at_a_time():
    busy = threading.Lock()
    times = []

    def observer(t, fld):
        assert busy.acquire(blocking=False), "observer calls overlap"
        try:
            time.sleep(0.002)
            times.append(t)
        finally:
            busy.release()

    config = SolverConfig(dt=0.1, t_end=2.0, record_every=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        evolve(wavy_gaussian(default_grid(16)), config, observer)
    finally:
        sys.setswitchinterval(interval)
    assert times == pytest.approx([0.2 * k for k in range(11)])


def test_evolve_observer_runs_under_the_callers_errstate():
    def observer(t, fld):
        if t > 0.0:
            fld.values.max() * np.float64(1e308) * np.float64(1e308)

    with np.errstate(over="raise"):
        with pytest.raises(SolverAbort, match="aborted at step 1: overflow"):
            evolve(wavy_gaussian(default_grid(16)), SolverConfig(dt=0.1, t_end=0.5),
                   observer)


def test_evolve_aborts_when_all_mass_drains():
    with pytest.raises(SolverAbort, match="aborted at step 1: all mass left"):
        evolve(drain_field(), SolverConfig(dt=0.5, t_end=0.5))


@pytest.mark.filterwarnings("ignore:overflow")
def test_evolve_aborts_on_nonfinite_force():
    g = default_grid()
    f = field_from_function(
        g, lambda th, v: 1e307 * (1.0 + np.cos(th)) * np.exp(-0.5 * v * v))
    with pytest.raises(SolverAbort, match="aborted at step 1"):
        evolve(f, SolverConfig(dt=0.1, t_end=0.5))


def test_evolve_totals_sum_the_step_losses():
    # a narrow velocity box, so both tallies are nonzero in cubic mode
    f = wavy_gaussian(make_grid(32, 32, 2.5))
    res = evolve(f, SolverConfig(dt=0.2, t_end=0.6, interpolation="cubic"))
    m0 = mass(f)
    outflow = clipped = 0.0
    for _ in range(3):
        f, losses = strang_step(f, 0.2, "cubic")
        outflow += losses.outflow
        clipped += losses.clipped_mass
        f = DistributionField(f.grid, f.values * (m0 / mass(f)))
    assert outflow > 0.0 and clipped > 0.0
    assert res.boundary_loss == outflow
    assert res.clipped_mass == clipped


def field_path_evolve(f0, config):
    """evolve as a loop of DistributionField-in, DistributionField-out
    strang_step calls and evolve's mass renormalization rule; returns the
    final field, the (time, field) records, and the two tallies."""
    steps = int(round(config.t_end / config.dt))
    m0 = mass(f0)
    f = f0
    records = [(0.0, f0)]
    outflow = clipped = 0.0
    for k in range(1, steps + 1):
        f, losses = strang_step(f, config.dt, config.interpolation)
        outflow += losses.outflow
        clipped += losses.clipped_mass
        m = mass(f)
        if m0 > 0.0 and abs(m - m0) > 1e-13 * m0:
            f = DistributionField(f.grid, f.values * (m0 / m))
        if k % config.record_every == 0:
            records.append((k * config.dt, f))
    return f, records, outflow, clipped


def assert_evolve_matches_the_field_path(f0, config):
    observed = []

    def observer(t, fld):
        observed.append((t, fld, fld.values.tobytes()))

    res = evolve(f0, config, observer)
    field, records, outflow, clipped = field_path_evolve(f0, config)
    assert res.field.values.tobytes() == field.values.tobytes()
    assert res.boundary_loss == outflow
    assert res.clipped_mass == clipped
    assert [t for t, _, _ in observed] == [t for t, _ in records]
    for (_, fld, seen), (_, ref) in zip(observed, records):
        # what the observer saw is what it still holds, frozen
        assert fld.values.tobytes() == seen == ref.values.tobytes()
        assert not fld.values.flags.writeable
    arrays = [fld.values for _, fld, _ in observed] + [res.field.values]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert a is b or not np.shares_memory(a, b)
    return res


@settings(max_examples=60, deadline=None)
@given(n_theta=st.integers(8, 21), n_v=st.integers(8, 21),
       v_max=st.floats(1.0, 6.0), dt=st.floats(0.01, 0.5), steps=st.integers(0, 6),
       record_every=st.integers(1, 3), mode=modes, seed=st.integers(0, 2 ** 32 - 1))
def test_evolve_matches_field_path_steps_bitwise(n_theta, n_v, v_max, dt, steps,
                                                 record_every, mode, seed):
    f0 = smooth_random_field(make_grid(n_theta, n_v, v_max), seed)
    config = SolverConfig(dt=dt, t_end=steps * dt, interpolation=mode,
                          record_every=record_every)
    assert_evolve_matches_the_field_path(f0, config)


@pytest.mark.parametrize("n_theta, n_v", [(32, 32), (33, 31), (31, 34)])
def test_evolve_matches_field_path_steps_with_both_tallies(n_theta, n_v):
    # a narrow velocity box, so mass leaves it and cubic clipping bites
    f0 = wavy_gaussian(make_grid(n_theta, n_v, 2.5))
    res = assert_evolve_matches_the_field_path(
        f0, SolverConfig(dt=0.2, t_end=1.0, interpolation="cubic", record_every=2))
    assert res.boundary_loss > 0.0 and res.clipped_mass > 0.0


@pytest.mark.parametrize("steps, record_every", [
    (0, None), (7, None), (0, 1), (5, 1), (6, 3), (7, 3)])
def test_evolve_builds_fields_only_for_its_callers(monkeypatch, steps, record_every):
    """No field is a copy: each record after step 0 owns the buffer its
    step wrote, frozen in place, and so does the result, which is the last
    observed field when the last step was observed."""
    copies = []
    post_init = DistributionField.__post_init__

    def counting(self):
        copies.append(self)
        post_init(self)

    f0 = wavy_gaussian(default_grid(16))
    seen = []
    observer = None if record_every is None else lambda t, fld: seen.append(fld)
    config = SolverConfig(dt=0.1, t_end=0.1 * steps, record_every=record_every or 1)
    monkeypatch.setattr(DistributionField, "__post_init__", counting)
    res = evolve(f0, config, observer)
    monkeypatch.undo()
    assert copies == []
    assert not res.field.values.flags.writeable
    if record_every is None:
        assert (res.field is f0) == (steps == 0)
        return
    assert seen[0] is f0
    assert len(seen) == steps // record_every + 1
    if steps % record_every == 0:
        assert res.field is seen[-1]
    # every field is still held here, so each owns a buffer of its own
    fields = seen[1:] + ([] if res.field is seen[-1] else [res.field])
    assert all(fld.values.base is None for fld in fields)
    assert len({id(fld.values) for fld in fields}) == len(fields)


# What an observer may keep of a record: the field, its values, or views
# of them; numpy makes the owning buffer the base of every view.
KEEPS = {
    "field": lambda fld: fld,
    "values": lambda fld: np.asarray(fld.values),
    "slice": lambda fld: fld.values[1:-2, ::3],
    "slice of a slice": lambda fld: fld.values[2:][:, 1:5],
    "transpose": lambda fld: fld.values.T,
    "flat": lambda fld: fld.values.ravel(),
}


def _kept_array(obj):
    return obj.values if isinstance(obj, DistributionField) else obj


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_theta=st.integers(8, 16), n_v=st.integers(8, 16),
       steps=st.integers(1, 9), record_every=st.integers(1, 3), mode=modes,
       seed=st.integers(0, 2 ** 32 - 1))
def test_evolve_never_changes_what_an_observer_keeps(data, n_theta, n_v, steps,
                                                     record_every, mode, seed):
    """Records whose observer keeps nothing give their buffers back to the
    steps; whatever it does keep reads what the record held when evolve
    has returned.  Threads switch as often as the interpreter can, so the
    worker may still be dropping a finished call's arguments when
    evolve tests the previous record's buffer."""
    records = steps // record_every + 1
    picks = iter(data.draw(st.lists(st.sampled_from([None, *KEEPS]),
                                    min_size=records, max_size=records)))
    kept = []

    def observer(t, fld):
        how = next(picks)
        if how is not None:
            kept.append((how, KEEPS[how](fld), t))

    f0 = smooth_random_field(make_grid(n_theta, n_v, 4.0), seed)
    config = SolverConfig(dt=0.2, t_end=0.2 * steps, interpolation=mode,
                          record_every=record_every)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        evolve(f0, config, observer)
    finally:
        sys.setswitchinterval(interval)
    _, reference, _, _ = field_path_evolve(f0, config)
    by_time = {t: ref for t, ref in reference}
    for how, obj, t in kept:
        want = _kept_array(KEEPS[how](by_time[t]))
        assert _kept_array(obj).tobytes() == want.tobytes()


# A library evolve at 256^2 with diagnostics at all 101 records, in a
# fresh interpreter and so without the CLI's held heap.  On a 2-CPU Linux
# host with glibc, copying each record into a fresh 0.5 MiB buffer took
# about 7.8k minor faults; recycled record buffers take about 1.1k, most
# of them the first touch of the workspace.
RECORD_FAULT_BOUND = 4000
_RECORD_FAULTS = """
import resource
import numpy as np
from hmfp.casimir import entropy_spec
from hmfp.functionals import diagnostics
from hmfp.grid import field_from_function, make_grid
from hmfp.solver import SolverConfig, evolve
f0 = field_from_function(make_grid(256, 256, 6.0), lambda th, v:
                         np.exp(-0.5 * v * v) * (1.0 + 0.3 * np.cos(th)))
spec = entropy_spec()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
evolve(f0, SolverConfig(dt=0.05, t_end=5.0),
       lambda t, fld: diagnostics(fld, spec, t))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the bound is glibc's malloc behaviour")
def test_evolve_records_reuse_their_buffers_without_a_held_heap():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _RECORD_FAULTS], env=env,
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < RECORD_FAULT_BOUND
