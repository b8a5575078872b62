"""Split-step transport: advection kernels, invariants, convergence."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    SolverConfig,
    _split_shift,
    _theta_stencil,
    advect_theta,
    advect_v,
    evolve,
    strang_step,
)
from hmfp.steady import ConstraintSet, self_consistent_solve

from conftest import default_grid, drain_field, smooth_random_field


def wavy_gaussian(grid):
    return field_from_function(
        grid, lambda th, v: np.exp(-0.5 * v * v) * (1.0 + 0.3 * np.cos(th)))


@st.composite
def fields(draw):
    """Nonnegative fields on 8-40 cells per side, zeros included.

    Nonzero values stay far above the subnormal range, so products with
    the stencil weights keep full relative precision.
    """
    n_theta = draw(st.integers(8, 40))
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
    """One DistributionField per observer call after step 0 and one for
    the result, unless the result is the last observed field."""
    builds = []
    post_init = DistributionField.__post_init__

    def counting(self):
        builds.append(self)
        post_init(self)

    f0 = wavy_gaussian(default_grid(16))
    seen = []
    observer = None if record_every is None else lambda t, fld: seen.append(fld)
    config = SolverConfig(dt=0.1, t_end=0.1 * steps, record_every=record_every or 1)
    monkeypatch.setattr(DistributionField, "__post_init__", counting)
    res = evolve(f0, config, observer)
    monkeypatch.undo()
    if record_every is None:
        assert len(builds) == min(steps, 1)
        assert (res.field is f0) == (steps == 0)
        return
    assert seen[0] is f0
    assert builds == seen[1:] + ([] if steps % record_every == 0 else [res.field])
    if steps % record_every == 0:
        assert res.field is seen[-1]
