"""Grid construction, field validation, quadrature, and snapshot I/O."""

import math
import os
import stat
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hmfp.functionals import (
    DiagnosticsRecord,
    mass,
    weighted_l1_distance,
    write_diagnostics_csv,
)
from hmfp.interaction import Density
from hmfp.grid import (
    DistributionField,
    Potential,
    _adopt,
    _atomic_write,
    field_from_function,
    load_snapshot,
    make_grid,
    save_snapshot,
)

from conftest import maxwellian

TWO_PI = 2.0 * math.pi


def test_grid_nodes_and_spacing():
    g = make_grid(16, 32, 5.0)
    assert g.d_theta == TWO_PI / 16
    assert g.d_v == 2.0 * 5.0 / 32
    # theta nodes sit on left cell edges, v nodes on cell centers
    assert g.theta[0] == 0.0
    assert np.allclose(np.diff(g.theta), g.d_theta)
    assert g.v[0] == -5.0 + 0.5 * g.d_v
    assert g.v[-1] == pytest.approx(5.0 - 0.5 * g.d_v)
    assert g.cell_area == pytest.approx(g.d_theta * g.d_v)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(4, 32, 5.0)
    with pytest.raises(ValueError):
        make_grid(32, 7, 5.0)
    with pytest.raises(ValueError):
        make_grid(32, 32, 0.0)
    with pytest.raises(ValueError):
        make_grid(32, 32, -1.0)
    # v_max**2, and with it d_v = 2 v_max / n_v, must be finite
    for v_max in (math.inf, 1e308, 1e200):
        with pytest.raises(ValueError, match="v_max"):
            make_grid(32, 32, v_max)


def test_grid_equality_and_hash():
    a = make_grid(16, 16, 4.0)
    b = make_grid(16, 16, 4.0)
    c = make_grid(16, 16, 5.0)
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_grid_immutable():
    g = make_grid(16, 16, 4.0)
    with pytest.raises(AttributeError):
        g.n_theta = 8
    with pytest.raises(ValueError):
        g.theta[0] = 1.0


def test_field_validation():
    g = make_grid(16, 16, 4.0)
    with pytest.raises(ValueError):
        DistributionField(g, np.zeros((16, 8)))
    bad = np.zeros((16, 16))
    bad[3, 4] = np.nan
    with pytest.raises(ValueError):
        DistributionField(g, bad)
    bad[3, 4] = -1.0
    with pytest.raises(ValueError):
        DistributionField(g, bad)


def test_field_copies_and_freezes():
    g = make_grid(16, 16, 4.0)
    raw = np.ones((16, 16))
    f = DistributionField(g, raw)
    raw[0, 0] = 7.0
    assert f.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0
    with pytest.raises(AttributeError):
        f.values = raw


def test_integrate_constant_field():
    g = make_grid(32, 64, 3.0)
    f = DistributionField(g, np.full((32, 64), 2.0))
    # box measure is 2 pi * 2 v_max
    assert mass(f) == pytest.approx(2.0 * TWO_PI * 6.0, rel=1e-14)


def test_integrate_gaussian_matches_closed_form():
    # midpoint quadrature of a periodic-smooth Gaussian converges fast;
    # at v_max = 6 the truncated tail is ~2e-9 relative
    g = make_grid(64, 256, 6.0)
    f = field_from_function(g, lambda t, v: np.exp(-0.5 * v * v))
    assert mass(f) == pytest.approx(TWO_PI * math.sqrt(TWO_PI), rel=1e-8)


def test_field_from_function_samples_cell_centers():
    g = make_grid(16, 16, 4.0)
    f = field_from_function(g, lambda t, v: t + 10.0 * (v + 4.0))
    assert f.values[3, 5] == pytest.approx(g.theta[3] + 10.0 * (g.v[5] + 4.0))


def test_weighted_l1_distance_exact_on_split_field():
    g = make_grid(16, 16, 4.0)
    base = np.ones((16, 16))
    bumped = base.copy()
    bumped[2, 7] += 3.0
    f = DistributionField(g, base)
    h = DistributionField(g, bumped)
    expect = 3.0 * (1.0 + g.v[7] ** 2) * g.cell_area
    assert weighted_l1_distance(f, h) == pytest.approx(expect, rel=1e-14)
    assert weighted_l1_distance(f, f) == 0.0


def test_weighted_l1_requires_matching_grids():
    f = DistributionField(make_grid(16, 16, 4.0), np.ones((16, 16)))
    h = DistributionField(make_grid(16, 16, 5.0), np.ones((16, 16)))
    with pytest.raises(ValueError):
        weighted_l1_distance(f, h)


# tmp_path is shared by the examples; each one overwrites the same file
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    values=arrays(
        np.float64, st.tuples(st.integers(8, 12), st.integers(8, 12)),
        elements=st.floats(min_value=0.0, allow_infinity=False)
        | st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300])),
    time=st.floats(allow_nan=False, allow_infinity=False),
    v_max=st.floats(min_value=1e-3, max_value=1e3),
)
def test_snapshot_round_trip_is_bitwise(tmp_path, values, time, v_max):
    g = make_grid(*values.shape, v_max)
    f = DistributionField(g, values)
    path = tmp_path / "state.snap"
    save_snapshot(f, time, path)
    back, t = load_snapshot(path)
    assert struct.pack("<d", t) == struct.pack("<d", time)
    assert back.grid == g
    # bit patterns, so -0.0 and 0.0 differ
    assert np.array_equal(back.values.view(np.uint64), values.view(np.uint64))


PINNED_VALUES = np.zeros((8, 8))
PINNED_VALUES[0, :4] = [0.1, 1.0 / 3.0, 2.5, 1e-5]
PINNED_VALUES[3, 3] = 5e-324
PINNED_VALUES[5, 6] = 1e300
PINNED_VALUES[7, 7] = 12.566370614359172

# the same field at t = 0.75 as a text (HMFP1) snapshot
PINNED_HMFP1_TEXT = (
    "HMFP1 8 8 6 0.75\n"
    "0.10000000000000001 0.33333333333333331 2.5 1.0000000000000001e-05"
    " 0 0 0 0\n"
    "0 0 0 0 0 0 0 0\n"
    "0 0 0 0 0 0 0 0\n"
    "0 0 0 4.9406564584124654e-324 0 0 0 0\n"
    "0 0 0 0 0 0 0 0\n"
    "0 0 0 0 0 0 1.0000000000000001e+300 0\n"
    "0 0 0 0 0 0 0 0\n"
    "0 0 0 0 0 0 0 12.566370614359172\n"
)


def test_snapshot_and_diagnostics_bytes_are_pinned(tmp_path):
    save_snapshot(DistributionField(make_grid(8, 8, 6.0), PINNED_VALUES), 0.75,
                  tmp_path / "state.snap")
    assert (tmp_path / "state.snap").read_bytes() == (
        b"HMFP2 8 8 6 0.75\n" + struct.pack("<64d", *PINNED_VALUES.ravel())
    )
    records = [
        DiagnosticsRecord(0.0, 12.566370614359172, 0.0, 6.283185307179586,
                          1.0 / 3.0, 5.949851973846253, -3.0, 0.5),
        DiagnosticsRecord(0.1, 12.566370614359172, -1e-17, 6.3, 0.25, 6.05,
                          -2.9999999999999996, 0.49),
    ]
    write_diagnostics_csv(records, tmp_path / "diagnostics.csv")
    assert (tmp_path / "diagnostics.csv").read_text() == (
        "time,mass,momentum,kinetic,potential_energy,hamiltonian,casimir,"
        "l_infinity\n"
        "0,12.566370614359172,0,6.2831853071795862,0.33333333333333331,"
        "5.9498519738462532,-3,0.5\n"
        "0.10000000000000001,12.566370614359172,-1.0000000000000001e-17,"
        "6.2999999999999998,0.25,6.0499999999999998,-2.9999999999999996,"
        "0.48999999999999999\n"
    )


def test_text_snapshot_still_loads_bitwise(tmp_path):
    path = tmp_path / "legacy.snap"
    path.write_text(PINNED_HMFP1_TEXT)
    field, t = load_snapshot(path)
    assert t == 0.75
    assert field.grid == make_grid(8, 8, 6.0)
    assert np.array_equal(field.values.view(np.uint64),
                          PINNED_VALUES.view(np.uint64))


def test_snapshot_rejects_corrupt_header(tmp_path):
    g = make_grid(16, 16, 4.0)
    f = maxwellian(g, 1.0)
    path = tmp_path / "state.snap"
    save_snapshot(f, 0.0, path)
    data = path.read_bytes()
    path.write_bytes(b"garbage\n" + data)
    with pytest.raises(ValueError):
        load_snapshot(path)


@pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
def test_snapshot_time_must_be_finite(tmp_path, time):
    f = maxwellian(make_grid(8, 8, 6.0), 1.0)
    path = tmp_path / "state.snap"
    with pytest.raises(ValueError, match="time must be finite"):
        save_snapshot(f, time, path)
    assert os.listdir(tmp_path) == []
    # the same file written by another program
    path.write_bytes(b"HMFP2 8 8 6 %r\n" % time + f.values.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="time must be finite"):
        load_snapshot(path)


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "state.snap"
    save_snapshot(maxwellian(make_grid(16, 16, 4.0), 1.0), 0.0, path)
    before = path.read_bytes()

    class Unwritable:
        def astype(self, *args, **kwargs):
            raise OSError("device full")

    # fails after the header went out: the old snapshot must survive whole
    broken = SimpleNamespace(grid=make_grid(8, 8, 6.0), values=Unwritable())
    with pytest.raises(OSError, match="device full"):
        save_snapshot(broken, 1.0, path)
    assert path.read_bytes() == before
    with pytest.raises(RuntimeError):
        with _atomic_write(tmp_path / "report.txt") as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert os.listdir(tmp_path) == ["state.snap"]


def test_artifacts_take_the_directory_permissions(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    run_dir.chmod(0o755)
    save_snapshot(maxwellian(make_grid(16, 16, 4.0), 1.0), 0.0,
                  run_dir / "state.snap")
    assert stat.S_IMODE((run_dir / "state.snap").stat().st_mode) == 0o644


def test_potential_validation():
    g = make_grid(16, 16, 4.0)
    with pytest.raises(ValueError):
        Potential(g, np.zeros(8), np.zeros(8))
    vals = np.zeros(16)
    vals[0] = np.inf
    with pytest.raises(ValueError):
        Potential(g, vals, np.zeros(16))


def test_potential_roll_keeps_its_bits():
    """Centring the translate again can move its last bits; roll does not."""
    g = make_grid(32, 16, 4.0)
    rng = np.random.default_rng(7)
    phi = Potential(g, rng.normal(size=32), rng.normal(size=32))
    moved = phi.roll(16)
    assert moved.grid == g
    assert moved.values.tobytes() == np.roll(phi.values, 16).tobytes()
    assert moved.derivative.tobytes() == np.roll(phi.derivative, 16).tobytes()
    assert not (moved.values.flags.writeable or moved.derivative.flags.writeable)


# The checks each value type ran on its own before they shared one helper,
# kept verbatim as the reference for the property below.
def reference_field(grid, values):
    values = np.array(values, dtype=float, order="C")
    if values.shape != (grid.n_theta, grid.n_v):
        raise ValueError(
            f"values shape {values.shape} does not match grid "
            f"({grid.n_theta}, {grid.n_v})"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    if np.any(values < 0):
        raise ValueError("field values must be nonnegative")
    return values


def reference_density(grid, values):
    values = np.array(values, dtype=float)
    if values.shape != (grid.n_theta,):
        raise ValueError("density must have one value per theta node")
    if not np.all(np.isfinite(values)):
        raise ValueError("density values must be finite")
    if np.any(values < 0):
        raise ValueError("density values must be nonnegative")
    return values


def reference_potential(grid, values, derivative):
    n = grid.n_theta
    values = np.asarray(values, dtype=float)
    derivative = np.array(derivative, dtype=float)
    if values.shape != (n,) or derivative.shape != (n,):
        raise ValueError("potential arrays must have shape (n_theta,)")
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(derivative))):
        raise ValueError("potential values must be finite")
    return values - values.mean(), derivative


def outcome(build, *args):
    """The arrays a constructor keeps, as bytes, or its ValueError text."""
    try:
        kept = build(*args)
    except ValueError as exc:
        return str(exc)
    return [np.asarray(a).tobytes() for a in kept]


# NaN, both infinities, negatives, both zeros, subnormals and the extremes;
# magnitudes stay below 1e300 elsewhere so a potential's mean cannot
# overflow
EDGE_VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
               2.2e-308, -2.2e-308, 1.0, -1.0, 1e300, -1e300]
ELEMENTS = st.one_of(st.sampled_from(EDGE_VALUES),
                     st.floats(-1e300, 1e300, allow_subnormal=True))


@st.composite
def edged_arrays(draw, shapes):
    """A nonnegative array with up to three entries replaced by ELEMENTS,
    so that -0.0 or a single bad entry often decides the outcome."""
    shape = draw(shapes)
    out = draw(arrays(float, shape,
                      elements=st.floats(0.0, 1e300, allow_subnormal=True)))
    flat = out.reshape(-1)
    for _ in range(draw(st.integers(0, 3))):
        flat[draw(st.integers(0, flat.size - 1))] = draw(ELEMENTS)
    return out


@settings(max_examples=300, deadline=None)
@given(field_values=edged_arrays(st.sampled_from([(8, 8), (8, 9), (64,)])),
       line=edged_arrays(st.sampled_from([(8,), (9,), (8, 1)])),
       derivative=edged_arrays(st.sampled_from([(8,), (7,)])))
def test_value_types_accept_and_reject_as_their_own_checks_did(
        field_values, line, derivative):
    g = make_grid(8, 8, 6.0)
    assert outcome(lambda v: [DistributionField(g, v).values], field_values) \
        == outcome(lambda v: [reference_field(g, v)], field_values)
    assert outcome(lambda v: [Density(g, v).values], line) \
        == outcome(lambda v: [reference_density(g, v)], line)
    # each array alone, the other one valid: with both bad, the parent
    # reported any shape fault first, while each array now reports its own
    # faults in turn
    for values, deriv in ((line, np.zeros(8)), (np.zeros(8), derivative)):
        new = outcome(lambda v, d: [Potential(g, v, d).values,
                                    Potential(g, v, d).derivative],
                      values, deriv)
        assert new == outcome(lambda v, d: reference_potential(g, v, d),
                              values, deriv)


@given(edged_arrays(st.integers(1, 40)), st.booleans())
def test_adopt_returns_a_frozen_contiguous_copy_or_names_the_fault(values,
                                                                 nonnegative):
    strided = np.repeat(values, 2)[::2]
    try:
        out = _adopt(strided, values.shape, "x", "shape {shape}", nonnegative)
    except ValueError as exc:
        finite = bool(np.all(np.isfinite(values)))
        assert str(exc) == ("x values must be nonnegative" if finite
                            else "x values must be finite")
        assert not finite or (nonnegative and np.any(values < 0))
        return
    assert np.all(np.isfinite(values))
    assert not (nonnegative and np.any(values < 0))
    assert out.tobytes() == values.tobytes()
    assert out.flags.c_contiguous and not out.flags.writeable
    assert not np.shares_memory(out, strided)
    with pytest.raises(ValueError, match=r"shape \(3, 1\)"):
        _adopt(np.zeros((3, 1)), values.shape, "x", "shape {shape}")
