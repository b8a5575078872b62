"""Grid construction, field validation, quadrature, and snapshot I/O."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hmfp.functionals import DiagnosticsRecord, mass, write_diagnostics_csv
from hmfp.grid import (
    DistributionField,
    Potential,
    field_from_function,
    load_snapshot,
    make_grid,
    save_snapshot,
    weighted_l1_distance,
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
        | st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308])),
    time=st.floats(allow_nan=False, allow_infinity=False),
    v_max=st.floats(min_value=1e-3, max_value=1e3),
)
def test_snapshot_round_trip_is_bitwise(tmp_path, values, time, v_max):
    g = make_grid(*values.shape, v_max)
    f = DistributionField(g, values)
    path = tmp_path / "state.snap"
    save_snapshot(f, time, path)
    back, t = load_snapshot(path)
    assert t == time
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_snapshot_and_diagnostics_bytes_are_pinned(tmp_path):
    values = np.zeros((8, 8))
    values[0, :4] = [0.1, 1.0 / 3.0, 2.5, 1e-5]
    values[3, 3] = 5e-324
    values[5, 6] = 1e300
    values[7, 7] = 12.566370614359172
    save_snapshot(DistributionField(make_grid(8, 8, 6.0), values), 0.75,
                  tmp_path / "state.snap")
    assert (tmp_path / "state.snap").read_text() == (
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


def test_snapshot_rejects_corrupt_header(tmp_path):
    g = make_grid(16, 16, 4.0)
    f = maxwellian(g, 1.0)
    path = tmp_path / "state.snap"
    save_snapshot(f, 0.0, path)
    text = path.read_text()
    path.write_text("garbage\n" + text)
    with pytest.raises(ValueError):
        load_snapshot(path)


def test_potential_validation():
    g = make_grid(16, 16, 4.0)
    with pytest.raises(ValueError):
        Potential(g, np.zeros(8), np.zeros(8))
    vals = np.zeros(16)
    vals[0] = np.inf
    with pytest.raises(ValueError):
        Potential(g, vals, np.zeros(16))
