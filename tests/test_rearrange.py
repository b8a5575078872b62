"""Rearrangement machinery: distribution functions, a_phi, pairings."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmfp.casimir import entropy_spec
from hmfp.functionals import (
    casimir_integral,
    hamiltonian,
    kinetic_energy,
    mass,
    microscopic_energy_pairing,
)
from hmfp.grid import DistributionField, Potential, make_grid
from hmfp.interaction import solve_potential
from hmfp.rearrange import (
    MonotoneProfile,
    compose_profile,
    convex_B,
    distribution_function,
    equimeasurability_defect,
    equimeasurable_minimize,
    inverse_sublevel_measure,
    level_band_defect,
    level_grid,
    profile_pairing_integral,
    pseudo_inverse,
    rearrange_with_energy,
    rearranged_energy_integral,
    sublevel_measure_a,
)
from hmfp.steady import _section_sum

from conftest import maxwellian, smooth_random_field

TWO_PI = 2.0 * math.pi


def flat_potential(grid):
    return Potential(grid, np.zeros(grid.n_theta), np.zeros(grid.n_theta))


def cosine_potential(grid, a=0.5):
    vals = a * np.cos(grid.theta)
    vals = vals - vals.mean()
    return Potential(grid, vals, -a * np.sin(grid.theta))


def two_level_field(grid, hi_cells, lo_cells):
    """Indicator-style test field: hi_cells cells at 2, lo_cells more at 1."""
    vals = np.zeros((grid.n_theta, grid.n_v))
    flat = vals.reshape(-1)
    flat[:hi_cells] = 2.0
    flat[hi_cells:hi_cells + lo_cells] = 1.0
    return DistributionField(grid, flat.reshape(grid.n_theta, grid.n_v))


# ---------------------------------------------------------------------------
# Profiles and distribution functions
# ---------------------------------------------------------------------------


def test_monotone_profile_rules():
    prof = MonotoneProfile(np.array([0.0, 1.0, 2.0]), np.array([3.0, 2.0, 0.5]))
    assert prof.evaluate(0.5) == 3.0  # step rule holds the left value
    assert prof.evaluate(1.0) == 2.0
    assert prof.evaluate(-5.0) == 3.0 and prof.evaluate(9.0) == 0.5


def test_monotone_profile_validation():
    with pytest.raises(ValueError):
        MonotoneProfile(np.array([0.0, 0.0]), np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        MonotoneProfile(np.array([0.0, 1.0]), np.array([0.5, 1.0]))


@pytest.mark.parametrize("breakpoints, values, message", [
    ([0.0, 1.0], [np.nan, np.nan], "profile values must be finite"),
    ([0.0, np.inf], [1.0, 0.5], "breakpoint values must be finite"),
    ([-np.inf, 0.0], [1.0, 0.5], "breakpoint values must be finite"),
])
def test_monotone_profile_rejects_non_finite_entries(breakpoints, values,
                                                     message):
    with pytest.raises(ValueError, match=message):
        MonotoneProfile(breakpoints, values)


def test_distribution_function_counts_cells():
    g = make_grid(8, 8, 1.0)
    f = two_level_field(g, hi_cells=5, lo_cells=11)
    mu = distribution_function(f, np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
    area = g.cell_area
    assert mu.values == pytest.approx(
        np.array([16 * area, 16 * area, 5 * area, 5 * area, 0.0])
    )


def test_pseudo_inverse_of_two_level_field():
    g = make_grid(8, 8, 1.0)
    f = two_level_field(g, hi_cells=5, lo_cells=11)
    mu = distribution_function(f, np.array([0.0, 1.0, 2.0]))
    fsharp = pseudo_inverse(mu)
    area = g.cell_area
    # f# takes value 2 on [0, 5 area), 1 on [5 area, 16 area), then 0
    assert fsharp.evaluate(0.0) == 2.0
    assert fsharp.evaluate(4.99 * area) == 2.0
    assert fsharp.evaluate(5.01 * area) == 1.0
    assert fsharp.evaluate(15.9 * area) == 1.0
    assert fsharp.evaluate(16.1 * area) == 0.0


# ---------------------------------------------------------------------------
# Sublevel measure a_phi
# ---------------------------------------------------------------------------


def test_flat_sublevel_measure_closed_form():
    g = make_grid(32, 32, 6.0)
    phi = flat_potential(g)
    e = np.array([0.125, 0.5, 2.0])
    assert sublevel_measure_a(phi, e) == pytest.approx(
        2.0 * TWO_PI * np.sqrt(2.0 * e), rel=1e-14
    )
    assert sublevel_measure_a(phi, -1.0) == 0.0


def _measure_and_antiderivative(phi, e):
    """a(e) and A(e) with A' = a, each section integral written out."""
    gap = np.maximum(np.asarray(e, dtype=float)[..., np.newaxis] - phi.values, 0.0)
    measure = (2.0 * np.sqrt(2.0 * gap)).sum(axis=-1) * phi.grid.d_theta
    antiderivative = (4.0 * np.sqrt(2.0) / 3.0 * gap ** 1.5).sum(axis=-1) * phi.grid.d_theta
    return measure, antiderivative


@settings(max_examples=100, deadline=None)
@given(n=st.integers(8, 300), seed=st.integers(0, 2 ** 32 - 1),
       height=st.floats(0.0, 5.0), n_e=st.integers(1, 20))
def test_sublevel_measure_and_antiderivative_match_the_section_integrals(
        n, seed, height, n_e):
    rng = np.random.default_rng(seed)
    phi = Potential(make_grid(n, 8, 6.0), height * rng.uniform(-1.0, 1.0, n), np.zeros(n))
    low, high = float(phi.values.min()), float(phi.values.max())
    e = rng.uniform(low - 1.0, high + 10.0, n_e)
    for energy in (e, float(e[0])):
        measure, antiderivative = _measure_and_antiderivative(phi, energy)
        got_measure = sublevel_measure_a(phi, energy)
        got_antiderivative = _section_sum(phi, energy, 1.0, 1.0)
        assert np.shape(got_measure) == np.shape(energy)
        assert np.shape(got_antiderivative) == np.shape(energy)
        np.testing.assert_allclose(got_measure, measure, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(got_antiderivative, antiderivative, rtol=1e-13, atol=0.0)
    # no section is open below min phi
    below = low - np.array([0.0, 1e-300, 0.5, 1e3])
    assert np.all(sublevel_measure_a(phi, below) == 0.0)
    assert np.all(_section_sum(phi, below, 1.0, 1.0) == 0.0)
    assert sublevel_measure_a(phi, low) == 0.0
    assert _section_sum(phi, low, 1.0, 1.0) == 0.0


def test_flat_inverse_measure_closed_form():
    g = make_grid(32, 32, 6.0)
    phi = flat_potential(g)
    s = np.array([0.5, 3.0, 20.0])
    assert inverse_sublevel_measure(phi, s) == pytest.approx(
        s ** 2 / (32.0 * math.pi ** 2), rel=1e-12
    )


def test_inverse_measure_round_trip_and_bounds():
    g = make_grid(64, 32, 6.0)
    phi = cosine_potential(g, a=0.7)
    s = np.linspace(0.1, 30.0, 40)
    e = inverse_sublevel_measure(phi, s)
    back = sublevel_measure_a(phi, e)
    assert back == pytest.approx(s, rel=1e-9)
    lo = s ** 2 / (32.0 * math.pi ** 2) + float(phi.values.min())
    hi = s ** 2 / (32.0 * math.pi ** 2) + float(phi.values.max())
    assert np.all(e >= lo - 1e-12)
    assert np.all(e <= hi + 1e-12)


def test_inverse_measure_matches_the_bisection_loop_bitwise():
    # reference: the 90-step loop on the exact bracket, written out
    g = make_grid(64, 32, 6.0)
    phi = cosine_potential(g, a=0.7)
    s = np.linspace(0.0, 80.0, 401)
    base = s * s / (32.0 * np.pi ** 2)
    lo = base + float(phi.values.min())
    hi = base + float(phi.values.max())
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        below = sublevel_measure_a(phi, mid) < s
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    assert inverse_sublevel_measure(phi, s).tobytes() == (0.5 * (lo + hi)).tobytes()


def test_convex_B_flat_closed_form():
    g = make_grid(32, 32, 6.0)
    phi = flat_potential(g)
    for mu in (0.5, 2.0, 17.0):
        assert convex_B(phi, mu) == pytest.approx(
            mu ** 3 / (96.0 * math.pi ** 2), abs=1e-10 * max(1.0, mu ** 3)
        )
    assert convex_B(phi, 0.0) == 0.0
    with pytest.raises(ValueError):
        convex_B(phi, -1.0)


def test_convex_B_is_convex_in_mu():
    g = make_grid(48, 32, 6.0)
    phi = cosine_potential(g, a=0.6)
    mus = np.linspace(0.2, 12.0, 25)
    vals = np.array([convex_B(phi, m) for m in mus])
    second = np.diff(vals, 2)
    assert np.all(second > -1e-12)


# ---------------------------------------------------------------------------
# Rearrangement
# ---------------------------------------------------------------------------


def test_rearrangement_with_flat_potential_is_symmetric_decreasing():
    g = make_grid(32, 64, 6.0)
    f = smooth_random_field(g, seed=50)
    out = rearrange_with_energy(f, flat_potential(g))
    # theta-independent
    assert np.max(np.abs(out.values - out.values[0][None, :])) == 0.0
    # even and nonincreasing in |v|
    row = out.values[0]
    assert row == pytest.approx(row[::-1], abs=1e-15)
    upper = row[g.n_v // 2:]
    assert np.all(np.diff(upper) <= 1e-15)


def test_rearrangement_preserves_mass_approximately():
    g = make_grid(64, 64, 6.0)
    f = smooth_random_field(g, seed=51)
    tol = 4.0 * g.cell_area * float(f.values.max())
    for phi in (flat_potential(g), solve_potential(f)):
        # a quarter-cell-count ladder resolves the mass to the 4-cell bound
        out = rearrange_with_energy(f, phi, n_levels=(64 * 64) // 4)
        assert abs(mass(out) - mass(f)) <= tol
        # the default coarser ladder stays within a few bounds of it
        loose = rearrange_with_energy(f, phi)
        assert abs(mass(loose) - mass(f)) <= 3.0 * tol


def test_rearrangement_is_equimeasurable_up_to_one_cell_band():
    g = make_grid(64, 64, 6.0)
    f = smooth_random_field(g, seed=52)
    for phi in (flat_potential(g), solve_potential(f)):
        out = rearrange_with_energy(f, phi)
        assert level_band_defect(f, out) == 0.0


def test_rearrangement_idempotent_at_fixed_potential():
    g = make_grid(64, 64, 6.0)
    f = smooth_random_field(g, seed=53)
    phi = solve_potential(f)
    once = rearrange_with_energy(f, phi)
    twice = rearrange_with_energy(once, phi)
    assert level_band_defect(once, twice) == 0.0
    # the second pass only requantizes the ladder
    gap = float(np.max(np.abs(twice.values - once.values)))
    assert gap <= 6.0 * float(np.max(np.diff(level_grid(once))))


def test_level_band_defect_discriminates():
    g = make_grid(64, 64, 6.0)
    f = smooth_random_field(g, seed=54)
    same = level_band_defect(f, f)
    assert same == 0.0
    scaled = DistributionField(g, 1.1 * f.values)
    assert level_band_defect(f, scaled) > 4.0 * g.cell_area


def test_raw_defect_zero_against_itself():
    g = make_grid(32, 32, 6.0)
    f = smooth_random_field(g, seed=55)
    assert equimeasurability_defect(f, f, level_grid(f)) == 0.0


def test_pairing_identity_profile_vs_bands():
    # the microscopic-energy integral of f# o a_phi equals the pairing of
    # the profile against the inverse measure, both in closed quadratures
    g = make_grid(48, 48, 6.0)
    rng_seeds = (60, 61)
    for seed in rng_seeds:
        f = smooth_random_field(g, seed)
        for phi in (flat_potential(g), solve_potential(f)):
            fsharp = pseudo_inverse(distribution_function(f, level_grid(f)))
            lhs = rearranged_energy_integral(fsharp, phi)
            rhs = profile_pairing_integral(fsharp, phi)
            assert lhs == pytest.approx(rhs, rel=1e-6)


def test_microscopic_energy_pairing_flat_is_kinetic():
    g = make_grid(32, 64, 6.0)
    f = smooth_random_field(g, seed=62)
    assert microscopic_energy_pairing(f, flat_potential(g)) == kinetic_energy(f)


def test_rearrangement_does_not_increase_the_pairing():
    # rearranging decreasing in energy minimizes the pairing against
    # the energy that ordered it
    g = make_grid(64, 64, 6.0)
    f = smooth_random_field(g, seed=63)
    phi = solve_potential(f)
    out = rearrange_with_energy(f, phi)
    assert microscopic_energy_pairing(out, phi) <= microscopic_energy_pairing(
        f, phi
    ) + 1e-10


def test_compose_profile_indicator():
    g = make_grid(32, 128, 6.0)
    phi = flat_potential(g)
    area_cut = 8.0
    fsharp = MonotoneProfile(np.array([0.0, area_cut]), np.array([1.0, 0.0]))
    out = compose_profile(fsharp, g, phi)
    # indicator of a(e) < area_cut, i.e. |v| < area_cut/(4 pi)
    v_cut = area_cut / (2.0 * TWO_PI)
    expect = (np.abs(g.v) < v_cut).astype(float)
    expect = np.broadcast_to(expect, (32, 128))
    mismatch = np.count_nonzero(out.values != expect)
    # the cells straddling the cut may fall either way
    assert mismatch <= 2 * g.n_theta


def _compose_per_cell(fsharp, grid, phi):
    """compose_profile evaluated at every cell in 8192-cell chunks: the
    bitwise reference for its evaluation per distinct kinetic energy."""
    e = (0.5 * grid.v[np.newaxis, :] ** 2 + phi.values[:, np.newaxis]).ravel()
    out = np.empty_like(e)
    for start in range(0, e.size, 8192):
        out[start : start + 8192] = fsharp.evaluate(
            sublevel_measure_a(phi, e[start : start + 8192]))
    return out.reshape(grid.n_theta, grid.n_v)


@pytest.mark.parametrize("n_v, v_max, distinct", [(8, 0.7, 5), (16, 7.3, 14)])
def test_kinetic_energy_is_not_mirror_symmetric_on_every_grid(n_v, v_max, distinct):
    # why compose_profile takes np.unique of v**2/2 instead of mirroring
    # half the velocity columns
    kinetic = 0.5 * make_grid(8, n_v, v_max).v ** 2
    assert np.unique(kinetic).size == distinct
    assert kinetic.tobytes() != kinetic[::-1].tobytes()


# 70 x 128 cells span two evaluation chunks
@example(shape=(70, 128, 6.0), potential="random", seed=1)
@example(shape=(8, 8, 0.7), potential="zero", seed=2)
@example(shape=(16, 16, 7.3), potential="random", seed=3)
@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([(8, 8, 0.7), (16, 16, 7.3)])
       | st.tuples(st.integers(8, 80), st.integers(8, 140), st.floats(0.1, 12.0)),
       potential=st.sampled_from(["zero", "random"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_compose_profile_matches_the_per_cell_evaluation_bitwise(shape, potential, seed):
    n_theta, n_v, v_max = shape
    g = make_grid(n_theta, n_v, v_max)
    rng = np.random.default_rng(seed)
    f = DistributionField(g, rng.uniform(0.0, 1.0, (n_theta, n_v)))
    if potential == "zero":
        # every theta node ties: the energies repeat down each column
        phi = flat_potential(g)
    else:
        phi = Potential(g, rng.normal(0.0, 1.0, n_theta), np.zeros(n_theta))
    fsharp = pseudo_inverse(distribution_function(f, level_grid(f)))
    got = compose_profile(fsharp, g, phi).values
    assert got.tobytes() == _compose_per_cell(fsharp, g, phi).tobytes()


def test_equimeasurable_minimize_homogeneous_fixed_point():
    g = make_grid(48, 48, 6.0)
    f0 = maxwellian(g, TWO_PI)
    res = equimeasurable_minimize(f0)
    assert res.multipliers is None
    assert res.iterations == 1
    assert np.max(np.abs(res.potential.values)) <= 1e-12
    # the fixed point is the flat-potential rearrangement of f0 itself
    base = rearrange_with_energy(f0, flat_potential(g))
    assert np.array_equal(res.field.values, base.values)


def test_equimeasurable_minimize_preserves_the_orbit():
    g = make_grid(48, 48, 6.0)
    f0 = smooth_random_field(g, seed=64)
    res = equimeasurable_minimize(f0, damping=0.5, tol=1e-8, max_iter=5000)
    assert level_band_defect(f0, res.field) == 0.0
    assert hamiltonian(res.field) <= hamiltonian(f0) + 1e-8
    spec = entropy_spec()
    tol = 4.0 * g.cell_area * float(f0.values.max())
    assert abs(mass(res.field) - mass(f0)) <= 3.0 * tol
    c0 = casimir_integral(f0, spec)
    c1 = casimir_integral(res.field, spec)
    assert abs(c1 - c0) <= 0.05 * abs(c0) + tol
