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
    _level_bands,
    compose_profile,
    convex_B,
    distribution_function,
    equimeasurability_defect,
    equimeasurable_minimize,
    four_cell_ladder,
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


@example(n_theta=64, height=0.7, seed=0, targets=[80.0])
@settings(max_examples=100, deadline=None)
@given(n_theta=st.integers(8, 300), height=st.floats(1e-3, 1e2),
       seed=st.integers(0, 2 ** 32 - 1),
       targets=st.lists(st.floats(0.0, 1e4), max_size=50))
def test_inverse_measure_matches_the_bisection_loop_bitwise(n_theta, height, seed,
                                                            targets):
    # reference: the 90-step loop on the bracket s**2/(32 pi**2) + [min phi,
    # max phi], written out; the inverse bisects its own form of that
    # bracket, whose ends may differ in their last bits
    rng = np.random.default_rng(seed)
    g = make_grid(n_theta, 8, 6.0)
    phi = Potential(g, height * rng.uniform(-1.0, 1.0, n_theta), np.zeros(n_theta))
    s = np.array([0.0] + targets)
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
    with pytest.raises(ValueError, match="mu must be nonnegative"):
        convex_B(phi, -1.0)


@pytest.mark.parametrize("s", [-5.0, math.nan, [1.0, -1.0], [math.nan, 2.0]],
                         ids=["negative", "nan", "negative-entry", "nan-entry"])
def test_inverse_measure_rejects_a_negative_or_nan_target(s):
    # a negative target once came back as an energy whose measure is positive
    phi = cosine_potential(make_grid(16, 16, 6.0), a=0.3)
    with pytest.raises(ValueError, match="nonnegative"):
        inverse_sublevel_measure(phi, s)
    if np.ndim(s) == 0:
        with pytest.raises(ValueError):
            convex_B(phi, s)


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
    out = rearrange_with_energy(f, flat_potential(g), level_grid(f))
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
        out = rearrange_with_energy(f, phi, four_cell_ladder(f))
        assert abs(mass(out) - mass(f)) <= tol
        # the default coarser ladder stays within a few bounds of it
        loose = rearrange_with_energy(f, phi, level_grid(f))
        assert abs(mass(loose) - mass(f)) <= 3.0 * tol


def test_rearrangement_is_equimeasurable_up_to_one_cell_band():
    g = make_grid(64, 64, 6.0)
    f = smooth_random_field(g, seed=52)
    for phi in (flat_potential(g), solve_potential(f)):
        out = rearrange_with_energy(f, phi, level_grid(f))
        assert level_band_defect(f, out, level_grid(f)) == 0.0


def test_rearrangement_idempotent_at_fixed_potential():
    g = make_grid(64, 64, 6.0)
    f = smooth_random_field(g, seed=53)
    phi = solve_potential(f)
    once = rearrange_with_energy(f, phi, level_grid(f))
    twice = rearrange_with_energy(once, phi, level_grid(once))
    assert level_band_defect(once, twice, level_grid(once)) == 0.0
    # the second pass only requantizes the ladder
    gap = float(np.max(np.abs(twice.values - once.values)))
    assert gap <= 6.0 * float(np.max(np.diff(level_grid(once))))


def test_level_band_defect_discriminates():
    g = make_grid(64, 64, 6.0)
    f = smooth_random_field(g, seed=54)
    same = level_band_defect(f, f, level_grid(f))
    assert same == 0.0
    scaled = DistributionField(g, 1.1 * f.values)
    assert level_band_defect(f, scaled, level_grid(f)) > 4.0 * g.cell_area


def test_raw_defect_zero_against_itself():
    g = make_grid(32, 32, 6.0)
    f = smooth_random_field(g, seed=55)
    assert equimeasurability_defect(f, f, level_grid(f)) == 0.0
    # as for level_band_defect with no level left to compare
    assert equimeasurability_defect(f, f, []) == 0.0


@pytest.mark.parametrize("seed", [205, 215, 218])
def test_band_defect_of_a_flat_rearrangement_is_zero(seed):
    # criterion 3's 64^2 fields with the zero potential, where a float
    # round trip through the measure once read two cells
    g = make_grid(64, 64, 6.0)
    f = smooth_random_field(g, seed)
    ladder = four_cell_ladder(f)
    out = rearrange_with_energy(f, flat_potential(g), ladder)
    assert level_band_defect(f, out, ladder) == 0.0


def _band_defect_by_definition(f, g, levels):
    """level_band_defect's docstring, one level and one cell at a time."""
    grid = f.grid
    f_cells = [float(x) for x in f.values.ravel()]
    g_cells = [float(x) for x in g.values.ravel()]
    edge = [float(row[0]) for row in f.values] + [float(row[-1]) for row in f.values]
    edge += [float(row[0]) for row in g.values] + [float(row[-1]) for row in g.values]
    floor = max(max(edge), 0.0)
    ranked = sorted(f_cells, reverse=True)

    def above(cells, s):
        return sum(1 for x in cells if x > s)

    def kth_largest(k):
        return ranked[k] if k < len(ranked) else 0.0

    worst = 0
    for s in levels:
        if not s > floor:
            continue
        count_f, count_g = above(f_cells, s), above(g_cells, s)
        hi = max(kth_largest(max(count_f - grid.n_theta, 0)), s)
        lo = min(kth_largest(count_f + grid.n_theta), s)
        worst = max(worst, count_g - above(f_cells, lo), above(f_cells, hi) - count_g)
    return worst * grid.cell_area


def _ragged_pair(n_theta, n_v, v_max, seed, kind):
    """A field of few distinct values, so levels and counts tie, with empty
    edge rows, and a partner field: its rearrangement, f with n_theta
    interior cells rescaled, or an unrelated field of the same kind."""
    rng = np.random.default_rng(seed)
    grid = make_grid(n_theta, n_v, v_max)

    def ragged():
        values = rng.integers(0, 5, (n_theta, n_v)) * rng.uniform(0.1, 3.0)
        values[:, [0, -1]] = 0.0
        return DistributionField(grid, values)

    f = ragged()
    if kind == "rearranged":
        g = rearrange_with_energy(f, solve_potential(f), four_cell_ladder(f))
    elif kind == "perturbed":
        values = f.values.copy()
        rows = rng.integers(0, n_theta, n_theta)
        cols = rng.integers(1, n_v - 1, n_theta)
        values[rows, cols] *= rng.uniform(0.0, 2.0, n_theta)
        g = DistributionField(grid, values)
    else:
        g = ragged()
    return f, g


PAIR_DRAWS = dict(n_theta=st.integers(8, 12), n_v=st.integers(8, 12),
                  v_max=st.floats(0.5, 8.0), seed=st.integers(0, 2 ** 32 - 1),
                  kind=st.sampled_from(["rearranged", "perturbed", "unrelated"]))


# a float floor of the band depth once read 3 cells for a true 0 and 16
# for a true 23 on these two pairs
@example(n_theta=8, n_v=8, v_max=6.0, seed=128, kind="rearranged", extra=[])
@example(n_theta=8, n_v=8, v_max=6.0, seed=141, kind="unrelated", extra=[])
@settings(max_examples=100, deadline=None)
@given(**PAIR_DRAWS, extra=st.lists(st.floats(0.0, 10.0), max_size=8))
def test_level_band_defect_matches_its_definition_bitwise(n_theta, n_v, v_max,
                                                          seed, kind, extra):
    f, g = _ragged_pair(n_theta, n_v, v_max, seed, kind)
    levels = np.concatenate((four_cell_ladder(f), extra))
    want = _band_defect_by_definition(f, g, levels)
    got = level_band_defect(f, g, levels)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=100, deadline=None)
@given(**PAIR_DRAWS)
def test_both_defects_are_whole_numbers_of_cells(n_theta, n_v, v_max, seed, kind):
    f, g = _ragged_pair(n_theta, n_v, v_max, seed, kind)
    levels = four_cell_ladder(f)
    area = f.grid.cell_area
    for defect in (level_band_defect(f, g, levels),
                   equimeasurability_defect(f, g, levels)):
        assert defect == round(defect / area) * area


def test_equimeasurability_defect_rejects_fields_on_two_grids():
    f = smooth_random_field(make_grid(16, 16, 6.0), seed=56)
    g = smooth_random_field(make_grid(16, 16, 5.0), seed=56)
    with pytest.raises(ValueError, match="different grids"):
        equimeasurability_defect(f, g, level_grid(f))


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


@pytest.mark.parametrize("potential", [flat_potential, cosine_potential])
def test_pairing_identity_when_the_profile_outreaches_the_box(potential):
    # a field's f#, its measures stretched until the last breakpoint lies
    # past the measure of every cell of the velocity box, so the level
    # bands need no closing band
    g = make_grid(32, 32, 6.0)
    phi = potential(g)
    a_top = sublevel_measure_a(phi, float(phi.values.max()) + 0.5 * g.v_max ** 2 + 1.0)
    f = smooth_random_field(g, seed=65)
    base = pseudo_inverse(distribution_function(f, level_grid(f)))
    fsharp = MonotoneProfile(base.breakpoints * (1.5 * a_top / base.breakpoints[-1]),
                             base.values)
    x, _ = _level_bands(fsharp, phi)
    assert x.tobytes() == fsharp.breakpoints.tobytes()
    lhs = rearranged_energy_integral(fsharp, phi)
    rhs = profile_pairing_integral(fsharp, phi)
    assert lhs == pytest.approx(rhs, rel=1e-15)


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
    out = rearrange_with_energy(f, phi, level_grid(f))
    assert microscopic_energy_pairing(out, phi) <= microscopic_energy_pairing(
        f, phi
    ) + 1e-10


def test_compose_profile_indicator():
    g = make_grid(32, 128, 6.0)
    phi = flat_potential(g)
    area_cut = 8.0
    fsharp = MonotoneProfile(np.array([0.0, area_cut]), np.array([1.0, 0.0]))
    out = compose_profile(fsharp, phi)
    # indicator of a(e) < area_cut, i.e. |v| < area_cut/(4 pi)
    v_cut = area_cut / (2.0 * TWO_PI)
    expect = (np.abs(g.v) < v_cut).astype(float)
    expect = np.broadcast_to(expect, (32, 128))
    mismatch = np.count_nonzero(out.values != expect)
    # the cells straddling the cut may fall either way
    assert mismatch <= 2 * g.n_theta


def _compose_per_cell(fsharp, grid, phi):
    """compose_profile evaluated at every cell, 2**20 // n_theta cells at a
    time: the bitwise reference for its bracketed evaluation."""
    e = (0.5 * grid.v[np.newaxis, :] ** 2 + phi.values[:, np.newaxis]).ravel()
    out = np.empty_like(e)
    chunk = 2 ** 20 // grid.n_theta
    for start in range(0, e.size, chunk):
        out[start : start + chunk] = fsharp.evaluate(
            sublevel_measure_a(phi, e[start : start + chunk]))
    return out.reshape(grid.n_theta, grid.n_v)


LADDERS = {"default": level_grid, "four-cell": four_cell_ladder}


@pytest.mark.parametrize("n_v, v_max, distinct", [(8, 0.7, 5), (16, 7.3, 14)])
def test_kinetic_energy_is_not_mirror_symmetric_on_every_grid(n_v, v_max, distinct):
    # why compose_profile takes np.unique of v**2/2 instead of mirroring
    # half the velocity columns
    kinetic = 0.5 * make_grid(8, n_v, v_max).v ** 2
    assert np.unique(kinetic).size == distinct
    assert kinetic.tobytes() != kinetic[::-1].tobytes()


@example(shape=(70, 128, 6.0), potential="random", ladder="four-cell", seed=1)
@example(shape=(8, 8, 0.7), potential="zero", ladder="default", seed=2)
@example(shape=(16, 16, 7.3), potential="random", ladder="four-cell", seed=3)
@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([(8, 8, 0.7), (16, 16, 7.3)])
       | st.tuples(st.integers(8, 80), st.integers(8, 140), st.floats(0.1, 12.0)),
       potential=st.sampled_from(["zero", "random"]),
       ladder=st.sampled_from(sorted(LADDERS)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_compose_profile_matches_the_per_cell_evaluation_bitwise(shape, potential,
                                                                  ladder, seed):
    n_theta, n_v, v_max = shape
    g = make_grid(n_theta, n_v, v_max)
    rng = np.random.default_rng(seed)
    f = DistributionField(g, rng.uniform(0.0, 1.0, (n_theta, n_v)))
    if potential == "zero":
        # every theta node ties: the energies repeat down each column
        phi = flat_potential(g)
    else:
        phi = Potential(g, rng.normal(0.0, 1.0, n_theta), np.zeros(n_theta))
    fsharp = pseudo_inverse(distribution_function(f, LADDERS[ladder](f)))
    got = compose_profile(fsharp, phi).values
    assert got.tobytes() == _compose_per_cell(fsharp, g, phi).tobytes()


@pytest.mark.parametrize("ladder", sorted(LADDERS))
def test_compose_profile_matches_the_per_cell_evaluation_bitwise_at_512(ladder):
    # 512^2 spans several evaluation chunks and deep bisection rounds; under
    # the zero potential every theta node ties
    g = make_grid(512, 512, 6.0)
    f = DistributionField(g, (1.0 + 0.3 * np.cos(g.theta))[:, np.newaxis]
                          * np.exp(-0.5 * g.v ** 2)[np.newaxis, :])
    fsharp = pseudo_inverse(distribution_function(f, LADDERS[ladder](f)))
    for phi in (solve_potential(f), flat_potential(g)):
        got = compose_profile(fsharp, phi).values
        assert got.tobytes() == _compose_per_cell(fsharp, g, phi).tobytes()


def test_compose_profile_temporaries_stay_below_a_million_floats(monkeypatch):
    """Each sublevel-measure call takes at most 2**20 // n_theta energies,
    so its (energies x n_theta) temporaries hold at most 2**20 floats; and
    the brackets evaluate each energy at most once, a small share of them."""
    g = make_grid(512, 64, 6.0)
    # a cosine shifted off the grid's mirror symmetry, so that no two
    # energies tie and each evaluated value names one energy
    phase = g.theta + 0.3
    phi = Potential(g, 0.5 * np.cos(phase), -0.5 * np.sin(phase))
    f = maxwellian(g, TWO_PI)
    fsharp = pseudo_inverse(distribution_function(f, level_grid(f)))
    evaluated = []

    def recording(p, e):
        evaluated.append(np.array(e))
        return sublevel_measure_a(p, e)

    monkeypatch.setattr("hmfp.rearrange.sublevel_measure_a", recording)
    compose_profile(fsharp, phi)
    energies = (np.unique(0.5 * g.v ** 2)[np.newaxis, :]
                + phi.values[:, np.newaxis]).ravel()
    assert np.unique(energies).size == energies.size
    got = np.concatenate(evaluated)
    # every evaluated value is an energy of the grid, and none comes twice
    assert np.isin(got, energies).all()
    assert np.unique(got).size == got.size
    assert got.size < energies.size / 10
    assert max(e.size for e in evaluated) <= 2 ** 20 // g.n_theta


def test_equimeasurable_minimize_homogeneous_fixed_point():
    g = make_grid(48, 48, 6.0)
    f0 = maxwellian(g, TWO_PI)
    res = equimeasurable_minimize(f0)
    assert res.multipliers is None
    assert res.iterations == 1
    assert np.max(np.abs(res.potential.values)) <= 1e-12
    # the fixed point is the flat-potential rearrangement of f0 itself
    base = rearrange_with_energy(f0, flat_potential(g), level_grid(f0))
    assert np.array_equal(res.field.values, base.values)


def test_equimeasurable_minimize_preserves_the_orbit():
    g = make_grid(48, 48, 6.0)
    f0 = smooth_random_field(g, seed=64)
    res = equimeasurable_minimize(f0, damping=0.5, tol=1e-8, max_iter=5000)
    assert level_band_defect(f0, res.field, level_grid(f0)) == 0.0
    assert hamiltonian(res.field) <= hamiltonian(f0) + 1e-8
    spec = entropy_spec()
    tol = 4.0 * g.cell_area * float(f0.values.max())
    assert abs(mass(res.field) - mass(f0)) <= 3.0 * tol
    c0 = casimir_integral(f0, spec)
    c1 = casimir_integral(res.field, spec)
    assert abs(c1 - c0) <= 0.05 * abs(c0) + tol
