"""Conserved functionals, distances, and the diagnostics plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmfp.casimir import entropy_spec, power_spec
from hmfp.functionals import (
    DiagnosticsRecord,
    casimir_integral,
    csiszar_kullback_gap,
    diagnostics,
    field_energy,
    free_energy_J,
    hamiltonian,
    kinetic_energy,
    mass,
    momentum,
    orbital_distance,
    potential_energy,
    read_diagnostics_csv,
    weighted_l1_distance,
    write_diagnostics_csv,
)
from hmfp.grid import DistributionField, make_grid
from hmfp.interaction import solve_potential

from conftest import maxwellian, smooth_random_field

TWO_PI = 2.0 * math.pi


def test_moments_of_maxwellian():
    g = make_grid(32, 512, 8.0)
    f = maxwellian(g, TWO_PI)
    assert mass(f) == pytest.approx(TWO_PI, rel=1e-10)
    assert momentum(f) == pytest.approx(0.0, abs=1e-12)
    # kinetic energy of a unit-variance Maxwellian is mass/2
    assert kinetic_energy(f) == pytest.approx(math.pi, rel=1e-9)


def test_homogeneous_field_has_zero_potential_energy():
    g = make_grid(64, 64, 6.0)
    f = maxwellian(g, TWO_PI)
    assert potential_energy(f) == pytest.approx(0.0, abs=1e-28)
    assert hamiltonian(f) == pytest.approx(kinetic_energy(f), rel=1e-14)


def test_hamiltonian_decomposition():
    g = make_grid(64, 64, 6.0)
    f = smooth_random_field(g, seed=9)
    phi = solve_potential(f)
    assert field_energy(phi) > 0.0
    assert hamiltonian(f) == pytest.approx(
        kinetic_energy(f) - field_energy(phi), rel=1e-14
    )


def test_potential_energy_is_field_norm():
    g = make_grid(128, 64, 6.0)
    f = smooth_random_field(g, seed=10)
    phi = solve_potential(f)
    direct = 0.5 * float(phi.derivative @ phi.derivative) * g.d_theta
    assert field_energy(phi) == pytest.approx(direct, rel=1e-13)


def test_casimir_integral_closed_form():
    g = make_grid(32, 256, 6.0)
    f = DistributionField(g, np.full((32, 256), 2.0))
    box = TWO_PI * 2.0 * 6.0
    assert casimir_integral(f, power_spec(2.0)) == pytest.approx(4.0 * box, rel=1e-12)
    expect = 2.0 * math.log(2.0) * box
    assert casimir_integral(f, entropy_spec()) == pytest.approx(expect, rel=1e-12)


def test_free_energy_is_hamiltonian_plus_casimir():
    g = make_grid(64, 64, 6.0)
    f = smooth_random_field(g, seed=12, floor=1e-9)
    spec = entropy_spec()
    assert free_energy_J(f, spec) == pytest.approx(
        hamiltonian(f) + casimir_integral(f, spec), rel=1e-12
    )


def test_orbital_distance_finds_translation():
    g = make_grid(64, 64, 6.0)
    f = smooth_random_field(g, seed=13)
    shifted = DistributionField(g, np.roll(f.values, 5, axis=0))
    d, shift = orbital_distance(shifted, f)
    assert d == pytest.approx(0.0, abs=1e-13)
    # rolling values forward by 5 cells is undone by the shift +5 d_theta
    assert shift == pytest.approx(5 * g.d_theta, rel=1e-14)


def test_orbital_distance_identical_fields():
    g = make_grid(32, 32, 6.0)
    f = smooth_random_field(g, seed=14)
    d, shift = orbital_distance(f, f)
    assert d == 0.0
    assert shift == 0.0


def _rolled_scan(f, g):
    """Reference: every cyclic shift through np.roll, first minimum wins."""
    w = 1.0 + f.grid.v ** 2
    dists = [float((np.abs(np.roll(f.values, -s, axis=0) - g.values) @ w).sum())
             * f.grid.cell_area for s in range(f.grid.n_theta)]
    s = int(np.argmin(dists))
    return dists[s], s * f.grid.d_theta


def test_orbital_distance_matches_rolled_scan_exactly():
    rng = np.random.default_rng(21)
    for n_theta, n_v, seed in [(32, 24, 30), (48, 32, 31), (64, 64, 32)]:
        g = make_grid(n_theta, n_v, 6.0)
        f = smooth_random_field(g, seed=seed)
        noisy = DistributionField(g, np.roll(f.values, seed, axis=0)
                                  * rng.uniform(0.9, 1.1, f.values.shape))
        other = smooth_random_field(g, seed=seed + 100)
        for a, b in [(noisy, f), (f, noisy), (other, f)]:
            assert orbital_distance(a, b) == _rolled_scan(a, b)
    # all rows equal: every shift ties, and the smallest shift wins
    g = make_grid(16, 16, 6.0)
    flat = DistributionField(g, np.tile(rng.uniform(0.0, 1.0, 16), (16, 1)))
    other = DistributionField(g, np.tile(rng.uniform(0.0, 1.0, 16), (16, 1)))
    d, shift = orbital_distance(flat, other)
    assert (d, shift) == _rolled_scan(flat, other)
    assert shift == 0.0 and d > 0.0
    # subnormal cells: products with the weights round with an absolute
    # error, which a slack relative to the row masses alone does not cover
    g = make_grid(8, 8, 20.0)
    a, b = np.zeros((2, 8, 8))
    a[0, 2], a[5, 0], b[2, 0], b[7, 0] = np.array([3, 2, 4, 4]) * 5e-324
    a, b = DistributionField(g, a), DistributionField(g, b)
    assert orbital_distance(a, b) == _rolled_scan(a, b)


@st.composite
def shift_pairs(draw):
    """Two fields on one 8-40 cell grid, in a case that stresses the pruning.

    random: independent fields, some cells zero.
    near_tie: f is g rolled, with 1-ulp noise, and g repeats with a period
        that divides n_theta, so several shifts are within ulps of the best.
    mirrored_rows: every row of f (of g) is one base row with a random set
        of mirror pairs v <-> -v swapped; the weights 1 + v**2 are mirror
        symmetric, so the row masses and with them all bounds are equal up
        to rounding, and nothing can be pruned.
    equal_rows: every row of f (of g) is the same, so every shift ties.
    zero: f, g or both vanish.
    subnormal: a few cells at the smallest subnormal; on a narrow velocity
        box every distance underflows to 0, so every shift ties at 0 while
        the bounds still differ.
    All but subnormal are scaled by 1, 1e-300 or 1e300.
    """
    n_theta = draw(st.integers(8, 40))
    n_v = draw(st.integers(8, 40))
    grid = make_grid(n_theta, n_v, draw(st.sampled_from([1e-3, 1.0, 6.0, 20.0])))
    kind = draw(st.sampled_from(["random", "near_tie", "mirrored_rows",
                                 "equal_rows", "zero", "subnormal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (n_theta, n_v)
    if kind == "random":
        a = rng.uniform(0.0, 1.0, shape) * (rng.uniform(size=shape) > 0.2)
        b = rng.uniform(0.0, 1.0, shape) * (rng.uniform(size=shape) > 0.2)
    elif kind == "near_tie":
        period = draw(st.sampled_from([p for p in range(1, n_theta + 1)
                                       if n_theta % p == 0]))
        b = np.tile(rng.uniform(0.0, 1.0, (period, n_v)), (n_theta // period, 1))
        a = np.roll(b, draw(st.integers(0, n_theta - 1)), axis=0)
        nudge = rng.uniform(size=shape) < 0.5
        a[nudge] = np.nextafter(a[nudge], 2.0)
    elif kind == "mirrored_rows":
        def mirrored(base):
            swap = rng.uniform(size=shape) < 0.5
            swap |= swap[:, ::-1]
            rows = np.tile(base, (n_theta, 1))
            return np.where(swap, rows[:, ::-1], rows)
        a = mirrored(rng.uniform(0.0, 1.0, n_v))
        b = mirrored(rng.uniform(0.0, 1.0, n_v))
    elif kind == "equal_rows":
        a = np.tile(rng.uniform(0.0, 1.0, n_v), (n_theta, 1))
        b = np.tile(rng.uniform(0.0, 1.0, n_v), (n_theta, 1))
    elif kind == "zero":
        a, b = rng.uniform(0.0, 1.0, (2,) + shape)
        a, b = draw(st.sampled_from([(a, 0 * b), (0 * a, b), (0 * a, 0 * b)]))
    else:
        a, b = (rng.uniform(size=(2,) + shape) < 0.05) * 5e-324
    if kind != "subnormal":
        scale = draw(st.sampled_from([1.0, 1e-300, 1e300]))
        a, b = a * scale, b * scale
    return DistributionField(grid, a), DistributionField(grid, b)


@settings(max_examples=300, deadline=None)
@given(pair=shift_pairs())
def test_pruned_orbital_distance_equals_the_full_scan(pair):
    f, g = pair
    assert orbital_distance(f, g) == _rolled_scan(f, g)


def test_orbital_distance_upper_bounded_by_unshifted():
    g = make_grid(32, 32, 6.0)
    f = smooth_random_field(g, seed=15)
    h = smooth_random_field(g, seed=16)
    d, _ = orbital_distance(f, h)
    assert d <= weighted_l1_distance(f, h) + 1e-15


def test_csiszar_kullback_on_equal_fields():
    g = make_grid(32, 32, 6.0)
    f = smooth_random_field(g, seed=17, floor=1e-6)
    lhs, rhs = csiszar_kullback_gap(f, f)
    assert lhs == 0.0
    assert abs(rhs) <= 1e-15


def test_csiszar_kullback_inequality_on_random_pairs():
    g = make_grid(32, 32, 6.0)
    for seed in range(5):
        f = smooth_random_field(g, seed=100 + seed, floor=1e-6)
        h = smooth_random_field(g, seed=200 + seed, floor=1e-6)
        h = DistributionField(g, h.values * (mass(f) / mass(h)))
        lhs, rhs = csiszar_kullback_gap(h, f)
        assert lhs <= rhs + 1e-12
        assert rhs >= -1e-12


def test_csiszar_kullback_requires_matched_mass():
    g = make_grid(32, 32, 6.0)
    f = smooth_random_field(g, seed=18, floor=1e-6)
    h = DistributionField(g, 2.0 * f.values)
    with pytest.raises(ValueError):
        csiszar_kullback_gap(h, f)


def test_diagnostics_record_fields():
    g = make_grid(64, 64, 6.0)
    f = smooth_random_field(g, seed=19)
    rec = diagnostics(f, entropy_spec(), time=2.5)
    assert rec.time == 2.5
    assert rec.mass == pytest.approx(mass(f), rel=1e-14)
    assert rec.momentum == pytest.approx(momentum(f), rel=1e-12)
    assert rec.hamiltonian == pytest.approx(rec.kinetic - rec.potential_energy)
    assert rec.l_infinity == f.values.max()


def test_diagnostics_csv_round_trip(tmp_path):
    g = make_grid(32, 32, 6.0)
    spec = entropy_spec()
    recs = [
        diagnostics(smooth_random_field(g, seed=s), spec, time=0.5 * s)
        for s in range(4)
    ]
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(recs, path)
    back = read_diagnostics_csv(path)
    assert back == recs
    header = path.read_text().splitlines()[0]
    assert header == DiagnosticsRecord.CSV_HEADER


def test_diagnostics_csv_rows_are_to_csv_lines_and_read_back_bitwise(tmp_path):
    # magnitudes across the whole float range, both zeros, the smallest
    # subnormal and the largest float
    rng = np.random.default_rng(7)
    names = DiagnosticsRecord.CSV_HEADER.split(",")
    shape = (100, len(names))
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 300, shape)
    values[:4, 0] = [0.0, -0.0, 5e-324, np.finfo(float).max]
    recs = [DiagnosticsRecord(*map(float, row)) for row in values]
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(recs, path)
    text = path.read_text()
    assert text == "".join(line + "\n" for line in
                           [DiagnosticsRecord.CSV_HEADER]
                           + [rec.to_csv() for rec in recs])
    # the bytes np.savetxt wrote before to_csv became the one formatter
    legacy = tmp_path / "legacy.csv"
    np.savetxt(legacy, values, fmt="%.17g", delimiter=",",
               header=DiagnosticsRecord.CSV_HEADER, comments="")
    assert text == legacy.read_text()
    back = np.array([[getattr(rec, name) for name in names]
                     for rec in read_diagnostics_csv(path)])
    assert back.tobytes() == values.tobytes()


def test_diagnostics_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_diagnostics_csv(path)
