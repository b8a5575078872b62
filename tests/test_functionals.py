"""Conserved functionals, distances, and the diagnostics plumbing."""

import math

import numpy as np
import pytest

from hmfp.casimir import entropy_spec, power_spec
from hmfp.functionals import (
    DiagnosticsRecord,
    casimir_integral,
    csiszar_kullback_gap,
    diagnostics,
    free_energy_J,
    hamiltonian,
    kinetic_energy,
    mass,
    momentum,
    orbital_distance,
    potential_energy,
    read_diagnostics_csv,
    write_diagnostics_csv,
)
from hmfp.grid import DistributionField, make_grid, weighted_l1_distance
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
    assert potential_energy(f, phi) > 0.0
    assert hamiltonian(f, phi) == pytest.approx(
        kinetic_energy(f) - potential_energy(f, phi), rel=1e-14
    )
    # passing the precomputed potential changes nothing
    assert hamiltonian(f) == pytest.approx(hamiltonian(f, phi), rel=1e-14)


def test_potential_energy_is_field_norm():
    g = make_grid(128, 64, 6.0)
    f = smooth_random_field(g, seed=10)
    phi = solve_potential(f)
    direct = 0.5 * float(phi.derivative @ phi.derivative) * g.d_theta
    assert potential_energy(f, phi) == pytest.approx(direct, rel=1e-13)


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


def test_diagnostics_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_diagnostics_csv(path)
