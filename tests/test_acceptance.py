"""Acceptance gate: ten numbered criteria, one verdict line each.

Each verdict line, with its measured values, is printed in pytest's
terminal summary after every run that reaches it (see tests/conftest.py).
"""

import math
import time

import numpy as np
import pytest

from hmfp.casimir import entropy_spec, power_spec
from hmfp.functionals import (
    csiszar_kullback_gap,
    diagnostics,
    hamiltonian,
    mass,
    orbital_distance,
    weighted_l1_distance,
)
from hmfp.grid import (
    DistributionField,
    Potential,
    field_from_function,
    make_grid,
)
from hmfp.interaction import solve_potential
from hmfp.rearrange import (
    convex_B,
    distribution_function,
    equimeasurability_defect,
    four_cell_ladder,
    inverse_sublevel_measure,
    level_band_defect,
    level_grid,
    profile_pairing_integral,
    pseudo_inverse,
    rearrange_with_energy,
    rearranged_energy_integral,
)
from hmfp.solver import SolverConfig, evolve
from hmfp.steady import (
    ConstraintSet,
    auxiliary_energy_two,
    build_F_phi,
    profile_moments,
    renormalize_to_constraints,
    self_consistent_solve,
    solve_state_multipliers,
)

from conftest import VERDICTS, smooth_random_field

POWER2_M1 = 4.0 * math.pi * math.sqrt(2.0) / 3.0
POWER2_MJ = 8.0 * math.pi * math.sqrt(2.0) / 15.0
ENTROPY_FLAT_MASS = 2.0 * math.pi * math.sqrt(2.0 * math.pi)


def verdict(num, label, ok, detail):
    VERDICTS.append("criterion %02d %s: %s  [%s]"
                    % (num, label, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s) failed: %s" % (num, label, detail)


def zero_potential(grid):
    z = np.zeros(grid.n_theta)
    return Potential(grid, z, z)


def test_criterion_01_closed_form_multipliers():
    t0 = time.monotonic()
    g = make_grid(64, 64, 6.0)
    zero = zero_potential(g)
    res_p = self_consistent_solve(power_spec(2.0),
                                  ConstraintSet(m1=POWER2_M1, mj=POWER2_MJ), zero)
    err_lam = abs(res_p.multipliers.lam - 1.0)
    err_mu = abs(res_p.multipliers.mu + 1.0)
    res_e = self_consistent_solve(entropy_spec(),
                                  ConstraintSet(m1=ENTROPY_FLAT_MASS), zero)
    err_lam_e = abs(res_e.multipliers.lam)
    elapsed = time.monotonic() - t0
    ok = err_lam <= 1e-7 and err_mu <= 1e-7 and err_lam_e <= 1e-9 and elapsed < 1.0
    verdict(1, "closed-form multipliers", ok,
            "power2 |lam-1|=%.2e |mu+1|=%.2e, entropy |lam|=%.2e, %.2fs"
            % (err_lam, err_mu, err_lam_e, elapsed))


def test_criterion_02_monotone_chain_and_norm_identity():
    t0 = time.monotonic()
    spec = power_spec(2.0)
    cons = ConstraintSet(m1=POWER2_M1, mj=POWER2_MJ)
    g = make_grid(128, 128, 6.0)
    min_lower, min_upper, worst_ident = np.inf, np.inf, 0.0
    for seed in range(20):
        f = renormalize_to_constraints(smooth_random_field(g, 100 + seed), spec, cons)
        phi = solve_potential(f)
        mult = solve_state_multipliers(phi, spec, cons)
        F = build_F_phi(phi, spec, mult)
        j_phi = auxiliary_energy_two(phi, spec, mult)
        min_lower = min(min_lower, j_phi - hamiltonian(F))
        min_upper = min(min_upper, hamiltonian(f) - j_phi)
        dphi_F = solve_potential(F).derivative
        half = 0.5 * float((dphi_F - phi.derivative)
                           @ (dphi_F - phi.derivative)) * g.d_theta
        worst_ident = max(worst_ident, abs(j_phi - hamiltonian(F) - half))
    elapsed = time.monotonic() - t0
    ok = (min_lower >= -1e-8 and min_upper >= -1e-8
          and worst_ident <= 1e-8 and elapsed < 30.0)
    verdict(2, "monotone chain", ok,
            "min gaps %.2e / %.2e, identity dev %.2e, %.1fs"
            % (min_lower, min_upper, worst_ident, elapsed))


def test_criterion_03_equimeasurability_with_refinement():
    t0 = time.monotonic()
    g = make_grid(64, 64, 6.0)
    bound = 4.0 * g.d_theta * g.d_v
    worst_band = 0.0
    for seed in range(20):
        f = smooth_random_field(g, 200 + seed)
        ladder = four_cell_ladder(f)
        for phi in (zero_potential(g), solve_potential(f)):
            out = rearrange_with_energy(f, phi, ladder)
            band = level_band_defect(f, out, ladder)
            worst_band = max(worst_band, band)
    # one refinement: the banded defect must obey the halved coarse bound
    g2 = make_grid(128, 128, 6.0)
    worst_fine = 0.0
    for seed in (201, 205, 213, 207, 211):
        f = smooth_random_field(g2, seed)
        ladder = four_cell_ladder(f)
        for phi in (zero_potential(g2), solve_potential(f)):
            out = rearrange_with_energy(f, phi, ladder)
            worst_fine = max(worst_fine, level_band_defect(f, out, ladder))
    # supporting check: the raw sup-level defect for the flat potential
    # tracks the v spacing exactly, so it halves under refinement
    raw_ratio = 0.0
    for seed in (201, 205, 213):
        raws = []
        for n in (64, 128):
            gg = make_grid(n, n, 6.0)
            ff = smooth_random_field(gg, seed)
            ladder = four_cell_ladder(ff)
            out = rearrange_with_energy(ff, zero_potential(gg), ladder)
            raws.append(equimeasurability_defect(ff, out, ladder))
        raw_ratio = max(raw_ratio, raws[1] / raws[0])
    elapsed = time.monotonic() - t0
    ok = (worst_band <= bound and worst_fine <= 0.5 * bound
          and raw_ratio <= 0.6 and elapsed < 60.0)
    verdict(3, "equimeasurability", ok,
            "band defect %.2e <= %.2e, refined %.2e <= %.2e, raw ratio %.3f, %.1fs"
            % (worst_band, bound, worst_fine, 0.5 * bound, raw_ratio, elapsed))


def test_criterion_04_pairing_identity():
    worst = 0.0
    g = make_grid(48, 48, 6.0)
    for seed in range(60, 65):
        f = smooth_random_field(g, seed)
        for phi in (zero_potential(g), solve_potential(f)):
            fsharp = pseudo_inverse(distribution_function(f, level_grid(f)))
            lhs = rearranged_energy_integral(fsharp, phi)
            rhs = profile_pairing_integral(fsharp, phi)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst <= 1e-6
    verdict(4, "pairing identity", ok, "worst relative deviation %.2e" % worst)


def test_criterion_05_inverse_measure_bracket():
    g = make_grid(64, 64, 6.0)
    rng = np.random.default_rng(5)
    min_lo, min_hi = np.inf, np.inf
    for seed in (500, 501, 502):
        f = smooth_random_field(g, seed)
        phi = solve_potential(f)
        s = rng.uniform(0.0, 40.0, size=100)
        inv = inverse_sublevel_measure(phi, s)
        parab = s * s / (32.0 * math.pi ** 2)
        min_lo = min(min_lo, float((inv - parab - phi.values.min()).min()))
        min_hi = min(min_hi, float((parab + phi.values.max() - inv).min()))
    flat = zero_potential(g)
    b_err = max(abs(convex_B(flat, mu) - mu ** 3 / (96.0 * math.pi ** 2))
                for mu in (0.5, 1.0, 3.0, 10.0))
    ok = min_lo >= -1e-10 and min_hi >= -1e-10 and b_err <= 1e-10 and convex_B(flat, 0.0) == 0.0
    verdict(5, "inverse measure bracket", ok,
            "margins %.2e / %.2e, flat B error %.2e" % (min_lo, min_hi, b_err))


def test_criterion_06_conservation_under_flow():
    t0 = time.monotonic()
    g = make_grid(256, 256, 6.0)
    hom = field_from_function(g, lambda th, v: np.exp(-0.5 * v * v) * np.ones_like(th))
    recs = []
    evolve(hom, SolverConfig(dt=0.05, t_end=10.0, record_every=10),
           observer=lambda t, fld: recs.append(diagnostics(fld, entropy_spec(), t)))
    m_drift = max(abs(r.mass - recs[0].mass) for r in recs)
    h_drift = max(abs(r.hamiltonian - recs[0].hamiltonian) for r in recs) / abs(recs[0].hamiltonian)
    c_drift = max(abs(r.casimir - recs[0].casimir) for r in recs) / abs(recs[0].casimir)
    elapsed = time.monotonic() - t0
    ok = m_drift <= 1e-12 and h_drift <= 1e-6 and c_drift <= 1e-3 and elapsed < 300.0
    verdict(6, "conservation under flow", ok,
            "mass %.2e, energy %.2e, casimir %.2e, %.1fs"
            % (m_drift, h_drift, c_drift, elapsed))


def test_criterion_07_orbital_stability():
    t0 = time.monotonic()
    g = make_grid(128, 128, 6.0)
    spec = entropy_spec()
    f0 = self_consistent_solve(spec, ConstraintSet(m1=math.pi), zero_potential(g)).field
    sups = {}
    for eta in (1e-3, 2e-3):
        factor = 1.0 + eta * np.cos(g.theta)
        pert = DistributionField(g, f0.values * factor[:, None])
        ds = []
        evolve(pert, SolverConfig(dt=0.05, t_end=10.0, record_every=10),
               observer=lambda t, fld: ds.append(orbital_distance(fld, f0)[0]))
        sups[eta] = max(ds)
    ratio = sups[2e-3] / sups[1e-3]
    elapsed = time.monotonic() - t0
    ok = (sups[1e-3] <= 20.0 * 1e-3 and sups[2e-3] <= 20.0 * 2e-3
          and 0.5 <= ratio <= 4.0 and elapsed < 600.0)
    verdict(7, "orbital stability", ok,
            "sup/eta %.2f and %.2f, doubling ratio %.3f, %.1fs"
            % (sups[1e-3] / 1e-3, sups[2e-3] / 2e-3, ratio, elapsed))


def test_criterion_08_euler_lagrange_residual():
    g = make_grid(128, 128, 6.0)
    zero = zero_potential(g)
    well = Potential(g, -0.5 * np.cos(g.theta), 0.5 * np.sin(g.theta))
    shallow = Potential(g, -0.2 * np.cos(g.theta), 0.2 * np.sin(g.theta))
    cases = [
        (entropy_spec(), ConstraintSet(m1=4.0 * math.pi), well),
        (entropy_spec(), ConstraintSet(m1=math.pi), zero),
        (power_spec(2.0), ConstraintSet(m1=POWER2_M1, mj=POWER2_MJ), zero),
        (power_spec(2.0), ConstraintSet(m1=POWER2_M1, mj=POWER2_MJ), shallow),
    ]
    worst_el, worst_mu = 0.0, 0.0
    for spec, cons, seed in cases:
        res = self_consistent_solve(spec, cons, seed, tol=1e-10, max_iter=20000)
        phi_f = solve_potential(res.field)
        mult = solve_state_multipliers(phi_f, spec, cons)
        F = build_F_phi(phi_f, spec, mult)
        worst_el = max(worst_el, float(np.max(np.abs(res.field.values - F.values))))
        if res.multipliers.mu is not None:
            mom = profile_moments(phi_f, spec, mult)
            mu_pred = -mom.kinetic_moment / (mom.inner_product - mom.casimir)
            worst_mu = max(worst_mu,
                           abs(mu_pred - res.multipliers.mu) / abs(res.multipliers.mu))
    ok = worst_el <= 1e-8 and worst_mu <= 1e-6
    verdict(8, "euler-lagrange residual", ok,
            "sup |f - F| %.2e, mu identity %.2e" % (worst_el, worst_mu))


def test_criterion_09_splitting_order():
    g = make_grid(128, 128, 6.0)
    f0 = field_from_function(
        g, lambda th, v: np.exp(-0.5 * v * v) * (1.0 + 0.5 * np.cos(th)))
    dts = (0.2, 0.1, 0.05)
    ref = evolve(f0, SolverConfig(dt=dts[-1] / 8.0, t_end=1.0,
                                  interpolation="cubic")).field
    errs = [weighted_l1_distance(
        evolve(f0, SolverConfig(dt=dt, t_end=1.0, interpolation="cubic")).field, ref)
        for dt in dts]
    design = np.vstack([np.log(dts), np.ones(len(dts))]).T
    slope = float(np.linalg.lstsq(design, np.log(errs), rcond=None)[0][0])
    ok = slope >= 1.8
    verdict(9, "splitting order", ok,
            "errors %s, fitted order %.3f" % (["%.2e" % e for e in errs], slope))


def test_criterion_10_csiszar_kullback_and_jensen():
    g = make_grid(64, 64, 6.0)
    min_ck, min_jensen = np.inf, np.inf
    for seed in range(50):
        base = smooth_random_field(g, 300 + seed, floor=0.05)
        probe = smooth_random_field(g, 900 + seed)
        probe = DistributionField(g, probe.values * (mass(base) / mass(probe)))
        lhs, rhs = csiszar_kullback_gap(probe, base)
        min_ck = min(min_ck, rhs - lhs)
        min_jensen = min(min_jensen, rhs)
    ok = min_ck >= -1e-10 and min_jensen >= -1e-10
    verdict(10, "csiszar-kullback and jensen", ok,
            "min margin %.2e, min relative entropy %.2e" % (min_ck, min_jensen))
