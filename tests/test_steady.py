"""Variational steady states: multiplier solves, fixed points, profiles."""

import math

import numpy as np
import pytest

from hmfp.casimir import entropy_spec, power_spec
from hmfp.errors import ConvergenceError, SolverAbort
from hmfp.experiment import seed_potential
from hmfp.functionals import casimir_integral, free_energy_J, hamiltonian, mass
from hmfp.grid import Potential, make_grid
from hmfp.interaction import solve_potential
from hmfp.rearrange import equimeasurable_minimize
from hmfp.steady import (
    ConstraintSet,
    Multipliers,
    auxiliary_energy_one,
    auxiliary_energy_two,
    build_F_phi,
    ode_force,
    ode_force_primitive,
    ode_profile_solve,
    profile_moments,
    renormalize_to_constraints,
    self_consistent_solve,
    solve_lambda_one,
    solve_multipliers_two,
    solve_state_multipliers,
)

from conftest import smooth_random_field

TWO_PI = 2.0 * math.pi
SQRT_TWO_PI = math.sqrt(TWO_PI)

# closed-form two-constraint pair: at phi = 0 the multipliers (1, -1) give
# exactly these mass and Casimir values for the quadratic generator
POWER2_M1 = 4.0 * math.pi * math.sqrt(2.0) / 3.0
POWER2_MJ = 8.0 * math.pi * math.sqrt(2.0) / 15.0


def flat_potential(grid):
    return Potential(grid, np.zeros(grid.n_theta), np.zeros(grid.n_theta))


def wavy_potential(grid, a=0.4, b=0.15):
    vals = a * np.cos(grid.theta) - b * np.sin(2.0 * grid.theta)
    vals = vals - vals.mean()
    der = -a * np.sin(grid.theta) - 2.0 * b * np.cos(2.0 * grid.theta)
    return Potential(grid, vals, der)


def test_entropy_lambda_closed_form():
    g = make_grid(64, 64, 6.0)
    lam = solve_lambda_one(flat_potential(g), entropy_spec(), TWO_PI * SQRT_TWO_PI)
    assert abs(lam) <= 1e-9
    for m1 in (0.5, 3.0, 11.0):
        lam = solve_lambda_one(flat_potential(g), entropy_spec(), m1)
        assert lam == pytest.approx(math.log(m1 / (TWO_PI * SQRT_TWO_PI)), abs=1e-9)


def test_power2_multipliers_closed_form():
    g = make_grid(64, 64, 6.0)
    mult = solve_multipliers_two(
        flat_potential(g), power_spec(2.0), ConstraintSet(m1=POWER2_M1, mj=POWER2_MJ)
    )
    assert mult.lam == pytest.approx(1.0, abs=1e-7)
    assert mult.mu == pytest.approx(-1.0, abs=1e-7)


def test_multiplier_solve_meets_constraints_for_random_potentials():
    g = make_grid(48, 32, 6.0)
    phi = wavy_potential(g)
    spec = entropy_spec()
    for m1 in (1.0, 7.0):
        lam = solve_lambda_one(phi, spec, m1)
        mom = profile_moments(phi, spec, Multipliers(lam=lam))
        assert mom.mass == pytest.approx(m1, rel=1e-9)
    spec2 = power_spec(2.5)
    cons = ConstraintSet(m1=5.0, mj=2.0)
    mult = solve_state_multipliers(phi, spec2, cons)
    mom = profile_moments(phi, spec2, mult)
    assert mom.mass == pytest.approx(5.0, rel=1e-8)
    assert mom.casimir == pytest.approx(2.0, rel=1e-8)
    assert mult.mu < 0.0


def test_profile_moments_match_dense_quadrature():
    # oracle: midpoint quadrature on a 4e6-point velocity line, one theta
    # row at a time so the oracle holds a few line-sized arrays at once
    g = make_grid(32, 16, 6.0)
    phi = wavy_potential(g)
    vv = np.linspace(-40.0, 40.0, 4_000_001)
    dv = vv[1] - vv[0]
    v2 = vv ** 2
    cases = [
        (entropy_spec(), Multipliers(lam=0.3)),
        (power_spec(2.0), Multipliers(lam=0.8, mu=-1.3)),
        (power_spec(3.0), Multipliers(lam=0.8, mu=-0.7)),
    ]
    for spec, mult in cases:
        mom = profile_moments(phi, spec, mult)
        m_q = c_q = k_q = 0.0
        for phi_i in phi.values:
            e = mult.lam - 0.5 * v2 - phi_i
            if spec.family == "entropy":
                F = np.exp(e)
            else:
                F = (np.maximum(e / -mult.mu, 0.0) / spec.p) ** (1.0 / (spec.p - 1.0))
            m_q += float(F.sum()) * dv * g.d_theta
            c_q += float(spec.j(F).sum()) * dv * g.d_theta
            k_q += float((F * v2).sum()) * dv * g.d_theta
        assert mom.mass == pytest.approx(m_q, rel=1e-7)
        assert mom.casimir == pytest.approx(c_q, rel=1e-7)
        assert mom.kinetic_moment == pytest.approx(k_q, rel=1e-7)


def test_build_F_phi_pointwise_forms():
    g = make_grid(32, 32, 5.0)
    phi = wavy_potential(g)
    e = 0.5 * g.v[None, :] ** 2 + phi.values[:, None]
    ent = build_F_phi(phi, entropy_spec(), Multipliers(lam=0.3))
    assert np.allclose(ent.values, np.exp(0.3 - e), rtol=1e-14)
    two = build_F_phi(phi, power_spec(2.0), Multipliers(lam=1.0, mu=-1.0))
    assert np.allclose(two.values, np.maximum(1.0 - e, 0.0) / 2.0, rtol=1e-14)
    one = build_F_phi(phi, power_spec(3.0), Multipliers(lam=0.5))
    assert np.allclose(
        one.values, (np.maximum(0.5 - e, 0.0) / 3.0) ** 0.5, rtol=1e-14
    )
    with pytest.raises(ValueError):
        build_F_phi(phi, entropy_spec(), Multipliers(lam=0.0, mu=-1.0))


def test_mass_map_increases_in_lambda():
    g = make_grid(32, 32, 6.0)
    phi = wavy_potential(g)
    spec = power_spec(2.0)
    masses = [
        profile_moments(phi, spec, Multipliers(lam=l, mu=-0.8)).mass
        for l in np.linspace(0.2, 3.0, 10)
    ]
    assert np.all(np.diff(masses) > 0.0)


def test_homogeneous_fixed_point_converges_immediately():
    g = make_grid(64, 64, 6.0)
    res = self_consistent_solve(
        entropy_spec(), ConstraintSet(m1=0.1), seed_potential(g, 0.0)
    )
    assert res.iterations == 1
    assert res.fixed_point_residual == 0.0
    assert np.all(res.potential.values == 0.0)


def test_stable_regime_returns_to_homogeneous():
    # below the critical mass 2 pi the cosine seed must decay
    g = make_grid(64, 64, 6.0)
    res = self_consistent_solve(
        entropy_spec(), ConstraintSet(m1=6.0), seed_potential(g, 1e-3)
    )
    sup_phi = float(np.max(np.abs(res.potential.values)))
    assert sup_phi < 1e-3
    assert res.multipliers.lam == pytest.approx(
        math.log(6.0 / (TWO_PI * SQRT_TWO_PI)), abs=1e-8
    )


def test_inhomogeneous_state_converges_and_recentres():
    g = make_grid(64, 64, 6.0)
    res = self_consistent_solve(
        entropy_spec(), ConstraintSet(m1=4.0 * math.pi), seed_potential(g, 0.5),
        tol=1e-10,
    )
    assert res.fixed_point_residual <= 1e-10
    assert float(res.potential.values.min()) < -1.0
    # canonical phase: the potential minimum sits at theta = pi
    assert int(np.argmin(res.potential.values)) == g.n_theta // 2
    assert mass(res.field) == pytest.approx(4.0 * math.pi, rel=1e-8)


def test_converged_state_is_euler_lagrange_critical():
    g = make_grid(64, 64, 6.0)
    spec = entropy_spec()
    res = self_consistent_solve(
        spec, ConstraintSet(m1=4.0 * math.pi), seed_potential(g, 0.5), tol=1e-10
    )
    phi_f = solve_potential(res.field)
    mult = solve_state_multipliers(phi_f, spec, ConstraintSet(m1=4.0 * math.pi))
    F = build_F_phi(phi_f, spec, mult)
    assert float(np.max(np.abs(res.field.values - F.values))) <= 1e-8


def test_two_constraint_mu_identity():
    g = make_grid(64, 64, 6.0)
    spec = power_spec(2.0)
    cons = ConstraintSet(m1=POWER2_M1, mj=POWER2_MJ)
    res = self_consistent_solve(spec, cons, seed_potential(g, 0.2), tol=1e-10)
    mom = profile_moments(res.potential, spec, res.multipliers)
    mu_pred = -mom.kinetic_moment / (mom.inner_product - mom.casimir)
    assert res.multipliers.mu == pytest.approx(mu_pred, rel=1e-6)


def test_nonconvergence_raises():
    g = make_grid(64, 64, 6.0)
    with pytest.raises(ConvergenceError):
        self_consistent_solve(
            entropy_spec(), ConstraintSet(m1=4.0 * math.pi),
            seed_potential(g, 0.5), max_iter=3,
        )
    with pytest.raises(ValueError):
        self_consistent_solve(
            entropy_spec(), ConstraintSet(m1=1.0), seed_potential(g, 0.0),
            damping=0.0,
        )


@pytest.mark.parametrize("solve", [
    lambda g: self_consistent_solve(
        entropy_spec(), ConstraintSet(m1=1.0), seed_potential(g, 0.0),
        max_iter=0),
    lambda g: equimeasurable_minimize(
        smooth_random_field(g, seed=3), max_iter=0),
], ids=["self_consistent_solve", "equimeasurable_minimize"])
def test_zero_iteration_cap_is_rejected(solve):
    with pytest.raises(ValueError, match="max_iter"):
        solve(make_grid(16, 16, 6.0))


def test_monotone_chain_two_constraint():
    g = make_grid(64, 64, 6.0)
    spec = power_spec(2.0)
    cons = ConstraintSet(m1=POWER2_M1, mj=POWER2_MJ)
    for seed in (31, 32, 33):
        f = renormalize_to_constraints(smooth_random_field(g, seed), spec, cons)
        phi = solve_potential(f)
        mult = solve_state_multipliers(phi, spec, cons)
        F = build_F_phi(phi, spec, mult)
        j_phi = auxiliary_energy_two(phi, spec, mult)
        assert hamiltonian(F) <= j_phi + 1e-8
        assert j_phi <= hamiltonian(f) + 1e-8
        # the gap to the profile energy is exactly half a squared L2 norm
        gap = j_phi - hamiltonian(F)
        dphi_F = solve_potential(F).derivative
        half = 0.5 * float((dphi_F - phi.derivative) @ (dphi_F - phi.derivative))
        assert gap == pytest.approx(half * g.d_theta, abs=1e-8)


def test_monotone_chain_one_constraint():
    g = make_grid(64, 64, 6.0)
    spec = entropy_spec()
    m1 = 5.0
    for seed in (41, 42):
        raw = smooth_random_field(g, seed, floor=1e-9)
        f = renormalize_to_constraints(raw, spec, ConstraintSet(m1=m1))
        phi = solve_potential(f)
        lam = solve_lambda_one(phi, spec, m1)
        F = build_F_phi(phi, spec, Multipliers(lam=lam))
        j_phi = auxiliary_energy_one(phi, spec, lam)
        assert free_energy_J(F, spec) <= j_phi + 1e-8
        assert j_phi <= free_energy_J(f, spec) + 1e-8


def test_renormalize_is_identity_at_the_constraints():
    g = make_grid(16, 128, 8.0)
    f = smooth_random_field(g, seed=42)
    spec = power_spec(2.0)
    cons = ConstraintSet(m1=mass(f), mj=casimir_integral(f, spec))
    out = renormalize_to_constraints(f, spec, cons)
    assert float(np.max(np.abs(out.values - f.values))) <= 1e-12


def test_renormalize_hits_constraints():
    spec = power_spec(2.0)
    g = make_grid(16, 16384, 8.0)
    f = smooth_random_field(g, seed=42)
    cons = ConstraintSet(m1=1.37 * mass(f), mj=0.81 * casimir_integral(f, spec))
    out = renormalize_to_constraints(f, spec, cons)
    assert mass(out) == pytest.approx(cons.m1, rel=1e-10)
    assert casimir_integral(out, spec) == pytest.approx(cons.mj, rel=1e-6)
    # one-constraint form only dilates
    g2 = make_grid(16, 256, 8.0)
    f2 = smooth_random_field(g2, seed=43)
    out2 = renormalize_to_constraints(f2, entropy_spec(), ConstraintSet(m1=2.0))
    assert mass(out2) == pytest.approx(2.0, rel=1e-10)


def test_renormalize_resampling_error_shrinks_quadratically():
    spec = power_spec(2.0)
    errs = []
    for nv in (4096, 16384):
        g = make_grid(16, nv, 8.0)
        f = smooth_random_field(g, seed=42)
        cons = ConstraintSet(m1=1.37 * mass(f), mj=0.81 * casimir_integral(f, spec))
        out = renormalize_to_constraints(f, spec, cons)
        errs.append(abs(casimir_integral(out, spec) - cons.mj) / cons.mj)
    assert errs[1] <= errs[0] / 8.0


def test_ode_force_root_is_stationary():
    spec = entropy_spec()
    m1 = math.pi
    e_root = math.log(TWO_PI * SQRT_TWO_PI / m1)
    assert ode_force(spec, m1, e_root) == pytest.approx(0.0, abs=1e-15)
    g = make_grid(64, 16, 6.0)
    r = ode_profile_solve(g, spec, m1, e_root)
    assert r.defect == 0.0
    assert np.all(r.potential.values == 0.0)


def test_ode_profile_reproduces_converged_potential():
    g = make_grid(128, 128, 6.0)
    spec = entropy_spec()
    m1 = 4.0 * math.pi
    st = self_consistent_solve(
        spec, ConstraintSet(m1=m1), seed_potential(g, 0.5), tol=1e-12,
        max_iter=5000,
    )
    psi_min = float(st.potential.values.min()) - st.multipliers.lam
    r = ode_profile_solve(g, spec, m1, psi_min, theta_anchor=math.pi)
    assert r.defect <= 5e-5
    gap = float(np.max(np.abs(r.potential.values - st.potential.values)))
    assert gap <= 5e-5


def test_ode_defect_improves_under_refinement():
    spec = entropy_spec()
    m1 = 4.0 * math.pi
    psi_min = -2.2666  # near the admissible orbit, not exactly on it
    defects = []
    for n in (128, 256):
        g = make_grid(n, 16, 6.0)
        defects.append(ode_profile_solve(g, spec, m1, psi_min, math.pi).defect)
    # the frozen reference orbit converges; an off-orbit psi_min keeps a
    # finite defect, so compare trajectories through the conserved energy
    assert defects[1] == pytest.approx(defects[0], rel=5e-3)


def test_ode_energy_is_conserved_along_the_march():
    spec = entropy_spec()
    m1 = 4.0 * math.pi
    psi_min = 2.2666
    drifts = []
    for n in (128, 256):
        g = make_grid(n, 16, 6.0)
        r = ode_profile_solve(g, spec, m1, psi_min, theta_anchor=math.pi)
        anchor = int(round(math.pi / g.d_theta)) % n
        offset = psi_min - r.potential.values[anchor]
        psi = r.potential.values + offset
        energy = 0.5 * r.potential.derivative ** 2 - ode_force_primitive(
            spec, m1, psi
        )
        drifts.append(float(np.max(np.abs(energy - energy[0]))))
    assert drifts[0] <= 1e-5
    # fourth-order integrator: halving the step cuts the drift ~16x
    assert drifts[1] <= drifts[0] / 8.0


def test_ode_blowup_raises():
    g = make_grid(64, 16, 6.0)
    with pytest.raises(SolverAbort):
        ode_profile_solve(g, entropy_spec(), 0.5, -200.0)
