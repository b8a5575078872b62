"""
Construct variational ground states under one and two constraints.

Walks through the multiplier solves against their closed forms, the
self-consistent iteration on the inhomogeneous branch, the monotone
energy chain that certifies minimization, and the independent ODE
integration of the potential profile.
"""

import math

import numpy as np

from hmfp.casimir import entropy_spec, power_spec
from hmfp.functionals import hamiltonian, mass
from hmfp.grid import DistributionField, Potential, make_grid
from hmfp.interaction import solve_potential
from hmfp.steady import (ConstraintSet, auxiliary_energy_two, build_F_phi,
                         ode_profile_solve, profile_moments,
                         renormalize_to_constraints, self_consistent_solve,
                         solve_state_multipliers)

g = make_grid(128, 128, 6.0)
zero = Potential(g, np.zeros(g.n_theta), np.zeros(g.n_theta))

print("== closed-form anchors on the homogeneous branch ==")
m_flat = 2.0 * math.pi * math.sqrt(2.0 * math.pi)
res = self_consistent_solve(entropy_spec(), ConstraintSet(m1=m_flat), zero)
print("entropy, m1 = 2*pi*sqrt(2*pi): lambda = %.3e (expect 0)" % res.multipliers.lam)

p_m1 = 4.0 * math.pi * math.sqrt(2.0) / 3.0
p_mj = 8.0 * math.pi * math.sqrt(2.0) / 15.0
spec2 = power_spec(2.0)
res2 = self_consistent_solve(spec2, ConstraintSet(m1=p_m1, mj=p_mj), zero)
print("power:2, closed-form constraints: lambda = %.9f, mu = %.9f (expect 1, -1)"
      % (res2.multipliers.lam, res2.multipliers.mu))

print("\n== inhomogeneous one-constraint state (entropy, m1 = 4*pi) ==")
seed = Potential(g, -0.5 * np.cos(g.theta), 0.5 * np.sin(g.theta))
st = self_consistent_solve(entropy_spec(), ConstraintSet(m1=4 * math.pi), seed,
                           tol=1e-12, max_iter=20000)
print("iterations = %d, residual = %.2e" % (st.iterations, st.fixed_point_residual))
print("extrapolated steps: %d accepted, %d refused"
      % (st.accepted_extrapolations, st.refused_extrapolations))
print("lambda = %.8f, potential depth = %.6f, mass = %.10f"
      % (st.multipliers.lam, st.potential.values.min(), mass(st.field)))

print("\n== independent check: integrate the profile equation ==")
psi_min = float(st.potential.values.min()) - st.multipliers.lam
r = ode_profile_solve(g, entropy_spec(), 4 * math.pi, psi_min,
                      theta_anchor=math.pi)
gap = float(np.max(np.abs(r.potential.values - st.potential.values)))
print("periodic defect = %.2e, sup |ode - fixed point| = %.2e" % (r.defect, gap))

print("\n== monotone chain on the two-constraint branch ==")
cons = ConstraintSet(m1=p_m1, mj=p_mj)
rng = np.random.default_rng(7)
a, b = rng.uniform(0.1, 0.5, size=2)
values = (1.0 + a * np.cos(g.theta) + b * np.cos(2 * g.theta - 1.0))[:, None] \
    * np.exp(-0.5 * g.v ** 2)[None, :]
f = renormalize_to_constraints(DistributionField(g, values), spec2, cons)
phi = solve_potential(f)
mult = solve_state_multipliers(phi, spec2, cons)
F = build_F_phi(phi, spec2, mult)
j_phi = auxiliary_energy_two(phi, spec2, mult)
print("H(F^phi) = %.6f <= J(phi) = %.6f <= H(f) = %.6f"
      % (hamiltonian(F), j_phi, hamiltonian(f)))

print("\n== the two-constraint multiplier identity ==")
mom = profile_moments(phi, spec2, mult)
mu_pred = -mom.kinetic_moment / (mom.inner_product - mom.casimir)
print("mu from the solve = %.10f, mu from the moment identity = %.10f"
      % (mult.mu, mu_pred))
