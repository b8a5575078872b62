"""
Orbital stability experiment at desk scale.

Builds a one-constraint entropy ground state, perturbs it with density
bumps of increasing amplitude, evolves each run to t = 10, and tracks the
shift-minimized weighted L1 distance back to the state.  In the stable
regime the sup of the distance scales linearly with the perturbation.
"""

import math

import numpy as np

from hmfp.casimir import entropy_spec
from hmfp.functionals import orbital_distance
from hmfp.grid import DistributionField, Potential, make_grid
from hmfp.solver import SolverConfig, evolve
from hmfp.steady import ConstraintSet, self_consistent_solve

g = make_grid(128, 128, 6.0)
spec = entropy_spec()
zero = Potential(g, np.zeros(g.n_theta), np.zeros(g.n_theta))
base = self_consistent_solve(spec, ConstraintSet(m1=math.pi), zero).field
print("base state: homogeneous entropy minimizer with m1 = pi")

etas = (5e-4, 1e-3, 2e-3, 4e-3)
sups = []
for eta in etas:
    factor = 1.0 + eta * np.cos(g.theta)
    start = DistributionField(g, base.values * factor[:, None])
    distances = []

    def observer(t, fld):
        d, shift = orbital_distance(fld, base)
        distances.append((t, d, shift))

    evolve(start, SolverConfig(dt=0.05, t_end=10.0, record_every=20), observer)
    sup = max(d for _, d, _ in distances)
    sups.append(sup)
    print("eta = %6.0e: d(0) = %.3e, sup_t d = %.3e, sup/eta = %.2f"
          % (eta, distances[0][1], sup, sup / eta))

print("\ndoubling ratios of sup_t d:")
for lo, hi, s_lo, s_hi in zip(etas, etas[1:], sups, sups[1:]):
    print("  eta %6.0e -> %6.0e: ratio %.3f" % (lo, hi, s_hi / s_lo))

print("\nan unperturbed run for reference:")
distances = []
evolve(base, SolverConfig(dt=0.05, t_end=10.0, record_every=20),
       observer=lambda t, fld: distances.append(orbital_distance(fld, base)[0]))
print("  sup_t d = %.3e (numerical drift floor)" % max(distances))
