"""
Decreasing rearrangement with respect to the microscopic energy.

Takes a random smooth field, rearranges it along v^2/2 + phi for both the
zero potential and the field's own self-consistent potential, and checks
the invariants: equimeasurability up to a one-cell band, mass within the
four-cell tolerance, the pairing never increasing, and the closed-form
facts about the sublevel-measure function.
"""

import math

import numpy as np

from hmfp.functionals import hamiltonian, mass, microscopic_energy_pairing
from hmfp.grid import DistributionField, Potential, make_grid
from hmfp.interaction import solve_potential
from hmfp.rearrange import (convex_B, distribution_function,
                            equimeasurability_defect, inverse_sublevel_measure,
                            level_band_defect, level_grid,
                            profile_pairing_integral, pseudo_inverse,
                            rearrange_with_energy, rearranged_energy_integral,
                            sublevel_measure_a)

g = make_grid(64, 64, 6.0)
rng = np.random.default_rng(11)
values = (1.0 + 0.4 * np.cos(g.theta - 0.7)
          + 0.2 * np.cos(2 * g.theta + 0.3))[:, None] \
    * np.exp(-0.5 * (1.1 * g.v) ** 2)[None, :]
f = DistributionField(g, values)
ladder = level_grid(f, (g.n_theta * g.n_v) // 4)

zero = Potential(g, np.zeros(g.n_theta), np.zeros(g.n_theta))
for label, phi in (("phi = 0", zero), ("self-consistent phi", solve_potential(f))):
    out = rearrange_with_energy(f, phi, ladder)
    raw = equimeasurability_defect(f, out, ladder)
    banded = level_band_defect(f, out, ladder)
    print("== %s ==" % label)
    print("  raw sup-level defect     = %.4e" % raw)
    print("  one-cell-band defect     = %.4e" % banded)
    print("  mass change              = %.2e (tolerance %.2e)"
          % (abs(mass(out) - mass(f)),
             4.0 * g.d_theta * g.d_v * f.values.max()))
    print("  pairing before and after = %.6f -> %.6f"
          % (microscopic_energy_pairing(f, phi),
             microscopic_energy_pairing(out, phi)))
    print("  hamiltonian before/after = %.6f -> %.6f"
          % (hamiltonian(f), hamiltonian(out)))

print("\n== the profile-side energy identity ==")
phi = solve_potential(f)
fsharp = pseudo_inverse(distribution_function(f, level_grid(f)))
lhs = rearranged_energy_integral(fsharp, phi)
rhs = profile_pairing_integral(fsharp, phi)
print("energy integral of the rearranged field = %.8f" % lhs)
print("pairing of f# against the level measure = %.8f" % rhs)

print("\n== sublevel measure facts ==")
e = 1.7
print("flat a_0(%.1f) = %.6f, closed form 4*pi*sqrt(2e) = %.6f"
      % (e, sublevel_measure_a(zero, e), 4 * math.pi * math.sqrt(2 * e)))
s = np.array([2.0, 10.0, 30.0])
inv = inverse_sublevel_measure(phi, s)
lo = s ** 2 / (32 * math.pi ** 2) + phi.values.min()
hi = s ** 2 / (32 * math.pi ** 2) + phi.values.max()
for k in range(s.size):
    print("a_phi^-1(%5.1f) = %9.5f inside [%9.5f, %9.5f]"
          % (s[k], inv[k], lo[k], hi[k]))
mu = 3.0
print("flat B(%g) = %.10f, closed form mu^3/(96 pi^2) = %.10f"
      % (mu, convex_B(zero, mu), mu ** 3 / (96 * math.pi ** 2)))
