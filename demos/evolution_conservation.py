"""
Evolve fields with the split-step scheme and watch the conserved quantities.

First a homogeneous Gaussian, which the scheme keeps exactly steady, then
a perturbed state where mass stays pinned while energy and Casimir drift
at the splitting order.  Ends with a dt-refinement table exhibiting the
second-order convergence of the composition.
"""

import numpy as np

from hmfp.casimir import entropy_spec
from hmfp.functionals import diagnostics, weighted_l1_distance
from hmfp.grid import field_from_function, make_grid
from hmfp.solver import SolverConfig, evolve

spec = entropy_spec()


def run_with_table(f0, label, interpolation="linear"):
    records = []
    res = evolve(f0, SolverConfig(dt=0.05, t_end=10.0, record_every=50,
                                  interpolation=interpolation),
                 observer=lambda t, fld: records.append(diagnostics(fld, spec, t)))
    print("-- %s (%d steps, boundary loss %.2e)" % (label, res.steps,
                                                    res.boundary_loss))
    print("   t      mass            hamiltonian       casimir")
    for rec in records:
        print("  %4.1f  %.12e  %.10e  %.10e"
              % (rec.time, rec.mass, rec.hamiltonian, rec.casimir))
    drift = [abs(records[-1].mass - records[0].mass),
             abs(records[-1].hamiltonian - records[0].hamiltonian)
             / abs(records[0].hamiltonian),
             abs(records[-1].casimir - records[0].casimir)
             / abs(records[0].casimir)]
    print("   drifts: mass %.2e, energy %.2e (rel), casimir %.2e (rel)\n"
          % tuple(drift))


g = make_grid(256, 256, 6.0)
print("== homogeneous Gaussian, linear weights ==")
hom = field_from_function(g, lambda th, v: np.exp(-0.5 * v * v) * np.ones_like(th))
run_with_table(hom, "homogeneous 256^2")

print("== perturbed datum, cubic weights ==")
wavy = field_from_function(
    g, lambda th, v: np.exp(-0.5 * v * v) * (1.0 + 0.1 * np.cos(th)))
run_with_table(wavy, "10 percent density bump 256^2", interpolation="cubic")

print("== dt refinement against a dt/8 reference ==")
g2 = make_grid(128, 128, 6.0)
f0 = field_from_function(
    g2, lambda th, v: np.exp(-0.5 * v * v) * (1.0 + 0.5 * np.cos(th)))
dts = (0.2, 0.1, 0.05)
ref = evolve(f0, SolverConfig(dt=dts[-1] / 8.0, t_end=1.0,
                              interpolation="cubic")).field
prev = None
for dt in dts:
    out = evolve(f0, SolverConfig(dt=dt, t_end=1.0, interpolation="cubic")).field
    err = weighted_l1_distance(out, ref)
    note = "" if prev is None else "  order %.2f" % np.log2(prev / err)
    print("  dt = %5.3f: weighted L1 error %.3e%s" % (dt, err, note))
    prev = err
