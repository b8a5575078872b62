"""Variational ground states and kinetic evolution for the mean-field
model of particles on a circle coupled through a Poisson potential.

Each name lives in one submodule, and only there: ``grid`` (phase grid,
fields, snapshots), ``casimir`` (entropy and power generators),
``interaction`` (kernel, density, potential solve), ``functionals``
(every phase-space integral of a field, diagnostics), ``steady`` (one-
and two-constraint minimizers), ``rearrange`` (energy rearrangement and
the infinitely-many-constraints minimizer), ``solver`` (Strang-split
semi-Lagrangian flow), ``config``, ``experiment`` and ``cli`` (the hmfp
console script) and ``errors``.  For example, the self-consistent
ground-state solve is ``hmfp.steady.self_consistent_solve``.
"""

__version__ = "0.1.0"
