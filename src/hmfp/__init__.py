"""Variational ground states and kinetic evolution for the mean-field
model of particles on a circle coupled through a Poisson potential.

The package builds one- and two-constraint minimizers of the free energy,
rearranges fields decreasingly in their microscopic energy, integrates
the kinetic equation with a Strang-split semi-Lagrangian scheme, and
measures orbital stability in the weighted L1 distance.  The hmfp console
script drives config-based experiment runs.
"""

from .casimir import (CasimirSpec, check_h3_ratio, entropy_spec,
                      parse_casimir, power_spec)
from .errors import ConfigError, ConvergenceError, SolverAbort
from .functionals import (DiagnosticsRecord, casimir_integral,
                          csiszar_kullback_gap, diagnostics, free_energy_J,
                          hamiltonian, kinetic_energy, mass, momentum,
                          orbital_distance, potential_energy,
                          read_diagnostics_csv, write_diagnostics_csv)
from .grid import (DistributionField, PhaseGrid, Potential,
                   field_from_function, integrate, load_snapshot, make_grid,
                   save_snapshot, weighted_l1_distance)
from .interaction import (Density, convolution_potential, density, kernel_W,
                          kernel_W_prime, potential_from_density,
                          solve_potential)
from .rearrange import (MonotoneProfile, beta_overlap, compose_profile,
                        convex_B, distribution_function,
                        equimeasurability_defect, equimeasurable_minimize,
                        inverse_sublevel_measure, level_band_defect,
                        level_grid, microscopic_energy_pairing,
                        profile_pairing_integral, pseudo_inverse,
                        rearrange_with_energy, rearranged_energy_integral,
                        sublevel_measure_a)
from .solver import (EvolveResult, SolverConfig, StepLosses, advect_theta,
                     advect_v, evolve, strang_step)
from .steady import (ConstraintSet, Multipliers, OdeProfileResult,
                     ProfileMoments, SteadyStateResult, auxiliary_energy_one,
                     auxiliary_energy_two, build_F_phi, ode_force,
                     ode_force_primitive, ode_profile_solve, profile_moments,
                     renormalize_to_constraints, self_consistent_solve,
                     solve_lambda_one, solve_multipliers_two,
                     solve_state_multipliers)
from .config import ExperimentConfig, load_config, parse_config

__version__ = "0.1.0"
