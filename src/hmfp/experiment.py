"""Config-driven experiment runs behind the command-line interface.

Each run resolves its configuration, claims a directory under output.dir
named by the hash of its config, command and input snapshot, and writes
every artifact there: snapshots, reports, CSV time series.  Tables go
through np.savetxt and reports through config.key_value_text, both with
17 significant digits, so identical configs and inputs reproduce
identical bytes.  Each artifact is written to a temporary file in the run
directory that then replaces it, so two identical runs sharing the
directory never leave a torn file.
"""

import hashlib
import os

import numpy as np

from .config import key_value_text
from .errors import ConfigError
from .functionals import (casimir_integral, diagnostics, free_energy_J,
                          hamiltonian, mass, orbital_distance,
                          write_diagnostics_csv)
from .grid import (DistributionField, Potential, _atomic_write, load_snapshot,
                   save_snapshot)
from .interaction import solve_potential
from .rearrange import (equimeasurability_defect, four_cell_ladder,
                        level_band_defect, rearrange_with_energy)
from .solver import advect_v, evolve
from .steady import renormalize_to_constraints, self_consistent_solve

COMMANDS = ("steady", "evolve", "stability", "rearrange", "diag")

STABILITY_HEADER = "t,orbital_distance,shift,mass,hamiltonian,casimir"

# Relative miss of a steady state's grid mass against constraints.m1 above
# which run_steady warns.  The multipliers meet the constraint over the whole
# velocity line, so a coarse or narrow velocity grid loses mass: a flat
# power:2 state at m1 = 3 and v_max = 6 misses by 0.11 at 16^2 and by
# 3.5e-3 at 64^2.
_MASS_MISS_WARN = 1e-2


def read_input(path):
    """Read an input snapshot: (field, time, sha256 hex digest of its
    bytes), or None without one."""
    if path is None:
        return None
    digest = hashlib.sha256()
    try:
        field, time = load_snapshot(path)
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read snapshot %s: %s" % (path, exc)) from exc
    return field, time, digest.hexdigest()


def _write_text(path, text):
    with _atomic_write(path) as fh:
        fh.write(text)


def run_directory(cfg, command, snapshot=None):
    """Create (if needed) and return the output directory of one run."""
    digest = None if snapshot is None else snapshot[2]
    path = os.path.join(cfg.output_dir, cfg.run_key(command, digest))
    os.makedirs(path, exist_ok=True)
    _write_text(os.path.join(path, "config.txt"), cfg.canonical_text())
    return path


def _require_input(snapshot):
    if snapshot is None:
        raise ConfigError("this command needs --input <snapshot>")
    return snapshot


def seed_potential(grid, amplitude):
    """Single-mode seed well of the given depth, zero mean."""
    return Potential(grid, -amplitude * np.cos(grid.theta),
                     amplitude * np.sin(grid.theta))


def perturb(field, kind, amplitude, seed):
    """Apply one of the perturbation descriptors to a field."""
    if amplitude == 0.0:
        return field
    grid = field.grid
    if kind == "density_bump":
        factor = 1.0 + amplitude * np.cos(grid.theta)
        return DistributionField(grid, field.values * factor[:, None])
    if kind == "velocity_shift":
        shifted, _ = advect_v(field, np.full(grid.n_theta, -amplitude), 1.0)
        return shifted
    if kind == "random_noise":
        rng = np.random.default_rng(seed)
        noise = rng.uniform(1.0 - amplitude, 1.0 + amplitude,
                            size=field.values.shape)
        return DistributionField(grid, np.maximum(field.values * noise, 0.0))
    raise ConfigError("unknown perturbation kind %r" % kind)


def _ground_state(cfg, spec):
    """The configured ground state, solved from the seed well."""
    seed = seed_potential(cfg.grid(), cfg.seed_amplitude)
    return self_consistent_solve(spec, cfg.constraints(), seed,
                                 damping=cfg.damping, tol=cfg.tol,
                                 max_iter=cfg.max_iter)


def run_steady(cfg, snapshot):
    """Construct the configured ground state; write snapshot and report.

    snapshot is unused: the command line rejects --input for steady.  Warns
    when the grid mass misses constraints.m1 by more than _MASS_MISS_WARN.
    """
    spec = cfg.casimir_spec()
    result = _ground_state(cfg, spec)
    out = run_directory(cfg, "steady")
    f, mult = result.field, result.multipliers
    grid_mass = mass(f)
    save_snapshot(f, 0.0, os.path.join(out, "state.snap"))
    _write_text(os.path.join(out, "report.txt"), key_value_text([
        ("lambda", mult.lam), ("mu", mult.mu),
        ("residual", result.fixed_point_residual),
        ("iterations", result.iterations),
        ("constraint_m1", cfg.m1), ("constraint_mj", cfg.mj),
        ("mass", grid_mass), ("casimir", casimir_integral(f, spec)),
        ("hamiltonian", hamiltonian(f)), ("free_energy", free_energy_J(f, spec)),
    ]))
    line = ("%s: lambda = %.10g, residual = %.3e, %d iterations"
            % (out, mult.lam, result.fixed_point_residual, result.iterations))
    if abs(grid_mass - cfg.m1) <= _MASS_MISS_WARN * cfg.m1:
        return line, None
    return line, ("hmfp: warning: %s: grid mass %.6g misses constraints.m1 = "
                  "%.6g; try a finer grid.n_v or a different grid.v_max"
                  % (out, grid_mass, cfg.m1))


def run_evolve(cfg, snapshot):
    """Evolve a snapshot under the configured solver.

    Writes diagnostics.csv, the final snapshot, and optionally a snapshot
    every solver.snapshot_every records.
    """
    field, t0, _ = _require_input(snapshot)
    spec = cfg.casimir_spec()
    out = run_directory(cfg, "evolve", snapshot)
    records = []

    def observer(time, fld):
        rec = diagnostics(fld, spec, time)
        if cfg.snapshot_every > 0 and len(records) % cfg.snapshot_every == 0:
            name = "snap_%06d.snap" % len(records)
            save_snapshot(fld, time, os.path.join(out, name))
        records.append(rec)

    result = evolve(field, cfg.solver_config(), observer, t0)
    write_diagnostics_csv(records, os.path.join(out, "diagnostics.csv"))
    save_snapshot(result.field, result.time, os.path.join(out, "final.snap"))
    return ("%s: %d steps to t = %.6g, boundary loss %.3e"
            % (out, result.steps, result.time, result.boundary_loss)), None


def run_stability(cfg, snapshot):
    """Perturb a steady state, evolve it, and track the orbital distance.

    The base state comes from --input when given and is otherwise
    constructed in-run from the constraint keys.  Writes stability.csv with
    one row per record and summary.txt with the sup of the distance.
    """
    spec = cfg.casimir_spec()
    base = _ground_state(cfg, spec).field if snapshot is None else snapshot[0]
    start = perturb(base, cfg.kind, cfg.amplitude, cfg.seed)
    if cfg.renormalize:
        constraints = cfg.constraints()
        try:
            start = renormalize_to_constraints(start, spec, constraints)
        except ValueError as exc:
            raise ConfigError("perturbation.renormalize: %s" % exc) from exc

    rows = []

    def observer(time, fld):
        rec = diagnostics(fld, spec, time)
        d, shift = orbital_distance(fld, base)
        rows.append((time, d, shift, rec.mass, rec.hamiltonian, rec.casimir))

    out = run_directory(cfg, "stability", snapshot)
    evolve(start, cfg.solver_config(), observer)
    with _atomic_write(os.path.join(out, "stability.csv")) as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",",
                   header=STABILITY_HEADER, comments="")
    sup = max(row[1] for row in rows)
    _write_text(os.path.join(out, "summary.txt"), key_value_text([
        ("sup_orbital_distance", sup), ("amplitude", cfg.amplitude),
    ]))
    return "%s: sup orbital distance = %.10g" % (out, sup), None


def run_rearrange(cfg, snapshot):
    """Rearrange a snapshot decreasingly in its microscopic energy.

    The potential is the snapshot's own self-consistent field, or zero
    when rearrange.phi = zero.  Writes the rearranged snapshot and a
    report with the raw and band-tolerant equimeasurability defects.
    """
    field, t0, _ = _require_input(snapshot)
    grid = field.grid
    if cfg.phi_source == "zero":
        phi = Potential(grid, np.zeros(grid.n_theta), np.zeros(grid.n_theta))
    else:
        phi = solve_potential(field)
    ladder = four_cell_ladder(field)
    rearranged = rearrange_with_energy(field, phi, ladder)
    raw = equimeasurability_defect(field, rearranged, ladder)
    banded = level_band_defect(field, rearranged, ladder)
    out = run_directory(cfg, "rearrange", snapshot)
    save_snapshot(rearranged, t0, os.path.join(out, "rearranged.snap"))
    _write_text(os.path.join(out, "rearrange_report.txt"), key_value_text([
        ("sup_level_defect", raw), ("banded_defect", banded),
        ("mass_in", mass(field)), ("mass_out", mass(rearranged)),
    ]))
    return "%s: banded equimeasurability defect = %.10g" % (out, banded), None


def run_diag(cfg, snapshot):
    """Write the diagnostics of a snapshot as one CSV row; the summary
    line ends in that row."""
    field, t0, _ = _require_input(snapshot)
    spec = cfg.casimir_spec()
    rec = diagnostics(field, spec, t0)
    out = run_directory(cfg, "diag", snapshot)
    write_diagnostics_csv([rec], os.path.join(out, "diag.csv"))
    return "%s: %s" % (out, rec.to_csv()), None
