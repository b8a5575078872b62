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
from .rearrange import (equimeasurability_defect, level_band_defect,
                        level_grid, rearrange_with_energy)
from .solver import advect_v, evolve
from .steady import renormalize_to_constraints, self_consistent_solve

STABILITY_HEADER = "t,orbital_distance,shift,mass,hamiltonian,casimir"


def input_digest(input_path):
    """sha256 hex digest of an input snapshot's bytes; None without one."""
    if input_path is None:
        return None
    digest = hashlib.sha256()
    try:
        with open(input_path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise ConfigError("cannot read snapshot %s: %s" % (input_path, exc)) from exc
    return digest.hexdigest()


def _write_text(path, text):
    with _atomic_write(path) as fh:
        fh.write(text)


def run_directory(cfg, command, input_path=None):
    """Create (if needed) and return the output directory of one run."""
    path = os.path.join(cfg.output_dir, cfg.run_key(command, input_digest(input_path)))
    os.makedirs(path, exist_ok=True)
    _write_text(os.path.join(path, "config.txt"), cfg.canonical_text())
    return path


def _require_input(input_path):
    if input_path is None:
        raise ConfigError("this command needs --input <snapshot>")
    try:
        return load_snapshot(input_path)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read snapshot %s: %s" % (input_path, exc)) from exc


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


def run_steady(cfg):
    """Construct the configured ground state; write snapshot and report.

    Returns (run_dir, SteadyStateResult).
    """
    spec = cfg.casimir_spec()
    result = _ground_state(cfg, spec)
    out = run_directory(cfg, "steady")
    f, mult = result.field, result.multipliers
    save_snapshot(f, 0.0, os.path.join(out, "state.snap"))
    _write_text(os.path.join(out, "report.txt"), key_value_text([
        ("lambda", mult.lam), ("mu", mult.mu),
        ("residual", result.fixed_point_residual),
        ("iterations", result.iterations),
        ("constraint_m1", cfg.m1), ("constraint_mj", cfg.mj),
        ("mass", mass(f)), ("casimir", casimir_integral(f, spec)),
        ("hamiltonian", hamiltonian(f)), ("free_energy", free_energy_J(f, spec)),
    ]))
    return out, result


def run_evolve(cfg, input_path):
    """Evolve a snapshot under the configured solver.

    Writes diagnostics.csv, the final snapshot, and optionally a snapshot
    every solver.snapshot_every records.  Returns (run_dir, EvolveResult).
    """
    field, t0 = _require_input(input_path)
    spec = cfg.casimir_spec()
    out = run_directory(cfg, "evolve", input_path)
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
    return out, result


def run_stability(cfg, input_path=None):
    """Perturb a steady state, evolve it, and track the orbital distance.

    The base state comes from --input when given and is otherwise
    constructed in-run from the constraint keys.  Writes stability.csv with
    one row per record and summary.txt with the sup of the distance.
    Returns (run_dir, sup_distance).
    """
    spec = cfg.casimir_spec()
    if input_path is not None:
        base, _ = _require_input(input_path)
    else:
        base = _ground_state(cfg, spec).field
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

    out = run_directory(cfg, "stability", input_path)
    evolve(start, cfg.solver_config(), observer)
    with _atomic_write(os.path.join(out, "stability.csv")) as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",",
                   header=STABILITY_HEADER, comments="")
    sup = max(row[1] for row in rows)
    _write_text(os.path.join(out, "summary.txt"), key_value_text([
        ("sup_orbital_distance", sup), ("amplitude", cfg.amplitude),
    ]))
    return out, sup


def run_rearrange(cfg, input_path):
    """Rearrange a snapshot decreasingly in its microscopic energy.

    The potential is the snapshot's own self-consistent field, or zero
    when rearrange.phi = zero.  Writes the rearranged snapshot and a
    report with the raw and band-tolerant equimeasurability defects.
    Returns (run_dir, banded defect).
    """
    field, t0 = _require_input(input_path)
    grid = field.grid
    if cfg.phi_source == "zero":
        phi = Potential(grid, np.zeros(grid.n_theta), np.zeros(grid.n_theta))
    else:
        phi = solve_potential(field)
    n_levels = (grid.n_theta * grid.n_v) // 4
    rearranged = rearrange_with_energy(field, phi, n_levels)
    ladder = level_grid(field, n_levels)
    raw = equimeasurability_defect(field, rearranged, ladder)
    banded = level_band_defect(field, rearranged, ladder)
    out = run_directory(cfg, "rearrange", input_path)
    save_snapshot(rearranged, t0, os.path.join(out, "rearranged.snap"))
    _write_text(os.path.join(out, "rearrange_report.txt"), key_value_text([
        ("sup_level_defect", raw), ("banded_defect", banded),
        ("mass_in", mass(field)), ("mass_out", mass(rearranged)),
    ]))
    return out, banded


def run_diag(cfg, input_path):
    """Write and return the diagnostics of a snapshot as one CSV row."""
    field, t0 = _require_input(input_path)
    spec = cfg.casimir_spec()
    rec = diagnostics(field, spec, t0)
    out = run_directory(cfg, "diag", input_path)
    write_diagnostics_csv([rec], os.path.join(out, "diag.csv"))
    return out, rec
