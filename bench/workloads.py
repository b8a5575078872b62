"""The benchmark's workloads: seeded inputs, hmfp command lines, checks.

Each workload function writes its config files and generated input
snapshots under a work directory and returns a Plan: the commands of one
pass, a check per command that reads the command's artifacts and raises
CheckFailed on a wrong answer, the config files (parsed by the setup_s
probe), and the exact per-pass call counts the tracer must see.  The seed reaches the program only through the generated
snapshots and, for `stability`, the perturbation.seed key.

Inputs are built with the library, untimed, from ground states of the
configs the paper's experiments use: the entropy state with mass 4*pi in
a cosine seed well, and the two-constraint power:2 state at the
closed-form constraint values in a shallow seed well.
"""

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hmfp.casimir import parse_casimir
from hmfp.experiment import seed_potential
from hmfp.functionals import diagnostics, mass, read_diagnostics_csv
from hmfp.grid import DistributionField, load_snapshot, make_grid, save_snapshot
from hmfp.interaction import solve_potential
from hmfp.steady import (ConstraintSet, Multipliers, profile_moments,
                         self_consistent_solve)

ENTROPY = {"casimir": "entropy", "m1": 4.0 * math.pi, "well": 0.5}
POWER2 = {"casimir": "power:2", "m1": 4.0 * math.pi * math.sqrt(2.0) / 3.0,
          "mj": 8.0 * math.pi * math.sqrt(2.0) / 15.0, "well": 0.2}
NOISE = 0.05          # relative amplitude of the seeded multiplicative noise
DT = 0.05
T_END = 5.0
STEPS = 100           # round(T_END / DT)
STEADY_TOL = 1e-9     # the solver.tol default, written out in every config
MASS_REL = 1e-8       # the acceptance suite's mass bound for ground states
EVOLVE_MASS_REL = 1e-12


class CheckFailed(Exception):
    """An artifact is missing or holds a wrong answer."""


@dataclass
class Command:
    argv: list
    check: Callable  # run_dir -> dict of facts for the count self-check


@dataclass
class Plan:
    commands: list
    configs: list
    # (facts of every command, traced metrics) -> exact per-pass counts
    expected: Callable


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _read_keyvalues(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            out[key.strip()] = float(value)
    return out


def _write_config(work, name, keys):
    # one output root per config, so no two commands share a run directory
    keys = dict(keys, **{"output.dir": os.path.join(work, "runs", name)})
    path = os.path.join(work, name + ".cfg")
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in keys.items():
            fh.write("%s = %s\n" % (key, "%.17g" % value
                                     if isinstance(value, float) else value))
    return path


def _state_keys(state, n):
    keys = {"grid.n_theta": n, "grid.n_v": n, "casimir": state["casimir"],
            "constraints.m1": state["m1"], "seed.amplitude": state["well"],
            "solver.tol": STEADY_TOL}
    if "mj" in state:
        keys["constraints.mj"] = state["mj"]
    return keys


def _ground_state(state, n):
    grid = make_grid(n, n, 6.0)
    cons = ConstraintSet(m1=state["m1"], mj=state.get("mj"))
    return self_consistent_solve(parse_casimir(state["casimir"]), cons,
                                 seed_potential(grid, state["well"]),
                                 tol=STEADY_TOL).field


def _noisy_input(work, name, field, seed, stream):
    rng = np.random.default_rng([seed, stream])
    noise = rng.uniform(1.0 - NOISE, 1.0 + NOISE, size=field.values.shape)
    path = os.path.join(work, "inputs", name + ".snap")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    save_snapshot(DistributionField(field.grid, field.values * noise), 0.0, path)
    return path


# ---------------------------------------------------------------------------
# Output checks, one per command kind


def _check_steady(state):
    spec = parse_casimir(state["casimir"])
    m1 = state["m1"]

    def check(run_dir):
        report = _read_keyvalues(os.path.join(run_dir, "report.txt"))
        _require(report["residual"] <= STEADY_TOL,
                 "residual %.3e above solver.tol" % report["residual"])
        _require(report["constraint_m1"] == m1, "report lost constraint_m1")
        f, _ = load_snapshot(os.path.join(run_dir, "state.snap"))
        _require(report["mass"] == mass(f), "report mass is not the state's mass")
        mult = Multipliers(lam=report["lambda"], mu=report.get("mu"))
        exact = profile_moments(solve_potential(f), spec, mult).mass
        _require(abs(exact - m1) <= MASS_REL * m1,
                 "profile mass %.17g misses constraint_m1 %.17g" % (exact, m1))
        if spec.family == "entropy":
            # A positive profile has no support edge, so the grid mass
            # itself must match; a compact power profile carries the
            # midpoint error of its edge cells (about 1e-5 at 256^2).
            _require(abs(report["mass"] - m1) <= MASS_REL * m1,
                     "grid mass %.17g misses constraint_m1" % report["mass"])
        return {"iterations": int(report["iterations"])}

    return check


def _check_evolve(records, t_end):
    def check(run_dir):
        rows = read_diagnostics_csv(os.path.join(run_dir, "diagnostics.csv"))
        _require(len(rows) == records, "%d diagnostics rows, want %d"
                 % (len(rows), records))
        m0 = rows[0].mass
        drift = max(abs(r.mass - m0) for r in rows)
        _require(drift <= EVOLVE_MASS_REL * m0, "mass column drifts by %.3e" % drift)
        f, t = load_snapshot(os.path.join(run_dir, "final.snap"))
        _require(float(f.values.min()) >= 0.0, "final.snap is negative")
        _require(abs(t - t_end) <= 1e-9, "final.snap at t = %r" % t)
        return {}

    return check


def _check_stability(records):
    def check(run_dir):
        summary = _read_keyvalues(os.path.join(run_dir, "summary.txt"))
        sup = summary["sup_orbital_distance"]
        with open(os.path.join(run_dir, "stability.csv"), encoding="utf-8") as fh:
            next(fh)
            column = [float(line.split(",")[1]) for line in fh if line.strip()]
        _require(len(column) == records, "%d stability rows, want %d"
                 % (len(column), records))
        _require(math.isfinite(sup), "sup orbital distance is not finite")
        _require(sup == max(column), "sup %.17g is not the column max" % sup)
        return {}

    return check


def _check_rearrange(input_path):
    f, _ = load_snapshot(input_path)
    grid = f.grid
    four_cells = 4.0 * grid.d_theta * grid.d_v

    def check(run_dir):
        report = _read_keyvalues(os.path.join(run_dir, "rearrange_report.txt"))
        # Criterion 3 of the acceptance suite bounds the banded defect by
        # four cells of measure.  The defect is a whole number of cells
        # times the cell area, computed as a difference of products, so a
        # defect of exactly four cells may read a few ulps high.
        _require(report["banded_defect"] <= four_cells * (1.0 + 1e-12),
                 "banded defect %.17g above four cells %.17g"
                 % (report["banded_defect"], four_cells))
        # The README bounds the mass defect by four cells of max f.
        dmass = abs(report["mass_out"] - report["mass_in"])
        _require(dmass <= four_cells * float(f.values.max()),
                 "rearranged mass defect %.3e above the four-cell bound" % dmass)
        out, _ = load_snapshot(os.path.join(run_dir, "rearranged.snap"))
        _require(out.grid == grid, "rearranged.snap changed grid")
        return {}

    return check


def _check_diag(input_path, casimir):
    f, t0 = load_snapshot(input_path)
    expected = diagnostics(f, parse_casimir(casimir), t0)

    def check(run_dir):
        rows = read_diagnostics_csv(os.path.join(run_dir, "diag.csv"))
        _require(rows == [expected], "diag row differs from the library's")
        return {}

    return check


# ---------------------------------------------------------------------------
# Workloads


def _evolve_counts(records, snapshots):
    return {
        "cli.main": 1, "config.load_config": 1, "experiment.run_evolve": 1,
        "experiment.run_directory": 1, "solver.evolve": 1,
        "solver.strang_step": STEPS, "solver.advect_theta": 2 * STEPS,
        "solver.advect_v": STEPS, "functionals.diagnostics": records,
        "functionals.write_diagnostics_csv": 1,
        "functionals.orbital_distance": 0,
        "interaction.solve_potential": STEPS + records,
        "casimir.CasimirSpec.j": records, "grid.load_snapshot": 1,
        "grid.save_snapshot": 1 + snapshots,
        "steady.self_consistent_solve": 0,
        "rearrange.rearrange_with_energy": 0,
    }


def _evolve_plan(work, seed, n, interpolation, record_every, snapshot_every):
    base = _ground_state(ENTROPY, n)
    snap = _noisy_input(work, "perturbed", base, seed, 0)
    cfg = _write_config(work, "evolve", {
        "casimir": "entropy", "solver.dt": DT, "solver.t_end": T_END,
        "solver.interpolation": interpolation,
        "solver.record_every": record_every,
        "solver.snapshot_every": snapshot_every})
    records = STEPS // record_every + 1
    snapshots = records if snapshot_every else 0
    return Plan(
        [Command(["evolve", "--config", cfg, "--input", snap],
                 _check_evolve(records, T_END))],
        [cfg], lambda facts, metrics: _evolve_counts(records, snapshots))


def evolve(work, seed):
    """Linear stepping on a noise-perturbed 512^2 entropy ground state."""
    return _evolve_plan(work, seed, 512, "linear", 1, 0)


def evolve_cubic_snapshots(work, seed):
    """Cubic stepping at 256^2 with a snapshot at every fifth step."""
    return _evolve_plan(work, seed, 256, "cubic", 5, 1)


def stability(work, seed):
    """Orbital-distance scan after seeded noise on an in-run 256^2 state."""
    keys = _state_keys(ENTROPY, 256)
    keys.update({"perturbation.kind": "random_noise",
                 "perturbation.amplitude": NOISE, "perturbation.seed": seed,
                 "solver.dt": DT, "solver.t_end": T_END,
                 "solver.interpolation": "linear", "solver.record_every": 1})
    cfg = _write_config(work, "stability", keys)
    records = STEPS + 1

    def expected(facts, metrics):
        iterations = metrics["steady.self_consistent_solve.iterations"]
        return {
            "cli.main": 1, "config.load_config": 1,
            "experiment.run_stability": 1, "experiment.run_directory": 1,
            "steady.self_consistent_solve": 1,
            "steady.solve_state_multipliers": iterations,
            "steady.build_F_phi": iterations,
            "solver.evolve": 1, "solver.strang_step": STEPS,
            "solver.advect_theta": 2 * STEPS, "solver.advect_v": STEPS,
            "functionals.orbital_distance": records,
            "functionals.diagnostics": records,
            "casimir.CasimirSpec.j": records,
            "interaction.solve_potential": iterations + STEPS + records,
            "grid.save_snapshot": 0, "grid.load_snapshot": 0,
            "rearrange.rearrange_with_energy": 0,
        }

    return Plan([Command(["stability", "--config", cfg], _check_stability(records))],
                [cfg], expected)


def ground_states(work, seed):
    """Both steady families, then rearrange and diag on noisy copies."""
    n = 256
    commands, configs, inputs = [], [], []
    for stream, (name, state) in enumerate((("entropy", ENTROPY),
                                            ("power2", POWER2))):
        cfg = _write_config(work, "steady_" + name, _state_keys(state, n))
        commands.append(Command(["steady", "--config", cfg], _check_steady(state)))
        configs.append(cfg)
        inputs.append((_noisy_input(work, name, _ground_state(state, n), seed,
                                    stream), state["casimir"]))
    for snap, casimir in inputs:
        cfg = _write_config(work, "rearrange_" + casimir.replace(":", ""),
                            {"rearrange.phi": "self"})
        commands.append(Command(["rearrange", "--config", cfg, "--input", snap],
                                _check_rearrange(snap)))
        configs.append(cfg)
    for snap, casimir in inputs:
        cfg = _write_config(work, "diag_" + casimir.replace(":", ""),
                            {"casimir": casimir})
        commands.append(Command(["diag", "--config", cfg, "--input", snap],
                                _check_diag(snap, casimir)))
        configs.append(cfg)

    def expected(facts, metrics):
        iterations = sum(f.get("iterations", 0) for f in facts)
        return {
            "cli.main": 6, "config.load_config": 6,
            "experiment.run_steady": 2, "experiment.run_rearrange": 2,
            "experiment.run_diag": 2, "experiment.run_directory": 6,
            "steady.self_consistent_solve": 2,
            "steady.self_consistent_solve.iterations": iterations,
            "steady.solve_state_multipliers": iterations,
            "steady.build_F_phi": iterations,
            # per steady: the iterations plus two in the report's
            # hamiltonian and free energy; one per rearrange and diag
            "interaction.solve_potential": iterations + 4 + 2 + 2,
            "rearrange.rearrange_with_energy": 2, "rearrange.compose_profile": 2,
            "rearrange.level_band_defect": 2,
            "rearrange.equimeasurability_defect": 2,
            "functionals.diagnostics": 2, "functionals.write_diagnostics_csv": 2,
            # two Casimir integrals per steady report, one per diag
            "casimir.CasimirSpec.j": 2 * 2 + 2,
            "grid.save_snapshot": 4, "grid.load_snapshot": 4,
            "solver.strang_step": 0, "functionals.orbital_distance": 0,
        }

    return Plan(commands, configs, expected)


WORKLOADS = {
    "evolve": evolve,
    "evolve_cubic_snapshots": evolve_cubic_snapshots,
    "stability": stability,
    "ground_states": ground_states,
}
