"""End-to-end command-line runs: artifacts, exit codes, determinism."""

import ctypes
import math
import os
import struct
import time
from types import SimpleNamespace

import numpy as np
import pytest

import hmfp.cli
import hmfp.experiment
from hmfp.casimir import entropy_spec
from hmfp.cli import main
from hmfp.config import load_config
from hmfp.experiment import STABILITY_HEADER, perturb, read_input
from hmfp.functionals import (
    diagnostics,
    mass,
    orbital_distance,
    read_diagnostics_csv,
)
from hmfp.grid import (
    DistributionField,
    field_from_function,
    load_snapshot,
    make_grid,
    save_snapshot,
)

from conftest import drain_field, maxwellian

ENTROPY_FLAT_MASS = 2.0 * math.pi * math.sqrt(2.0 * math.pi)
POWER2_M1 = 4.0 * math.pi * math.sqrt(2.0) / 3.0
POWER2_MJ = 8.0 * math.pi * math.sqrt(2.0) / 15.0


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_probe_snapshot(tmp_path, n=64, time=0.0):
    g = make_grid(n, n, 6.0)
    f = field_from_function(
        g, lambda th, v: np.exp(-0.5 * v * v) * (1.0 + 0.3 * np.cos(th)))
    path = str(tmp_path / "probe.snap")
    save_snapshot(f, time, path)
    return path, f


def report_values(run_dir):
    out = {}
    with open(os.path.join(run_dir, "report.txt")) as fh:
        for line in fh:
            key, _, value = line.partition("=")
            out[key.strip()] = float(value)
    return out


def run_dirs(tmp_path):
    root = tmp_path / "runs"
    return sorted(str(p) for p in root.iterdir()) if root.exists() else []


# ---------------------------------------------------------------------------
# steady


def test_steady_entropy_report_matches_closed_form(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path,
                    "grid.n_theta = 64\ngrid.n_v = 64\n"
                    "constraints.m1 = %.17g\n" % ENTROPY_FLAT_MASS)
    assert main(["steady", "--config", cfg]) == 0
    line = capsys.readouterr().out
    assert "lambda" in line and "iterations" in line
    (run_dir,) = run_dirs(tmp_path)
    report = report_values(run_dir)
    assert abs(report["lambda"]) <= 1e-9
    assert report["residual"] <= 1e-9
    field, t0 = load_snapshot(os.path.join(run_dir, "state.snap"))
    assert t0 == 0.0
    assert mass(field) == pytest.approx(ENTROPY_FLAT_MASS, rel=1e-8)
    assert os.path.exists(os.path.join(run_dir, "config.txt"))


def test_steady_power_two_report_hits_unit_multipliers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path,
                    "grid.n_theta = 64\ngrid.n_v = 64\ncasimir = power:2\n"
                    "constraints.m1 = %.17g\nconstraints.mj = %.17g\n"
                    % (POWER2_M1, POWER2_MJ))
    assert main(["steady", "--config", cfg]) == 0
    (run_dir,) = run_dirs(tmp_path)
    report = report_values(run_dir)
    assert abs(report["lambda"] - 1.0) <= 1e-7
    assert abs(report["mu"] + 1.0) <= 1e-7
    assert report["constraint_mj"] == POWER2_MJ


def test_steady_warns_when_the_grid_misses_the_mass_constraint(tmp_path, monkeypatch,
                                                               capsys):
    # the multipliers meet m1 over the whole velocity line; this 16^2 grid
    # holds two thirds of that mass
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "grid.n_theta = 16\ngrid.n_v = 16\n"
                              "casimir = power:1.05\nconstraints.m1 = 3\n")
    assert main(["steady", "--config", cfg]) == 0
    captured = capsys.readouterr()
    (run_dir,) = run_dirs(tmp_path)
    report = report_values(run_dir)
    assert abs(report["mass"] - 3.0) > 0.3
    assert captured.err.count("\n") == 1
    assert "grid mass %.6g" % report["mass"] in captured.err
    assert "constraints.m1 = 3" in captured.err
    assert "grid.n_v" in captured.err and "grid.v_max" in captured.err
    assert captured.out.count("\n") == 1
    assert captured.out.startswith(os.path.relpath(run_dir) + ": lambda = ")


def test_steady_is_silent_when_the_grid_holds_the_mass(tmp_path, monkeypatch,
                                                       capsys):
    # a relative miss of 3.4e-3, below the 1e-2 warning threshold
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "grid.n_theta = 64\ngrid.n_v = 64\n"
                              "casimir = power:2\nconstraints.m1 = 3\n")
    assert main(["steady", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    (run_dir,) = run_dirs(tmp_path)
    assert abs(report_values(run_dir)["mass"] - 3.0) > 1e-3


@pytest.mark.parametrize("keys", [
    "casimir = entropy\nconstraints.m1 = %.17g\nseed.amplitude = 0.5\n"
    % (4.0 * math.pi),
    "casimir = power:2\nconstraints.m1 = %.17g\nconstraints.mj = %.17g\n"
    "seed.amplitude = 0.2\n" % (POWER2_M1, POWER2_MJ),
], ids=["entropy", "power2"])
def test_steady_benchmark_ground_states_warn_nothing(tmp_path, monkeypatch, capsys,
                                                     keys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "grid.n_theta = 256\ngrid.n_v = 256\n"
                              "solver.tol = 1e-9\n" + keys)
    assert main(["steady", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""


def test_steady_missing_mass_key_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "casimir = entropy\n")
    assert main(["steady", "--config", cfg]) == 1
    assert "constraints.m1" in capsys.readouterr().err


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "steady.tol = 1e-8\n")
    assert main(["steady", "--config", cfg]) == 1
    assert "steady.tol" in capsys.readouterr().err


@pytest.mark.parametrize("snapshot", ["ghost.snap", "probe.snap"])
def test_steady_rejects_an_input_snapshot(tmp_path, monkeypatch, capsys,
                                          snapshot):
    monkeypatch.chdir(tmp_path)
    write_probe_snapshot(tmp_path)
    cfg = write_cfg(tmp_path, "grid.n_theta = 16\ngrid.n_v = 16\n"
                              "constraints.m1 = 3.0\n")
    assert main(["steady", "--config", cfg,
                 "--input", str(tmp_path / snapshot)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--input" in err
    assert run_dirs(tmp_path) == []


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["steady", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_undecodable_config_file_exits_one(tmp_path, capsys):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"\xff\xfe")
    assert main(["steady", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cannot read config" in err


def test_nonconvergence_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path,
                    "grid.n_theta = 64\ngrid.n_v = 64\n"
                    "constraints.m1 = %.17g\nseed.amplitude = 0.5\n"
                    "solver.max_iter = 2\n" % (4.0 * math.pi))
    assert main(["steady", "--config", cfg]) == 2
    assert "did not converge" in capsys.readouterr().err


# Each case sets the given keys; the message must name the last one.
@pytest.mark.parametrize("case", [
    {"grid.n_theta": "4"},
    {"grid.v_max": "0"},
    {"grid.v_max": "inf"},
    # 2 v_max overflows, and with it d_v
    {"grid.v_max": "1e308"},
    # v_max**2 overflows, and with it the microscopic energy
    {"grid.v_max": "1e200"},
    {"casimir": "power:inf"},
    # the closed-form coefficients overflow below p = 1 + 1/169
    {"casimir": "power:1.001"},
    {"perturbation.seed": "-1"},
    {"solver.damping": "0"},
    {"solver.max_iter": "0"},
    {"solver.tol": "-1"},
    # an infinite tol would pass the first defect, whatever it is
    {"solver.tol": "inf"},
    {"solver.dt": "0"},
    # round(t_end / dt) = 5e299 steps would never end
    {"solver.dt": "1e-300"},
    {"solver.t_end": "-1"},
    {"solver.t_end": "nan"},
    {"solver.t_end": "inf"},
    {"solver.interpolation": "quintic"},
    {"solver.record_every": "0"},
    {"seed.amplitude": "nan"},
    {"seed.amplitude": "inf"},
    {"perturbation.amplitude": "nan"},
    {"perturbation.amplitude": "1.5"},
    # a shift of 2 v_max (v_max = 6) empties the velocity box
    {"perturbation.kind": "velocity_shift", "perturbation.amplitude": "12"},
    {"perturbation.kind": "velocity_shift", "perturbation.amplitude": "1e300"},
    {"constraints.m1": "inf"},
    {"casimir": "power:2", "constraints.mj": "inf"},
    # the entropy family has no second constraint
    {"casimir": "entropy", "constraints.mj": "1.0"},
], ids=lambda case: "-".join("%s-%s" % kv for kv in case.items()))
def test_out_of_range_config_value_exits_one(tmp_path, monkeypatch, capsys,
                                             case):
    monkeypatch.chdir(tmp_path)
    keys = {"grid.n_theta": "16", "grid.n_v": "16", "constraints.m1": "3.0",
            "solver.max_iter": "3", **case}
    cfg = write_cfg(tmp_path, "".join("%s = %s\n" % kv for kv in keys.items()))
    assert main(["steady", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(case)[-1] in err
    assert run_dirs(tmp_path) == []


# ---------------------------------------------------------------------------
# evolve


def test_evolve_without_input_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "solver.t_end = 1.0\n")
    assert main(["evolve", "--config", cfg]) == 1
    assert "--input" in capsys.readouterr().err


def test_evolve_zero_horizon_round_trips_the_snapshot(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    snap, f0 = write_probe_snapshot(tmp_path, time=1.5)
    cfg = write_cfg(tmp_path, "solver.t_end = 0.0\nsolver.dt = 0.1\n")
    assert main(["evolve", "--config", cfg, "--input", snap]) == 0
    (run_dir,) = run_dirs(tmp_path)
    field, t_out = load_snapshot(os.path.join(run_dir, "final.snap"))
    assert t_out == 1.5
    assert np.array_equal(field.values, f0.values)
    rows = read_diagnostics_csv(os.path.join(run_dir, "diagnostics.csv"))
    assert len(rows) == 1 and rows[0].time == 1.5


def test_run_directory_is_named_by_command_config_and_input(tmp_path,
                                                            monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    snap, f = write_probe_snapshot(tmp_path, n=16)
    other = str(tmp_path / "other.snap")
    save_snapshot(f, 0.5, other)
    copy = str(tmp_path / "copy.snap")
    with open(snap, "rb") as src, open(copy, "wb") as dst:
        dst.write(src.read())
    cfg = write_cfg(tmp_path, "grid.n_theta = 16\ngrid.n_v = 16\n"
                              "constraints.m1 = 3.0\nsolver.t_end = 0.1\n")

    def run(*argv):
        assert main(list(argv) + ["--config", cfg]) == 0
        return capsys.readouterr().out.partition(": ")[0]

    steady = run("steady")
    evolve = run("evolve", "--input", snap)
    evolve_other = run("evolve", "--input", other)
    assert len({steady, evolve, evolve_other}) == 3
    assert len(run_dirs(tmp_path)) == 3
    # the key hashes the input's bytes, not its path
    assert run("evolve", "--input", copy) == evolve
    assert run("steady") == steady
    assert len(run_dirs(tmp_path)) == 3
    assert os.path.exists(os.path.join(steady, "state.snap"))
    # the sweep check keys each variant as its run does
    assert main(["steady", "--config", cfg,
                 "--sweep", "constraints.m1=3.0,3"]) == 1
    assert os.path.basename(steady) in capsys.readouterr().err


def test_evolve_reruns_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    snap, _ = write_probe_snapshot(tmp_path)
    cfg = write_cfg(tmp_path, "solver.t_end = 0.5\nsolver.dt = 0.05\n")
    assert main(["evolve", "--config", cfg, "--input", snap]) == 0
    (run_dir,) = run_dirs(tmp_path)
    first = {}
    for name in ("diagnostics.csv", "final.snap"):
        with open(os.path.join(run_dir, name), "rb") as fh:
            first[name] = fh.read()
    assert main(["evolve", "--config", cfg, "--input", snap]) == 0
    for name, payload in first.items():
        with open(os.path.join(run_dir, name), "rb") as fh:
            assert fh.read() == payload


def test_evolve_record_rows_and_snapshot_cadence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    snap, _ = write_probe_snapshot(tmp_path)
    cfg = write_cfg(tmp_path,
                    "solver.t_end = 1.0\nsolver.dt = 0.1\n"
                    "solver.record_every = 3\nsolver.snapshot_every = 2\n")
    assert main(["evolve", "--config", cfg, "--input", snap]) == 0
    (run_dir,) = run_dirs(tmp_path)
    rows = read_diagnostics_csv(os.path.join(run_dir, "diagnostics.csv"))
    assert len(rows) == 10 // 3 + 1
    assert [r.time for r in rows] == pytest.approx([0.0, 0.3, 0.6, 0.9])
    snaps = sorted(p for p in os.listdir(run_dir) if p.startswith("snap_"))
    assert snaps == ["snap_000000.snap", "snap_000002.snap"]


@pytest.mark.filterwarnings("ignore:overflow")
def test_evolve_abort_exits_three(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    g = make_grid(64, 64, 6.0)
    f = field_from_function(
        g, lambda th, v: 1e307 * (1.0 + np.cos(th)) * np.exp(-0.5 * v * v))
    snap = str(tmp_path / "huge.snap")
    save_snapshot(f, 0.0, snap)
    cfg = write_cfg(tmp_path, "solver.t_end = 0.5\nsolver.dt = 0.1\n")
    assert main(["evolve", "--config", cfg, "--input", snap]) == 3
    assert "solver aborted" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# stability


def test_stability_unperturbed_state_stays_put(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path,
                    "grid.n_theta = 64\ngrid.n_v = 64\n"
                    "constraints.m1 = %.17g\nsolver.dt = 0.1\n"
                    "solver.t_end = 1.0\n" % math.pi)
    assert main(["stability", "--config", cfg]) == 0
    line = capsys.readouterr().out
    sup = float(line.rpartition("=")[2])
    assert sup <= 1e-12
    (run_dir,) = run_dirs(tmp_path)
    with open(os.path.join(run_dir, "summary.txt")) as fh:
        assert "sup_orbital_distance" in fh.read()


def test_stability_velocity_shift_stays_near_the_shifted_orbit(
        tmp_path, monkeypatch, capsys):
    """A boosted state keeps its initial distance, so sup d sits at d(0)."""
    monkeypatch.chdir(tmp_path)
    eta = 0.05
    cfg = write_cfg(tmp_path,
                    "grid.n_theta = 64\ngrid.n_v = 64\n"
                    "constraints.m1 = %.17g\nsolver.dt = 0.1\n"
                    "solver.t_end = 2.0\nperturbation.kind = velocity_shift\n"
                    "perturbation.amplitude = %.17g\n" % (math.pi, eta))
    assert main(["stability", "--config", cfg]) == 0
    sup = float(capsys.readouterr().out.rpartition("=")[2])
    base = maxwellian(make_grid(64, 64, 6.0), math.pi)
    start = perturb(base, "velocity_shift", eta, 0)
    d0, _ = orbital_distance(start, base)
    assert d0 <= 10.0 * eta
    assert sup <= 1.05 * d0 + 1e-12


def test_stability_csv_layout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path,
                    "grid.n_theta = 64\ngrid.n_v = 64\n"
                    "constraints.m1 = %.17g\nsolver.dt = 0.1\n"
                    "solver.t_end = 1.0\nsolver.record_every = 5\n"
                    "perturbation.amplitude = 1e-3\n" % math.pi)
    assert main(["stability", "--config", cfg]) == 0
    (run_dir,) = run_dirs(tmp_path)
    with open(os.path.join(run_dir, "stability.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == STABILITY_HEADER
    assert len(lines) == 1 + (10 // 5 + 1)
    for line in lines[1:]:
        assert len(line.split(",")) == 6
        float(line.split(",")[1])


@pytest.mark.parametrize("amplitude", [0.5, 1.5])
def test_random_noise_is_seeded_and_bounded(amplitude):
    base = gaussian_field()
    noisy = perturb(base, "random_noise", amplitude, 7)
    again = perturb(base, "random_noise", amplitude, 7)
    other = perturb(base, "random_noise", amplitude, 8)
    assert noisy.values.tobytes() == again.values.tobytes()
    assert not np.array_equal(noisy.values, other.values)
    # 1 +- amplitude are exact here, so the bounds hold without slack
    f = base.values
    assert np.all(noisy.values >= np.maximum(1.0 - amplitude, 0.0) * f)
    assert np.all(noisy.values <= (1.0 + amplitude) * f)
    # above 1 the negative factors clip to zero
    assert noisy.values.min() >= 0.0
    assert (noisy.values == 0.0).any() == (amplitude > 1.0)


# ---------------------------------------------------------------------------
# inputs whose mass cannot be kept


def zero_field():
    return DistributionField(make_grid(16, 16, 1.0), np.zeros((16, 16)))


def gaussian_field():
    return maxwellian(make_grid(16, 16, 6.0), 1.0)


def subnormal_field():
    return DistributionField(make_grid(16, 16, 6.0), np.full((16, 16), 5e-324))


def huge_field():
    return DistributionField(make_grid(16, 16, 6.0), np.full((16, 16), 1e300))


RENORMALIZE = "perturbation.renormalize = true\n"
POWER2_PAIR = "casimir = power:2\nconstraints.m1 = 3\nconstraints.mj = 1\n"


@pytest.mark.parametrize("command, make_input, keys, code, message", [
    ("evolve", drain_field, "", 3,
     "solver aborted: aborted at step 1: all mass left the velocity box"),
    ("stability", drain_field, "", 3,
     "solver aborted: aborted at step 1: all mass left the velocity box"),
    ("stability", zero_field, RENORMALIZE + "constraints.m1 = 1.0\n", 1,
     "perturbation.renormalize: cannot renormalize the zero field"),
    ("stability", gaussian_field, RENORMALIZE + "constraints.m1 = 1e-9\n", 1,
     "perturbation.renormalize: renormalization dilated all mass out of the grid"),
    # j = t**2 underflows to 0 in every cell
    ("stability", subnormal_field, RENORMALIZE + POWER2_PAIR, 1,
     "perturbation.renormalize: the casimir integral of the field is 0,"),
    # j = t**2 overflows in every cell
    ("stability", huge_field, RENORMALIZE + POWER2_PAIR, 1,
     "perturbation.renormalize: the casimir integral of the field is inf,"),
    # gamma = (mj / m1 ...)**100 overflows
    ("stability", gaussian_field, RENORMALIZE + "casimir = power:1.01\n"
     "constraints.m1 = 1\nconstraints.mj = 1e6\n", 1,
     "perturbation.renormalize: the amplitude factor overflows"),
])
def test_unkeepable_mass_exits_with_one_line(tmp_path, monkeypatch, capsys,
                                             command, make_input, keys, code,
                                             message):
    monkeypatch.chdir(tmp_path)
    snap = str(tmp_path / "input.snap")
    save_snapshot(make_input(), 0.0, snap)
    cfg = write_cfg(tmp_path, "solver.dt = 0.5\nsolver.t_end = 0.5\n" + keys)
    assert main([command, "--config", cfg, "--input", snap]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert message in err


def huge_rows_field():
    # every value is finite, but each row sums past the largest double
    return DistributionField(make_grid(16, 32, 6.0), np.full((16, 32), 1e307))


POWER2_16 = ("grid.n_theta = 16\ngrid.n_v = 16\ncasimir = power:2\n"
             "constraints.mj = 1\n")


# numpy still warns on stderr about the overflow in the diag and rearrange
# rows before the one line
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, keys, message", [
    ("diag", "", "hmfp: "),
    ("rearrange", "", "hmfp: "),
    # p |mu| underflows, and (p |mu|)**-k overflows
    ("steady", POWER2_16 + "constraints.m1 = 1e200\n",
     "hmfp: the velocity-integral coefficient (p|mu|)**-k overflows at "
     "p|mu| = "),
], ids=["diag", "rearrange", "steady"])
def test_overflow_exits_one_with_an_hmfp_line(tmp_path, monkeypatch, capsys,
                                              command, keys, message):
    monkeypatch.chdir(tmp_path)
    args = [command, "--config", write_cfg(tmp_path, keys)]
    if command != "steady":
        snap = str(tmp_path / "huge.snap")
        save_snapshot(huge_rows_field(), 0.0, snap)
        args += ["--input", snap]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(message)
    assert run_dirs(tmp_path) == []


def test_unbracketable_casimir_value_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, POWER2_16 + "constraints.m1 = 1e-300\n")
    assert main(["steady", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("hmfp: did not converge: solve_multipliers_two: "
                          "could not bracket the Casimir value")


# ---------------------------------------------------------------------------
# rearrange and diag


def test_rearrange_zero_phi_output_is_theta_independent(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    snap, f0 = write_probe_snapshot(tmp_path)
    cfg = write_cfg(tmp_path, "rearrange.phi = zero\n")
    assert main(["rearrange", "--config", cfg, "--input", snap]) == 0
    (run_dir,) = run_dirs(tmp_path)
    out, _ = load_snapshot(os.path.join(run_dir, "rearranged.snap"))
    assert np.ptp(out.values, axis=0).max() == 0.0
    g = f0.grid
    tol = 4.0 * g.d_theta * g.d_v * f0.values.max()
    assert abs(mass(out) - mass(f0)) <= tol


def test_rearrange_own_output_has_zero_banded_defect(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    snap, _ = write_probe_snapshot(tmp_path)
    cfg = write_cfg(tmp_path, "rearrange.phi = self\n")
    assert main(["rearrange", "--config", cfg, "--input", snap]) == 0
    (run_dir,) = run_dirs(tmp_path)
    capsys.readouterr()
    again = os.path.join(run_dir, "rearranged.snap")
    cfg2 = write_cfg(tmp_path, "rearrange.phi = self\noutput.dir = runs2\n",
                     name="again.cfg")
    assert main(["rearrange", "--config", cfg2, "--input", again]) == 0
    banded = float(capsys.readouterr().out.rpartition("=")[2])
    assert banded == 0.0


def test_diag_row_matches_the_library(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    snap, f0 = write_probe_snapshot(tmp_path, time=2.5)
    cfg = write_cfg(tmp_path, "casimir = entropy\n")
    assert main(["diag", "--config", cfg, "--input", snap]) == 0
    (run_dir,) = run_dirs(tmp_path)
    rows = read_diagnostics_csv(os.path.join(run_dir, "diag.csv"))
    expected = diagnostics(f0, entropy_spec(), 2.5)
    assert len(rows) == 1
    assert rows[0] == expected
    assert expected.to_csv() in capsys.readouterr().out


def test_rearrange_zero_snapshot_reports_no_defect_and_no_mass(
        tmp_path, monkeypatch, capsys):
    # every level ladder of the zero field is [0.0]
    monkeypatch.chdir(tmp_path)
    snap = str(tmp_path / "zero.snap")
    save_snapshot(DistributionField(make_grid(16, 16, 6.0), np.zeros((16, 16))),
                  0.0, snap)
    cfg = write_cfg(tmp_path, "rearrange.phi = self\n")
    assert main(["rearrange", "--config", cfg, "--input", snap]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith("banded equimeasurability defect = 0\n")
    (run_dir,) = run_dirs(tmp_path)
    with open(os.path.join(run_dir, "rearrange_report.txt")) as fh:
        report = dict(line.split(" = ") for line in fh.read().splitlines())
    assert {k: float(v) for k, v in report.items()} == {
        "sup_level_defect": 0.0, "banded_defect": 0.0,
        "mass_in": 0.0, "mass_out": 0.0}


def test_unwritable_output_dir_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    snap, _ = write_probe_snapshot(tmp_path, n=16)
    (tmp_path / "blocker").write_text("a file, not a directory\n")
    cfg = write_cfg(tmp_path, "output.dir = blocker/runs\n")
    assert main(["diag", "--config", cfg, "--input", snap]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("hmfp: [Errno ") and "Not a directory" in err


def test_diag_missing_snapshot_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "casimir = entropy\n")
    assert main(["diag", "--config", cfg,
                 "--input", str(tmp_path / "ghost.snap")]) == 1
    assert "cannot read snapshot" in capsys.readouterr().err


ONES_8X8 = struct.pack("<64d", *[1.0] * 64)


@pytest.mark.parametrize("data", [
    b"HMFP0 8 8 6 0\n" + b"1 " * 64 + b"\n",
    b"HMFP1 8 8 6 0\n" + b"1 " * 63 + b"\n",
    b"HMFP2 8 8 6 0\n" + ONES_8X8[:-1],
    b"HMFP2 8 8 6 0\n" + ONES_8X8 + b"\0",
    b"HMFP2 8 8 6 \xb5\n" + ONES_8X8,
    b"HMFP2 8 8 6 nan\n" + ONES_8X8,
    b"HMFP2 8 8 6 inf\n" + ONES_8X8,
    b"HMFP2 8 8 6 -inf\n" + ONES_8X8,
], ids=["bad_magic", "short_data", "truncated_binary", "oversized_binary",
        "non_ascii_header", "nan_time", "inf_time", "minus_inf_time"])
def test_malformed_snapshot_exits_one(tmp_path, capsys, data):
    snap = tmp_path / "bad.snap"
    snap.write_bytes(data)
    cfg = write_cfg(tmp_path, "casimir = entropy\n")
    assert main(["diag", "--config", cfg, "--input", str(snap)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "cannot read snapshot" in err


# ---------------------------------------------------------------------------
# sweeps and argument surface


def test_sweep_fans_out_into_isolated_directories(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HMFP_THREADS", "1")
    cfg = write_cfg(tmp_path,
                    "grid.n_theta = 64\ngrid.n_v = 64\n"
                    "constraints.m1 = 3.0\n")
    assert main(["steady", "--config", cfg,
                 "--sweep", "constraints.m1=3.0,4.0"]) == 0
    dirs = run_dirs(tmp_path)
    assert len(dirs) == 2
    masses = set()
    for d in dirs:
        assert os.path.exists(os.path.join(d, "state.snap"))
        masses.add(round(report_values(d)["constraint_m1"], 12))
    assert masses == {3.0, 4.0}
    assert capsys.readouterr().out.count("lambda") == 2


def test_sweep_lines_are_whole_and_in_listed_order(tmp_path, monkeypatch,
                                                   capsys):
    """The first variant finishes last, yet its line still comes first."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HMFP_THREADS", "4")
    snap, _ = write_probe_snapshot(tmp_path, n=16)
    values = ["0.1", "0.2", "0.3", "0.4"]
    delays = {0.1: 0.4, 0.2: 0.3, 0.3: 0.2, 0.4: 0.1}
    real_run_diag = hmfp.cli.run_diag

    def slow_run_diag(cfg, snapshot):
        time.sleep(delays[cfg.dt])
        return real_run_diag(cfg, snapshot)

    monkeypatch.setattr(hmfp.cli, "run_diag", slow_run_diag)
    cfg_path = write_cfg(tmp_path, "casimir = entropy\n")
    assert main(["diag", "--config", cfg_path, "--input", snap,
                 "--sweep", "solver.dt=" + ",".join(values)]) == 0
    cfg = load_config(cfg_path)
    _, _, digest = read_input(snap)
    dirs = [os.path.join("runs", cfg.with_value("solver.dt", v).run_key("diag", digest))
            for v in values]
    lines = capsys.readouterr().out.splitlines()
    assert [line.partition(": ")[0] for line in lines] == dirs
    assert all(line.count(": ") == 1 for line in lines)


@pytest.mark.parametrize("sweep", [[], ["--sweep", "solver.dt=0.1,0.2,0.3"]],
                         ids=["single", "sweep"])
def test_input_snapshot_is_loaded_once_per_command_line(tmp_path, monkeypatch,
                                                        capsys, sweep):
    monkeypatch.chdir(tmp_path)
    snap, _ = write_probe_snapshot(tmp_path, n=16)
    loads = []
    real_load_snapshot = hmfp.experiment.load_snapshot

    def counting_load_snapshot(path):
        loads.append(path)
        return real_load_snapshot(path)

    monkeypatch.setattr(hmfp.experiment, "load_snapshot", counting_load_snapshot)
    cfg = write_cfg(tmp_path, "casimir = entropy\n")
    assert main(["diag", "--config", cfg, "--input", snap] + sweep) == 0
    assert loads == [snap]
    assert len(run_dirs(tmp_path)) == (3 if sweep else 1)


# the input is read before the sweep's variants are checked, so the
# duplicate variants of the second case never reach their check
@pytest.mark.parametrize("sweep", ["solver.dt=0.1,0.2", "solver.dt=0.1,0.1"])
def test_sweep_over_a_malformed_input_exits_one(tmp_path, monkeypatch, capsys,
                                                sweep):
    monkeypatch.chdir(tmp_path)
    snap = tmp_path / "bad.snap"
    snap.write_bytes(b"HMFP2 8 8 6 0\n" + ONES_8X8[:-1])
    cfg = write_cfg(tmp_path, "casimir = entropy\n")
    assert main(["diag", "--config", cfg, "--input", str(snap),
                 "--sweep", sweep]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "cannot read snapshot" in err
    assert run_dirs(tmp_path) == []


def test_sweep_bad_syntax_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "constraints.m1 = 3.0\n")
    assert main(["steady", "--config", cfg, "--sweep", "m1"]) == 1
    assert "--sweep" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", [
    "solver.dt=0.05,0.05",
    "solver.dt=0.05,5e-2",
    "constraints.m1=3.0,4.0,3",
])
def test_sweep_sharing_a_run_directory_exits_one(tmp_path, monkeypatch, capsys,
                                                 sweep):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HMFP_THREADS", "1")
    cfg = write_cfg(tmp_path,
                    "grid.n_theta = 32\ngrid.n_v = 32\nconstraints.m1 = 3.0\n")
    assert main(["steady", "--config", cfg, "--sweep", sweep]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "share run directory" in err
    assert run_dirs(tmp_path) == []


def test_worker_count_follows_cpu_affinity(monkeypatch):
    """A process pinned to one of two CPUs gets one worker, not two."""
    monkeypatch.delenv("HMFP_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert hmfp.cli._worker_count(4) == 1
    # without an affinity call the CPU count is all there is to go by
    monkeypatch.delattr(os, "sched_getaffinity")
    assert hmfp.cli._worker_count(4) == 2


def test_bad_thread_cap_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HMFP_THREADS", "plenty")
    cfg = write_cfg(tmp_path,
                    "grid.n_theta = 64\ngrid.n_v = 64\nconstraints.m1 = 3.0\n")
    assert main(["steady", "--config", cfg,
                 "--sweep", "constraints.m1=3.0,4.0"]) == 1
    assert "HMFP_THREADS" in capsys.readouterr().err


def test_argument_parser_surface(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(command in out for command in
               ("steady", "evolve", "stability", "rearrange", "diag"))
    for argv in ([], ["simulate", "--config", "x.cfg"], ["steady"],
                 ["--config", "x.cfg"], ["diag", "--config", "x.cfg", "extra"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("hmfp: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["load_config", "run_steady"])
def test_out_of_memory_exits_one(tmp_path, monkeypatch, capsys, name):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with "
                          "shape (10000000000,) and data type float64")

    monkeypatch.setattr(hmfp.cli, name, exhausted)
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "grid.n_theta = 16\ngrid.n_v = 16\n"
                              "constraints.m1 = 3.0\n")
    assert main(["steady", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("hmfp: out of memory: Unable to allocate 74.5 GiB")


def diag_twice(tmp_path):
    snap, _ = write_probe_snapshot(tmp_path, n=16)
    cfg = write_cfg(tmp_path, "casimir = entropy\n")
    for _ in range(2):
        assert main(["diag", "--config", cfg, "--input", snap]) == 0


@pytest.fixture
def fresh_heap_setting():
    hmfp.cli._hold_freed_heap.cache_clear()
    yield
    hmfp.cli._hold_freed_heap.cache_clear()


def test_main_holds_freed_heap_once_per_process(tmp_path, monkeypatch, capsys,
                                                 fresh_heap_setting):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL",
                        lambda name: SimpleNamespace(mallopt=mallopt))
    monkeypatch.chdir(tmp_path)
    diag_twice(tmp_path)
    # M_MMAP_THRESHOLD = -3 and M_TRIM_THRESHOLD = -1 in glibc's malloc.h
    assert calls == [(-3, 64 << 20), (-1, 128 << 20)]


def test_main_runs_where_libc_has_no_mallopt(tmp_path, monkeypatch, capsys,
                                              fresh_heap_setting):
    # ctypes raises AttributeError for a symbol the library lacks
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
    monkeypatch.chdir(tmp_path)
    diag_twice(tmp_path)
