"""Flat key = value config parsing, validation, and hashing."""

import math

import pytest

from hmfp.config import ExperimentConfig, load_config, parse_config
from hmfp.errors import ConfigError


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg.n_theta == 128
    assert cfg.n_v == 128
    assert cfg.v_max == 6.0
    assert cfg.casimir == "entropy"
    assert cfg.m1 is None
    assert cfg.mj is None
    assert cfg.dt == 0.05
    assert cfg.interpolation == "linear"
    assert cfg.output_dir == "runs"


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_config(
        "# header comment\n"
        "\n"
        "grid.n_theta = 64   # inline comment\n"
        "   \n"
        "solver.dt = 0.1\n")
    assert cfg.n_theta == 64
    assert cfg.dt == 0.1


def test_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError, match=r"grid\.nv.*line 2"):
        parse_config("grid.n_theta = 64\ngrid.nv = 32\n")


def test_repeated_key_is_rejected():
    with pytest.raises(ConfigError, match=r"repeated on line 3"):
        parse_config("solver.dt = 0.1\n\nsolver.dt = 0.2\n")


def test_line_without_assignment_is_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")


def test_bad_value_names_the_key():
    with pytest.raises(ConfigError, match=r"solver\.tol"):
        parse_config("solver.tol = soft\n")
    with pytest.raises(ConfigError, match=r"perturbation\.renormalize"):
        parse_config("perturbation.renormalize = maybe\n")


def test_semantic_validation():
    with pytest.raises(ConfigError):
        parse_config("casimir = power:0.5\n")
    with pytest.raises(ConfigError):
        parse_config("constraints.m1 = -2.0\n")
    with pytest.raises(ConfigError):
        parse_config("perturbation.kind = wiggle\n")
    with pytest.raises(ConfigError):
        parse_config("perturbation.amplitude = -0.1\n")
    with pytest.raises(ConfigError):
        parse_config("rearrange.phi = snapshot\n")
    with pytest.raises(ConfigError):
        parse_config("solver.snapshot_every = -1\n")


def test_missing_mass_constraint_is_named_on_use():
    cfg = parse_config("casimir = entropy\n")
    with pytest.raises(ConfigError, match=r"constraints\.m1"):
        cfg.constraints()


def test_solver_config_bounds_are_reported_as_config_errors():
    with pytest.raises(ConfigError, match="solver.dt"):
        parse_config("solver.dt = 0.7\n")
    with pytest.raises(ConfigError, match="solver.record_every"):
        parse_config("solver.record_every = 0\n")


def test_grid_and_constraint_helpers():
    cfg = parse_config(
        "grid.n_theta = 32\ngrid.n_v = 48\ngrid.v_max = 5.0\n"
        "casimir = power:2\nconstraints.m1 = 3.0\nconstraints.mj = 1.5\n")
    g = cfg.grid()
    assert (g.n_theta, g.n_v, g.v_max) == (32, 48, 5.0)
    cons = cfg.constraints()
    assert cons.m1 == 3.0 and cons.mj == 1.5
    assert cfg.casimir_spec().p == 2.0
    sc = cfg.solver_config()
    assert sc.dt == cfg.dt and sc.t_end == cfg.t_end


def test_canonical_text_round_trips():
    cfg = parse_config(
        "constraints.m1 = 6.2831853\nsolver.dt = 0.025\ncasimir = power:2\n"
        "perturbation.seed = 7\nperturbation.renormalize = true\n")
    again = parse_config(cfg.canonical_text())
    assert again == cfg
    assert again.canonical_text() == cfg.canonical_text()


def test_hash_ignores_formatting_but_not_values():
    a = parse_config("solver.dt = 0.1\ngrid.n_theta = 64\n")
    b = parse_config("# order and spacing differ\ngrid.n_theta=64\n\nsolver.dt   =    0.1\n")
    c = parse_config("solver.dt = 0.1\ngrid.n_theta = 32\n")
    key = a.run_key("steady", None)
    assert key == b.run_key("steady", None)
    assert key != c.run_key("steady", None)
    assert len(key) == 10
    assert set(key) <= set("0123456789abcdef")


def test_hash_covers_float_values_exactly():
    a = parse_config("constraints.m1 = %.17g\n" % math.pi)
    b = parse_config("constraints.m1 = %.17g\n" % (math.pi * (1 + 1e-15)))
    assert a.run_key("steady", None) != b.run_key("steady", None)


def test_with_value_replaces_one_key():
    cfg = parse_config("solver.dt = 0.1\n")
    other = cfg.with_value("solver.dt", "0.2")
    assert other.dt == 0.2
    assert cfg.dt == 0.1
    with pytest.raises(ConfigError, match="unknown key"):
        cfg.with_value("solver.delta", "0.2")
    with pytest.raises(ConfigError, match=r"grid\.n_theta"):
        cfg.with_value("grid.n_theta", "many")


def test_load_config_reports_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


def test_load_config_reads_a_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("grid.n_theta = 64\n# done\n")
    assert load_config(path).n_theta == 64


def test_default_config_is_constructible_directly():
    cfg = ExperimentConfig()
    assert cfg.run_key("steady", None) == parse_config("").run_key("steady", None)
