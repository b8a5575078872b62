"""Flat key = value configuration files for the command-line harness.

A config is plain text, one `key = value` per line, `#` starting a comment
and blank lines ignored.  Dots group related keys (grid.*, solver.*, ...).
Unknown keys are rejected so typos fail loudly.  The fully resolved config
text is canonical: its sha256, together with the command and the input
snapshot, names each run's output directory (ExperimentConfig.run_key).
"""

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

from .casimir import POWER, parse_casimir
from .errors import ConfigError
from .grid import PhaseGrid
from .solver import SolverConfig
from .steady import ConstraintSet, _check_constraint, _check_fixed_point_settings

_PERTURBATION_KINDS = ("density_bump", "velocity_shift", "random_noise")
_PHI_SOURCES = ("self", "zero")


def _parse_bool(text):
    low = text.strip().lower()
    if low == "true":
        return True
    if low == "false":
        return False
    raise ValueError("expected true or false, got %r" % text)


def _key(name, default):
    """A dataclass field read from config key `name`, with its default."""
    return field(default=default, metadata={"key": name})


# annotation -> parser of a key's raw string value; an annotation missing
# here (a new type, or a string under postponed evaluation) fails at import
_PARSERS = {int: int, float: float, float | None: float, str: str,
            bool: _parse_bool}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration with every key at its final value.

    Each field names its config key.  A default of None means the key may
    stay unset; commands that need it complain by name.
    """

    n_theta: int = _key("grid.n_theta", 128)
    n_v: int = _key("grid.n_v", 128)
    v_max: float = _key("grid.v_max", 6.0)
    casimir: str = _key("casimir", "entropy")
    m1: float | None = _key("constraints.m1", None)
    mj: float | None = _key("constraints.mj", None)
    damping: float = _key("solver.damping", 0.5)
    tol: float = _key("solver.tol", 1e-9)
    max_iter: int = _key("solver.max_iter", 10000)
    seed_amplitude: float = _key("seed.amplitude", 0.0)
    dt: float = _key("solver.dt", 0.05)
    t_end: float = _key("solver.t_end", 10.0)
    interpolation: str = _key("solver.interpolation", "linear")
    record_every: int = _key("solver.record_every", 1)
    snapshot_every: int = _key("solver.snapshot_every", 0)
    kind: str = _key("perturbation.kind", "density_bump")
    amplitude: float = _key("perturbation.amplitude", 0.0)
    seed: int = _key("perturbation.seed", 0)
    renormalize: bool = _key("perturbation.renormalize", False)
    phi_source: str = _key("rearrange.phi", "self")
    output_dir: str = _key("output.dir", "runs")

    def __post_init__(self):
        try:
            parse_casimir(self.casimir)
        except ValueError as exc:
            raise ConfigError("casimir: %s" % exc) from exc
        try:
            self.grid()
        except ValueError as exc:
            # the grid and solver checks name the offending attribute first
            raise ConfigError("grid.%s" % exc) from exc
        for key, value in (("m1", self.m1), ("mj", self.mj)):
            try:
                if value is not None:
                    _check_constraint(key, value)
            except ValueError as exc:
                raise ConfigError("constraints.%s" % exc) from exc
        if self.mj is not None and self.casimir_spec().family != POWER:
            raise ConfigError("constraints.mj needs a power casimir")
        if self.kind not in _PERTURBATION_KINDS:
            raise ConfigError("perturbation.kind must be one of %s"
                              % ", ".join(_PERTURBATION_KINDS))
        if not math.isfinite(self.seed_amplitude):
            raise ConfigError("seed.amplitude must be finite")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise ConfigError(
                "perturbation.amplitude must be finite and nonnegative")
        # 1 + a cos(theta) must stay nonnegative
        if self.kind == "density_bump" and self.amplitude > 1.0:
            raise ConfigError(
                "perturbation.amplitude must be at most 1 for density_bump")
        # a shift of 2 v_max or more moves all mass out of the box
        if self.kind == "velocity_shift" and not self.amplitude < 2.0 * self.v_max:
            raise ConfigError("perturbation.amplitude must be below "
                              "2 * grid.v_max for velocity_shift")
        # numpy's generator takes no negative seed
        if self.seed < 0:
            raise ConfigError("perturbation.seed must be nonnegative")
        if self.phi_source not in _PHI_SOURCES:
            raise ConfigError("rearrange.phi must be 'self' or 'zero'")
        if self.snapshot_every < 0:
            raise ConfigError("solver.snapshot_every must be nonnegative")
        try:
            _check_fixed_point_settings(self.damping, self.tol, self.max_iter)
            self.solver_config()
        except ValueError as exc:
            raise ConfigError("solver.%s" % exc) from exc

    def grid(self):
        return PhaseGrid(self.n_theta, self.n_v, self.v_max)

    def casimir_spec(self):
        return parse_casimir(self.casimir)

    def constraints(self):
        if self.m1 is None:
            raise ConfigError("missing key constraints.m1")
        return ConstraintSet(m1=self.m1, mj=self.mj)

    def solver_config(self):
        return SolverConfig(dt=self.dt, t_end=self.t_end,
                            interpolation=self.interpolation,
                            record_every=self.record_every)

    def canonical_text(self):
        """Every key in sorted order at its resolved value."""
        return key_value_text((key, getattr(self, _KEYS[key][0]))
                              for key in sorted(_KEYS))

    def run_key(self, command, input_sha256):
        """Name of a run directory: the first ten hex digits of the sha256
        of the canonical text, the command and the input snapshot's sha256
        (None without an input)."""
        text = self.canonical_text() + key_value_text(
            [("command", command), ("input_sha256", input_sha256)])
        return hashlib.sha256(text.encode()).hexdigest()[:10]

    def with_value(self, key, raw_value):
        """A copy with one key replaced by a raw string value."""
        if key not in _KEYS:
            raise ConfigError("unknown key %r" % key)
        attr, value = _parse_value(key, raw_value)
        return replace(self, **{attr: value})


# key -> (attribute, parser), in field order
_KEYS = {f.metadata["key"]: (f.name, _PARSERS[f.type])
         for f in fields(ExperimentConfig)}


def _parse_value(key, raw_value):
    """(attribute, parsed value) of one known key's raw string value."""
    attr, parser = _KEYS[key]
    try:
        return attr, parser(raw_value)
    except ValueError as exc:
        raise ConfigError("bad value for %s: %s" % (key, exc)) from exc


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def key_value_text(pairs):
    """The text of config.txt and of every run report: one ``key = value``
    line per pair, None values skipped, floats to 17 significant digits."""
    return "".join("%s = %s\n" % (key, _format_value(value))
                   for key, value in pairs if value is not None)


def parse_config(text):
    """Parse config text into an ExperimentConfig.

    Raises ConfigError on unknown keys, bad values, or repeated keys.
    """
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d is not a key = value pair: %r"
                              % (lineno, raw.strip()))
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError("unknown key %r on line %d" % (key, lineno))
        if key in seen:
            raise ConfigError("key %r repeated on line %d" % (key, lineno))
        seen[key] = value
    return ExperimentConfig(**dict(_parse_value(key, value)
                                   for key, value in seen.items()))


def load_config(path):
    """Read and parse a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    return parse_config(text)
