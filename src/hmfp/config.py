"""Flat key = value configuration files for the command-line harness.

A config is plain text, one `key = value` per line, `#` starting a comment
and blank lines ignored.  Dots group related keys (grid.*, solver.*, ...).
Unknown keys are rejected so typos fail loudly.  The fully resolved config
text is canonical: its sha256, together with the command and the input
snapshot, names each run's output directory (ExperimentConfig.run_key).
"""

import hashlib
import math
from dataclasses import dataclass, replace

from .casimir import POWER, parse_casimir
from .errors import ConfigError
from .grid import PhaseGrid
from .solver import SolverConfig
from .steady import ConstraintSet

_PERTURBATION_KINDS = ("density_bump", "velocity_shift", "random_noise")
_PHI_SOURCES = ("self", "zero")


def _parse_bool(text):
    low = text.strip().lower()
    if low == "true":
        return True
    if low == "false":
        return False
    raise ValueError("expected true or false, got %r" % text)


# key -> (attribute, parser).  The defaults live on ExperimentConfig.
_KEYS = {
    "grid.n_theta": ("n_theta", int),
    "grid.n_v": ("n_v", int),
    "grid.v_max": ("v_max", float),
    "casimir": ("casimir", str),
    "constraints.m1": ("m1", float),
    "constraints.mj": ("mj", float),
    "solver.damping": ("damping", float),
    "solver.tol": ("tol", float),
    "solver.max_iter": ("max_iter", int),
    "seed.amplitude": ("seed_amplitude", float),
    "solver.dt": ("dt", float),
    "solver.t_end": ("t_end", float),
    "solver.interpolation": ("interpolation", str),
    "solver.record_every": ("record_every", int),
    "solver.snapshot_every": ("snapshot_every", int),
    "perturbation.kind": ("kind", str),
    "perturbation.amplitude": ("amplitude", float),
    "perturbation.seed": ("seed", int),
    "perturbation.renormalize": ("renormalize", _parse_bool),
    "rearrange.phi": ("phi_source", str),
    "output.dir": ("output_dir", str),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration with every key at its final value.

    A default of None means the key may stay unset; commands that need it
    complain by name.
    """

    n_theta: int = 128
    n_v: int = 128
    v_max: float = 6.0
    casimir: str = "entropy"
    m1: float | None = None
    mj: float | None = None
    damping: float = 0.5
    tol: float = 1e-9
    max_iter: int = 10000
    seed_amplitude: float = 0.0
    dt: float = 0.05
    t_end: float = 10.0
    interpolation: str = "linear"
    record_every: int = 1
    snapshot_every: int = 0
    kind: str = "density_bump"
    amplitude: float = 0.0
    seed: int = 0
    renormalize: bool = False
    phi_source: str = "self"
    output_dir: str = "runs"

    def __post_init__(self):
        try:
            parse_casimir(self.casimir)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            self.grid()
        except ValueError as exc:
            # PhaseGrid and SolverConfig name the offending attribute first
            raise ConfigError("grid.%s" % exc) from exc
        if self.m1 is not None and not (math.isfinite(self.m1) and self.m1 > 0.0):
            raise ConfigError("constraints.m1 must be finite and positive")
        if self.mj is not None and not (math.isfinite(self.mj) and self.mj > 0.0):
            raise ConfigError("constraints.mj must be finite and positive")
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
        if self.phi_source not in _PHI_SOURCES:
            raise ConfigError("rearrange.phi must be 'self' or 'zero'")
        if self.snapshot_every < 0:
            raise ConfigError("solver.snapshot_every must be nonnegative")
        if not 0.0 < self.damping <= 1.0:
            raise ConfigError("solver.damping must lie in (0, 1]")
        if not self.tol >= 0.0:
            raise ConfigError("solver.tol must be nonnegative")
        if self.max_iter < 1:
            raise ConfigError("solver.max_iter must be at least 1")
        try:
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
        attr, parser = _KEYS[key]
        try:
            return replace(self, **{attr: parser(raw_value)})
        except ConfigError:
            raise
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

    kwargs = {}
    for key, value in seen.items():
        attr, parser = _KEYS[key]
        try:
            kwargs[attr] = parser(value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError("bad value for %s: %s" % (key, exc)) from exc
    return ExperimentConfig(**kwargs)


def load_config(path):
    """Read and parse a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    return parse_config(text)
