"""Phase-space grid, field containers and file I/O.

The domain is the flat torus in the angle theta times a truncated velocity
line [-v_max, v_max].  Everything downstream (potential solves, steady-state
construction, rearrangements, transport) works on the cell-centered samples
held by these containers.  Integrals over them (hmfp.functionals) are
midpoint sums, second order in d_v, exact for trigonometric modes in theta.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform cell-centered discretization of the (theta, v) phase space.

    theta node i sits at i*d_theta (left edge convention, periodic), v node j
    at -v_max + (j + 1/2)*d_v (cell centers).  Instances are immutable and
    compare equal when their (n_theta, n_v, v_max) triples match.
    """

    n_theta: int
    n_v: int
    v_max: float
    d_theta: float = field(init=False, compare=False, repr=False)
    d_v: float = field(init=False, compare=False, repr=False)
    theta: np.ndarray = field(init=False, compare=False, repr=False)
    v: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n_theta < 8:
            raise ValueError(f"n_theta must be at least 8, got {self.n_theta}")
        if self.n_v < 8:
            raise ValueError(f"n_v must be at least 8, got {self.n_v}")
        # v_max**2 bounds the microscopic energy; finite, it keeps d_v finite too
        if not (self.v_max > 0 and float(self.v_max) * float(self.v_max) < np.inf):
            raise ValueError(f"v_max must be positive with v_max**2 finite, got {self.v_max}")
        object.__setattr__(self, "n_theta", int(self.n_theta))
        object.__setattr__(self, "n_v", int(self.n_v))
        object.__setattr__(self, "v_max", float(self.v_max))
        object.__setattr__(self, "d_theta", TWO_PI / self.n_theta)
        object.__setattr__(self, "d_v", 2.0 * self.v_max / self.n_v)
        theta = self.d_theta * np.arange(self.n_theta)
        v = -self.v_max + self.d_v * (np.arange(self.n_v) + 0.5)
        theta.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "v", v)

    @property
    def cell_area(self) -> float:
        return self.d_theta * self.d_v


def make_grid(n_theta: int, n_v: int, v_max: float) -> PhaseGrid:
    """Build a PhaseGrid, rejecting resolutions below 8 cells per direction."""
    return PhaseGrid(n_theta, n_v, v_max)


def _check_values(values, what, nonnegative=False):
    """Raise ValueError unless every value is finite and, when nonnegative
    is set, none is below zero (-0.0 passes)."""
    # NaN propagates through min, so one min/max pair passes every good
    # array; the detailed scan runs only on failure, and finiteness wins
    if not (values.min() >= (0.0 if nonnegative else -_FLOAT_MAX) and values.max() < np.inf):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{what} values must be finite")
        raise ValueError(f"{what} values must be nonnegative")


def _adopt(values, shape, what, mismatch, nonnegative=False):
    """Read-only, C-contiguous float64 copy of values, checked for its shape
    (else mismatch, formatted with the shape found) and by _check_values."""
    out = np.array(values, dtype=float, order="C")
    if out.shape != shape:
        raise ValueError(mismatch.format(shape=out.shape))
    _check_values(out, what, nonnegative)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class DistributionField:
    """Nonnegative sampled phase-space density f(theta, v) on a PhaseGrid.

    values is indexed (theta-cell, v-cell) and frozen after construction so
    fields can be shared across threads and reused as dictionary keys of a
    run without defensive copies.
    """

    grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self):
        shape = (self.grid.n_theta, self.grid.n_v)
        values = _adopt(self.values, shape, "field",
                        "values shape {shape} does not match grid %s" % (shape,),
                        nonnegative=True)
        object.__setattr__(self, "values", values)

    @classmethod
    def _frozen(cls, grid: PhaseGrid, values: np.ndarray) -> DistributionField:
        """A field on values itself, frozen in place without _adopt's copy:
        the caller hands over a C-contiguous float64 array of the grid's
        shape that _check_values has passed as nonnegative."""
        values.flags.writeable = False
        out = object.__new__(cls)
        object.__setattr__(out, "grid", grid)
        object.__setattr__(out, "values", values)
        return out

    def __repr__(self) -> str:
        return f"DistributionField(grid={self.grid!r}, max={self.values.max():.6g})"


def field_from_function(grid: PhaseGrid, fn) -> DistributionField:
    """Sample fn(theta, v) at the cell centers (fn must broadcast)."""
    tt, vv = np.meshgrid(grid.theta, grid.v, indexing="ij")
    return DistributionField(grid, fn(tt, vv))


@dataclass(frozen=True, eq=False)
class Potential:
    """Zero-mean periodic potential phi(theta) with its derivative samples.

    The mean is subtracted at construction; the derivative vector is supplied
    by the interaction solver (spectral) or any caller that owns a consistent
    one.  Both arrays are frozen.
    """

    grid: PhaseGrid
    values: np.ndarray
    derivative: np.ndarray

    def __post_init__(self):
        shape = (self.grid.n_theta,)
        mismatch = "potential arrays must have shape (n_theta,)"
        values = _adopt(self.values, shape, "potential", mismatch)
        derivative = _adopt(self.derivative, shape, "potential", mismatch)
        # centered once checked, as inf - inf would warn; an overflowing
        # mean still ends in "must be finite"
        values = _adopt(values - values.mean(), shape, "potential", mismatch)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivative", derivative)

    def roll(self, shift: int) -> Potential:
        """This potential translated by shift theta nodes, bit for bit: the
        mean is not subtracted again, which could move the last bits."""
        out = object.__new__(Potential)
        object.__setattr__(out, "grid", self.grid)
        for name in ("values", "derivative"):
            rolled = np.roll(getattr(self, name), shift)
            rolled.flags.writeable = False
            object.__setattr__(out, name, rolled)
        return out

    def __repr__(self) -> str:
        return f"Potential(grid={self.grid!r}, range={np.ptp(self.values):.6g})"


# ---------------------------------------------------------------------------
# Artifact files
# ---------------------------------------------------------------------------

_TEMP_PREFIX = ".hmfp-tmp-"


@contextmanager
def _atomic_write(path, mode="w"):
    """Open a temporary file beside path for writing (text in UTF-8 unless
    mode holds "b"); on success it replaces path, so a reader never sees a
    partial file, and on error it is unlinked before the error propagates."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=_TEMP_PREFIX, dir=directory)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            # mkstemp makes the file owner-only; take the read and write
            # bits the umask left on the directory, as a plain open would
            os.chmod(tmp, os.stat(directory).st_mode & 0o666)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


SNAPSHOT_MAGIC = "HMFP2"
_TEXT_SNAPSHOT_MAGIC = "HMFP1"


def save_snapshot(field: DistributionField, time: float, path) -> None:
    """Write a field to a binary snapshot.

    Header line (ASCII): ``HMFP2 n_theta n_v v_max time`` with 17
    significant digits; then the n_theta*n_v values as little-endian
    float64 in row order, so the round trip is bit exact.  The time must
    be finite, as load_snapshot requires.
    """
    if not np.isfinite(time):
        raise ValueError(f"snapshot time must be finite, got {time}")
    g = field.grid
    header = f"{SNAPSHOT_MAGIC} {g.n_theta} {g.n_v} {g.v_max:.17g} {time:.17g}\n"
    with _atomic_write(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(field.values.astype("<f8", copy=False).data)


def load_snapshot(path) -> tuple[DistributionField, float]:
    """Read a snapshot written by save_snapshot; returns (field, time).

    Also reads the older HMFP1 text snapshots: the same header, then the
    values as whitespace-separated decimals.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        body = fh.read()
    if len(header) != 5 or header[0] not in (SNAPSHOT_MAGIC, _TEXT_SNAPSHOT_MAGIC):
        raise ValueError(f"{path}: not a {SNAPSHOT_MAGIC} snapshot")
    n_theta, n_v = int(header[1]), int(header[2])
    v_max, time = float(header[3]), float(header[4])
    if not np.isfinite(time):
        raise ValueError(f"{path}: snapshot time must be finite, got {time}")
    if header[0] == SNAPSHOT_MAGIC:
        if len(body) != 8 * n_theta * n_v:
            raise ValueError(
                f"{path}: expected {8 * n_theta * n_v} bytes of values, found {len(body)}"
            )
        data = np.frombuffer(body, dtype="<f8")
    else:
        data = np.array(body.split(), dtype=float)
        if data.size != n_theta * n_v:
            raise ValueError(
                f"{path}: expected {n_theta * n_v} values, found {data.size}"
            )
    grid = PhaseGrid(n_theta, n_v, v_max)
    return DistributionField(grid, data.reshape(n_theta, n_v)), time
