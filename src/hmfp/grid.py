"""Phase-space grid, field containers, quadrature and snapshot I/O.

The domain is the flat torus in the angle theta times a truncated velocity
line [-v_max, v_max].  Everything downstream (potential solves, steady-state
construction, rearrangements, transport) works on the cell-centered samples
held by these containers.  All phase-space integrals are midpoint sums, which
are second order in d_v and exact for periodic trigonometric modes in theta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


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
        if not self.v_max > 0:
            raise ValueError(f"v_max must be positive, got {self.v_max}")
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
        values = np.array(self.values, dtype=float, order="C")  # rows contiguous
        if values.shape != (self.grid.n_theta, self.grid.n_v):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({self.grid.n_theta}, {self.grid.n_v})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        if np.any(values < 0):
            raise ValueError("field values must be nonnegative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

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
        n = self.grid.n_theta
        values = np.asarray(self.values, dtype=float)
        derivative = np.array(self.derivative, dtype=float)
        if values.shape != (n,) or derivative.shape != (n,):
            raise ValueError("potential arrays must have shape (n_theta,)")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(derivative))):
            raise ValueError("potential values must be finite")
        values = values - values.mean()
        values.flags.writeable = False
        derivative.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivative", derivative)

    def __repr__(self) -> str:
        return f"Potential(grid={self.grid!r}, range={np.ptp(self.values):.6g})"


def weighted_l1_distance(f: DistributionField, g: DistributionField) -> float:
    """(1 + v^2)-weighted L1 distance between two fields on the same grid."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    w = 1.0 + f.grid.v ** 2
    return float((np.abs(f.values - g.values) * w[np.newaxis, :]).sum()) * f.grid.cell_area


# ---------------------------------------------------------------------------
# Snapshot file format
# ---------------------------------------------------------------------------

SNAPSHOT_MAGIC = "HMFP1"


def save_snapshot(field: DistributionField, time: float, path) -> None:
    """Write a field to a text snapshot.

    Header line: ``HMFP1 n_theta n_v v_max time``; then one line of n_v
    space-separated values per theta row, 17 significant digits so the
    round trip is bit exact.
    """
    g = field.grid
    header = f"{SNAPSHOT_MAGIC} {g.n_theta} {g.n_v} {g.v_max:.17g} {time:.17g}"
    # an open handle: given a path, savetxt opens it through np.lib._datasource
    with open(path, "w") as fh:
        np.savetxt(fh, field.values, fmt="%.17g", header=header, comments="")


def load_snapshot(path) -> tuple[DistributionField, float]:
    """Read a snapshot written by save_snapshot; returns (field, time)."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: not a {SNAPSHOT_MAGIC} snapshot")
        n_theta, n_v = int(header[1]), int(header[2])
        v_max, time = float(header[3]), float(header[4])
        data = np.array(fh.read().split(), dtype=float)
    if data.size != n_theta * n_v:
        raise ValueError(
            f"{path}: expected {n_theta * n_v} values, found {data.size}"
        )
    grid = PhaseGrid(n_theta, n_v, v_max)
    return DistributionField(grid, data.reshape(n_theta, n_v)), time
