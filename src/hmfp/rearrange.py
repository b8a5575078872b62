"""Rearrangement machinery: distribution functions, pseudo-inverses, the
sublevel measure of the microscopic energy, and energy-monotone rearranged
fields.

The central object is the sublevel measure of e(theta, v) = v**2/2 + phi,

    a(e) = sum_i 2 sqrt(2 (e - phi_i)_+) d_theta,

which is exact in v (each theta section of the sublevel set is an interval)
and discrete only in theta.  It is the order k = 0 case of the one velocity
integral behind the steady profiles, steady._section_sum, whose order k = 1
case is its antiderivative in e.  Its inverse is computed by the bisection
of the steady-state multiplier solves, run down to adjacent floats, on the
two-sided bound a_inv(s) in [s**2/(32 pi**2) + min phi, s**2/(32 pi**2) +
max phi], which brackets the root for every potential.
Rearranging a field with respect to a potential composes the pseudo-inverse
of its distribution function with this measure, giving a field that is
nonincreasing along level sets of the microscopic energy and equimeasurable
to the original up to level quantization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DistributionField, PhaseGrid, Potential, _adopt
from .interaction import solve_potential
from .steady import SteadyStateResult, _bisect, _damped_fixed_point, _section_sum

# ---------------------------------------------------------------------------
# Monotone profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotoneProfile:
    """Nonincreasing step profile sampled at increasing breakpoints.

    A query takes the value of the breakpoint at or below it
    (right-continuous); queries outside the breakpoints clamp to the end
    values.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        mismatch = "breakpoints and values must be matching 1-d vectors"
        shape = np.shape(self.breakpoints)
        if len(shape) != 1 or shape == (0,):
            raise ValueError(mismatch)
        b = _adopt(self.breakpoints, shape, "breakpoint", mismatch)
        v = _adopt(self.values, shape, "profile", mismatch)
        if b.size > 1 and not np.all(np.diff(b) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if v.size > 1 and np.any(np.diff(v) > 0):
            raise ValueError("profile values must be nonincreasing")
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "values", v)

    def evaluate(self, x):
        """Evaluate the profile at x (scalar or array)."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        out = self.values[np.clip(idx, 0, self.values.size - 1)]
        return out if out.ndim else float(out)


def level_grid(f: DistributionField, n_levels: int | None = None) -> np.ndarray:
    """Hybrid level ladder for distribution functions of a field.

    Linear coverage of [0, max f] with geometric refinement near 0 and near
    the maximum, at least 4 n_v levels in total, first level 0 and last
    level exactly max f.
    """
    if n_levels is None:
        n_levels = 4 * f.grid.n_v
    n_levels = max(n_levels, 4 * f.grid.n_v)
    fmax = float(f.values.max())
    if fmax == 0.0:
        return np.array([0.0])
    quarter = n_levels // 4
    lin = np.linspace(0.0, fmax, n_levels - 2 * quarter)
    low = fmax * np.geomspace(1e-8, 0.1, quarter)
    high = fmax * (1.0 - np.geomspace(1e-8, 0.1, quarter)[::-1])
    return np.unique(np.concatenate(([0.0, fmax], lin, low, high)))


def _superlevel_measure(sorted_values, levels, area):
    """Cell area times the count of sorted values strictly above each level."""
    return (sorted_values.size - np.searchsorted(sorted_values, levels, side="right")) * area


def distribution_function(f: DistributionField, levels) -> MonotoneProfile:
    """Measure of the strict superlevel sets of f at the given levels.

    mu(s) counts the cells with value strictly above s, weighted by the cell
    area; ties sit below, which keeps the profile right-continuous.
    """
    levels = np.asarray(levels, dtype=float)
    if np.any(levels < 0.0):
        raise ValueError("levels must be nonnegative")
    mu = _superlevel_measure(np.sort(f.values.ravel()), levels, f.grid.cell_area)
    return MonotoneProfile(levels, mu)


def pseudo_inverse(mu: MonotoneProfile) -> MonotoneProfile:
    """Generalized inverse of a distribution-function profile.

    Returns the step profile of f#(x) = inf of the levels whose measure is
    at most x; by construction the equivalence f#(x) > t <=> mu(t) > x holds
    exactly at every sample pair.  The level ladder must reach the field
    maximum (final measure 0) so the inverse is defined for every x >= 0.
    """
    if mu.values[-1] != 0.0:
        raise ValueError("distribution profile must reach measure 0 at its top level")
    xs = mu.values[::-1]
    ts = mu.breakpoints[::-1]
    uniq = np.unique(xs)
    # among equal measures keep the smallest level: the last of each block
    last = np.searchsorted(xs, uniq, side="right") - 1
    return MonotoneProfile(uniq, ts[last])


# ---------------------------------------------------------------------------
# Sublevel measure of the microscopic energy
# ---------------------------------------------------------------------------


def sublevel_measure_a(phi: Potential, e):
    """Phase-space measure of {v**2/2 + phi < e}, exact in v: the velocity
    integral of order k = 0, whose coefficient 2 sqrt(2) B(0) is 2 sqrt(2)."""
    return _section_sum(phi, e, 0.0, 1.0)


def inverse_sublevel_measure(phi: Potential, s):
    """Inverse of the sublevel measure by bisection on its exact bracket.

    For every potential, a_inv(s) lies between s**2/(32 pi**2) + min phi and
    s**2/(32 pi**2) + max phi; bisection narrows that bracket until every
    root sits between adjacent floats, which pins it to relative machine
    precision.
    """
    s = np.asarray(s, dtype=float)
    base = s * s / (32.0 * np.pi ** 2)
    out = _bisect(lambda e: sublevel_measure_a(phi, e) < s,
                  base + float(phi.values.min()), base + float(phi.values.max()))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Rearrangement
# ---------------------------------------------------------------------------


def rearrange_with_energy(
    f: DistributionField, phi: Potential, n_levels: int | None = None
) -> DistributionField:
    """Rearrangement of f that is nonincreasing in the microscopic energy.

    Composes the pseudo-inverse of the distribution function of f (sampled
    on the hybrid level ladder, n_levels wide) with the sublevel measure of
    v**2/2 + phi(theta), pointwise on the grid.  A denser ladder tightens
    the level quantization of the output; the default keeps it at four
    levels per velocity cell.
    """
    if f.grid != phi.grid:
        raise ValueError("field and potential live on different grids")
    fsharp = pseudo_inverse(distribution_function(f, level_grid(f, n_levels)))
    return compose_profile(fsharp, f.grid, phi)


def compose_profile(
    fsharp: MonotoneProfile, grid: PhaseGrid, phi: Potential
) -> DistributionField:
    """Sample fsharp(a_phi(v**2/2 + phi)) on the grid.

    The profile is evaluated once per theta node and distinct kinetic
    energy v**2/2, then scattered to the velocity columns that share it.
    The sublevel measure is evaluated in chunks so the (energies x n_theta)
    broadcast never materializes for large grids.
    """
    kinetic, column = np.unique(0.5 * grid.v ** 2, return_inverse=True)
    e = (kinetic[np.newaxis, :] + phi.values[:, np.newaxis]).ravel()
    out = np.empty_like(e)
    chunk = 8192
    for start in range(0, e.size, chunk):
        out[start : start + chunk] = fsharp.evaluate(
            sublevel_measure_a(phi, e[start : start + chunk])
        )
    return DistributionField(grid, out.reshape(grid.n_theta, kinetic.size)[:, column])


def equimeasurability_defect(
    f: DistributionField, g: DistributionField, levels
) -> float:
    """Sup over the levels of |mu_f - mu_g|."""
    mu_f = distribution_function(f, levels)
    mu_g = distribution_function(g, levels)
    return float(np.max(np.abs(mu_f.values - mu_g.values)))


def level_band_defect(
    f: DistributionField, g: DistributionField, levels=None
) -> float:
    """Equimeasurability defect of g against f up to one-cell-band level slack.

    On a grid the boundary of a superlevel set cuts through a band of cells,
    so levels whose gap is smaller than the variation of f across that band
    cannot be distinguished by cell counting: moving the threshold across
    one band shuffles up to a full band of measure between adjacent levels.
    For each level s this compares mu_g(s) against the closed interval of
    mu_f values over [s - delta, s + delta], where delta is the drop of the
    decreasing profile of f across one band of measure on either side of
    mu_f(s), and returns the sup over levels of the distance to that
    interval.  Identical fields give 0; genuine measure discrepancies
    survive at the level of a few cells.

    Only levels whose superlevel sets the velocity box resolves are
    compared.  At level zero the measure is that of the support, and below
    the largest value either field takes on the extreme velocity rows the
    superlevel sets spill over the box edge, where the sublevel measure of
    the energy (defined on the whole velocity line) overcounts what the
    box can hold.  Both regimes are box artifacts, not measure defects, so
    such levels are skipped; choosing v_max generously keeps the skipped
    range in the far tail.
    """
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    grid = f.grid
    area = grid.cell_area
    if levels is None:
        levels = level_grid(f)
    levels = np.asarray(levels, dtype=float)
    edge_rows = (0, grid.n_v - 1)
    floor = max(float(f.values[:, edge_rows].max()),
                float(g.values[:, edge_rows].max()), 0.0)
    levels = levels[levels > floor]
    if levels.size == 0:
        return 0.0

    sorted_f = np.sort(f.values.ravel())
    sorted_g = np.sort(g.values.ravel())
    n_cells = sorted_f.size
    # One cell band in measure: a boundary crossing every theta column.
    band = grid.n_theta * area

    def quantile(x):
        # Value of the k-th largest cell of f at measure depth x, zero past
        # the support.
        k = np.floor(x / area).astype(np.int64)
        out = np.where(k < n_cells,
                       sorted_f[::-1][np.clip(k, 0, n_cells - 1)], 0.0)
        return out

    mu_f = _superlevel_measure(sorted_f, levels, area)
    mu_g = _superlevel_measure(sorted_g, levels, area)
    hi_level = np.maximum(quantile(np.maximum(mu_f - band, 0.0)), levels)
    lo_level = np.minimum(quantile(mu_f + band), levels)
    upper = _superlevel_measure(sorted_f, lo_level, area)
    lower = _superlevel_measure(sorted_f, hi_level, area)
    defect = np.maximum(mu_g - upper, lower - mu_g)
    return float(np.maximum(defect, 0.0).max())


# ---------------------------------------------------------------------------
# Energy integrals against profiles (exact in v)
# ---------------------------------------------------------------------------


def _band_energy_integral(phi: Potential, e) -> np.ndarray:
    """T(e) = integral of (v**2/2 + phi) over {v**2/2 + phi < e}, exact in v.

    Per theta the section is |v| < v* = sqrt(2 (e - phi)_+) and the integral
    is v***3/3 + 2 phi v*; T is the common antiderivative structure shared
    with the convex functional B.
    """
    e = np.asarray(e, dtype=float)
    v_star = np.sqrt(2.0 * np.maximum(e[..., np.newaxis] - phi.values, 0.0))
    rows = v_star ** 3 / 3.0 + 2.0 * phi.values * v_star
    return rows.sum(axis=-1) * phi.grid.d_theta


def _level_bands(fsharp: MonotoneProfile, phi: Potential) -> tuple[np.ndarray, np.ndarray]:
    """Measures x and energies e = a_phi^{-1}(x) of the band edges on which
    f# is constant: its breakpoints, closed by an energy above every cell of
    the velocity box (and its measure) when the last breakpoint lies below
    that measure.  Band i carries the value fsharp.values[i]."""
    x = fsharp.breakpoints
    e = inverse_sublevel_measure(phi, x)
    top = float(phi.values.max()) + 0.5 * phi.grid.v_max ** 2 + 1.0
    a_top = sublevel_measure_a(phi, top)
    if x[-1] < a_top:
        return np.append(x, a_top), np.append(e, top)
    return x, e


def rearranged_energy_integral(fsharp: MonotoneProfile, phi: Potential) -> float:
    """Left side of the profile pairing identity:
    integral of (v**2/2 + phi) f#(a_phi(v**2/2 + phi)) over phase space,
    by exact v-band integrals between consecutive level boundaries."""
    x, e = _level_bands(fsharp, phi)
    return float(np.sum(fsharp.values[: x.size - 1] * np.diff(_band_energy_integral(phi, e))))


def profile_pairing_integral(fsharp: MonotoneProfile, phi: Potential) -> float:
    """Right side of the profile pairing identity:
    integral over s of a_phi^{-1}(s) f#(s), integrating a_inv between
    breakpoints by parts with the exact antiderivative of a_phi, the
    velocity integral of order k = 1."""
    x, e = _level_bands(fsharp, phi)
    segments = (x[1:] * e[1:] - x[:-1] * e[:-1]) - np.diff(_section_sum(phi, e, 1.0, 1.0))
    return float(np.sum(fsharp.values[: segments.size] * segments))


def convex_B(phi: Potential, mu: float) -> float:
    """Integral of the microscopic energy over {a_phi(v**2/2 + phi) < mu}.

    Strictly convex in mu with derivative a_inv; closed form mu**3/(96 pi**2)
    for the flat potential.
    """
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    if mu == 0.0:
        return 0.0
    return float(_band_energy_integral(phi, np.array([inverse_sublevel_measure(phi, mu)]))[0])


# ---------------------------------------------------------------------------
# Equimeasurable minimization
# ---------------------------------------------------------------------------


def equimeasurable_minimize(
    f0: DistributionField,
    damping: float = 1.0,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> SteadyStateResult:
    """Minimize the Hamiltonian over the equimeasurable class of f0.

    Damped fixed-point iteration on the potential: each step rearranges f0
    against the current potential and mixes the rearranged field's potential
    back in.  Every iterate shares f0's level profile by construction, and
    the Hamiltonian is nonincreasing along the undamped iteration up to
    level quantization.  The result carries no Lagrange multipliers (the
    constraint here is the full orbit of f0, not scalar moments), so the
    multipliers slot of the result is None.
    """
    g = f0.grid
    fsharp = pseudo_inverse(distribution_function(f0, level_grid(f0)))

    def update(phi):
        field = compose_profile(fsharp, g, phi)
        return solve_potential(field), field

    phi, field, iterations, residual = _damped_fixed_point(
        solve_potential(f0), update, damping, tol, max_iter,
        "equimeasurable minimization",
    )
    return SteadyStateResult(
        field=field,
        potential=phi,
        multipliers=None,
        fixed_point_residual=residual,
        iterations=iterations,
    )
