"""Rearrangement machinery: distribution functions, pseudo-inverses, the
sublevel measure of the microscopic energy, and energy-monotone rearranged
fields.

The central object is the sublevel measure of e(theta, v) = v**2/2 + phi,

    a(e) = sum_i 2 sqrt(2 (e - phi_i)_+) d_theta,

which is exact in v (each theta section of the sublevel set is an interval)
and discrete only in theta.  It is the order k = 0 case of the one velocity
integral behind the steady profiles, steady._section_sum, whose order k = 1
case is its antiderivative in e; its inverse is that sum's one inverse,
steady._section_sum_inverse.  Rearranging a field with respect to a
potential composes the pseudo-inverse of its distribution function with
this measure, giving a field that is nonincreasing along level sets of the
microscopic energy and equimeasurable to the original up to level
quantization.  The two equimeasurability defects count superlevel sets in
whole cells and multiply by the cell area once, so each is a whole number
of cells times cell_area; the banded one forgives a band of n_theta cells,
one per theta column, on either side of each level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DistributionField, Potential, _adopt
from .interaction import solve_potential
from .steady import (SteadyStateResult, _damped_fixed_point, _section_sum,
                     _section_sum_inverse)

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


def _superlevel_count(sorted_values, levels):
    """Count of the sorted values strictly above each level."""
    return sorted_values.size - np.searchsorted(sorted_values, levels, side="right")


def distribution_function(f: DistributionField, levels) -> MonotoneProfile:
    """Measure of the strict superlevel sets of f at the given levels.

    mu(s) counts the cells with value strictly above s, weighted by the cell
    area; ties sit below, which keeps the profile right-continuous.
    """
    levels = np.asarray(levels, dtype=float)
    if np.any(levels < 0.0):
        raise ValueError("levels must be nonnegative")
    count = _superlevel_count(np.sort(f.values.ravel()), levels)
    return MonotoneProfile(levels, count * f.grid.cell_area)


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
    """Inverse of the sublevel measure, pinned to relative machine precision:
    the section sum inverse of order k = 0."""
    out = _section_sum_inverse(phi, np.asarray(s, dtype=float), 0.0, 1.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Rearrangement
# ---------------------------------------------------------------------------


def rearrange_with_energy(
    f: DistributionField, phi: Potential, levels
) -> DistributionField:
    """Rearrangement of f that is nonincreasing in the microscopic energy.

    Composes the pseudo-inverse of the distribution function of f, sampled
    at the given levels (such as the hybrid ladder level_grid(f)), with the
    sublevel measure of v**2/2 + phi(theta), pointwise on the grid.  A
    denser ladder tightens the level quantization of the output.
    """
    if f.grid != phi.grid:
        raise ValueError("field and potential live on different grids")
    return compose_profile(pseudo_inverse(distribution_function(f, levels)), phi)


def compose_profile(fsharp: MonotoneProfile, phi: Potential) -> DistributionField:
    """Sample fsharp(a_phi(v**2/2 + phi)) on the grid of phi.

    The profile is evaluated once per theta node and distinct kinetic
    energy v**2/2, then scattered to the velocity columns that share it.
    The sublevel measure is evaluated on 2**20 // n_theta energies at a
    time, so each of its (energies x n_theta) temporaries holds at most
    2**20 floats (8 MiB) at every grid size, instead of the whole
    broadcast (512 MiB at 512^2).
    """
    grid = phi.grid
    kinetic, column = np.unique(0.5 * grid.v ** 2, return_inverse=True)
    e = (kinetic[np.newaxis, :] + phi.values[:, np.newaxis]).ravel()
    out = np.empty_like(e)
    chunk = max(1, 2 ** 20 // grid.n_theta)
    for start in range(0, e.size, chunk):
        out[start : start + chunk] = fsharp.evaluate(
            sublevel_measure_a(phi, e[start : start + chunk])
        )
    return DistributionField(grid, out.reshape(grid.n_theta, kinetic.size)[:, column])


def equimeasurability_defect(
    f: DistributionField, g: DistributionField, levels
) -> float:
    """Sup over the levels of |mu_f - mu_g|: the largest difference of the
    superlevel cell counts, times the cell area."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    levels = np.asarray(levels, dtype=float)
    count_f = _superlevel_count(np.sort(f.values.ravel()), levels)
    count_g = _superlevel_count(np.sort(g.values.ravel()), levels)
    return float(np.max(np.abs(count_f - count_g), initial=0) * f.grid.cell_area)


def level_band_defect(
    f: DistributionField, g: DistributionField, levels
) -> float:
    """Equimeasurability defect of g against f up to one-cell-band level slack.

    On a grid the boundary of a superlevel set cuts through a band of cells,
    one per theta column, so levels whose gap is smaller than the variation
    of f across that band cannot be distinguished by cell counting: moving
    the threshold across one band shuffles up to n_theta cells between
    adjacent levels.  With c_f(s) the count of cells of f strictly above s
    and f_(k) the k-th largest value of f (from k = 0; zero for k past the
    last cell), each level s compares c_g(s) against the closed interval
    [c_f(hi), c_f(lo)], where hi = max(f_(max(c_f(s) - n_theta, 0)), s) and
    lo = min(f_(c_f(s) + n_theta), s) are the levels one band above and
    below s.  The result is the largest distance of c_g(s) to its interval,
    a whole number of cells, times the cell area.  Identical fields give 0;
    genuine measure discrepancies survive at the level of a few cells.

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
    levels = np.asarray(levels, dtype=float)
    edge_rows = (0, grid.n_v - 1)
    floor = max(float(f.values[:, edge_rows].max()),
                float(g.values[:, edge_rows].max()), 0.0)
    levels = levels[levels > floor]
    if levels.size == 0:
        return 0.0

    sorted_f = np.sort(f.values.ravel())
    # f_(k) for k = 0 .. n_cells, the last entry past every cell
    ranked = np.append(sorted_f[::-1], 0.0)
    count_f = _superlevel_count(sorted_f, levels)
    count_g = _superlevel_count(np.sort(g.values.ravel()), levels)
    band = grid.n_theta
    hi_level = np.maximum(ranked[np.maximum(count_f - band, 0)], levels)
    lo_level = np.minimum(ranked[np.minimum(count_f + band, sorted_f.size)], levels)
    defect = np.maximum(count_g - _superlevel_count(sorted_f, lo_level),
                        _superlevel_count(sorted_f, hi_level) - count_g)
    return float(max(defect.max(), 0) * grid.cell_area)


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
    fsharp = pseudo_inverse(distribution_function(f0, level_grid(f0)))

    def update(phi):
        field = compose_profile(fsharp, phi)
        return solve_potential(field), field, None

    return _damped_fixed_point(solve_potential(f0), update, damping, tol, max_iter,
                               "equimeasurable minimization")
