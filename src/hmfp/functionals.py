"""Conserved and variational scalars of the kinetic flow.

The one module that integrates a field over (theta, v): mass, momentum,
kinetic and field energies, Casimir integrals, the free energy, the
microscopic-energy pairing, the weighted L1 distance and its shift-
minimized form, and the Csiszar-Kullback pair.  All are midpoint sums;
the field energy reads only the potential's derivative samples, so

    hamiltonian = kinetic - potential_energy

is an identity of the implementation, not a numerical coincidence.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .casimir import CasimirSpec
from .grid import DistributionField, Potential, _atomic_write
from .interaction import density, solve_potential


def mass(f: DistributionField) -> float:
    """Total integral of the field (midpoint quadrature)."""
    return float(f.values.sum()) * f.grid.cell_area


def momentum(f: DistributionField) -> float:
    """First velocity moment of the field."""
    g = f.grid
    return float((f.values @ g.v).sum()) * g.cell_area


def kinetic_energy(f: DistributionField) -> float:
    """Integral of v**2/2 times the field."""
    g = f.grid
    return 0.5 * float((f.values @ (g.v ** 2)).sum()) * g.cell_area


def field_energy(phi: Potential) -> float:
    """Half the squared L2 norm of the field phi': the field term of the
    dual energy."""
    return 0.5 * float(phi.derivative @ phi.derivative) * phi.grid.d_theta


def potential_energy(f: DistributionField) -> float:
    """Field energy of the self-consistent potential of f."""
    return field_energy(solve_potential(f))


def hamiltonian(f: DistributionField) -> float:
    """Kinetic energy minus field energy (the attractive sign convention)."""
    return kinetic_energy(f) - potential_energy(f)


def casimir_integral(f: DistributionField, spec: CasimirSpec) -> float:
    """Integral of j(f); vanishing cells contribute 0 in both families."""
    return float(spec.j(f.values).sum()) * f.grid.cell_area


def microscopic_energy_pairing(f: DistributionField, phi: Potential) -> float:
    """Integral of (v**2/2 + phi) f: the kinetic energy plus the pairing of
    phi with the density of f."""
    return kinetic_energy(f) + float(phi.values @ density(f).values) * f.grid.d_theta


def free_energy_J(f: DistributionField, spec: CasimirSpec) -> float:
    """Hamiltonian plus Casimir integral."""
    return hamiltonian(f) + casimir_integral(f, spec)


def weighted_l1_distance(f: DistributionField, g: DistributionField) -> float:
    """(1 + v^2)-weighted L1 distance between two fields on the same grid."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    w = 1.0 + f.grid.v ** 2
    return float((np.abs(f.values - g.values) * w[np.newaxis, :]).sum()) * f.grid.cell_area


def orbital_distance(
    f: DistributionField, g: DistributionField
) -> tuple[float, float]:
    """Weighted L1 distance minimized over grid-aligned cyclic shifts of f.

    The candidate with shift index s compares f(theta + s*d_theta, v) against
    g, and d(s) is its (1 + v**2)-weighted L1 distance.  Returns the smallest
    d(s), ties going to the smallest nonnegative shift, as (distance, shift
    angle in [0, 2*pi)); the result is the one a scan of all n_theta shifts
    gives, bit for bit.

    The scan is pruned by a lower bound (the LB_Keogh pattern).  With the
    weighted row masses r_f = f @ (1 + v**2) and r_g likewise, the triangle
    inequality gives L(s) = sum_i |r_f[(i + s) % n_theta] - r_g[i]| <=
    d(s) / cell_area, and all n_theta bounds cost O(n_theta**2).  Exact
    distances are evaluated in order of increasing L, and the scan stops at
    the first shift whose bound, less a rounding slack, times cell_area
    exceeds the best distance so far: every shift left has a distance
    strictly above it, so none of them can win, not even a tie.
    """
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    grid = f.grid
    n, n_v = grid.n_theta, grid.n_v
    w = 1.0 + grid.v ** 2
    r_f = f.values @ w
    r_g = g.values @ w
    # windows[s, i] = r_f[(i + s) % n]
    windows = sliding_window_view(np.concatenate((r_f, r_f[:-1])), n)
    gaps = windows - r_g
    np.abs(gaps, out=gaps)
    lower = gaps.sum(axis=1)
    # Rounding slack, so that the computed distance of every pruned shift
    # is at least its computed (L - slack), hence above the best distance.
    # With u = eps/2 and gamma_k = k u / (1 - k u), F = sum r_f, G = sum r_g
    # (rows of nonnegative fields, so F + G bounds L and d / cell_area):
    #   each computed row mass is off by at most gamma_{n_v} of itself plus
    #   n_v underflows of at most tiny/2 (tiny: smallest subnormal), so the
    #   computed L(s) <= (1 + gamma_n) (L(s) + gamma_{n_v} (F + G) + n n_v tiny);
    #   the subtract, row dot products and row sum behind d(s) give at least
    #   (1 - gamma_{n + n_v + 1}) d(s) - n n_v tiny / 2 before the shared
    #   final factor cell_area, whose rounding is monotone.
    # The gap is under (n + n_v + 1) eps (F + G) + 1.5 n n_v tiny to first
    # order; the factor 4 covers the higher orders, the rounding of the
    # computed F + G and of the slack itself.  An overflow makes the slack
    # inf or the bound nan, and then nothing is pruned.
    finfo = np.finfo(float)
    slack = 4.0 * ((n + n_v + 2) * finfo.eps * float(r_f.sum() + r_g.sum())
                   + n * n_v * finfo.smallest_subnormal)
    order = np.argsort(lower, kind="stable")
    bounds = (lower[order] - slack) * grid.cell_area
    # one buffer for every shift: np.roll(f.values, -s, axis=0) - g.values
    diff = np.empty_like(f.values)
    best = np.inf
    best_s = 0
    for s, bound in zip(order.tolist(), bounds.tolist()):
        if bound > best:
            break
        np.subtract(f.values[s:], g.values[:n - s], out=diff[:n - s])
        np.subtract(f.values[:s], g.values[n - s:], out=diff[n - s:])
        np.abs(diff, out=diff)
        d = float((diff @ w).sum()) * grid.cell_area
        if d < best or (d == best and s < best_s):
            best = d
            best_s = s
    return best, best_s * grid.d_theta


def csiszar_kullback_gap(
    f: DistributionField, f0: DistributionField
) -> tuple[float, float]:
    """Both sides of the relative-entropy control of the L1 distance.

    Returns (lhs, rhs) = (squared L1 distance, 2*M times the relative
    entropy of f against f0); the caller asserts lhs <= rhs.  Raises when f
    charges cells where f0 vanishes or when the masses differ beyond 1e-8
    relative, since the inequality needs both.
    """
    if f.grid != f0.grid:
        raise ValueError("fields live on different grids")
    support = f.values > 0.0
    if np.any(support & (f0.values == 0.0)):
        raise ValueError("f is not supported inside the support of f0")
    m, m0 = mass(f), mass(f0)
    if abs(m - m0) > 1e-8 * max(m, m0):
        raise ValueError(f"masses differ: {m!r} vs {m0!r}")
    area = f.grid.cell_area
    lhs = (float(np.abs(f.values - f0.values).sum()) * area) ** 2
    ratio = np.where(support, f.values / np.where(support, f0.values, 1.0), 1.0)
    rhs = 2.0 * m * float((f.values * np.log(ratio)).sum()) * area
    return lhs, rhs


# ---------------------------------------------------------------------------
# Diagnostics rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of scalar diagnostics at a fixed time."""

    time: float
    mass: float
    momentum: float
    kinetic: float
    potential_energy: float
    hamiltonian: float
    casimir: float
    l_infinity: float

    def to_csv(self) -> str:
        return ",".join(f"{getattr(self, f.name):.17g}" for f in fields(self))


DiagnosticsRecord.CSV_HEADER = ",".join(f.name for f in fields(DiagnosticsRecord))


def diagnostics(f: DistributionField, spec: CasimirSpec, time: float = 0.0) -> DiagnosticsRecord:
    """Evaluate every diagnostic scalar of a field at the given time."""
    kin = kinetic_energy(f)
    pot = potential_energy(f)
    return DiagnosticsRecord(
        time=time,
        mass=mass(f),
        momentum=momentum(f),
        kinetic=kin,
        potential_energy=pot,
        hamiltonian=kin - pot,
        casimir=casimir_integral(f, spec),
        l_infinity=float(f.values.max()),
    )


def write_diagnostics_csv(records, path) -> None:
    """Write records to CSV with the canonical header line."""
    with _atomic_write(path) as fh:
        np.savetxt(fh, [astuple(rec) for rec in records], fmt="%.17g",
                   delimiter=",", header=DiagnosticsRecord.CSV_HEADER,
                   comments="")


def read_diagnostics_csv(path) -> list[DiagnosticsRecord]:
    """Read back a diagnostics CSV written by write_diagnostics_csv."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != DiagnosticsRecord.CSV_HEADER:
            raise ValueError(f"{path}: unexpected diagnostics header {header!r}")
        out = []
        for line in fh:
            if line.strip():
                out.append(DiagnosticsRecord(*map(float, line.split(","))))
    return out
