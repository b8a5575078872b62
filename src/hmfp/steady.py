"""Variational steady states of the attractive kinetic model.

The constructions all share one object: the profile map that turns a
potential phi and Lagrange multipliers into the candidate minimizer

    F(theta, v) = (j')^{-1}((lambda - v**2/2 - phi(theta))_+ / |mu|)

(power families; |mu| = 1 in the one-constraint problem) or its exponential
cousin exp(lambda - v**2/2 - phi) for the entropy generator.  Because every
builtin generator has monomial or exponential structure, all velocity
integrals of the profile reduce to closed forms in a = (lambda - phi)_+, so
the multiplier equations are solved on exact one-dimensional maps and only
the theta dependence is discrete.  One section sum, _section_sum, owns the
closed form: the integral over v of (a - v**2/2)_+**k is 2 sqrt(2) B(k)
a**(k + 1/2).  The mass and Casimir maps use it at orders k = 1/(p - 1) and
k + 1, and the rearrangement's sublevel measure and its antiderivative at
orders 0 and 1.  The expensive grid sampling happens once, when a profile
is materialized as a DistributionField.

The entropy multiplier has a closed form.  The power multipliers come from
one bisection in lambda, run until its bracket ends are adjacent floats:
the maps are strictly monotone but their derivatives are kinked, so
bisection is the unconditionally safe choice.  _section_sum_inverse, the
one inverse of a section sum, gives the one-constraint multiplier and the
rearrangement's inverse sublevel measure.  With two constraints the mass
constraint fixes |mu| in closed form for each lambda, which leaves that
single root, bracketed by its own search.

Both minimizers iterate one damped fixed-point driver, which over-relaxes
along the dominant mode once its defect ratios settle, and falls back to
the plain step when that fails to lower the defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .casimir import ENTROPY, POWER, CasimirSpec
from .errors import ConvergenceError, SolverAbort
from .functionals import casimir_integral, field_energy, mass, microscopic_energy_pairing
from .grid import TWO_PI, DistributionField, PhaseGrid, Potential
from .interaction import solve_potential

SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Multipliers:
    """Lagrange multipliers (lam, mu); mu is None in the one-constraint problem."""

    lam: float
    mu: float | None = None

    def __post_init__(self):
        if self.mu is not None and not self.mu < 0.0:
            raise ValueError(f"mu must be strictly negative, got {self.mu}")


@dataclass(frozen=True)
class ConstraintSet:
    """Mass constraint m1, and optionally the Casimir constraint mj."""

    m1: float
    mj: float | None = None

    def __post_init__(self):
        _check_constraint("m1", self.m1)
        if self.mj is not None:
            _check_constraint("mj", self.mj)


def _check_constraint(name, value):
    """The one rule for a constraint value, shared by the library and the
    config: finite and positive (NaN fails)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class SteadyStateResult:
    """Converged fixed-point state with its convergence report; multipliers
    is None for the equimeasurable minimizer.  iterations counts every
    update call, refused extrapolated steps included."""

    field: DistributionField
    potential: Potential
    multipliers: Multipliers | None
    fixed_point_residual: float
    iterations: int
    accepted_extrapolations: int
    refused_extrapolations: int


@dataclass(frozen=True)
class ProfileMoments:
    """Velocity integrals of a profile, exact in v, summed over theta nodes.

    mass            integral of F
    casimir         integral of j(F)
    kinetic_moment  integral of v**2 F (not halved)
    inner_product   integral of F j'(F)
    """

    mass: float
    casimir: float
    kinetic_moment: float
    inner_product: float


@dataclass(frozen=True)
class OdeProfileResult:
    """Periodic-orbit candidate from the profile ODE and its closure defect."""

    potential: Potential
    defect: float


# ---------------------------------------------------------------------------
# Closed-form velocity integrals
# ---------------------------------------------------------------------------


def _beta_half(m: float) -> float:
    """B(m) = integral of (1-u**2)**m over [0, 1]."""
    return math.sqrt(math.pi) * math.gamma(m + 1.0) / (2.0 * math.gamma(m + 1.5))


def _power_coefficient(k: float, ps: float, scale: float | None = None) -> float:
    """2 sqrt(2) B(k) (p s)**(-k): the velocity integral of a power profile
    of order k, per (lambda - phi)_+**(k + 1/2).  scale, if given, is the
    factor 2 sqrt(2) B(k), which _power_coefficient(k, 1.0) returns."""
    try:
        return (2.0 * math.sqrt(2.0) * _beta_half(k) if scale is None else scale) * ps ** (-k)
    except OverflowError:
        raise ValueError("the velocity-integral coefficient (p|mu|)**-k "
                         f"overflows at p|mu| = {ps:g}, k = {k:g}") from None


def _section_sum(phi: Potential, x, k: float, ps: float):
    """S(x) = 2 sqrt(2) B(k) ps**(-k) sum_i (x - phi_i)_+**(k + 1/2) d_theta.

    Each term is the exact velocity integral of ((x - v**2/2 - phi_i)_+ /
    ps)**k over the theta section i.  With k = 1/(p - 1) and ps = p |mu| it
    is the mass map of a power profile at lambda = x, at k + 1 its Casimir
    map; with ps = 1, k = 0 gives the sublevel measure of the microscopic
    energy at x and k = 1 its antiderivative in x.  x is a scalar or an
    array, broadcast against a trailing theta axis.  As in float arithmetic,
    an overflowing sum gives inf, and times an underflowed coefficient NaN;
    a coefficient that overflows raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    gap = np.maximum(x[..., np.newaxis] - phi.values, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return _gap_sum(phi, gap, k, _power_coefficient(k, ps))


def _gap_sum(phi: Potential, gap, k: float, coefficient: float):
    """_section_sum from its gap (x - phi)_+, under the caller's errstate."""
    out = coefficient * (gap ** (k + 0.5)).sum(axis=-1) * phi.grid.d_theta
    return out if out.ndim else float(out)


def profile_moments(
    phi: Potential, spec: CasimirSpec, multipliers: Multipliers
) -> ProfileMoments:
    """Exact-in-v moments of the profile attached to (phi, multipliers).

    The velocity integrals run over the whole line, not the grid's velocity
    window.
    """
    lam = multipliers.lam
    d_theta = phi.grid.d_theta
    if spec.family == ENTROPY:
        if multipliers.mu is not None:
            raise ValueError("the entropy family carries no mu multiplier")
        rows = SQRT_2PI * np.exp(lam - phi.values)
        casimir_rows = rows * (lam - phi.values - 0.5)
        m = float(rows.sum()) * d_theta
        return ProfileMoments(m, float(casimir_rows.sum()) * d_theta, m,
                              float((casimir_rows + rows).sum()) * d_theta)
    p = spec.p
    k = 1.0 / (p - 1.0)
    ps = p * (1.0 if multipliers.mu is None else -multipliers.mu)
    casimir = _section_sum(phi, lam, k + 1.0, ps)
    # the kinetic moment keeps its own closed form, so the multiplier
    # identity compares it with the section sums rather than restating them
    with np.errstate(over="ignore"):
        high = float((np.maximum(lam - phi.values, 0.0) ** (k + 1.5)).sum()) * d_theta
    kinetic = 4.0 * math.sqrt(2.0) * (_beta_half(k) - _beta_half(k + 1.0)) * ps ** (-k) * high
    return ProfileMoments(_section_sum(phi, lam, k, ps), casimir, kinetic, p * casimir)


def build_F_phi(
    phi: Potential, spec: CasimirSpec, multipliers: Multipliers
) -> DistributionField:
    """Sample the profile attached to (phi, multipliers) on the grid."""
    g = phi.grid
    e = multipliers.lam - 0.5 * g.v[np.newaxis, :] ** 2 - phi.values[:, np.newaxis]
    if spec.family == ENTROPY:
        if multipliers.mu is not None:
            raise ValueError("the entropy family carries no mu multiplier")
        values = np.exp(e)
    else:
        s = 1.0 if multipliers.mu is None else -multipliers.mu
        values = spec.inverse_derivative(np.maximum(e / s, 0.0))
    return DistributionField(g, values)


# ---------------------------------------------------------------------------
# Multiplier solves
# ---------------------------------------------------------------------------


def _bisect(below, lo, hi):
    """Elementwise root by bisection on a given bracket, down to adjacent floats.

    below(x) is True where the root lies above x; lo and hi are scalars or
    arrays of one shape that bracket the root.  The endpoints themselves
    are never evaluated.  The loop returns the first midpoint that has the
    bits of a bracket end, which happens once the ends are adjacent floats,
    and otherwise the midpoint after 90 halvings.  Such a midpoint is a
    fixed point of further halving: below(mid) either leaves the bracket as
    it is or collapses it onto mid, so the 90-step loop would return those
    same bits.  Zero is the exception, since mid == lo cannot tell -0.0
    from +0.0, so a zero midpoint never stops the loop.  Scalar brackets
    run a plain-float loop; array brackets stop once every lane has
    stopped.
    """
    if isinstance(lo, float) and isinstance(hi, float):
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if (mid == lo or mid == hi) and mid != 0.0:
                return mid
            if below(mid):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if np.all(((mid == lo) | (mid == hi)) & (mid != 0.0)):
            return mid
        is_below = below(mid)
        lo = np.where(is_below, mid, lo)
        hi = np.where(is_below, hi, mid)
    return 0.5 * (lo + hi)


def _section_sum_inverse(phi: Potential, target, k: float, ps: float):
    """Root x of _section_sum(phi, x, k, ps) = target, by bisection on its
    exact bracket down to adjacent floats.

    With c = _power_coefficient(k, ps), the sum c sum_i (x - phi_i)_+**(k +
    1/2) d_theta lies between its values for the flat potentials min phi
    and max phi, 2 pi c (x - phi)_+**(k + 1/2), so the root lies in [min
    phi, max phi] + (target / (2 pi c))**(1/(k + 1/2)) for every potential;
    for the sublevel measure (k = 0, ps = 1) and target s the offset is
    s**2/(32 pi**2).  target is a scalar or an array of nonnegative values;
    a negative or NaN target raises ValueError.
    """
    if not np.all(np.greater_equal(target, 0.0)):
        raise ValueError("section sum targets must be nonnegative")
    offset = (target / (TWO_PI * _power_coefficient(k, ps))) ** (1.0 / (k + 0.5))
    return _bisect(lambda x: _section_sum(phi, x, k, ps) < target,
                   float(phi.values.min()) + offset, float(phi.values.max()) + offset)


def solve_lambda_one(phi: Potential, spec: CasimirSpec, m1: float) -> float:
    """Multiplier of the one-constraint profile: mass(lambda) = m1.

    The entropy mass sqrt(2 pi) sum exp(lambda - phi_i) d_theta inverts in
    closed form; the power mass is the section sum of order k = 1/(p - 1),
    inverted by _section_sum_inverse.
    """
    if not m1 > 0.0:
        raise ValueError("m1 must be positive")
    if spec.family == ENTROPY:
        min_phi = float(phi.values.min())
        # shifted by min phi so the exponentials stay in range
        weight = SQRT_2PI * float(np.exp(min_phi - phi.values).sum()) * phi.grid.d_theta
        return min_phi + math.log(m1 / weight)
    return float(_section_sum_inverse(phi, m1, 1.0 / (spec.p - 1.0), spec.p))


def solve_multipliers_two(
    phi: Potential, spec: CasimirSpec, constraints: ConstraintSet
) -> Multipliers:
    """Multiplier pair of the two-constraint profile.

    The power maps scale exactly in s = -mu: K(lambda, s) = s**-k K(lambda,
    1) and G(lambda, s) = s**-(k+1) G(lambda, 1).  So the mass constraint
    fixes s(lambda) = (K(lambda, 1) / m1)**(1/k), and G(lambda, s(lambda))
    = mj is one root in lambda.  That Casimir value falls from +inf at
    min phi to 0, so doubling or halving an offset from min phi brackets
    the root between half the offset and the offset.
    """
    if spec.family != POWER:
        raise ValueError("the two-constraint solve needs the power family")
    if constraints.mj is None:
        raise ValueError("two-constraint solve requires mj")
    k = 1.0 / (spec.p - 1.0)
    min_phi = float(phi.values.min())
    mass_coefficient = _power_coefficient(k, spec.p)
    casimir_scale = _power_coefficient(k + 1.0, 1.0)

    def s_and_casimir(lam):
        # one gap for both orders; an empty profile (s = 0) has an infinite
        # Casimir value
        gap = np.maximum(lam - phi.values, 0.0)
        s = (_gap_sum(phi, gap, k, mass_coefficient) / constraints.m1) ** (1.0 / k)
        if s == 0.0:
            return s, math.inf
        return s, _gap_sum(phi, gap, k + 1.0,
                           _power_coefficient(k + 1.0, spec.p * s, casimir_scale))

    def casimir_above(lam):
        return s_and_casimir(lam)[1] > constraints.mj

    with np.errstate(over="ignore", invalid="ignore"):
        # the root lies in min phi + [offset / 2, offset]
        offset = 1.0
        for _ in range(200):
            if casimir_above(min_phi + offset):
                offset *= 2.0
            elif not casimir_above(min_phi + 0.5 * offset):
                offset *= 0.5
            else:
                break
        else:
            raise ConvergenceError("solve_multipliers_two: could not bracket the Casimir value")
        lam = float(_bisect(casimir_above, min_phi + 0.5 * offset, min_phi + offset))
        s, casimir = s_and_casimir(lam)
    # a root within a few ulps of min phi leaves the Casimir value jumping
    # past mj between adjacent floats
    if not (s > 0.0 and abs(casimir - constraints.mj) <= 1e-9 * constraints.mj):
        raise ConvergenceError(
            f"solve_multipliers_two: the Casimir value {constraints.mj:g} is out "
            f"of reach in double precision; the profile collapses onto min phi")
    return Multipliers(lam=lam, mu=-s)


def solve_state_multipliers(
    phi: Potential, spec: CasimirSpec, constraints: ConstraintSet
) -> Multipliers:
    """Dispatch to the one- or two-constraint multiplier solve."""
    if constraints.mj is None:
        return Multipliers(lam=solve_lambda_one(phi, spec, constraints.m1))
    return solve_multipliers_two(phi, spec, constraints)


# ---------------------------------------------------------------------------
# Auxiliary (dual) energies
# ---------------------------------------------------------------------------


def auxiliary_energy_two(
    phi: Potential, spec: CasimirSpec, multipliers: Multipliers
) -> float:
    """Dual energy of the two-constraint problem at a trial potential:

        integral of (v**2/2 + phi) F^phi  +  (1/2) integral of phi'**2,

    with F^phi sampled on the grid and paired with phi by the same midpoint
    quadrature the Hamiltonian uses, so the gap to hamiltonian(F^phi) is the
    exact half squared L2 distance of the two field derivatives.
    """
    F = build_F_phi(phi, spec, multipliers)
    return microscopic_energy_pairing(F, phi) + field_energy(phi)


def auxiliary_energy_one(phi: Potential, spec: CasimirSpec, lam: float) -> float:
    """Dual energy of the one-constraint problem: the two-constraint form
    plus the Casimir integral of the profile."""
    F = build_F_phi(phi, spec, Multipliers(lam=lam))
    return microscopic_energy_pairing(F, phi) + field_energy(phi) + casimir_integral(F, spec)


# ---------------------------------------------------------------------------
# Self-consistent construction
# ---------------------------------------------------------------------------


def _check_fixed_point_settings(damping, tol, max_iter):
    """The one rule for damped fixed-point settings, shared by the library
    and the config: damping in (0, 1], tol finite and >= 0 (NaN fails; an
    infinite tol passes any defect, so one step would end the solve) and
    max_iter >= 1."""
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if not 0.0 <= tol < np.inf:
        raise ValueError("tol must be nonnegative and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")


def _damped_fixed_point(phi0, update, damping, tol, max_iter, what, hint=""):
    """Damped fixed-point iteration phi <- (1 - damping) phi + damping phi_F,
    with guarded over-relaxation along the dominant mode.

    update(phi) returns (phi_F, field, multipliers), once per iteration.
    The iteration stops at the first phi whose defect sup|phi_F - phi| is
    at most tol, with residual damping * defect; past max_iter steps it
    raises ConvergenceError naming `what`, followed by `hint`.

    Once two successive defect ratios agree within 1%, the latest r in (0,
    1), one step of weight damping / (1 - r) <= 4 over-relaxes the dominant
    mode (Aitken's delta-squared).  If the next defect is not below the one
    before it, the saved phi and phi_F take the plain step instead; either
    way two fresh ratios are awaited.  Only the defect guards: J rises on
    most plain power:2 steps.
    """
    _check_fixed_point_settings(damping, tol, max_iter)
    g = phi0.grid
    phi = phi0
    jumps = refused = 0
    saved = last = rate = None
    for iterations in range(1, max_iter + 1):
        phi_f, field, multipliers = update(phi)
        defect = float(np.max(np.abs(phi_f.values - phi.values)))
        if defect <= tol:
            return SteadyStateResult(field, phi, multipliers, damping * defect,
                                     iterations, jumps - refused, refused)
        weight = damping
        if saved is not None:
            if not defect < saved[2]:
                refused += 1
                phi, phi_f, defect = saved
            saved = rate = None
        elif last is not None:
            ratio = defect / last
            if rate is not None and 0.0 < ratio < 1.0 and abs(ratio - rate) <= 0.01 * ratio:
                weight = min(damping / (1.0 - ratio), 4.0)
                saved = (phi, phi_f, defect)
                jumps += 1
            rate = ratio
        last = defect
        phi = Potential(
            g,
            (1.0 - weight) * phi.values + weight * phi_f.values,
            (1.0 - weight) * phi.derivative + weight * phi_f.derivative,
        )
    raise ConvergenceError(
        f"{what} did not converge in {max_iter} steps "
        f"(last defect {defect:g}){hint}"
    )


def self_consistent_solve(
    spec: CasimirSpec,
    constraints: ConstraintSet,
    seed_potential: Potential,
    damping: float = 0.5,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> SteadyStateResult:
    """Damped fixed-point iteration for the self-consistent potential.

    Args:
        spec: Casimir generator.
        constraints: mass (and optional Casimir) constraint values.
        seed_potential: starting guess; multipliers are re-solved each step.
        damping: update weight in (0, 1]; phi_{k+1} = (1-damping) phi_k +
            damping phi_{F^{phi_k}}.
        tol: stop when the self-consistency defect sup|phi_{F^phi} - phi|
            drops to tol >= 0 (the applied increment is damping times that).
        max_iter: iteration cap (at least 1), raising ConvergenceError past it.

    Returns:
        The fixed-point driver's SteadyStateResult, rolled so the potential
        minimum sits at theta = pi, fixing the translation freedom.
    """
    def update(phi):
        mult = solve_state_multipliers(phi, spec, constraints)
        field = build_F_phi(phi, spec, mult)
        return solve_potential(field), field, mult

    res = _damped_fixed_point(
        seed_potential, update, damping, tol, max_iter,
        "self-consistent iteration", "; consider a smaller damping",
    )
    g = res.field.grid
    shift = (g.n_theta // 2 - int(np.argmin(res.potential.values))) % g.n_theta
    return replace(res, field=DistributionField(g, np.roll(res.field.values, shift, axis=0)),
                   potential=res.potential.roll(shift))


# ---------------------------------------------------------------------------
# ODE characterization of one-constraint profiles
# ---------------------------------------------------------------------------


def ode_force(spec: CasimirSpec, m1: float, e):
    """Right-hand side of the profile ODE psi'' = force(psi).

    The force is the exact velocity integral of the shifted profile minus
    the homogeneous background m1/(2 pi).
    """
    e = np.asarray(e, dtype=float)
    if spec.family == ENTROPY:
        out = SQRT_2PI * np.exp(-e) - m1 / TWO_PI
    else:
        k = 1.0 / (spec.p - 1.0)
        c = _power_coefficient(k, spec.p)
        out = c * np.maximum(-e, 0.0) ** (k + 0.5) - m1 / TWO_PI
    return out if out.ndim else float(out)


def ode_force_primitive(spec: CasimirSpec, m1: float, e):
    """Antiderivative of ode_force, fixing the conserved ODE energy
    (1/2) psi'**2 - primitive(psi)."""
    e = np.asarray(e, dtype=float)
    if spec.family == ENTROPY:
        out = -SQRT_2PI * np.exp(-e) - m1 * e / TWO_PI
    else:
        k = 1.0 / (spec.p - 1.0)
        c = _power_coefficient(k, spec.p)
        out = -c * np.maximum(-e, 0.0) ** (k + 1.5) / (k + 1.5) - m1 * e / TWO_PI
    return out if out.ndim else float(out)


def ode_profile_solve(
    grid: PhaseGrid,
    spec: CasimirSpec,
    m1: float,
    psi_min: float,
    theta_anchor: float = 0.0,
) -> OdeProfileResult:
    """March the profile ODE once around the circle from a candidate minimum.

    Fixed-step RK4 with the grid spacing as step, starting from
    (psi, psi') = (psi_min, 0) at the node nearest theta_anchor.  The
    returned potential holds the node samples recentred to zero mean with
    the marched derivative; the defect |psi(2 pi) - psi(0)| +
    |psi'(2 pi) - psi'(0)| measures how far the orbit is from periodic,
    and only small-defect profiles are admissible steady states.
    """
    n = grid.n_theta
    h = grid.d_theta
    anchor = int(round(theta_anchor / h)) % n
    psi = np.empty(n + 1)
    dpsi = np.empty(n + 1)
    y, z = float(psi_min), 0.0
    for j in range(n + 1):
        psi[j] = y
        dpsi[j] = z
        if j == n:
            break
        k1y, k1z = z, ode_force(spec, m1, y)
        k2y, k2z = z + 0.5 * h * k1z, ode_force(spec, m1, y + 0.5 * h * k1y)
        k3y, k3z = z + 0.5 * h * k2z, ode_force(spec, m1, y + 0.5 * h * k2y)
        k4y, k4z = z + h * k3z, ode_force(spec, m1, y + h * k3y)
        y = y + h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        z = z + h * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
        if not (math.isfinite(y) and math.isfinite(z)) or abs(y) > 1e8:
            raise SolverAbort(f"profile ODE blew up at step {j + 1}")
    defect = abs(psi[n] - psi[0]) + abs(dpsi[n] - dpsi[0])
    values = np.empty(n)
    deriv = np.empty(n)
    idx = (anchor + np.arange(n)) % n
    values[idx] = psi[:n]
    deriv[idx] = dpsi[:n]
    return OdeProfileResult(potential=Potential(grid, values, deriv), defect=defect)


# ---------------------------------------------------------------------------
# Constraint renormalization
# ---------------------------------------------------------------------------


def renormalize_to_constraints(
    g: DistributionField, spec: CasimirSpec, constraints: ConstraintSet
) -> DistributionField:
    """Rescale amplitude and dilate velocity so a field meets the constraints.

    The output is gamma * g(theta, (gamma/lam) v) with lam = m1/||g|| and,
    in the two-constraint problem, gamma the closed-form root of
    ||j(gamma g)|| / gamma = mj ||g|| / m1; the one-constraint form keeps
    gamma = 1.  Velocity resampling is linear with zero extension, followed
    by an exact mass rescale, so the mass is exact and the Casimir value is
    met up to the resampling error.
    """
    grid = g.grid
    total = mass(g)
    if not total > 0.0:
        raise ValueError("cannot renormalize the zero field")
    lam = constraints.m1 / total
    if constraints.mj is None:
        gamma = 1.0
    else:
        if spec.family != POWER:
            raise ValueError("the two-constraint renormalization needs the power family")
        target = constraints.mj * total / constraints.m1
        # j = t**p underflows to 0 on tiny fields and overflows on huge ones
        with np.errstate(over="ignore"):
            j_norm = casimir_integral(g, spec)
        if not 0.0 < j_norm < math.inf:
            raise ValueError("the casimir integral of the field is %.6g, "
                             "not finite and positive" % j_norm)
        # ||j(gamma g)|| / gamma = gamma**(p-1) ||j(g)|| for j = t**p
        try:
            gamma = (target / j_norm) ** (1.0 / (spec.p - 1.0))
        except OverflowError as exc:
            raise ValueError("the amplitude factor overflows") from exc
    if not lam < math.inf:
        raise ValueError("the field's mass %.6g is too small to scale to m1 = %.6g"
                         % (total, constraints.m1))
    stretch = gamma / lam
    resampled = np.empty_like(g.values)
    sample_at = stretch * grid.v
    for i in range(grid.n_theta):
        resampled[i] = np.interp(sample_at, grid.v, g.values[i], left=0.0, right=0.0)
    resampled *= gamma
    kept = float(resampled.sum()) * grid.cell_area
    if not kept > 0.0:
        raise ValueError("renormalization dilated all mass out of the grid")
    scale = constraints.m1 / kept
    if not scale < math.inf:
        raise ValueError("the resampled mass %.6g is too small to scale to m1 = %.6g"
                         % (kept, constraints.m1))
    resampled *= scale
    return DistributionField(grid, resampled)
