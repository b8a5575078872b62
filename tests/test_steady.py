"""Variational steady states: multiplier solves, fixed points, profiles."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hmfp.steady
from hmfp.casimir import POWER_MIN_EXPONENT, entropy_spec, power_spec
from hmfp.errors import ConvergenceError, SolverAbort
from hmfp.experiment import seed_potential
from hmfp.functionals import (
    casimir_integral,
    field_energy,
    free_energy_J,
    hamiltonian,
    mass,
    microscopic_energy_pairing,
)
from hmfp.grid import DistributionField, Potential, make_grid
from hmfp.interaction import solve_potential
from hmfp.rearrange import (compose_profile, distribution_function,
                            equimeasurable_minimize, level_grid, pseudo_inverse)
from hmfp.steady import (
    ConstraintSet,
    Multipliers,
    auxiliary_energy_one,
    auxiliary_energy_two,
    build_F_phi,
    ode_force,
    ode_force_primitive,
    ode_profile_solve,
    _bisect,
    _power_coefficient,
    _section_sum,
    profile_moments,
    renormalize_to_constraints,
    self_consistent_solve,
    solve_lambda_one,
    solve_multipliers_two,
    solve_state_multipliers,
)

from conftest import smooth_random_field

TWO_PI = 2.0 * math.pi
SQRT_TWO_PI = math.sqrt(TWO_PI)

# closed-form two-constraint pair: at phi = 0 the multipliers (1, -1) give
# exactly these mass and Casimir values for the quadratic generator
POWER2_M1 = 4.0 * math.pi * math.sqrt(2.0) / 3.0
POWER2_MJ = 8.0 * math.pi * math.sqrt(2.0) / 15.0


def flat_potential(grid):
    return Potential(grid, np.zeros(grid.n_theta), np.zeros(grid.n_theta))


def wavy_potential(grid, a=0.4, b=0.15):
    vals = a * np.cos(grid.theta) - b * np.sin(2.0 * grid.theta)
    vals = vals - vals.mean()
    der = -a * np.sin(grid.theta) - 2.0 * b * np.cos(2.0 * grid.theta)
    return Potential(grid, vals, der)


def test_entropy_lambda_closed_form():
    g = make_grid(64, 64, 6.0)
    lam = solve_lambda_one(flat_potential(g), entropy_spec(), TWO_PI * SQRT_TWO_PI)
    assert abs(lam) <= 1e-9
    for m1 in (0.5, 3.0, 11.0):
        lam = solve_lambda_one(flat_potential(g), entropy_spec(), m1)
        assert lam == pytest.approx(math.log(m1 / (TWO_PI * SQRT_TWO_PI)), abs=1e-9)


def test_power2_multipliers_closed_form():
    g = make_grid(64, 64, 6.0)
    mult = solve_multipliers_two(
        flat_potential(g), power_spec(2.0), ConstraintSet(m1=POWER2_M1, mj=POWER2_MJ)
    )
    assert mult.lam == pytest.approx(1.0, abs=1e-7)
    assert mult.mu == pytest.approx(-1.0, abs=1e-7)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_power_lambda_closed_form(p):
    # flat potential: mass = 2 pi c_k lambda**(k + 1/2) with
    # c_k = 2 sqrt(2) B(k) p**-k and B(k) = sqrt(pi) Gamma(k+1) / (2 Gamma(k+3/2))
    g = make_grid(64, 64, 6.0)
    k = 1.0 / (p - 1.0)
    beta = math.sqrt(math.pi) * math.gamma(k + 1.0) / (2.0 * math.gamma(k + 1.5))
    c_k = 2.0 * math.sqrt(2.0) * beta * p ** (-k)
    for m1 in (0.5, 3.0, 11.0):
        lam = solve_lambda_one(flat_potential(g), power_spec(p), m1)
        assert lam == pytest.approx((m1 / (TWO_PI * c_k)) ** (1.0 / (k + 0.5)),
                                    rel=1e-13)


# ---------------------------------------------------------------------------
# Reference two-constraint solve: an outer bisection in mu around an inner
# one for lambda(mu), stopping at relative tolerances 1e-10 and 1e-12.


def _bisect_increasing(fn, target, lo, hi, grow_lo, grow_hi, rel_tol):
    f_lo = fn(lo)
    for _ in range(200):
        if f_lo <= target:
            break
        lo = grow_lo(lo)
        f_lo = fn(lo)
    else:
        raise ConvergenceError("could not bracket target from below")
    f_hi = fn(hi)
    for _ in range(200):
        if f_hi >= target:
            break
        hi = grow_hi(hi)
        f_hi = fn(hi)
    else:
        raise ConvergenceError("could not bracket target from above")
    tol = rel_tol * abs(target)
    if abs(f_lo - target) <= tol:
        return lo
    if abs(f_hi - target) <= tol:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if abs(f_mid - target) <= tol:
            return mid
        if f_mid < target:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError("bisection did not reach tolerance")


def _nested_lambda(phi, spec, m1, s, rel_tol):
    k = 1.0 / (spec.p - 1.0)
    min_phi = float(phi.values.min())
    step = [1.0]

    def grow_lo(lo):
        d = step[0]
        step[0] = 2.0 * d
        return lo - d

    return _bisect_increasing(
        lambda lam: _section_sum(phi, lam, k, spec.p * s), m1,
        min_phi + 1e-12, min_phi + 1.0, grow_lo,
        lambda hi: min_phi + 2.0 * (hi - min_phi), rel_tol)


def _nested_multipliers_two(phi, spec, m1, mj):
    k = 1.0 / (spec.p - 1.0)

    def lambda_of_mu(mu):
        return _nested_lambda(phi, spec, m1, -mu, 1e-12)

    mu = _bisect_increasing(
        lambda mu: _section_sum(phi, lambda_of_mu(mu), k + 1.0, spec.p * -mu), mj,
        -1.0, -1e-6, lambda lo: 2.0 * lo, lambda hi: 0.5 * hi, 1e-10)
    return Multipliers(lam=lambda_of_mu(mu), mu=mu)


def _casimir_on_mass_constraint(phi, spec, m1, lam):
    """G(lambda, s) at the |mu| = s that meets the mass constraint."""
    k = 1.0 / (spec.p - 1.0)
    s = (_section_sum(phi, lam, k, spec.p) / m1) ** (1.0 / k)
    return _section_sum(phi, lam, k + 1.0, spec.p * s)


def test_constraint_values_must_be_finite_and_positive():
    for m1, mj in ((math.inf, None), (math.nan, None), (0.0, None), (-1.0, None),
                   (1.0, math.inf), (1.0, math.nan), (1.0, 0.0)):
        with pytest.raises(ValueError, match="must be finite and positive"):
            ConstraintSet(m1=m1, mj=mj)


def _mass_or_casimir_map(phi, spec, lam, s, shift):
    """The power mass map (shift 0) and Casimir map (shift 1), written out
    with their own arithmetic as a bitwise reference for the section sum."""
    k = 1.0 / (spec.p - 1.0)
    a = np.maximum(lam - phi.values, 0.0)
    with np.errstate(over="ignore"):
        total = float((a ** (k + (0.5 + shift))).sum())
        return _power_coefficient(k + shift, spec.p * s) * total * phi.grid.d_theta


@settings(max_examples=200, deadline=None)
@given(p=st.floats(POWER_MIN_EXPONENT, 10.0), shift=st.sampled_from([0.0, 1.0]),
       n=st.integers(8, 300), seed=st.integers(0, 2 ** 32 - 1),
       height=st.floats(0.0, 5.0), t=st.floats(-1.0, 1.0), s=st.floats(1e-3, 1e3))
def test_section_sum_matches_the_power_maps_bitwise(p, shift, n, seed, height, t, s):
    values = height * np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    phi = Potential(make_grid(n, 8, 6.0), values, np.zeros(n))
    # lambda from below min phi to above max phi
    low, high = float(phi.values.min()), float(phi.values.max())
    lam = low + t * (high - low + 1.0)
    spec = power_spec(p)
    k = 1.0 / (p - 1.0)
    try:
        want = _mass_or_casimir_map(phi, spec, lam, s, shift)
    except ValueError:  # the coefficient (p s)**-k overflows
        assume(False)
    got = _section_sum(phi, lam, k + shift, p * s)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0), p=st.floats(1.2, 5.0),
       m1=st.floats(0.5, 20.0), mj=st.floats(0.1, 20.0))
def test_multiplier_solves_meet_constraints_and_match_the_nested_bisection(
        a, b, p, m1, mj):
    g = make_grid(32, 8, 6.0)
    phi = wavy_potential(g, a, b)
    for spec in (entropy_spec(), power_spec(p)):
        lam = solve_lambda_one(phi, spec, m1)
        mom = profile_moments(phi, spec, Multipliers(lam=lam))
        assert mom.mass == pytest.approx(m1, rel=1e-11)
    spec = power_spec(p)
    try:
        ref = _nested_multipliers_two(phi, spec, m1, mj)
    except ConvergenceError:
        ref = None  # its inner bisection cannot always reach 1e-12
    try:
        mult = solve_multipliers_two(phi, spec, ConstraintSet(m1=m1, mj=mj))
    except ConvergenceError:
        assert ref is None, "only where the nested bisection fails as well"
        return
    mom = profile_moments(phi, spec, mult)
    assert mom.mass == pytest.approx(m1, rel=1e-11)
    # Where lambda sits within about 1e-6 |lambda| of min phi, the Casimir
    # value moves by more than 1e-11 between adjacent floats of lambda.
    step = abs(_casimir_on_mass_constraint(phi, spec, m1, np.nextafter(mult.lam, np.inf))
               - _casimir_on_mass_constraint(phi, spec, m1, mult.lam))
    assert abs(mom.casimir - mj) <= max(1e-11 * mj, step)
    if ref is None:
        return
    # The reference stops once its Casimir value is within 1e-10.  Along
    # the mass constraint |d log G / d log |mu|| >= 1 / (2k + 1), the flat
    # potential being the extreme, so its |mu| and its height
    # lambda - min phi are good to (2k + 1) 1e-10: 1e-9 once p >= 1.23.
    # The height is compared, not lambda, which may cross zero.
    k = 1.0 / (p - 1.0)
    rel = max(1e-9, (2.0 * k + 1.0) * 1.1e-10)
    min_phi = float(phi.values.min())
    assert mult.lam - min_phi == pytest.approx(ref.lam - min_phi, rel=rel)
    assert mult.mu == pytest.approx(ref.mu, rel=rel)


def _bisect_90_steps(below, lo, hi):
    """The 90-step np.where bisection written out: the bitwise reference
    for _bisect's early stop."""
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        is_below = below(mid)
        lo = np.where(is_below, mid, lo)
        hi = np.where(is_below, hi, mid)
    return 0.5 * (lo + hi)


def _ulps(x, n):
    """x moved n floats up (n > 0) or down (n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


# st.floats() draws NaN, +-inf, signed zeros and subnormals; the edges add
# the ends of the float range and brackets too wide to close in 90 halvings
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 1e300,
          -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
          math.inf, -math.inf]
_ENDS = st.floats() | st.sampled_from(_EDGES)


@st.composite
def _brackets(draw):
    """(lo, hi, root): any two ends, or ends a few floats apart, and a root
    anywhere or at, next to or just outside an end."""
    lo = draw(_ENDS)
    hi = draw(_ENDS | st.integers(-3, 3).map(lambda n: _ulps(lo, n)))
    near_end = st.sampled_from([lo, hi]).flatmap(
        lambda end: st.integers(-2, 2).map(lambda n: _ulps(end, n)))
    return lo, hi, draw(_ENDS | near_end)


def _below(kind, root):
    """A threshold at root, or a predicate on the bits of x that is not
    monotone at all (the proof of the early stop needs no monotonicity)."""
    if kind == "threshold":
        return lambda x: x < root
    return lambda x: np.asarray(x).view(np.uint64) % 3 != 0


# -0.0 and +0.0 compare equal: stopping at a zero midpoint would return
# -0.0 here, where the 90-step loop ends on +0.0
@example(bracket=(-3.409874247916316e-299, 0.0, 5e-324), kind="threshold")
@example(bracket=(-1e300, 1e300, 0.5), kind="threshold")
@settings(max_examples=500, deadline=None)
@given(bracket=_brackets(), kind=st.sampled_from(["threshold", "bits"]))
def test_bisect_matches_the_90_step_loop_bitwise_on_scalars(bracket, kind):
    lo, hi, root = bracket
    below = _below(kind, root)
    # the reference adds 0-d arrays, which warn on overflow
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.float64(_bisect_90_steps(below, lo, hi))
    got = _bisect(below, lo, hi)
    assert np.float64(got).tobytes() == want.tobytes()


@example(lanes=[(-3.409874247916316e-299, 0.0, 5e-324), (1.0, 2.0, 1.5)],
         kind="threshold")
@example(lanes=[(math.nan, 1.0, 0.5), (1.0, 2.0, 1.5), (-1e300, 1e300, 3.0)],
         kind="threshold")
@settings(max_examples=300, deadline=None)
@given(lanes=st.lists(_brackets(), min_size=1, max_size=4),
       kind=st.sampled_from(["threshold", "bits"]))
def test_bisect_matches_the_90_step_loop_bitwise_elementwise(lanes, kind):
    lo, hi, root = (np.array(column) for column in zip(*lanes))
    below = _below(kind, root)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _bisect_90_steps(below, lo, hi)
        got = _bisect(below, lo, hi)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_unresolvable_casimir_value_raises_convergence_error():
    # lambda - min phi would be about 7e-10 at |lambda| = 0.93, where one
    # float step of lambda moves the Casimir value by 2e-8 relative
    phi = wavy_potential(make_grid(32, 8, 6.0), a=0.26, b=0.75)
    with pytest.raises(ConvergenceError, match="out of reach"):
        solve_multipliers_two(phi, power_spec(1.211), ConstraintSet(m1=1.53, mj=19.8))


def test_multiplier_solve_meets_constraints_for_random_potentials():
    g = make_grid(48, 32, 6.0)
    phi = wavy_potential(g)
    spec = entropy_spec()
    for m1 in (1.0, 7.0):
        lam = solve_lambda_one(phi, spec, m1)
        mom = profile_moments(phi, spec, Multipliers(lam=lam))
        assert mom.mass == pytest.approx(m1, rel=1e-9)
    spec2 = power_spec(2.5)
    cons = ConstraintSet(m1=5.0, mj=2.0)
    mult = solve_state_multipliers(phi, spec2, cons)
    mom = profile_moments(phi, spec2, mult)
    assert mom.mass == pytest.approx(5.0, rel=1e-8)
    assert mom.casimir == pytest.approx(2.0, rel=1e-8)
    assert mult.mu < 0.0


def test_profile_moments_match_dense_quadrature():
    # oracle: midpoint quadrature on a 4e6-point velocity line, one theta
    # row at a time so the oracle holds a few line-sized arrays at once
    g = make_grid(32, 16, 6.0)
    phi = wavy_potential(g)
    vv = np.linspace(-40.0, 40.0, 4_000_001)
    dv = vv[1] - vv[0]
    v2 = vv ** 2
    cases = [
        (entropy_spec(), Multipliers(lam=0.3)),
        (power_spec(2.0), Multipliers(lam=0.8, mu=-1.3)),
        (power_spec(3.0), Multipliers(lam=0.8, mu=-0.7)),
    ]
    for spec, mult in cases:
        mom = profile_moments(phi, spec, mult)
        m_q = c_q = k_q = 0.0
        for phi_i in phi.values:
            e = mult.lam - 0.5 * v2 - phi_i
            if spec.family == "entropy":
                F = np.exp(e)
            else:
                F = (np.maximum(e / -mult.mu, 0.0) / spec.p) ** (1.0 / (spec.p - 1.0))
            m_q += float(F.sum()) * dv * g.d_theta
            c_q += float(spec.j(F).sum()) * dv * g.d_theta
            k_q += float((F * v2).sum()) * dv * g.d_theta
        assert mom.mass == pytest.approx(m_q, rel=1e-7)
        assert mom.casimir == pytest.approx(c_q, rel=1e-7)
        assert mom.kinetic_moment == pytest.approx(k_q, rel=1e-7)


def test_build_F_phi_pointwise_forms():
    g = make_grid(32, 32, 5.0)
    phi = wavy_potential(g)
    e = 0.5 * g.v[None, :] ** 2 + phi.values[:, None]
    ent = build_F_phi(phi, entropy_spec(), Multipliers(lam=0.3))
    assert np.allclose(ent.values, np.exp(0.3 - e), rtol=1e-14)
    two = build_F_phi(phi, power_spec(2.0), Multipliers(lam=1.0, mu=-1.0))
    assert np.allclose(two.values, np.maximum(1.0 - e, 0.0) / 2.0, rtol=1e-14)
    one = build_F_phi(phi, power_spec(3.0), Multipliers(lam=0.5))
    assert np.allclose(
        one.values, (np.maximum(0.5 - e, 0.0) / 3.0) ** 0.5, rtol=1e-14
    )
    with pytest.raises(ValueError):
        build_F_phi(phi, entropy_spec(), Multipliers(lam=0.0, mu=-1.0))


def test_mass_map_increases_in_lambda():
    g = make_grid(32, 32, 6.0)
    phi = wavy_potential(g)
    spec = power_spec(2.0)
    masses = [
        profile_moments(phi, spec, Multipliers(lam=l, mu=-0.8)).mass
        for l in np.linspace(0.2, 3.0, 10)
    ]
    assert np.all(np.diff(masses) > 0.0)


def test_homogeneous_fixed_point_converges_immediately():
    g = make_grid(64, 64, 6.0)
    res = self_consistent_solve(
        entropy_spec(), ConstraintSet(m1=0.1), seed_potential(g, 0.0)
    )
    assert res.iterations == 1
    assert res.fixed_point_residual == 0.0
    assert np.all(res.potential.values == 0.0)


def test_stable_regime_returns_to_homogeneous():
    # below the critical mass 2 pi the cosine seed must decay
    g = make_grid(64, 64, 6.0)
    res = self_consistent_solve(
        entropy_spec(), ConstraintSet(m1=6.0), seed_potential(g, 1e-3)
    )
    sup_phi = float(np.max(np.abs(res.potential.values)))
    assert sup_phi < 1e-3
    assert res.multipliers.lam == pytest.approx(
        math.log(6.0 / (TWO_PI * SQRT_TWO_PI)), abs=1e-8
    )


def test_inhomogeneous_state_converges_and_recentres():
    g = make_grid(64, 64, 6.0)
    res = self_consistent_solve(
        entropy_spec(), ConstraintSet(m1=4.0 * math.pi), seed_potential(g, 0.5),
        tol=1e-10,
    )
    assert res.fixed_point_residual <= 1e-10
    assert float(res.potential.values.min()) < -1.0
    # canonical phase: the potential minimum sits at theta = pi
    assert int(np.argmin(res.potential.values)) == g.n_theta // 2
    assert mass(res.field) == pytest.approx(4.0 * math.pi, rel=1e-8)


def test_converged_state_is_euler_lagrange_critical():
    g = make_grid(64, 64, 6.0)
    spec = entropy_spec()
    res = self_consistent_solve(
        spec, ConstraintSet(m1=4.0 * math.pi), seed_potential(g, 0.5), tol=1e-10
    )
    phi_f = solve_potential(res.field)
    mult = solve_state_multipliers(phi_f, spec, ConstraintSet(m1=4.0 * math.pi))
    F = build_F_phi(phi_f, spec, mult)
    assert float(np.max(np.abs(res.field.values - F.values))) <= 1e-8


def test_two_constraint_mu_identity():
    g = make_grid(64, 64, 6.0)
    spec = power_spec(2.0)
    cons = ConstraintSet(m1=POWER2_M1, mj=POWER2_MJ)
    res = self_consistent_solve(spec, cons, seed_potential(g, 0.2), tol=1e-10)
    mom = profile_moments(res.potential, spec, res.multipliers)
    mu_pred = -mom.kinetic_moment / (mom.inner_product - mom.casimir)
    assert res.multipliers.mu == pytest.approx(mu_pred, rel=1e-6)


# each minimizer's field is the profile of its own potential, bit for bit,
# and its residual is the damped increment of a converged step
@pytest.mark.parametrize("spec, cons", [
    (entropy_spec(), ConstraintSet(m1=4.0 * math.pi)),
    (power_spec(2.0), ConstraintSet(m1=POWER2_M1, mj=POWER2_MJ)),
], ids=["entropy", "power2-two-constraint"])
def test_self_consistent_field_is_the_profile_of_its_potential(spec, cons):
    g = make_grid(32, 32, 6.0)
    # the seed well sits at theta = 0, so the result is rolled by n_theta / 2
    res = self_consistent_solve(spec, cons, seed_potential(g, 0.5))
    assert int(np.argmin(res.potential.values)) == g.n_theta // 2
    F = build_F_phi(res.potential, spec, res.multipliers)
    assert F.values.tobytes() == res.field.values.tobytes()
    assert res.fixed_point_residual <= 0.5 * 1e-9


def test_equimeasurable_field_is_the_profile_of_its_potential():
    g = make_grid(32, 32, 6.0)
    f0 = smooth_random_field(g, seed=64)
    res = equimeasurable_minimize(f0, damping=0.5, tol=1e-8, max_iter=5000)
    fsharp = pseudo_inverse(distribution_function(f0, level_grid(f0)))
    composed = compose_profile(fsharp, res.potential)
    assert composed.values.tobytes() == res.field.values.tobytes()
    assert res.multipliers is None
    assert res.fixed_point_residual <= 0.5 * 1e-8


def test_nonconvergence_raises():
    g = make_grid(64, 64, 6.0)
    with pytest.raises(ConvergenceError):
        self_consistent_solve(
            entropy_spec(), ConstraintSet(m1=4.0 * math.pi),
            seed_potential(g, 0.5), max_iter=3,
        )
    with pytest.raises(ValueError):
        self_consistent_solve(
            entropy_spec(), ConstraintSet(m1=1.0), seed_potential(g, 0.0),
            damping=0.0,
        )


@pytest.mark.parametrize("solve", [
    lambda g: self_consistent_solve(
        entropy_spec(), ConstraintSet(m1=1.0), seed_potential(g, 0.0),
        max_iter=0),
    lambda g: equimeasurable_minimize(
        smooth_random_field(g, seed=3), max_iter=0),
], ids=["self_consistent_solve", "equimeasurable_minimize"])
def test_zero_iteration_cap_is_rejected(solve):
    with pytest.raises(ValueError, match="max_iter"):
        solve(make_grid(16, 16, 6.0))


# a NaN or negative tol can never be met: it must fail up front, not after
# max_iter steps with a ConvergenceError
@pytest.mark.parametrize("tol", [math.nan, -1.0], ids=["nan", "negative"])
@pytest.mark.parametrize("solve", [
    lambda g, tol: self_consistent_solve(
        entropy_spec(), ConstraintSet(m1=1.0), seed_potential(g, 0.0),
        tol=tol, max_iter=5),
    lambda g, tol: equimeasurable_minimize(
        smooth_random_field(g, seed=3), tol=tol, max_iter=5),
], ids=["self_consistent_solve", "equimeasurable_minimize"])
def test_nan_or_negative_tol_is_rejected(solve, tol):
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        solve(make_grid(16, 16, 6.0), tol)


def test_two_constraint_moments_at_the_smallest_power_exponent():
    # the closed forms divide by 2 math.gamma(k + 5/2), k = 1/(p - 1),
    # which here sits just below the overflow
    g = make_grid(16, 16, 6.0)
    spec = power_spec(POWER_MIN_EXPONENT)
    mom = profile_moments(wavy_potential(g), spec, Multipliers(lam=1.0, mu=-1.0))
    assert all(math.isfinite(x) and x > 0.0 for x in astuple(mom))
    with pytest.raises(ValueError, match="power exponent"):
        power_spec(np.nextafter(POWER_MIN_EXPONENT, 1.0))


def test_monotone_chain_two_constraint():
    g = make_grid(64, 64, 6.0)
    spec = power_spec(2.0)
    cons = ConstraintSet(m1=POWER2_M1, mj=POWER2_MJ)
    for seed in (31, 32, 33):
        f = renormalize_to_constraints(smooth_random_field(g, seed), spec, cons)
        phi = solve_potential(f)
        mult = solve_state_multipliers(phi, spec, cons)
        F = build_F_phi(phi, spec, mult)
        j_phi = auxiliary_energy_two(phi, spec, mult)
        assert hamiltonian(F) <= j_phi + 1e-8
        assert j_phi <= hamiltonian(f) + 1e-8
        # the gap to the profile energy is exactly half a squared L2 norm
        gap = j_phi - hamiltonian(F)
        dphi_F = solve_potential(F).derivative
        half = 0.5 * float((dphi_F - phi.derivative) @ (dphi_F - phi.derivative))
        assert gap == pytest.approx(half * g.d_theta, abs=1e-8)


def test_monotone_chain_one_constraint():
    g = make_grid(64, 64, 6.0)
    spec = entropy_spec()
    m1 = 5.0
    for seed in (41, 42):
        raw = smooth_random_field(g, seed, floor=1e-9)
        f = renormalize_to_constraints(raw, spec, ConstraintSet(m1=m1))
        phi = solve_potential(f)
        lam = solve_lambda_one(phi, spec, m1)
        F = build_F_phi(phi, spec, Multipliers(lam=lam))
        j_phi = auxiliary_energy_one(phi, spec, lam)
        assert free_energy_J(F, spec) <= j_phi + 1e-8
        assert j_phi <= free_energy_J(f, spec) + 1e-8


def test_dual_energies_are_the_pairing_plus_the_field_energy_bitwise(monkeypatch):
    # J(phi) as the paper writes it: the microscopic-energy pairing of the
    # profile plus half the squared norm of phi', through the same functionals
    g = make_grid(32, 32, 6.0)
    phi = wavy_potential(g)
    for spec, mult in ((power_spec(2.0), Multipliers(lam=1.0, mu=-1.0)),
                       (entropy_spec(), Multipliers(lam=0.3))):
        F = build_F_phi(phi, spec, mult)
        j_two = microscopic_energy_pairing(F, phi) + field_energy(phi)
        assert auxiliary_energy_two(phi, spec, mult) == j_two
    # the one-constraint form adds the Casimir integral of its profile, which
    # it builds once
    profiles = []

    def counting_build_F_phi(*args):
        profiles.append(build_F_phi(*args))
        return profiles[-1]

    monkeypatch.setattr(hmfp.steady, "build_F_phi", counting_build_F_phi)
    for spec in (power_spec(2.0), entropy_spec()):
        F = build_F_phi(phi, spec, Multipliers(lam=0.3))
        j_one = (microscopic_energy_pairing(F, phi) + field_energy(phi)
                 + casimir_integral(F, spec))
        assert auxiliary_energy_one(phi, spec, 0.3) == j_one
        assert len(profiles) == 1
        profiles.clear()


def test_renormalize_is_identity_at_the_constraints():
    g = make_grid(16, 128, 8.0)
    f = smooth_random_field(g, seed=42)
    spec = power_spec(2.0)
    cons = ConstraintSet(m1=mass(f), mj=casimir_integral(f, spec))
    out = renormalize_to_constraints(f, spec, cons)
    assert float(np.max(np.abs(out.values - f.values))) <= 1e-12


def test_renormalize_hits_constraints():
    spec = power_spec(2.0)
    g = make_grid(16, 16384, 8.0)
    f = smooth_random_field(g, seed=42)
    cons = ConstraintSet(m1=1.37 * mass(f), mj=0.81 * casimir_integral(f, spec))
    out = renormalize_to_constraints(f, spec, cons)
    assert mass(out) == pytest.approx(cons.m1, rel=1e-10)
    assert casimir_integral(out, spec) == pytest.approx(cons.mj, rel=1e-6)
    # one-constraint form only dilates
    g2 = make_grid(16, 256, 8.0)
    f2 = smooth_random_field(g2, seed=43)
    out2 = renormalize_to_constraints(f2, entropy_spec(), ConstraintSet(m1=2.0))
    assert mass(out2) == pytest.approx(2.0, rel=1e-10)


def test_renormalize_resampling_error_shrinks_quadratically():
    spec = power_spec(2.0)
    errs = []
    for nv in (4096, 16384):
        g = make_grid(16, nv, 8.0)
        f = smooth_random_field(g, seed=42)
        cons = ConstraintSet(m1=1.37 * mass(f), mj=0.81 * casimir_integral(f, spec))
        out = renormalize_to_constraints(f, spec, cons)
        errs.append(abs(casimir_integral(out, spec) - cons.mj) / cons.mj)
    assert errs[1] <= errs[0] / 8.0


def _renormalize_with_bisected_gamma(g, spec, constraints):
    """renormalize_to_constraints with gamma bisected from a start at the
    closed-form root."""
    grid = g.grid
    total = float(g.values.sum()) * grid.cell_area
    lam = constraints.m1 / total
    target = constraints.mj * total / constraints.m1
    j_norm = float(spec.j(g.values).sum()) * grid.cell_area

    def casimir_per_gamma(gamma):
        return float(spec.j(gamma * g.values).sum()) * grid.cell_area / gamma

    exact = (target / j_norm) ** (1.0 / (spec.p - 1.0))
    gamma = _bisect_increasing(casimir_per_gamma, target, exact, exact,
                               lambda x: 0.5 * x, lambda x: 2.0 * x, 1e-10)
    stretch = gamma / lam
    resampled = np.empty_like(g.values)
    sample_at = stretch * grid.v
    for i in range(grid.n_theta):
        resampled[i] = np.interp(sample_at, grid.v, g.values[i], left=0.0, right=0.0)
    resampled *= gamma
    resampled *= constraints.m1 / (float(resampled.sum()) * grid.cell_area)
    return DistributionField(grid, resampled)


# the two-constraint renormalizations of the tests above; scales None take
# the POWER2 pair
@pytest.mark.parametrize("n_theta, n_v, v_max, seed, scales", [
    (16, 128, 8.0, 42, (1.0, 1.0)),
    (16, 16384, 8.0, 42, (1.37, 0.81)),
    (16, 4096, 8.0, 42, (1.37, 0.81)),
    (64, 64, 6.0, 31, None),
    (64, 64, 6.0, 32, None),
    (64, 64, 6.0, 33, None),
])
def test_renormalize_matches_the_bisected_gamma_bitwise(n_theta, n_v, v_max,
                                                        seed, scales):
    spec = power_spec(2.0)
    f = smooth_random_field(make_grid(n_theta, n_v, v_max), seed)
    if scales is None:
        cons = ConstraintSet(m1=POWER2_M1, mj=POWER2_MJ)
    else:
        cons = ConstraintSet(m1=scales[0] * mass(f),
                             mj=scales[1] * casimir_integral(f, spec))
    out = renormalize_to_constraints(f, spec, cons)
    ref = _renormalize_with_bisected_gamma(f, spec, cons)
    assert out.values.tobytes() == ref.values.tobytes()


def test_ode_force_root_is_stationary():
    spec = entropy_spec()
    m1 = math.pi
    e_root = math.log(TWO_PI * SQRT_TWO_PI / m1)
    assert ode_force(spec, m1, e_root) == pytest.approx(0.0, abs=1e-15)
    g = make_grid(64, 16, 6.0)
    r = ode_profile_solve(g, spec, m1, e_root)
    assert r.defect == 0.0
    assert np.all(r.potential.values == 0.0)


def test_ode_profile_reproduces_converged_potential():
    g = make_grid(128, 128, 6.0)
    spec = entropy_spec()
    m1 = 4.0 * math.pi
    st = self_consistent_solve(
        spec, ConstraintSet(m1=m1), seed_potential(g, 0.5), tol=1e-12,
        max_iter=5000,
    )
    psi_min = float(st.potential.values.min()) - st.multipliers.lam
    r = ode_profile_solve(g, spec, m1, psi_min, theta_anchor=math.pi)
    assert r.defect <= 5e-5
    gap = float(np.max(np.abs(r.potential.values - st.potential.values)))
    assert gap <= 5e-5


def test_ode_defect_improves_under_refinement():
    spec = entropy_spec()
    m1 = 4.0 * math.pi
    psi_min = -2.2666  # near the admissible orbit, not exactly on it
    defects = []
    for n in (128, 256):
        g = make_grid(n, 16, 6.0)
        defects.append(ode_profile_solve(g, spec, m1, psi_min, math.pi).defect)
    # the frozen reference orbit converges; an off-orbit psi_min keeps a
    # finite defect, so compare trajectories through the conserved energy
    assert defects[1] == pytest.approx(defects[0], rel=5e-3)


def test_ode_energy_is_conserved_along_the_march():
    m1 = 4.0 * math.pi
    # power:2 balances its background at psi = -1.651; starting half a unit
    # below keeps the orbit under psi = -1.12, on the power branch
    for spec, psi_min in ((entropy_spec(), 2.2666), (power_spec(2.0), -2.151)):
        drifts = []
        for n in (128, 256):
            g = make_grid(n, 16, 6.0)
            r = ode_profile_solve(g, spec, m1, psi_min, theta_anchor=math.pi)
            anchor = int(round(math.pi / g.d_theta)) % n
            offset = psi_min - r.potential.values[anchor]
            psi = r.potential.values + offset
            energy = 0.5 * r.potential.derivative ** 2 - ode_force_primitive(
                spec, m1, psi
            )
            drifts.append(float(np.max(np.abs(energy - energy[0]))))
        assert drifts[0] <= 1e-5
        # fourth-order integrator: halving the step cuts the drift ~16x
        assert drifts[1] <= drifts[0] / 8.0


def test_ode_blowup_raises():
    g = make_grid(64, 16, 6.0)
    with pytest.raises(SolverAbort):
        ode_profile_solve(g, entropy_spec(), 0.5, -200.0)
