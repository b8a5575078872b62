"""Convex Casimir generators and their derived maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hmfp.casimir import POWER_MIN_EXPONENT, entropy_spec, parse_casimir, power_spec


def test_entropy_generator_values():
    spec = entropy_spec()
    assert spec.family == "entropy"
    assert spec.j(0.0) == 0.0
    assert spec.j(1.0) == 0.0
    assert spec.j(math.e) == pytest.approx(math.e, rel=1e-15)
    assert spec.j_prime(1.0) == pytest.approx(1.0)
    assert spec.j_double_prime(2.0) == pytest.approx(0.5)


def test_power_generator_values():
    spec = power_spec(3.0)
    assert spec.family == "power"
    assert spec.p == 3.0
    assert spec.j(0.0) == 0.0
    assert spec.j(2.0) == 8.0
    assert spec.j_prime(2.0) == 12.0
    assert spec.j_double_prime(2.0) == 12.0


def test_inverse_derivative_round_trip():
    rng = np.random.default_rng(20)
    t = rng.uniform(0.05, 5.0, size=200)
    for spec in (entropy_spec(), power_spec(2.0), power_spec(3.5)):
        s = spec.j_prime(t)
        back = spec.inverse_derivative(s)
        assert np.max(np.abs(back - t) / t) <= 1e-12


def test_inverse_derivative_closed_forms():
    assert entropy_spec().inverse_derivative(1.0) == pytest.approx(1.0)
    assert entropy_spec().inverse_derivative(0.0) == pytest.approx(math.exp(-1.0))
    # (s/p)^(1/(p-1)) for the power family
    assert power_spec(2.0).inverse_derivative(4.0) == pytest.approx(2.0)
    assert power_spec(3.0).inverse_derivative(12.0) == pytest.approx(2.0)


def test_generators_are_convex():
    rng = np.random.default_rng(21)
    t = rng.uniform(1e-3, 10.0, size=100)
    for spec in (entropy_spec(), power_spec(1.5), power_spec(4.0)):
        assert np.all(spec.j_double_prime(t) > 0.0)


def test_h3_ratio_constant_for_power():
    spec = power_spec(2.5)
    samples = np.linspace(0.01, 20.0, 400)
    ratio = samples * spec.j_prime(samples) / spec.j(samples)
    assert ratio.min() == pytest.approx(2.5, rel=1e-12)
    assert ratio.max() == pytest.approx(2.5, rel=1e-12)


def test_parse_casimir_forms():
    assert parse_casimir("entropy").family == "entropy"
    assert parse_casimir("power:2").p == 2.0
    assert parse_casimir("power:1.5").p == 1.5
    for bad in ("power:1", "power:0.5", "power:", "boltzmann", "power:x"):
        with pytest.raises(ValueError):
            parse_casimir(bad)


def test_power_exponent_must_be_finite_and_keep_the_coefficients_finite():
    assert parse_casimir("power:%r" % POWER_MIN_EXPONENT).p == POWER_MIN_EXPONENT
    for bad in ("power:inf", "power:nan", "power:1.001", "power:1.0059"):
        with pytest.raises(ValueError, match="power exponent must be finite"):
            parse_casimir(bad)


def test_entropy_j_continuous_at_zero():
    spec = entropy_spec()
    t = np.array([0.0, 1e-300, 1e-12, 1e-6])
    vals = spec.j(t)
    assert vals[0] == 0.0
    assert np.all(np.isfinite(vals))
    # t log t tends to zero from below
    assert vals[2] < 0.0


def _entropy_j_double_where(t):
    """The entropy j as it was first written, the reference for the bytes."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(t > 0.0, t * np.log(np.where(t > 0.0, t, 1.0)), 0.0)
    return out if out.ndim else float(out)


edge_values = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308,
     -1.0, math.nan, math.inf, -math.inf])


@settings(max_examples=200, deadline=None)
@given(t=edge_values | arrays(np.float64, array_shapes(min_dims=0, max_dims=2),
                              elements=edge_values))
def test_entropy_j_matches_the_double_where_bitwise(t):
    with np.errstate(over="ignore"):
        got, want = entropy_spec().j(t), _entropy_j_double_where(t)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
