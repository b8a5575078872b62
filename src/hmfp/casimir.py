"""Convex generators of the conserved Casimir integrals.

Two builtin families cover the steady-state constructions: the entropy
generator j(t) = t*log(t), which drives Maxwell-Boltzmann profiles through
its exponential inverse, and the power generators j(t) = t**p with p > 1,
whose inverse derivative is a positive part raised to 1/(p-1).  Only the
power family has j'(0) = 0 and the power bound t*j'(t)/j(t) = p that the
two-constraint solves need, so those solvers check the family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ENTROPY = "entropy"
POWER = "power"


@dataclass(frozen=True)
class CasimirSpec:
    """One convex generator with its derived maps.

    Attributes:
        family: "entropy" or "power".
        p: growth exponent for the power family (None for entropy).
    """

    family: str
    p: float | None

    def j(self, t):
        """Evaluate the generator; j(0) = 0 by continuity in both families."""
        t = np.asarray(t, dtype=float)
        if self.family == POWER:
            out = t ** self.p
        else:
            # t*log(t) where t > 0; zero, negative and nan cells stay +0.0
            mask = t > 0.0
            out = np.zeros_like(t)
            np.log(t, out=out, where=mask)
            np.multiply(out, t, out=out, where=mask)
        return out if out.ndim else float(out)

    def j_prime(self, t):
        """Evaluate j'; entropy requires t > 0."""
        t = np.asarray(t, dtype=float)
        if self.family == POWER:
            out = self.p * t ** (self.p - 1.0)
        else:
            out = np.log(t) + 1.0
        return out if out.ndim else float(out)

    def j_double_prime(self, t):
        """Evaluate j''; strictly positive on (0, inf) in both families."""
        t = np.asarray(t, dtype=float)
        if self.family == POWER:
            out = self.p * (self.p - 1.0) * t ** (self.p - 2.0)
        else:
            out = 1.0 / t
        return out if out.ndim else float(out)

    def inverse_derivative(self, s):
        """Evaluate (j')^{-1}; exp(s - 1) for entropy, (s/p)^{1/(p-1)} for power."""
        s = np.asarray(s, dtype=float)
        if self.family == POWER:
            out = (s / self.p) ** (1.0 / (self.p - 1.0))
        else:
            out = np.exp(s - 1.0)
        return out if out.ndim else float(out)


def entropy_spec() -> CasimirSpec:
    """The t*log(t) generator (superlinear, but j'(0) diverges)."""
    return CasimirSpec(family=ENTROPY, p=None)


def power_spec(p: float) -> CasimirSpec:
    """The t**p generator for p > 1."""
    p = float(p)
    if not p > 1.0:
        raise ValueError(f"power exponent must exceed 1, got {p}")
    return CasimirSpec(family=POWER, p=p)


def parse_casimir(text: str) -> CasimirSpec:
    """Parse the config syntax "entropy" or "power:<p>" into a spec.

    Args:
        text: the raw config value, surrounding whitespace ignored.

    Returns:
        The corresponding CasimirSpec.

    Raises:
        ValueError: unknown family, malformed exponent, or p <= 1.
    """
    text = text.strip()
    if text == ENTROPY:
        return entropy_spec()
    if text.startswith(POWER + ":"):
        body = text[len(POWER) + 1 :]
        try:
            p = float(body)
        except ValueError:
            raise ValueError(f"malformed power exponent: {body!r}") from None
        return power_spec(p)
    raise ValueError(f'casimir must be "entropy" or "power:<p>", got {text!r}')

