"""Entropy accumulation: tradeoff functions, second-order terms, and the
certified smooth min-entropy of a full protocol run.

The per-round entropy bound enters as a tradeoff function of the observed
test-round winning frequency.  Accumulation over n rounds pays a second-order
penalty proportional to sqrt(n) and, for the full certification, additional
fixed costs from isolating the generation-round outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Tuple

from .bound import BoundConfig, entropy_bound_combined
from .numerics import OptimizerConfig

__all__ = [
    "OUTCOME_ALPHABET_SIZE",
    "RATE_OPTIMIZER",
    "RATE_BOUND_CONFIG",
    "EatParams",
    "TradeoffCurve",
    "TradeoffFunction",
    "tradeoff_value",
    "second_order_coefficient",
    "certified_min_entropy",
    "accumulation_rate",
    "asymptotic_rate",
    "BETA_GRID",
    "CUTOFF_GRID",
    "optimize_rate",
]

# Joint outcome alphabet of one round: 3 preimage outcomes times 2 equation
# outcomes.
OUTCOME_ALPHABET_SIZE = 6

# Secant width for the affine-cap slope.  The underlying curve lifts off only
# within ~1e-13 of winning probability 1, so an infinitesimal step would give
# either zero or an astronomically large slope; a finite backward secant keeps
# the cap below the curve while giving usable second-order coefficients.
_SLOPE_STEP = 1e-2

# Rate sweeps evaluate the combined bound thousands of times; a lighter
# optimizer keeps them fast while staying deterministic.
RATE_OPTIMIZER = OptimizerConfig(grid_points=301, refine_iterations=40, tolerance=1e-9)
RATE_BOUND_CONFIG = BoundConfig(optimizer=RATE_OPTIMIZER)

# The mixing ratios and tradeoff cutoffs that rate searches try.  The curve is
# zero except extremely close to 1, so the cutoffs concentrate there; 1.0
# itself uses the un-truncated curve.
BETA_GRID = (0.01, 0.02, 0.045, 0.09, 0.15)
CUTOFF_GRID = (0.9, 0.99, 1.0 - 1e-13, 1.0)

# Largest gap tradeoff_value accepts between a distribution's test fraction
# and the tradeoff function's gamma.
_GAMMA_TOL = 1e-6


@dataclass(frozen=True)
class EatParams:
    n: int
    gamma: float
    beta: float
    eps_s: float
    p_omega: float
    omega_exp: float
    delta_est: float
    xi_slack: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma outside (0, 1]")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta outside (0, 1)")
        if not 0.0 < self.eps_s < 1.0:
            raise ValueError("eps_s outside (0, 1)")
        if not 0.0 < self.p_omega <= 1.0:
            raise ValueError("p_omega outside (0, 1]")
        if not 0.0 <= self.omega_exp <= 1.0:
            raise ValueError("omega_exp outside [0, 1]")
        if not 0.0 < self.delta_est < 1.0:
            raise ValueError("delta_est outside (0, 1)")
        if self.xi_slack < 0.0:
            raise ValueError("xi_slack must be non-negative")

    @property
    def threshold(self) -> float:
        """Per-test-round winning threshold implied by the abort rule."""
        return self.omega_exp - self.delta_est / self.gamma


class TradeoffCurve:
    """The un-truncated per-round rate (entropy_bound_combined(omega) - xi)
    * (1 - beta gamma) under RATE_BOUND_CONFIG, each value computed once per
    instance.

    Tradeoff functions that differ only in their cutoff can share one curve.
    The stored values live as long as the instance: share it within one
    computation, not across independent requests.
    """

    def __init__(self, beta: float, gamma: float, xi_slack: float = 0.0):
        if not 0.0 < beta < 1.0:
            raise ValueError("beta outside (0, 1)")
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma outside (0, 1]")
        self.beta = beta
        self.gamma = gamma
        self.xi_slack = xi_slack
        self._values: Dict[float, float] = {}

    def __call__(self, omega: float) -> float:
        if omega not in self._values:
            g = entropy_bound_combined(omega, self.beta, RATE_BOUND_CONFIG)
            self._values[omega] = (g - self.xi_slack) * (
                1.0 - self.beta * self.gamma
            )
        return self._values[omega]


class TradeoffFunction:
    """Per-round entropy rate as a function of the test winning frequency.

    The underlying curve is (entropy_bound_combined(omega) - xi) * (1 - beta
    gamma); above the cutoff the curve is replaced by its tangent so that the
    slope stays bounded (the curve itself steepens without limit near 1).
    Tradeoff functions built on one curve share its values.
    """

    def __init__(self, curve: TradeoffCurve, omega_0: float):
        if not 0.5 < omega_0 <= 1.0:
            raise ValueError("cutoff outside (1/2, 1]")
        self.gamma = curve.gamma
        self.omega_0 = omega_0
        # The un-truncated curve, called as self.base(omega).
        self.base = curve
        self.cutoff_value = self.base(omega_0)
        # Backward secant: a forward or central difference would cross the
        # cutoff and overestimate the cap, breaking its validity as a lower
        # bound on the curve above omega_0.
        h = _SLOPE_STEP
        self.slope = (self.cutoff_value - self.base(omega_0 - h)) / h

    def value(self, omega: float) -> float:
        """The truncated curve: affine continuation above the cutoff."""
        if omega <= self.omega_0:
            return self.base(omega)
        return self.cutoff_value + self.slope * (omega - self.omega_0)

    @property
    def gradient_sup(self) -> float:
        """Sup norm of the gradient over distributions on {bot, 0, 1}; the
        frequency argument is p(1)/gamma, so the omega-slope divides by
        gamma."""
        return abs(self.slope) / self.gamma


def tradeoff_value(p: Tuple[float, float, float], tf: TradeoffFunction) -> float:
    """Evaluate the tradeoff function at a distribution (p_bot, p_0, p_1)
    over the test-outcome alphabet."""
    p_bot, p_zero, p_one = p
    if min(p) < -1e-12 or abs(p_bot + p_zero + p_one - 1.0) > 1e-9:
        raise ValueError("not a distribution over the 3-letter alphabet")
    test_fraction = 1.0 - p_bot
    if test_fraction <= 0.0:
        raise ValueError("distribution has no test rounds; frequency undefined")
    if abs(test_fraction - tf.gamma) > _GAMMA_TOL:
        raise ValueError(
            f"test fraction {test_fraction} inconsistent with gamma {tf.gamma}"
        )
    return tf.value(p_one / test_fraction)


def second_order_coefficient(
    alphabet_size: int, grad_ceil: int, eps: float, p_omega: float
) -> float:
    """Coefficient of the sqrt(n) penalty in the accumulation bound."""
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be positive")
    if grad_ceil < 0:
        raise ValueError("grad_ceil must be non-negative")
    prod = eps * p_omega
    if not 0.0 < prod < 1.0:
        raise ValueError(f"eps * p_omega = {prod} outside (0, 1)")
    return (
        2.0
        * (math.log2(1.0 + 2.0 * alphabet_size) + grad_ceil)
        * math.sqrt(1.0 - 2.0 * math.log2(prod))
    )


def certified_min_entropy(params: EatParams, tf: TradeoffFunction) -> float:
    """Certified smooth min-entropy of the generation-round outputs after a
    non-aborting run, taken at the abort rule's threshold params.threshold.

    The bound isolates the generation outputs by subtracting the worst-case
    test-round contribution (one bit per test round, i.e. the constant gamma
    per round) and pays fixed smoothing costs and a chain-rule penalty.
    """
    # EatParams keeps omega_exp <= 1 and delta_est > 0, so the threshold is
    # never above 1.
    if params.threshold < 0.5:
        raise ValueError(
            f"winning threshold {params.threshold} outside the certifiable "
            "range [1/2, 1]"
        )
    eps4 = params.eps_s / 4.0
    mu_min = second_order_coefficient(
        OUTCOME_ALPHABET_SIZE, math.ceil(tf.gradient_sup), eps4, params.p_omega
    )
    rate = tf.value(params.threshold) - params.xi_slack - params.gamma
    total = params.n * rate - mu_min * math.sqrt(params.n)
    total -= 2.0 * math.log2(7.0) * math.sqrt(
        1.0 - 2.0 * math.log2(eps4 * params.p_omega)
    )
    chain = 3.0 * math.log2(1.0 - math.sqrt(1.0 - eps4 * eps4))
    # chain is negative; adding it subtracts a penalty.
    total += chain
    return max(0.0, total)


def accumulation_rate(
    tf: TradeoffFunction,
    omega: float,
    n: float,
    eps_s: float,
    p_omega: float,
) -> float:
    """First-stage accumulation rate per round: tradeoff value minus the
    second-order penalty spread over n rounds.  n may be math.inf."""
    value = tf.value(omega)
    if math.isinf(n):
        return max(0.0, value)
    mu = second_order_coefficient(
        OUTCOME_ALPHABET_SIZE, math.ceil(tf.gradient_sup), eps_s, p_omega
    )
    return max(0.0, value - mu / math.sqrt(n))


def asymptotic_rate(omega: float, curves: Iterable[TradeoffCurve]) -> float:
    """Infinite-n rate: best value of the un-truncated curves (one per beta)
    at omega, floored at zero."""
    best = 0.0
    for curve in curves:
        best = max(best, curve(omega))
    return best


def optimize_rate(params: EatParams) -> Tuple[float, float, float]:
    """Search BETA_GRID x CUTOFF_GRID for the beta and tradeoff cutoff that
    maximize the certified entropy per round; returns (beta, cutoff, rate).
    Deterministic: ties keep the earlier grid point."""
    best = (BETA_GRID[0], CUTOFF_GRID[0], 0.0)
    if params.threshold < 0.5:
        return best
    for beta in BETA_GRID:
        # The cutoffs of one beta share its curve.
        curve = TradeoffCurve(beta, params.gamma, params.xi_slack)
        trial = replace(params, beta=beta)
        for omega_0 in CUTOFF_GRID:
            tf = TradeoffFunction(curve, omega_0)
            rate = certified_min_entropy(trial, tf) / params.n
            if rate > best[2]:
                best = (beta, omega_0, rate)
    return best
